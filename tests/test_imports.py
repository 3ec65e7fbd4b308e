"""Every module of the package (but its ``__init__``, which re-exports) and
of the tests uses each name it imports, each module of the compile
layer imports only the compile-layer modules below it, never the method
layer it serves, and nothing but the optimizer's workers imports
``scipy.optimize``."""
import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "vdcut").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = [tree] + [ast.parse(c.value, mode="eval")
                     for ann in _annotations(tree) if ann is not None
                     for c in ast.walk(ann)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for t in read for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom typing import Sequence\n"
              "from a import b, c\n"
              "def f(x: 'Sequence[int]') -> None:\n    return np.sum(c(x))\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


#: the circuit IR, noise, simulator and compile/run pipeline ...
COMPILE_LAYER = ("circuit", "noise", "simulate", "transpile", "zne", "runner")
#: ... and the methods, experiments and front ends built on them
METHOD_LAYER = ("vd", "cutting", "benchmarks", "experiments", "sweep", "cli")


def package_imports(source: str) -> list[str]:
    """The ``vdcut`` modules a module of the package imports from, relative
    or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(a.name for a in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("vdcut."):
                found.add(node.module.split(".")[1])
            elif node.module == "vdcut":
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("vdcut."))
    return sorted(found)


def test_package_imports_are_found():
    source = ("from . import vd\nfrom .circuit import DIAG\nfrom .sweep.x import y\n"
              "import numpy\nimport vdcut.cutting\nfrom vdcut.cli import main\n"
              "from vdcut import benchmarks\n")
    assert package_imports(source) == ["benchmarks", "circuit", "cli", "cutting",
                                       "sweep", "vd"]


@pytest.mark.parametrize("module", COMPILE_LAYER)
def test_compile_layer_imports_no_method_module(module):
    source = (ROOT / "src" / "vdcut" / f"{module}.py").read_text()
    assert set(package_imports(source)) & set(METHOD_LAYER) == set()


@pytest.mark.parametrize("module", COMPILE_LAYER)
def test_compile_layer_imports_only_the_modules_before_it(module):
    """Each compile-layer module stands on the ones listed before it, so
    the simulator, for one, knows nothing of routing or devices."""
    source = (ROOT / "src" / "vdcut" / f"{module}.py").read_text()
    below = COMPILE_LAYER[:COMPILE_LAYER.index(module)]
    assert set(package_imports(source)) <= set(below)


def module_level_imports(source: str) -> list[str]:
    """The modules a module imports when it is imported: every import but
    those inside a function body (class bodies run at import)."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_module_level_imports_are_found():
    source = ("import scipy\nfrom scipy import optimize\nfrom .circuit import DIAG\n"
              "try:\n    import scipy.linalg as la\nexcept ImportError:\n    pass\n"
              "class A:\n    import os\n"
              "def f():\n    from scipy.optimize import minimize\n")
    assert module_level_imports(source) == ["os", "scipy", "scipy", "scipy.linalg",
                                            "scipy.optimize"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "vdcut").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_optimize(path):
    """``scipy.optimize`` costs about 0.4 s and 48 MiB to import; only the
    optimizer's worker interpreters need it."""
    found = module_level_imports(path.read_text())
    assert [m for m in found if m.split(".")[:2] == ["scipy", "optimize"]] == []


def test_fixed_parameter_experiment_never_imports_scipy_optimize():
    script = textwrap.dedent("""
        import sys
        import vdcut
        from vdcut.experiments import ExperimentConfig, run_experiment
        run_experiment(ExperimentConfig(
            problem=vdcut.ring_problem(2), reps=1, noise="basic", shots=200, seed=3,
            coupling_map="linear", out="exp", parameters=(0.1, 0.2, 0.3, 0.4)))
        print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120, check=True)
    assert out.stdout.strip() == "[]"
