"""In-memory span tracing of ``vdcut``'s public functions, installed from
outside the package.

Every public function of a traced module is wrapped where its callers bound
it: ``vdcut.runner.evolve``, ``vdcut.benchmarks.evolve`` and
``vdcut.simulate.evolve`` all become the same wrapper, which records a span
named ``simulate.evolve``.  Functions look up module globals at call time, so
rebinding the names is enough; nothing under ``src/`` is edited, and
:meth:`Tracer.remove` restores every original binding.

``circuit`` (sub-millisecond helpers) and ``cli`` (a thin wrapper the
benchmark bypasses) are left unmeasured on purpose.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from types import FunctionType
from typing import Any, Callable, Hashable, Iterable, Sequence

TRACED_MODULES = ("benchmarks", "simulate", "runner", "transpile", "noise", "vd",
                  "zne", "cutting", "experiments", "sweep")

#: span name of the wrapped ``DiagonalSimulationCache.tensor`` method
DIAG_CACHE_SPAN = "cutting.DiagonalSimulationCache.tensor"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in Tracer.spans, -1 at the root
    pass_id: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of it and their durations add up."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def repeat_ratio(keys: Iterable[Hashable]) -> float:
    """Share of calls whose key already occurred at an earlier call (0 for
    no calls)."""
    seen: set = set()
    calls = repeats = 0
    for key in keys:
        calls += 1
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / calls if calls else 0.0


# ---------------------------------------------------------------------------
# probes: per-call counts taken from a call's arguments and result


def _gate_key(g) -> tuple:
    return (g.kind, g.qubits, g.angle,
            None if g.unitary is None else g.unitary.tobytes(), g.tag)


def run_circuit_key(circuit, noise=None, cmap=None, scale=1, ideal_diag=False) -> tuple:
    """Identity of the compiled execution of a ``run_circuit`` call: the same
    logical ops on the same device, noise, fold scale and ideal tags compile
    to, and evolve, the same circuit.  Shots and seed only change sampling."""
    return (tuple(_gate_key(g) for g in circuit.ops),
            None if noise is None else repr(noise),
            None if cmap is None else (cmap.n_qubits, cmap.edges),
            scale, ideal_diag)


def optimize_key(problem, ansatz, seed=0) -> tuple:
    """Identity of an ``optimize_parameters`` call: problem, ansatz and seed."""
    return (problem, ansatz, seed)


def _bind(fn: Callable) -> Callable[[tuple, dict], dict]:
    signature = inspect.signature(fn)

    def bound(args, kwargs):
        b = signature.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bound


def _probes(vdcut_modules: dict) -> dict[str, Callable[[tuple, dict, Any], dict]]:
    from vdcut.circuit import CNOT, RZZ, SWAP

    bind_run = _bind(vdcut_modules["runner"].run_circuit)
    bind_opt = _bind(vdcut_modules["benchmarks"].optimize_parameters)

    def run_circuit(args, kwargs, result):
        a = bind_run(args, kwargs)
        return {"key": run_circuit_key(a["circuit"], a["noise"], a["cmap"],
                                       a["scale"], a["ideal_diag"]),
                "ideal_diag": a["ideal_diag"]}

    def optimize(args, kwargs, result):
        a = bind_opt(args, kwargs)
        return {"key": optimize_key(a["problem"], a["ansatz"], a["seed"])}

    def evolve(args, kwargs, result):
        circuit = args[0] if args else kwargs["circuit"]
        return {"width": circuit.width, "ops": len(circuit.ops)}

    def estimate(args, kwargs, result):
        return {"den": result.denominator, "den_se": result.denominator_se}

    return {
        "runner.run_circuit": run_circuit,
        "benchmarks.optimize_parameters": optimize,
        "simulate.evolve": evolve,
        "transpile.route": lambda a, k, r: {"swaps": r.circuit.count(SWAP)},
        "transpile.decompose_to_basis": lambda a, k, r: {"cnots": r.count(CNOT)},
        "noise.insert_zz_crosstalk":
            lambda a, k, r: {"rzz_added": r.count(RZZ) - a[0].count(RZZ)},
        "zne.fold_diagonalizing": lambda a, k, r: {"ops_added": len(r.ops) - len(a[0].ops)},
        "vd.estimate_from_counts": estimate,
        "vd.estimate_from_distribution": estimate,
    }


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, probe) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced modules at every binding
        site in the ``vdcut`` package, plus the diagonal-simulation cache."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"vdcut.{m}") for m in TRACED_MODULES}
        probes = _probes(modules)
        wrappers: dict[int, Callable] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj, probes.get(name))
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == "vdcut" or n.startswith("vdcut.")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

        cache_cls = modules["cutting"].DiagonalSimulationCache
        tensor = cache_cls.tensor
        traced_tensor = self._wrap(DIAG_CACHE_SPAN, tensor, None)

        def tensor_with_hits(cache, unitary):
            hits, index = cache.hits, len(self.spans)
            out = traced_tensor(cache, unitary)
            self.spans[index].info = {"hit": cache.hits > hits}
            return out
        self._set(cache_cls, "tensor", tensor_with_hits)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
