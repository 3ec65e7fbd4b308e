"""MaxCut benchmark construction: problem graphs, the cut-counting
Hamiltonian, the hardware-efficient RY/CNOT ansatz, and noiseless parameter
optimization.

The optimizer's restarts run in worker interpreters (see
:func:`optimize_parameters`), and only the workers import
``scipy.optimize``: importing this module, or ``vdcut``, does not.
"""
from __future__ import annotations

import math
import operator
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import CNOT, RY, Circuit, CircuitError, Gate, PauliObservable
from .simulate import admit, evolve, expectation


@dataclass(frozen=True)
class MaxCutProblem:
    """Undirected graph whose maximum cut is sought."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        seen = set()
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise CircuitError(f"self-loop on vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise CircuitError(f"edge ({a},{b}) outside vertex range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise CircuitError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))


def ring_problem(n: int) -> MaxCutProblem:
    """Cycle graph C_n, the default benchmark instance (a single edge for
    n = 2, where the cycle degenerates)."""
    if n < 2:
        raise CircuitError("ring problems need at least two vertices")
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    return MaxCutProblem(n, tuple(sorted(edges)))


def maxcut_hamiltonian(problem: MaxCutProblem) -> PauliObservable:
    """Cut-counting Hamiltonian: sum over edges of (1 - Z_i Z_j) / 2."""
    identity = "I" * problem.n
    terms: list[tuple[float, str]] = []
    for a, b in problem.edges:
        letters = ["I"] * problem.n
        letters[a] = letters[b] = "Z"
        terms.append((0.5, identity))
        terms.append((-0.5, "".join(letters)))
    return PauliObservable(tuple(terms))


def _entangling_pairs(n: int, pattern: str) -> list[tuple[int, int]]:
    if pattern == "circular":
        # the wrap gate comes first; on two qubits the wrap and the chain
        # gate are the same unordered pair, so only the wrap survives
        pairs = [((n - 1) % n, 0)] + [(i, i + 1) for i in range(n - 1)]
        seen: set[tuple[int, int]] = set()
        out = []
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                out.append((a, b))
        return out
    if pattern == "linear":
        return [(i, i + 1) for i in range(n - 1)]
    if pattern == "full":
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    raise CircuitError(f"unknown entanglement pattern {pattern!r}")


def parameter_count(n: int, reps: int) -> int:
    return n * (reps + 1)


def real_amplitudes(n: int, reps: int = 2, entanglement: str = "circular",
                    parameters=None) -> Circuit:
    """Alternating RY layers and CNOT entangling layers: ``reps + 1`` rotation
    layers of ``n`` angles each, interleaved with ``reps`` entangling layers.
    ``parameters`` defaults to zeros (useful for structural studies).

    The parameter vector is checked once, for its shape and for finite
    angles; the gates built from it are then not checked one by one."""
    n = operator.index(n)
    if n < 1:
        raise CircuitError("ansatz needs at least one qubit")
    if reps < 0:
        raise CircuitError(f"reps must be >= 0, got {reps}")
    count = parameter_count(n, reps)
    if parameters is None:
        parameters = np.zeros(count)
    parameters = np.asarray(parameters, dtype=float)
    if parameters.shape != (count,):
        raise CircuitError(f"expected {count} parameters, got {parameters.shape}")
    pairs = _entangling_pairs(n, entanglement)
    angles = parameters.tolist()
    if not all(map(math.isfinite, angles)):
        bad = [a for a in angles if not math.isfinite(a)]
        raise CircuitError(f"ansatz parameters must be finite, got {bad}")
    derived = Gate._derived
    entangling = [derived(CNOT, pair, None, "") for pair in pairs] if n >= 2 else []
    ops: list[Gate] = []
    k = 0
    for layer in range(reps + 1):
        for q in range(n):
            ops.append(derived(RY, (q,), angles[k], ""))
            k += 1
        if layer < reps:
            ops += entangling
    return Circuit(n, tuple(ops))


@dataclass(frozen=True)
class AnsatzSpec:
    """Rebuildable ansatz description for optimization loops."""

    n: int
    reps: int = 2
    entanglement: str = "circular"

    def circuit(self, parameters) -> Circuit:
        return real_amplitudes(self.n, self.reps, self.entanglement, parameters)

    @property
    def parameter_count(self) -> int:
        return parameter_count(self.n, self.reps)


#: environment variables that set the BLAS and OpenMP thread counts
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: what a worker interpreter runs (see :func:`_restart_worker`)
_WORKER = "from vdcut.benchmarks import _restart_worker; _restart_worker()"


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cobyla_restarts(problem: MaxCutProblem, ansatz: AnsatzSpec, maxiter: int,
                     starts: list[np.ndarray]) -> list[tuple[float, np.ndarray]]:
    """``(fun, x)`` of one COBYLA run from each start, in order."""
    from scipy.optimize import minimize

    hamiltonian = maxcut_hamiltonian(problem)

    def negative_cut(theta: np.ndarray) -> float:
        return -expectation(evolve(ansatz.circuit(theta)), hamiltonian)

    found = []
    for theta0 in starts:
        res = minimize(negative_cut, theta0, method="COBYLA",
                       options={"maxiter": maxiter, "rhobeg": 0.6, "tol": 1e-8})
        found.append((res.fun, np.asarray(res.x, dtype=float)))
    return found


def _restart_worker() -> None:
    """Body of a worker interpreter: read ``(problem, ansatz, maxiter,
    starts)`` pickled on standard input, and write the pickled list of
    :func:`_cobyla_restarts` to standard output."""
    problem, ansatz, maxiter, starts = pickle.load(sys.stdin.buffer)
    pickle.dump(_cobyla_restarts(problem, ansatz, maxiter, starts), sys.stdout.buffer)


def _run_restarts(problem: MaxCutProblem, ansatz: AnsatzSpec, maxiter: int,
                  starts: list[np.ndarray]) -> list[tuple[float, np.ndarray]]:
    """:func:`_cobyla_restarts` of ``starts``, split over k = min(starts,
    usable CPUs) fresh interpreters: start i runs in worker i mod k.

    Each worker runs one BLAS thread (k workers with several threads each
    contend for the cores and run several times slower), and finds this
    ``vdcut`` first on its path.  Its standard error is not captured, so
    its warnings and traceback show; a worker that exits non-zero raises
    :class:`RuntimeError`.  No worker outlives the call."""
    k = min(len(starts), _usable_cpus())
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    package_dir = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_dir, env.get("PYTHONPATH"))))
    found: list = [None] * len(starts)
    workers: list[subprocess.Popen] = []
    try:
        for j in range(k):
            worker = subprocess.Popen([sys.executable, "-c", _WORKER], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            workers.append(worker)
            try:
                with worker.stdin:
                    pickle.dump((problem, ansatz, maxiter, starts[j::k]), worker.stdin)
            except BrokenPipeError:
                pass  # the worker already exited; its status is checked below
        for j, worker in enumerate(workers):
            out = worker.stdout.read()
            if worker.wait() != 0:
                raise RuntimeError(f"optimizer worker exited with status {worker.returncode}")
            found[j::k] = pickle.loads(out)
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            worker.stdout.close()
    return found


def optimize_parameters(problem: MaxCutProblem, ansatz: AnsatzSpec, seed: int = 0,
                        restarts: int = 6, maxiter: int = 400) -> np.ndarray:
    """Noiseless variational optimization of the cut value with a
    derivative-free linear-approximation optimizer (COBYLA), multi-started
    from a seeded generator; deterministic for a fixed seed.

    The inputs are checked here: an ansatz whose width is not the
    problem's, or a bad ansatz, raises :class:`CircuitError`, ``restarts``
    or ``maxiter`` below 1 raises :class:`ValueError`, and a width whose
    evolution would not fit in memory raises
    :class:`~vdcut.simulate.SimulationSizeError`.  All ``restarts`` start
    points are then drawn from the generator, in order, and the restarts
    run in parallel, in one worker interpreter per usable CPU (at most one
    per restart), each with a single BLAS thread.  Only the workers import
    ``scipy.optimize``, and their memory (about 80 MiB each) is not this
    process's.  The result is the first restart, in order, with the lowest
    objective value, so it is the same array, to the byte, as running the
    restarts one after another in this process."""
    if ansatz.n != problem.n:
        raise CircuitError(f"ansatz has {ansatz.n} qubits but the problem "
                           f"has {problem.n} vertices")
    if restarts < 1 or maxiter < 1:
        raise ValueError(f"restarts and maxiter must be >= 1, got {restarts} and {maxiter}")
    admit(ansatz.n, 2)
    ansatz.circuit(None)  # a bad reps or entanglement raises here, not in a worker
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(0.0, 2.0 * np.pi, size=ansatz.parameter_count)
              for _ in range(restarts)]
    best_val = np.inf
    best_theta = np.zeros(ansatz.parameter_count)
    for fun, theta in _run_restarts(problem, ansatz, maxiter, starts):
        if fun < best_val:
            best_val = fun
            best_theta = theta
    return best_theta
