"""MaxCut benchmark construction: problem graphs, the cut-counting
Hamiltonian, the hardware-efficient RY/CNOT ansatz, and noiseless parameter
optimization."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .circuit import CNOT, RY, Circuit, CircuitError, Gate, PauliObservable
from .simulate import evolve, expectation


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


def optimize_parameters(problem: MaxCutProblem, ansatz: AnsatzSpec, seed: int = 0,
                        restarts: int = 6, maxiter: int = 400) -> np.ndarray:
    """Noiseless variational optimization of the cut value with a
    derivative-free linear-approximation optimizer (COBYLA), multi-started
    from a seeded generator; deterministic for a fixed seed."""
    hamiltonian = maxcut_hamiltonian(problem)

    def negative_cut(theta: np.ndarray) -> float:
        dm = evolve(ansatz.circuit(theta))
        return -expectation(dm, hamiltonian)

    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_theta = np.zeros(ansatz.parameter_count)
    for _ in range(restarts):
        theta0 = rng.uniform(0.0, 2.0 * np.pi, size=ansatz.parameter_count)
        res = minimize(negative_cut, theta0, method="COBYLA",
                       options={"maxiter": maxiter, "rhobeg": 0.6, "tol": 1e-8})
        if res.fun < best_val:
            best_val = res.fun
            best_theta = np.asarray(res.x, dtype=float)
    return best_theta
