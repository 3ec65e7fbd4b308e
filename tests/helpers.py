"""Shared test utilities, including an independent brute-force simulator used
as an oracle against the tensor-contraction engine."""
from __future__ import annotations

import numpy as np

from vdcut.benchmarks import maxcut_hamiltonian, real_amplitudes, ring_problem
from vdcut.circuit import MEASURE, Circuit, Gate, gate_matrix
from vdcut.noise import NoiseModel
from vdcut.runner import Execution
from vdcut.simulate import _gate_superop
from vdcut.vd import build_vd_circuit, parity_groups


def embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Expand a 1- or 2-qubit unitary to the full 2^n space by explicit kron
    and index permutation (deliberately different from the engine's
    tensor-contraction path)."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest
    big = np.kron(u, np.eye(2 ** (n - k)))
    # big acts on (qubits..., rest...); permute back to 0..n-1
    perm = np.argsort(order)
    t = big.reshape((2,) * (2 * n))
    t = np.transpose(t, list(perm) + [n + p for p in perm])
    return t.reshape(2 ** n, 2 ** n)


def full_unitary(circuit: Circuit) -> np.ndarray:
    """Whole-circuit unitary built gate by gate with explicit embedding."""
    u = np.eye(2 ** circuit.width, dtype=complex)
    for g in circuit.ops:
        if g.kind == MEASURE:
            raise ValueError("no unitary for measuring circuits")
        u = embed(gate_matrix(g), g.qubits, circuit.width) @ u
    return u


def statevector(circuit: Circuit) -> np.ndarray:
    psi = np.zeros(2 ** circuit.width, dtype=complex)
    psi[0] = 1.0
    return full_unitary(circuit) @ psi


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random mixed state (complex Ginibre)."""
    d = 2 ** n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_circuit(n: int, n_gates: int, rng: np.random.Generator,
                   two_qubit_prob: float = 0.45) -> Circuit:
    """Random measureless circuit over RY/RZ/H/X/CNOT."""
    ops: list[Gate] = []
    from vdcut.circuit import cnot, h, ry, rz, x

    for _ in range(n_gates):
        if n >= 2 and rng.random() < two_qubit_prob:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(cnot(int(a), int(b)))
        else:
            q = int(rng.integers(n))
            kind = rng.integers(4)
            theta = float(rng.uniform(-np.pi, np.pi))
            ops.append([ry(theta, q), rz(theta, q), h(q), x(q)][kind])
    return Circuit(n, tuple(ops))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between unitaries up to global phase."""
    d = np.trace(u.conj().T @ v)
    dim = u.shape[0]
    return float(abs(abs(d) - dim))


def reference_evolve(circuit: Circuit, noise: NoiseModel | None = None,
                     ideal_tags: tuple[str, ...] = ("xtalk",),
                     initial: np.ndarray | None = None) -> np.ndarray:
    """Density matrix after ``circuit``: per gate one transpose, reshape and
    ``S @ tt`` into a fresh array, the kernel that evolve's two reused
    buffers must reproduce byte for byte."""
    n = circuit.width
    if initial is None:
        initial = np.zeros((2 ** n, 2 ** n), dtype=complex)
        initial[0, 0] = 1.0
    tensor = initial.reshape((2,) * (2 * n))
    for g in circuit.ops:
        S = _gate_superop(g, noise, g.tag in ideal_tags)
        qs = sorted(g.qubits)
        axes = qs + [n + q for q in qs]
        perm = axes + [a for a in range(2 * n) if a not in axes]
        tt = np.transpose(tensor, perm).reshape(2 ** len(axes), -1)
        tensor = np.transpose((S @ tt).reshape((2,) * (2 * n)), np.argsort(perm))
    return tensor.reshape(2 ** n, 2 ** n)


def copies_register(n: int, reps: int = 2) -> list[Execution]:
    """An experiment's copies register for the ring-``n`` problem without
    sampling: per parity group, the noiseless-diag reference and the ZNE
    scales 1, 3 and 5."""
    orig = real_amplitudes(n, reps, "circular", np.linspace(0.1, 1.3, n * (reps + 1)))
    executions = []
    for group in parity_groups(maxcut_hamiltonian(ring_problem(n))):
        vd = build_vd_circuit(orig, group.gates())
        executions += [Execution(vd, ideal_diag=True)] + [
            Execution(vd, scale=scale) for scale in (1, 3, 5)]
    return executions
