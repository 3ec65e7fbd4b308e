"""Shared test utilities, including an independent brute-force simulator used
as an oracle against the tensor-contraction engine."""
from __future__ import annotations

import numpy as np

from vdcut.benchmarks import maxcut_hamiltonian, real_amplitudes, ring_problem
from vdcut.circuit import Circuit, Gate, PauliObservable, gate_matrix
from vdcut.cutting import (
    READ_BASES,
    DiagonalSimulationCache,
    cut_executions,
    pairwise_distribution,
)
from vdcut.noise import NoiseModel
from vdcut.runner import Execution, run_circuits
from vdcut.simulate import Distribution, FusedCircuit, PauliState
from vdcut.transpile import CouplingMap
from vdcut.vd import ParityGroup, build_vd_circuit, parity_groups


def distribution(probs: dict[str, float], width: int) -> Distribution:
    """The ``width``-bit distribution with the given outcome probabilities."""
    p = np.zeros(2 ** width)
    for outcome, prob in probs.items():
        p[int(outcome, 2)] = prob
    return Distribution(width, p)


def as_dict(dist: Distribution) -> dict:
    """The nonzero entries of a distribution, keyed by outcome."""
    return {format(i, f"0{dist.width}b"): p.item() for i, p in enumerate(dist.probs) if p}


def ground_state(width: int) -> np.ndarray:
    """The density matrix |0...0><0...0| on ``width`` qubits."""
    m = np.zeros((2 ** width, 2 ** width), dtype=complex)
    m[0, 0] = 1.0
    return m


def z_string(width: int, qubits, coeff: float = 1.0) -> PauliObservable:
    """``coeff`` times the product of Z on ``qubits``."""
    letters = ["I"] * width
    for q in qubits:
        letters[q] = "Z"
    return PauliObservable(((coeff, "".join(letters)),))


def is_edge(cmap: CouplingMap, a: int, b: int) -> bool:
    return tuple(sorted((a, b))) in cmap.edges


def assert_gates_as_checked(circuit: Circuit) -> None:
    """Every gate of ``circuit`` is what a checked build of its fields
    gives: plain-int qubits, a float or no angle, and within the width."""
    assert type(circuit.width) is int
    for g in circuit.ops:
        assert Gate(g.kind, g.qubits, g.angle, g.tag) == g
        assert all(type(q) is int for q in g.qubits), g
        assert g.angle is None or type(g.angle) is float, g
        assert max(g.qubits) < circuit.width, g


def eigen_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvectors of a density matrix."""
    vals, vecs = np.linalg.eigh(rho)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def dominant_eigenstate_expectation(rho: np.ndarray, obs: PauliObservable) -> float:
    _, vecs = eigen_spectrum(rho)
    psi = vecs[:, 0]
    return float(np.real(psi.conj() @ obs.matrix() @ psi))


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def validate(m: np.ndarray, atol: float = 1e-10) -> None:
    """Assert that the matrix ``m`` is Hermitian, of unit trace and positive
    semidefinite."""
    assert np.abs(m - m.conj().T).max() <= atol, "not Hermitian"
    assert abs(np.trace(m) - 1.0) <= atol, "trace differs from 1"
    assert np.linalg.eigvalsh(m).min() >= -atol, "negative eigenvalue"


def apply_channel(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """Sum_i K_i rho K_i^dag."""
    return sum(K @ rho @ K.conj().T for K in kraus)


def thermal_relaxation_kraus(t1: float, t2: float, duration: float) -> list[np.ndarray]:
    """Kraus operators of amplitude damping to |0> with parameter
    1-exp(-d/T1), composed with pure dephasing chosen so that the combined
    coherence decay is exp(-d/T2)."""
    g = 1.0 - np.exp(-duration / t1)
    a0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    a1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    f = np.exp(duration / (2 * t1) - duration / t2)
    q = min(max((1.0 - f) / 2.0, 0.0), 0.5)
    p0 = np.sqrt(1 - q) * np.eye(2, dtype=complex)
    p1 = np.sqrt(q) * np.diag([1.0, -1.0]).astype(complex)
    return [p0 @ a0, p0 @ a1, p1 @ a0, p1 @ a1]


def fully_mixed_on(rho: np.ndarray, qubits, n: int) -> np.ndarray:
    """(Tr_qubits rho) tensored with the maximally mixed state on ``qubits``."""
    t = rho.reshape((2,) * (2 * n))
    for q in qubits:
        traced = np.trace(t, axis1=q, axis2=n + q)
        t = np.moveaxis(np.multiply.outer(traced, np.eye(2) / 2), [-2, -1], [q, n + q])
    return t.reshape(rho.shape)


def identity_group(width: int) -> ParityGroup:
    """A parity group that rotates nothing, so the cut method's fragments
    are cut from the bare circuit."""
    return ParityGroup((), PauliObservable(((1.0, "I" * width),)))


def pairwise(circuit: Circuit, noise: NoiseModel | None = None,
             cmap: CouplingMap | None = None,
             cache: DiagonalSimulationCache | None = None) -> list[Distribution]:
    """Each qubit pair's exact mitigated pairwise distribution, through the
    pieces the cut method runs: the circuit's :func:`cut_executions` under
    :func:`identity_group`, one batch, and :func:`pairwise_distribution` on
    each pair's X, Y and Z outputs."""
    records = run_circuits(cut_executions(circuit, [identity_group(circuit.width)], None, 0),
                           noise=noise, cmap=cmap).records
    cache = DiagonalSimulationCache() if cache is None else cache
    k = len(READ_BASES)
    return [pairwise_distribution([rec.output for rec in records[i:i + k]], None, cache)[0]
            for i in range(0, len(records), k)]


_PAULI_MATRICES = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])


def pauli_state(rho: np.ndarray) -> PauliState:
    """The Pauli coefficients Tr(P rho) of a 2^n x 2^n density matrix, one
    qubit's (row, column) pair at a time."""
    n = rho.shape[0].bit_length() - 1
    t = rho.reshape((2,) * (2 * n))
    t = np.transpose(t, [a for q in range(n) for a in (q, n + q)]).reshape((4,) * n)
    trace_with = _PAULI_MATRICES.transpose(0, 2, 1).reshape(4, 4)  # [P, (r, c)] = P[c, r]
    for _ in range(n):   # each step contracts the leading (row, column) axis
        t = np.tensordot(t, trace_with, axes=([0], [1]))
    assert np.abs(t.imag).max() < 1e-12, "not Hermitian"
    return PauliState(n, t.real)


def embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Expand a 1- or 2-qubit operator to the full 2^n space by explicit kron
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
    """Random circuit over RY/RZ/H/X/CNOT."""
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


def reference_kernel(fused: FusedCircuit, initial: np.ndarray | None = None) -> np.ndarray:
    """The ``(4,) * n`` Pauli coefficients after ``fused``'s blocks, per
    block one transpose into a fresh contiguous array (numpy may sum a
    product with a strided operand in another order), reshape and product
    into a fresh array: the rounding that evolve must reproduce byte for
    byte.  Evolve computes this way, in its two reused buffers, every block
    on spread qubits, on consecutive qubits with 4 trailing coefficients,
    or on the last qubits with fewer than 64 leading coefficients.  It
    computes every other block in qubit order, with no transpose.  The
    state starts in ``initial`` or in the ground state."""
    n = fused.width
    if initial is None:
        initial = np.zeros((4,) * n)
        initial[(slice(None, None, 3),) * n] = 1.0
    tensor = initial
    for block in fused.ops:
        qs = list(block.qubits)
        perm = qs + [a for a in range(n) if a not in qs]
        tt = np.ascontiguousarray(np.transpose(tensor, perm)).reshape(len(block.superop), -1)
        tensor = np.transpose((block.superop @ tt).reshape((4,) * n), np.argsort(perm))
    return tensor


def reference_evolve(circuit: Circuit, noise: NoiseModel | None = None,
                     initial: np.ndarray | None = None) -> np.ndarray:
    """Density matrix after ``circuit``, built from the channels' definitions
    on the full space rather than from the engine's: each gate's unitary,
    then (under ``noise``, unless it is an ``xtalk``-tagged crosstalk gate
    or a ``DIAG`` gate, which stay ideal) the depolarizing channel
    (1-p) rho + p (Tr_q rho) I/2^k on its qubits and thermal relaxation by
    :func:`thermal_relaxation_kraus` on each of them."""
    n = circuit.width
    rho = ground_state(n) if initial is None else initial
    for g in circuit.ops:
        u = embed(gate_matrix(g), g.qubits, n)
        rho = u @ rho @ u.conj().T
        if noise is None or g.tag == "xtalk" or g.kind == "DIAG":
            continue
        p, duration = ((noise.one_qubit_depol, noise.one_qubit_time) if len(g.qubits) == 1
                       else (noise.two_qubit_depol, noise.two_qubit_time))
        rho = (1 - p) * rho + p * fully_mixed_on(rho, g.qubits, n)
        kraus = thermal_relaxation_kraus(noise.t1, noise.t2, duration)
        for q in g.qubits:
            rho = apply_channel(rho, [embed(k, (q,), n) for k in kraus])
    return rho


def _register_circuit(n: int, reps: int) -> Circuit:
    return real_amplitudes(n, reps, "circular", np.linspace(0.1, 1.3, n * (reps + 1)))


def copies_register(n: int, reps: int = 2) -> list[Execution]:
    """An experiment's copies register for the ring-``n`` problem without
    sampling: per parity group, the noiseless-diag reference and the ZNE
    scales 1, 3 and 5."""
    orig = _register_circuit(n, reps)
    executions = []
    for group in parity_groups(maxcut_hamiltonian(ring_problem(n))):
        vd = build_vd_circuit(orig, group.gates())
        executions += [Execution(vd, ideal_diag=True)] + [
            Execution(vd, scale=scale) for scale in (1, 3, 5)]
    return executions


def single_register(n: int, reps: int = 2) -> list[Execution]:
    """An experiment's single-copy register for the ring-``n`` problem
    without sampling: the bare circuit, then per parity group each pair's X,
    Y and Z cut fragments."""
    orig = _register_circuit(n, reps)
    groups = parity_groups(maxcut_hamiltonian(ring_problem(n)))
    return [Execution(orig)] + cut_executions(orig, groups, None, 0)
