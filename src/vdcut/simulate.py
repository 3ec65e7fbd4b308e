"""Dense density-matrix simulation with configurable noise channels,
measurement distributions, readout error and sampling.

An evolution is a sequence of blocks, each one linear map over at most two
qubits, applied to the state tensor by one transpose and one matrix product
over the block's axes.  :func:`blocks` is the only code that turns gates
into blocks.  Without noise each gate is one complex superoperator block,
applied to the 2^n x 2^n density tensor.  Under noise every channel maps
Hermitian operators to Hermitian operators, so each gate's noisy channel is
built directly as its real Pauli-transfer matrix (Greenbaum,
arXiv:1509.02921), and the noisy state is its 4^n real Pauli coefficients
(:class:`PauliState`): half the bytes per pass of the complex density
tensor.  Complex numbers enter a noisy channel only in its unitary part.
:func:`fuse` groups the gates into blocks of one qubit or one pair, each the
product of its gates' Pauli-transfer matrices, so a noisy circuit makes one
full-tensor pass per block instead of one per gate.

An evolution holds two full-size buffers and reuses them for every block:
the block's axes are transposed to the front into buffer A, and the matrix
product writes buffer B, which the next block reads through a transposed
view.  The result is copied out of B into A, so no third tensor is
allocated.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .circuit import (
    _SWAP_MATRIX,
    DIAG,
    Circuit,
    Gate,
    PauliObservable,
    gate_matrix,
)
from .noise import CROSSTALK_TAG, NoiseModel

_NEGATIVE_PROB_FLOOR = -1e-10


class SimulationError(RuntimeError):
    """Raised on internal inconsistencies (e.g. significantly negative
    probabilities) that signal a simulator bug."""


class SimulationSizeError(ValueError):
    """Raised when a dense simulation would not fit in memory."""


# ---------------------------------------------------------------------------
# superoperator kernel


@lru_cache(maxsize=1024)
def _super_layout(ndim: int, axes: tuple[int, ...]):
    """Transpose that brings ``axes`` to the front and its inverse: one
    entry per gate placement and register size."""
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    return perm, tuple(int(a) for a in np.argsort(perm))


def _apply_super(tensor: np.ndarray, S: np.ndarray, axes: tuple[int, ...],
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply superoperator ``S`` over the given tensor axes (most significant
    first).  The transposed input is copied into buffer ``a`` and the product
    written to buffer ``b``, both contiguous and of ``tensor``'s shape;
    returns a view of ``b``.  ``tensor`` may be the previous call's view of
    ``b``, but not of ``a``."""
    perm, inverse = _super_layout(tensor.ndim, axes)
    np.copyto(a, np.transpose(tensor, perm))
    rows = S.shape[0]
    np.matmul(S, a.reshape(rows, -1), out=b.reshape(rows, -1))
    return np.transpose(b, inverse)


# ---------------------------------------------------------------------------
# gate channels


def _conjugation_super(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dag on the (row, column) index pair:
    ``np.kron(u, u.conj())``, built as the same elementwise products without
    kron's generic reshaping."""
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # I, X, Y, Z
_PAULI_IMAG_TOL = 1e-12


@lru_cache(maxsize=2)
def _pauli_change(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, T^-1)`` for ``k`` qubits: ``T`` maps a vectorized operator A
    (rows, then columns) to its coefficients Tr(P A), one per Pauli string P
    (most significant qubit first), and ``T^-1`` maps them back, as
    A = sum_P Tr(P A) P / 2^k."""
    ps = _PAULIS if k == 1 else np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS)
    ps = ps.reshape(4 ** k, 2 ** k, 2 ** k)
    return ps.transpose(0, 2, 1).reshape(4 ** k, -1), ps.reshape(4 ** k, -1).T / 2 ** k


def _pauli_transfer(S: np.ndarray, k: int) -> np.ndarray:
    """The real Pauli-transfer matrix ``T S T^-1`` of superoperator ``S`` on
    ``k`` qubits.  Raises :class:`SimulationError` when its imaginary part
    exceeds ``_PAULI_IMAG_TOL``: ``S`` does not map Hermitian operators to
    Hermitian operators, so it is no channel."""
    T, T_inv = _pauli_change(k)
    R = T @ S @ T_inv
    imag = float(np.abs(R.imag).max())
    if imag > _PAULI_IMAG_TOL:
        raise SimulationError(
            f"Pauli-transfer matrix has an imaginary part of {imag}: not Hermiticity-preserving")
    return np.ascontiguousarray(R.real)


def _relaxation_transfer(t1: float, t2: float, duration: float) -> np.ndarray:
    """Pauli-transfer matrix of thermal relaxation for ``duration``:
    amplitude damping to |0> with g = 1 - exp(-d/T1), and coherences that
    decay as exp(-d/T2): amplitude damping composed with the pure dephasing
    that supplies the rest of the coherence decay, a channel because
    :class:`NoiseModel` enforces T2 <= 2 T1."""
    g = 1.0 - np.exp(-duration / t1)
    c = np.exp(-duration / t2)
    return np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [g, 0, 0, 1 - g]])


def _gate_superop(gate, noise: NoiseModel | None, ideal: bool) -> np.ndarray:
    """The channel of ``gate`` on its qubits in ascending order.  Without
    noise it is the complex superoperator of the gate's unitary.  Under
    ``noise`` it is a real Pauli-transfer matrix: the unitary's, then (unless
    ``ideal``) the depolarizing channel on the gate's qubits, then thermal
    relaxation for the gate's duration on each of them."""
    u = gate_matrix(gate)
    k = len(gate.qubits)
    # canonicalize to ascending qubit order, the order evolve applies it in
    if k == 2 and gate.qubits[0] > gate.qubits[1]:
        u = _SWAP_MATRIX @ u @ _SWAP_MATRIX
    S = _conjugation_super(u)
    if noise is None:
        return S
    R = _pauli_transfer(S, k)
    if ideal:
        return R
    depol, duration = ((noise.one_qubit_depol, noise.one_qubit_time) if k == 1
                       else (noise.two_qubit_depol, noise.two_qubit_time))
    relax = _relaxation_transfer(noise.t1, noise.t2, duration)
    if k == 2:
        relax = np.kron(relax, relax)
    return relax @ (np.diag([1.0] + [1.0 - depol] * (4 ** k - 1)) @ R)


# ---------------------------------------------------------------------------
# blocks and fusion


@dataclass(eq=False, slots=True)
class Block:
    """One step of an evolution: ``superop`` over ``qubits`` (ascending),
    the product of ``gates`` gate channels.  A noiseless block is one gate's
    complex superoperator with index order (rows, then columns, most
    significant qubit first); a noisy block, in a Pauli evolution, is a
    product of real Pauli-transfer matrices with index order (one Pauli per
    qubit, most significant first).  Blocks compare by
    identity: equal blocks that :func:`blocks` builds through one memo are
    one shared object, never modified."""

    qubits: tuple[int, ...]
    superop: np.ndarray
    gates: int = 1


@dataclass(frozen=True)
class FusedCircuit:
    """A ``width``-qubit evolution given as its blocks (see :func:`blocks`);
    ``pauli`` marks blocks given as Pauli-transfer matrices, which evolve a
    :class:`PauliState`."""

    width: int
    ops: tuple[Block, ...]
    pauli: bool = False


def fuse(ops: Sequence[Gate]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Group ``ops`` into blocks in one greedy pass, as ``(qubits, indices)``
    with the block's qubits ascending and its ops' indices in circuit order.

    A single-qubit op joins the latest block on its qubit.  A two-qubit op
    joins the latest block on its pair when that block is on exactly that
    pair; otherwise it opens a new pair block, which absorbs the latest
    block on either qubit if that block holds single-qubit ops only.  Every
    op moves only past blocks that share none of its qubits, so applying the
    blocks in the returned order is the circuit.
    """
    blocks: list[tuple[tuple[int, ...], list[int]] | None] = []
    latest: dict[int, int] = {}
    for i, g in enumerate(ops):
        qubits = tuple(sorted(g.qubits))
        held = [latest.get(q) for q in qubits]
        if held[0] is not None and (len(held) == 1 or held[0] == held[1]):
            blocks[held[0]][1].append(i)
            continue
        members = []
        if len(qubits) == 2:
            for j in held:
                if j is not None and len(blocks[j][0]) == 1:
                    members += blocks[j][1]
                    blocks[j] = None
        for q in qubits:
            latest[q] = len(blocks)
        blocks.append((qubits, sorted(members) + [i]))
    return [b for b in blocks if b is not None]


def _gate_block(g: Gate, noise: NoiseModel | None, ideal: bool, memo: dict) -> Block:
    """The one-gate block of ``g``, its channel (see :func:`_gate_superop`)
    built once per ``memo`` for each kind, angle, orientation and ideal
    flag."""
    flipped = len(g.qubits) == 2 and g.qubits[0] > g.qubits[1]
    key = (g.kind, g.angle, flipped, ideal)
    S = memo.get(key)
    if S is None:
        S = memo[key] = _gate_superop(g, noise, ideal)
    return Block(tuple(sorted(g.qubits)), S)


def blocks(circuit: Circuit, noise: NoiseModel | None = None,
           memo: dict | None = None) -> FusedCircuit:
    """The evolution blocks of ``circuit``.

    A gate's channel is its ideal unitary, then (under ``noise``) the
    depolarizing channel on its qubits, then thermal relaxation for its
    duration.  Two kinds of gate stay ideal: the ``xtalk``-tagged
    ZZ-crosstalk insertions, which model a coherent error, and ``DIAG``
    gates, which a compiled body keeps only in the noiseless-diagonalizing
    reference.  Without noise each gate is one block, its complex
    superoperator, so a noiseless evolution keeps the rounding of applying
    its gates one by one.  Under noise each channel is a real Pauli-transfer matrix, :func:`fuse` groups
    the gates, and a block is the product of its gates' matrices, the first
    rightmost, a single-qubit matrix embedded on its side of a pair by a
    Kronecker product with the 4x4 identity: 4x4 for one qubit, 16x16 for a
    pair.  Building a channel raises :class:`SimulationError` when its
    unitary part is not Hermiticity-preserving.

    ``memo`` shares work between calls under one noise model: each distinct
    channel, and each distinct block (its gates' qubits and channels), is
    built once per memo, and equal blocks are one object.  Its keys have
    three shapes: a channel's (kind, angle, orientation, ideal), a gate's
    (kind, angle, qubits, ideal) and a fused block's (qubits, its gates'
    keys).
    """
    memo = {} if memo is None else memo
    keys, gate_blocks = [], []
    for g in circuit.ops:
        is_ideal = g.tag == CROSSTALK_TAG or g.kind == DIAG
        key = (g.kind, g.angle, g.qubits, is_ideal)
        block = memo.get(key)
        if block is None:
            block = memo[key] = _gate_block(g, noise, is_ideal, memo)
        keys.append(key)
        gate_blocks.append(block)
    if noise is None:
        return FusedCircuit(circuit.width, tuple(gate_blocks))
    fused = []
    for qubits, members in fuse(circuit.ops):
        key = (qubits, tuple(keys[i] for i in members))
        block = memo.get(key)
        if block is None:
            R = None
            for part in (gate_blocks[i] for i in members):
                r = part.superop
                if len(part.qubits) < len(qubits):
                    r = (np.kron(r, np.eye(4)) if part.qubits[0] == qubits[0]
                         else np.kron(np.eye(4), r))
                R = r if R is None else r @ R
            block = memo[key] = Block(qubits, R, len(members))
        fused.append(block)
    return FusedCircuit(circuit.width, tuple(fused), pauli=True)


# ---------------------------------------------------------------------------
# density matrices


@dataclass(frozen=True)
class DensityMatrix:
    """Dense 2^n x 2^n density matrix over ``width`` qubits."""

    width: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 ** self.width
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix for width {self.width}")
        object.__setattr__(self, "matrix", m)


#: index of the I and Z coefficients on every axis of a PauliState
_IZ = slice(None, None, 3)


@dataclass(frozen=True)
class PauliState:
    """A ``width``-qubit state rho as its real Pauli coefficients
    ``coeffs[p_0, ..., p_{n-1}] = Tr(P rho)``, one axis per qubit with the
    Paulis in the order I, X, Y, Z, so rho = sum_P coeffs[P] P / 2^width."""

    width: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4,) * self.width:
            raise ValueError(f"expected shape {(4,) * self.width} for width {self.width}")
        object.__setattr__(self, "coeffs", c)


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@lru_cache(maxsize=1)
def _cgroup_memory_limit() -> int | None:
    """This process's cgroup-v2 ``memory.max`` in bytes, or None when no
    such limit is set (no cgroup-v2 memory controller, or ``max``).  Read
    once per process: reading it costs more than a small evolution."""
    try:
        with open("/proc/self/cgroup") as f:
            path = next(line[3:].strip() for line in f if line.startswith("0::"))
        with open(os.path.join("/sys/fs/cgroup", path.lstrip("/"), "memory.max")) as f:
            limit = f.read().strip()
    except (OSError, StopIteration):
        return None
    return None if limit == "max" else int(limit)


def state_bytes(width: int, pauli: bool = False) -> int:
    """Bytes of one evolution state of ``width`` qubits: 4**width real Pauli
    coefficients (8 bytes each) or complex density entries (16)."""
    return (8 if pauli else 16) * 4 ** width


def admit(width: int, tensors: int, pauli: bool = False) -> None:
    """Raise :class:`SimulationSizeError` unless ``tensors`` states of
    ``width`` qubits, Pauli or density tensors (see :func:`state_bytes`),
    fit in the memory this process may use: physical memory, or the cgroup
    limit when smaller."""
    need = tensors * state_bytes(width, pauli)
    have = _physical_memory()
    limit = _cgroup_memory_limit()
    if limit is not None:
        have = min(have, limit)
    if need > have:
        raise SimulationSizeError(
            f"{tensors} {'Pauli' if pauli else 'density'} tensors of {width} qubits need "
            f"about {need / 2 ** 30:.1f} GiB; {have / 2 ** 30:.1f} GiB is available")


def evolve(circuit: Circuit | FusedCircuit, *,
           initial: DensityMatrix | PauliState | None = None) -> DensityMatrix | PauliState:
    """Evolve |0...0><0...0| (or ``initial``, which is left unchanged)
    through the circuit's blocks, in order.  A :class:`Circuit` evolves
    noiselessly, one block per gate (see :func:`blocks`).

    Blocks of a Pauli :class:`FusedCircuit` (the noisy ones) evolve a real
    :class:`PauliState`, whose ground state has coefficient 1 wherever every
    qubit's Pauli is I or Z; other blocks evolve a complex
    :class:`DensityMatrix`, and ``initial`` must be of the matching kind.

    The evolution holds two buffers, A for each block's transposed input and
    B for its output (the ground state starts in B), and the result is
    copied from B into A.  With ``initial`` that is three state tensors at
    the peak; the call raises :class:`SimulationSizeError` before allocating
    when they would not fit in memory (see :func:`admit`).
    """
    pauli = isinstance(circuit, FusedCircuit) and circuit.pauli
    admit(circuit.width, 2 + (initial is not None), pauli)
    if isinstance(circuit, Circuit):
        circuit = blocks(circuit)
    n = circuit.width
    kind = PauliState if pauli else DensityMatrix
    if initial is not None and not isinstance(initial, kind):
        raise TypeError(f"these blocks evolve a {kind.__name__}, not a "
                        f"{type(initial).__name__}")
    if initial is not None and initial.width != n:
        raise ValueError(f"initial state has {initial.width} qubits, circuit {n}")
    shape = (4,) * n if pauli else (2,) * (2 * n)
    a = np.empty(shape, dtype=float if pauli else complex)
    b = np.zeros_like(a)
    if initial is None:
        b[(_IZ,) * n if pauli else (0,) * (2 * n)] = 1.0
        tensor = b
    else:
        tensor = initial.coeffs if pauli else initial.matrix.reshape(shape)
    for block in circuit.ops:
        qs = block.qubits
        axes = qs if pauli else qs + tuple(n + q for q in qs)
        tensor = _apply_super(tensor, block.superop, axes, a, b)
    np.copyto(a, tensor)
    return PauliState(n, a) if pauli else DensityMatrix(n, a.reshape(2 ** n, 2 ** n))


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Distribution:
    """Normalized map from ``width``-bit outcome strings to probabilities,
    stored densely (index bit order: qubit 0 is the leftmost character)."""

    width: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2 ** self.width,):
            raise ValueError(f"expected {2 ** self.width} entries for width {self.width}")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        if not abs(p.sum() - 1.0) <= 1e-9:  # a NaN or infinite entry fails too
            raise ValueError(f"probabilities must be finite and sum to 1, not {p.sum()}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __getitem__(self, outcome: str) -> float:
        return float(self.probs[int(outcome, 2)])


def tv_distance(a: Distribution, b: Distribution) -> float:
    if a.width != b.width:
        raise ValueError("width mismatch")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


_WALSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def exact_probs(state: DensityMatrix | PauliState) -> Distribution:
    """Computational-basis distribution: the density-matrix diagonal, with
    tiny negative entries clamped to zero and the result renormalized.

    A :class:`PauliState`'s diagonal is the Walsh-Hadamard transform of its
    I/Z coefficients over 2^width: rho_xx = sum_s c_s (-1)^(s.x) / 2^n, with
    s the qubits whose Pauli is Z."""
    if isinstance(state, PauliState):
        diag = state.coeffs[(_IZ,) * state.width]
        for axis in range(state.width):
            diag = np.moveaxis(np.tensordot(_WALSH, diag, axes=([1], [axis])), 0, axis)
        diag = diag.reshape(-1) / 2 ** state.width
    else:
        diag = np.real(np.diag(state.matrix)).copy()
    if diag.min() < _NEGATIVE_PROB_FLOOR:
        raise SimulationError(
            f"diagonal entry {diag.min()} below {_NEGATIVE_PROB_FLOOR}: simulator bug")
    diag = np.clip(diag, 0.0, None)
    return Distribution(state.width, diag / diag.sum())


def marginal(dist: Distribution, qubits: Sequence[int]) -> Distribution:
    """Marginal distribution over ``qubits``, in the given order."""
    qubits = list(qubits)
    n = dist.width
    t = dist.probs.reshape((2,) * n)
    keep = qubits
    other = [q for q in range(n) if q not in keep]
    t = np.transpose(t, keep + other).reshape(2 ** len(keep), -1).sum(axis=1)
    return Distribution(len(keep), t)


def sample(dist: Distribution, shots: int, seed: int) -> Distribution:
    """The frequencies of ``shots`` multinomial draws from ``dist`` (each
    outcome's count over ``shots``), reproducible for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p = dist.probs / dist.probs.sum()
    return Distribution(dist.width, rng.multinomial(shots, p) / shots)


def apply_readout(dist: Distribution, noise: NoiseModel | None,
                  physical: Sequence[int] | None = None,
                  edges: Iterable[tuple[int, int]] = ()) -> Distribution:
    """Apply per-qubit readout confusion, then (if enabled) the pairwise
    readout-crosstalk confusion matrix on measured pairs coupled by ``edges``.

    ``physical[j]`` is the physical qubit of bit position ``j``, and
    ``edges`` pair physical qubits.  Each qubit joins at most one crosstalk
    pair, greedily matched in ascending physical index.
    """
    if noise is None:
        return dist
    n = dist.width
    phys = list(physical) if physical is not None else list(range(n))
    if len(phys) != n:
        raise ValueError("physical id list length mismatch")
    t = dist.probs.reshape((2,) * n)
    m = noise.readout.T  # out = M^T @ in along each qubit axis
    for axis in range(n):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)
    if noise.readout_crosstalk:
        edges = {tuple(sorted(e)) for e in edges}
        pos_of = {p: i for i, p in enumerate(phys)}
        matched: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for p in sorted(pos_of):
            if p in matched:
                continue
            for q in sorted(pos_of):
                if q in matched or q <= p:
                    continue
                if tuple(sorted((p, q))) in edges:
                    matched.update((p, q))
                    pairs.append((pos_of[p], pos_of[q]))
                    break
        mp = noise.readout_pair.T
        for i, j in pairs:
            perm = [i, j] + [a for a in range(n) if a not in (i, j)]
            tt = np.transpose(t, perm).reshape(4, -1)
            tt = mp @ tt
            t = np.transpose(tt.reshape((2,) * n), np.argsort(perm))
    return Distribution(n, t.reshape(-1))


# ---------------------------------------------------------------------------
# expectation values


@lru_cache(maxsize=32)
def outcome_bits(width: int) -> np.ndarray:
    """The read-only (width, 2**width) table whose row q holds qubit q's bit
    of every outcome index: the one place that fixes the bit order (qubit 0
    is the most significant bit)."""
    idx = np.arange(2 ** width)
    bits = np.empty((width, idx.size), dtype=np.int64)
    for q in range(width):
        bits[q] = (idx >> (width - 1 - q)) & 1
    bits.setflags(write=False)
    return bits


def _parity_signs(width: int, mask_qubits: Iterable[int]) -> np.ndarray:
    """(-1)^(number of set bits among mask_qubits) for every outcome index."""
    bits = outcome_bits(width)
    acc = np.zeros(2 ** width, dtype=np.int64)
    for q in mask_qubits:
        acc += bits[q]
    return 1.0 - 2.0 * (acc % 2)


@lru_cache(maxsize=64)
def _diagonal(obs: PauliObservable) -> np.ndarray:
    """Diagonal of ``obs.matrix()`` for an I/Z observable, bit for bit: the
    coefficient-weighted parity signs, summed in the same term order."""
    diag = np.zeros(2 ** obs.width)
    for coeff, p in obs.terms:
        diag += coeff * _parity_signs(obs.width, [i for i, ch in enumerate(p) if ch == "Z"])
    diag.setflags(write=False)
    return diag


def expectation(state: "Distribution | DensityMatrix", obs: PauliObservable) -> float:
    """<O> against a Distribution (diagonal observables only) or a
    DensityMatrix (any Pauli observable, as Tr(O rho)).

    For an I/Z observable the density-matrix path reads only the diagonal
    of rho. It returns the same float as ``np.trace(obs.matrix() @ rho).real``:
    each product O_ii rho_ii is the one the matrix product forms, and the
    complex diagonal is summed in the order ``np.trace`` sums it. Observables
    with X or Y terms take the matrix product.
    """
    if isinstance(state, Distribution):
        if not obs.is_diagonal():
            raise ValueError("distribution expectations require I/Z observables")
        if obs.width != state.width:
            raise ValueError("observable width mismatch")
        total = 0.0
        for coeff, p in obs.terms:
            zs = [i for i, ch in enumerate(p) if ch == "Z"]
            total += coeff * float(state.probs @ _parity_signs(state.width, zs))
        return total
    if isinstance(state, DensityMatrix):
        if obs.width != state.width:
            raise ValueError("observable width mismatch")
        if obs.is_diagonal():
            return float(np.sum(_diagonal(obs) * np.diagonal(state.matrix)).real)
        val = complex(np.trace(obs.matrix() @ state.matrix))
        return float(val.real)
    raise TypeError(f"cannot take expectation against {type(state).__name__}")
