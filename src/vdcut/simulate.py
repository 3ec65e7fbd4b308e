"""Dense density-matrix simulation with configurable noise channels,
measurement distributions, readout error and sampling.

An evolution is a sequence of blocks, each one superoperator over at most
two qubits, applied to the density tensor by one transpose and one matrix
product over the block's axes.  :func:`blocks` is the only code that turns
gates into blocks: one ideal block per gate without noise, and under noise
:func:`fuse`'s groups of one qubit or one pair, each the product of its
gates' noisy channels, so a noisy circuit makes one full-tensor pass per
block instead of one per gate.

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
    Circuit,
    Gate,
    PauliObservable,
    gate_matrix,
)
from .noise import NoiseModel

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
# channel superoperators


def _conjugation_super(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dag on the (row, column) index pair:
    ``np.kron(u, u.conj())``, built as the same elementwise products without
    kron's generic reshaping."""
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


def _kraus_to_super(ks: Iterable[np.ndarray]) -> np.ndarray:
    return sum(_conjugation_super(K) for K in ks)


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


def _depol_super(p: float, k: int) -> np.ndarray:
    d = 2 ** k
    S = (1 - p) * np.eye(d * d, dtype=complex)
    for r in range(d):
        for rp in range(d):
            S[r * d + r, rp * d + rp] += p / d
    return S


def _pair_super(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Combine per-qubit superops on (r1,c1),(r2,c2) into the joint superop
    with index ordering (r1 r2 c1 c2)."""
    t = np.einsum("ikjl,mnop->imknjolp",
                  s1.reshape(2, 2, 2, 2), s2.reshape(2, 2, 2, 2))
    return t.reshape(16, 16)


def _gate_superop(gate, noise: NoiseModel | None, ideal: bool) -> np.ndarray:
    u = gate_matrix(gate)
    k = len(gate.qubits)
    # canonicalize to ascending qubit order, the order evolve applies it in
    if k == 2 and gate.qubits[0] > gate.qubits[1]:
        from .circuit import _SWAP_MATRIX
        u = _SWAP_MATRIX @ u @ _SWAP_MATRIX
    S = _conjugation_super(u)
    if noise is None or ideal:
        return S
    if k == 1:
        S = _depol_super(noise.one_qubit_depol, 1) @ S
        relax = _kraus_to_super(
            thermal_relaxation_kraus(noise.t1, noise.t2, noise.one_qubit_time))
        return relax @ S
    S = _depol_super(noise.two_qubit_depol, 2) @ S
    r = _kraus_to_super(
        thermal_relaxation_kraus(noise.t1, noise.t2, noise.two_qubit_time))
    return _pair_super(r, r) @ S


# ---------------------------------------------------------------------------
# blocks and fusion


@dataclass(eq=False, slots=True)
class Block:
    """One step of an evolution: ``superop`` over ``qubits`` (ascending),
    with index order (rows, then columns, most significant qubit first), the
    product of ``gates`` gate channels.  Blocks compare by identity: equal
    blocks that :func:`blocks` builds through one memo are one shared
    object, never modified."""

    qubits: tuple[int, ...]
    superop: np.ndarray
    gates: int = 1


@dataclass(frozen=True)
class FusedCircuit:
    """A ``width``-qubit evolution given as its blocks (see :func:`blocks`)."""

    width: int
    ops: tuple[Block, ...]


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


_IDENTITY_SUPER = np.eye(4, dtype=complex)


def _gate_block(g: Gate, noise: NoiseModel | None, ideal: bool, memo: dict) -> Block:
    """The one-gate block of ``g``, its channel superoperator built once per
    ``memo`` for each kind, angle or unitary, orientation and ideal flag."""
    flipped = len(g.qubits) == 2 and g.qubits[0] > g.qubits[1]
    key = (g.kind, g.angle if g.unitary is None else g.unitary.tobytes(), flipped, ideal)
    S = memo.get(key)
    if S is None:
        S = memo[key] = _gate_superop(g, noise, ideal)
    return Block(tuple(sorted(g.qubits)), S)


def blocks(circuit: Circuit, noise: NoiseModel | None = None,
           ideal_tags: Sequence[str] = ("xtalk",), memo: dict | None = None) -> FusedCircuit:
    """The evolution blocks of a measureless ``circuit``.

    A gate's channel is its ideal unitary, then (under ``noise``) the
    depolarizing channel on its qubits, then thermal relaxation for its
    duration; gates whose tag is in ``ideal_tags`` stay ideal (by default
    the ZZ-crosstalk insertions, which model a coherent error).  Without
    noise each gate is one block, so a noiseless evolution keeps the
    rounding of applying its gates one by one.  Under noise :func:`fuse`
    groups the gates, and a block's superoperator is the product of its
    gates' channels, the first rightmost, a single-qubit channel embedded on
    its side of a pair.

    ``memo`` shares work between calls under one noise model: each distinct
    channel, and each distinct block (its gates' qubits and channels), is
    built once per memo, and equal blocks are one object.  Its keys have
    three shapes: a channel's (kind, angle or unitary, orientation, ideal),
    a gate's (kind, angle or unitary, qubits, ideal) and a fused block's
    (qubits, its gates' keys).
    """
    if circuit.has_measurements():
        raise ValueError("strip measurements before evolution (see exact_probs/sample)")
    memo = {} if memo is None else memo
    ideal = frozenset(ideal_tags)
    keys, gate_blocks = [], []
    for g in circuit.ops:
        is_ideal = g.tag in ideal
        key = (g.kind, g.angle if g.unitary is None else g.unitary.tobytes(),
               g.qubits, is_ideal)
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
            S = None
            for part in (gate_blocks[i] for i in members):
                s = part.superop
                if len(part.qubits) < len(qubits):
                    s = (_pair_super(s, _IDENTITY_SUPER) if part.qubits[0] == qubits[0]
                         else _pair_super(_IDENTITY_SUPER, s))
                S = s if S is None else s @ S
            block = memo[key] = Block(qubits, S, len(members))
        fused.append(block)
    return FusedCircuit(circuit.width, tuple(fused))


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

    @staticmethod
    def ground_state(width: int) -> "DensityMatrix":
        m = np.zeros((2 ** width, 2 ** width), dtype=complex)
        m[0, 0] = 1.0
        return DensityMatrix(width, m)


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


def admit(width: int, tensors: int) -> None:
    """Raise :class:`SimulationSizeError` unless ``tensors`` density tensors
    of ``width`` qubits (16 * 4**width bytes each) fit in the memory this
    process may use: physical memory, or the cgroup limit when smaller."""
    need = tensors * 16 * 4 ** width
    have = _physical_memory()
    limit = _cgroup_memory_limit()
    if limit is not None:
        have = min(have, limit)
    if need > have:
        raise SimulationSizeError(
            f"{tensors} density tensors of {width} qubits need about "
            f"{need / 2 ** 30:.1f} GiB; {have / 2 ** 30:.1f} GiB is available")


def evolve(circuit: Circuit | FusedCircuit, *,
           initial: DensityMatrix | None = None) -> DensityMatrix:
    """Evolve |0...0><0...0| (or ``initial``, which is left unchanged)
    through the circuit's blocks, in order.  A :class:`Circuit` evolves
    noiselessly, one block per gate (see :func:`blocks`).

    The evolution holds two buffers, A for each block's transposed input and
    B for its output (the ground state starts in B), and the result is
    copied from B into A.  With ``initial`` that is three density tensors at
    the peak; the call raises :class:`SimulationSizeError` before allocating
    when they would not fit in memory (see :func:`admit`).
    """
    admit(circuit.width, 2 + (initial is not None))
    if isinstance(circuit, Circuit):
        circuit = blocks(circuit)
    n = circuit.width
    if initial is not None and initial.width != n:
        raise ValueError(f"initial state has {initial.width} qubits, circuit {n}")
    a = np.empty((2,) * (2 * n), dtype=complex)
    b = np.zeros((2,) * (2 * n), dtype=complex)
    if initial is None:
        b.flat[0] = 1.0
        tensor = b
    else:
        tensor = initial.matrix.reshape((2,) * (2 * n))
    for block in circuit.ops:
        qs = block.qubits
        tensor = _apply_super(tensor, block.superop, qs + tuple(n + q for q in qs), a, b)
    np.copyto(a, tensor)
    return DensityMatrix(n, a.reshape(2 ** n, 2 ** n))


# ---------------------------------------------------------------------------
# distributions and counts


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
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __getitem__(self, outcome: str) -> float:
        return float(self.probs[int(outcome, 2)])


@dataclass(frozen=True)
class Counts:
    """Integer shot counts over ``width``-bit outcomes."""

    width: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (2 ** self.width,):
            raise ValueError("counts length mismatch")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def shots(self) -> int:
        return int(self.values.sum())

    def __getitem__(self, outcome: str) -> int:
        return int(self.values[int(outcome, 2)])

    def to_distribution(self) -> Distribution:
        return Distribution(self.width, self.values / self.shots)


def tv_distance(a: Distribution, b: Distribution) -> float:
    if a.width != b.width:
        raise ValueError("width mismatch")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def exact_probs(dm: DensityMatrix) -> Distribution:
    """Computational-basis distribution: the density-matrix diagonal, with
    tiny negative entries clamped to zero and the result renormalized."""
    diag = np.real(np.diag(dm.matrix)).copy()
    if diag.min() < _NEGATIVE_PROB_FLOOR:
        raise SimulationError(
            f"diagonal entry {diag.min()} below {_NEGATIVE_PROB_FLOOR}: simulator bug")
    diag = np.clip(diag, 0.0, None)
    return Distribution(dm.width, diag / diag.sum())


def marginal(dist: Distribution, qubits: Sequence[int]) -> Distribution:
    """Marginal distribution over ``qubits``, in the given order."""
    qubits = list(qubits)
    n = dist.width
    t = dist.probs.reshape((2,) * n)
    keep = qubits
    other = [q for q in range(n) if q not in keep]
    t = np.transpose(t, keep + other).reshape(2 ** len(keep), -1).sum(axis=1)
    return Distribution(len(keep), t)


def sample(dist: Distribution, shots: int, seed: int) -> Counts:
    """Multinomial sampling, reproducible for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p = dist.probs / dist.probs.sum()
    return Counts(dist.width, rng.multinomial(shots, p))


def apply_readout(dist: Distribution, noise: NoiseModel | None,
                  physical: Sequence[int] | None = None) -> Distribution:
    """Apply per-qubit readout confusion, then (if enabled) the pairwise
    readout-crosstalk confusion matrix on adjacent measured pairs.

    ``physical[j]`` is the physical qubit identity of bit position ``j``;
    adjacency is taken from ``noise.adjacency``.  Each qubit joins at most
    one crosstalk pair, greedily matched in ascending physical index.
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
        edges = set(noise.adjacency)
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


def _parity_signs(width: int, mask_qubits: Iterable[int]) -> np.ndarray:
    """(-1)^(number of set bits among mask_qubits) for every outcome index."""
    idx = np.arange(2 ** width)
    acc = np.zeros(2 ** width, dtype=np.int64)
    for q in mask_qubits:
        acc += (idx >> (width - 1 - q)) & 1
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
