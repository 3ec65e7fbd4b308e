"""Wire cutting: quasiprobability decomposition of a severed wire into
measure-side and prepare-side fragments, exact reconstruction, the pairwise
distillation pipelines, and recombination of the mitigated pairwise
distributions into the full output.

Both reconstructions use one form of the cutting identity: the severed
wire's state is a combination of the four prepared states
(:data:`PREP_STATES`), weighted by the measure side's trace and its X, Y and
Z expectations (:func:`_prep_weights`).

A pairwise pipeline cuts both wires of a copy pair (i, n+i) just before
their diagonalizing gate.  The noisy quantum part is then the single-copy
fragment both copies share (the lightcone of qubit i), run in three
measurement bases; the diagonalizing gate is simulated noiselessly on the
prepared cut states.

Planning and reconstruction are pure (:func:`cut_executions`,
:func:`cut_estimate`), so a caller can batch the fragment runs with its other
executions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    extend,
    h,
    lightcone,
    rz,
    x,
)
from .noise import NoiseModel
from .runner import Execution, run_circuits
from .simulate import Distribution, marginal, outcome_bits
from .vd import (
    DIAG_UNITARY,
    ParityEstimate,
    ParityGroup,
    estimate_from_distribution,
)


class CutError(ValueError):
    """Raised for invalid or vacuous cut points."""


class ReconstructionError(RuntimeError):
    """Raised when stitched fragment data is inconsistent (negativity beyond
    the sampling-noise allowance, or an all-zero recombination)."""


READ_BASES = ("X", "Y", "Z")
PREP_STATES = ("0", "1", "+", "+i")

_PREP_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}


#: The single-wire identity rho = 1/2 [t I + x X + y Y + z Z] rewritten over
#: the prepared states, with I = |0><0| + |1><1|, Z = |0><0| - |1><1|,
#: X = 2|+><+| - I and Y = 2|+i><+i| - I: row a of this matrix maps the
#: measure side's (t, z, x, y) to the weight of ``PREP_STATES[a]``.
_PREP_WEIGHTS = np.array([[0.5, 0.5, -0.5, -0.5],
                          [0.5, -0.5, -0.5, -0.5],
                          [0.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class CutPoint:
    """Wire of ``qubit`` severed immediately after gate index ``position``."""

    qubit: int
    position: int


@dataclass(frozen=True)
class ReconstructionPlan:
    """Bit bookkeeping for one cut (its coefficients are the prepared-state
    weights of :func:`_prep_weights`)."""

    cut: CutPoint
    j_measured: tuple[int, ...]   # cut qubit plus upstream-exclusive bits
    k_measured: tuple[int, ...]   # downstream bits (cut wire continues here)


def basis_change_gates(basis: str, qubit: int) -> list[Gate]:
    """Rotate the named measurement basis into the computational basis."""
    if basis == "Z":
        return []
    if basis == "X":
        return [h(qubit)]
    if basis == "Y":
        return [rz(-np.pi / 2, qubit), h(qubit)]
    raise CutError(f"unknown measurement basis {basis!r}")


def preparation_gates(state: str, qubit: int) -> list[Gate]:
    """Prepare the named state from |0>."""
    if state == "0":
        return []
    if state == "1":
        return [x(qubit)]
    if state == "+":
        return [h(qubit)]
    if state == "+i":
        return [h(qubit), rz(np.pi / 2, qubit)]
    raise CutError(f"unknown preparation state {state!r}")


def _split_at(circuit: Circuit, cut: CutPoint) -> tuple[list[Gate], list[Gate], set[int]]:
    if not 0 <= cut.position < len(circuit.ops):
        raise CutError(f"cut position {cut.position} outside circuit")
    if not 0 <= cut.qubit < circuit.width:
        raise CutError(f"cut qubit {cut.qubit} outside circuit")
    pre = list(circuit.ops[: cut.position + 1])
    post = list(circuit.ops[cut.position + 1:])
    post_qubits = {q for g in post for q in g.qubits}
    if cut.qubit not in post_qubits:
        raise CutError("vacuous cut: no downstream gates on the severed wire")
    pre_qubits = {q for g in pre for q in g.qubits}
    shared = (pre_qubits & post_qubits) - {cut.qubit}
    if shared:
        raise CutError(
            f"cut is not separating: qubits {sorted(shared)} cross the partition")
    return pre, post, post_qubits


def cut_wire(circuit: Circuit, cut: CutPoint) -> tuple[list[Circuit], ReconstructionPlan]:
    """Sever one wire into seven fragment circuits: first the measure side
    in each of :data:`READ_BASES` (the basis change on the cut qubit), then
    the prepare side for each of :data:`PREP_STATES` (the state prepared on
    a fresh wire that feeds the downstream gates).  The fragments hold gates
    only: a measure-side run reads the plan's ``j_measured`` bits (the cut
    qubit and the upstream-exclusive bits), a prepare-side run its
    ``k_measured`` bits (the downstream ones)."""
    pre, post, post_qubits = _split_at(circuit, cut)
    q = cut.qubit
    j_bits = tuple(sorted({q} | set(range(circuit.width)) - post_qubits))
    k_bits = tuple(sorted(post_qubits))
    fragments = [Circuit(circuit.width, tuple(pre + basis_change_gates(basis, q)))
                 for basis in READ_BASES]
    fragments += [Circuit(circuit.width, tuple(preparation_gates(state, q) + post))
                  for state in PREP_STATES]
    return fragments, ReconstructionPlan(cut=cut, j_measured=j_bits, k_measured=k_bits)


def _prep_weights(outputs: Sequence[Distribution], q_pos: int) -> np.ndarray:
    """The (4, 2**n_j) weights of the prepared states, in :data:`PREP_STATES`
    order, per outcome of the measure side's other n_j bits, from its outputs
    in :data:`READ_BASES` order with the cut qubit at bit ``q_pos``."""
    x, y, z = (np.moveaxis(d.probs.reshape((2,) * d.width), q_pos, 0).reshape(2, -1)
               for d in outputs)
    return _PREP_WEIGHTS @ np.stack([z[0] + z[1], z[0] - z[1], x[0] - x[1], y[0] - y[1]])


def reconstruct(plan: ReconstructionPlan, outputs: Sequence[Distribution],
                shots: int | None = None) -> Distribution:
    """The full-circuit distribution from the outputs of :func:`cut_wire`'s
    seven fragments, in its order: the prepare side's outcome tensors
    combined with the prepared-state weights of :func:`_prep_weights`.
    Small negative entries (quasiprobability noise) are clamped and the
    result renormalized."""
    if len(outputs) != len(READ_BASES) + len(PREP_STATES):
        raise ReconstructionError(f"expected 7 fragment outputs, got {len(outputs)}")
    q_pos = plan.j_measured.index(plan.cut.qubit)
    weights = _prep_weights(outputs[:len(READ_BASES)], q_pos)
    acc = weights.T @ np.stack([d.probs for d in outputs[len(READ_BASES):]])
    # interleave the two bit groups back into ascending qubit order
    order = [b for b in plan.j_measured if b != plan.cut.qubit] + list(plan.k_measured)
    full = np.transpose(acc.reshape((2,) * len(order)), np.argsort(order)).reshape(-1)
    return _clamp_normalize(full, len(order), shots)[0]


def _clamp_normalize(raw: np.ndarray, width: int,
                     shots: int | None) -> tuple[Distribution, float]:
    """``raw`` with its negative entries clipped to 0, renormalized, and the
    most negative entry clipped (0 when none was)."""
    eps = 1e-9 if shots is None else 10.0 / np.sqrt(shots)
    low = float(raw.min())
    if low < -eps:
        raise ReconstructionError(
            f"reconstructed mass {low} below the -{eps} clamping threshold")
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ReconstructionError("reconstructed distribution has no mass")
    return Distribution(width, clipped / total), min(low, 0.0)


def run_cut(circuit: Circuit, cut: CutPoint, *,
            noise: NoiseModel | None = None,
            shots: int | None = None, seed: int = 0) -> Distribution:
    """Convenience executor: run all fragments of a single cut as one batch
    and stitch the full-circuit distribution."""
    fragments, plan = cut_wire(circuit, cut)
    reads = [plan.j_measured] * len(READ_BASES) + [plan.k_measured] * len(PREP_STATES)
    batch = run_circuits([Execution(f, shots=shots, seed=seed + 7 * i + 1, measured=bits)
                          for i, (f, bits) in enumerate(zip(fragments, reads))],
                         noise=noise)
    return reconstruct(plan, [rec.output for rec in batch.records], shots=shots)


# ---------------------------------------------------------------------------
# pairwise distillation pipelines


class DiagonalSimulationCache:
    """Noiseless classical simulations of a diagonalizing gate, keyed by its
    unitary bytes and shared across pipelines (identical gates are simulated
    once)."""

    def __init__(self):
        self._tensors: dict[bytes, np.ndarray] = {}
        self.hits = 0

    def tensor(self, unitary: np.ndarray) -> np.ndarray:
        """K[v1, v2, y] = probability of pair outcome y after the gate acts
        on prepared states (v1, v2)."""
        key = np.ascontiguousarray(unitary).tobytes()
        found = self._tensors.get(key)
        if found is not None:
            self.hits += 1
            return found
        k = np.empty((4, 4, 4))
        for i1, s1 in enumerate(PREP_STATES):
            for i2, s2 in enumerate(PREP_STATES):
                amp = unitary @ np.kron(_PREP_VECTORS[s1], _PREP_VECTORS[s2])
                k[i1, i2] = np.abs(amp) ** 2
        self._tensors[key] = k
        return k


@dataclass(frozen=True)
class PairwisePipeline:
    """The single-copy fragment that both copies of pair ``pair_index``
    share: the copy's lightcone of qubit ``pair_index``, up to the cut before
    the pair's diagonalizing gate."""

    pair_index: int
    copy_fragment: Circuit

    def executions(self, shots: int | None, seed: int) -> list[Execution]:
        """The fragment measured on qubit ``pair_index`` in the X, Y and Z bases."""
        i, base = self.pair_index, self.copy_fragment
        return [Execution(extend(base, basis_change_gates(basis, i)),
                          shots=shots, seed=seed + 11 * bi + 3, measured=(i,))
                for bi, basis in enumerate(READ_BASES)]


def build_pairwise_pipelines(original: Circuit) -> list[PairwisePipeline]:
    """One pipeline per qubit pair (i, n+i) of the distillation circuit, each
    holding the lightcone of qubit i in ``original``."""
    return [PairwisePipeline(i, lightcone(original, {i})) for i in range(original.width)]


def pairwise_distribution(outputs: Sequence[Distribution], shots: int | None,
                          cache: DiagonalSimulationCache) -> tuple[Distribution, float]:
    """Double-cut reconstruction of one mitigated pairwise distribution from
    the fragment's X, Y and Z outputs (shared between the two identical
    copies) and the prepare-side variants simulated noiselessly, with the
    most negative reconstructed entry it clipped (0 when none was)."""
    w = _prep_weights(outputs, 0)[:, 0]
    raw = np.einsum("a,b,aby->y", w, w, cache.tensor(DIAG_UNITARY))
    return _clamp_normalize(raw, 2, shots)


# ---------------------------------------------------------------------------
# recombination


def recombine(unmitigated: Distribution,
              pairwise: Sequence[Distribution]) -> tuple[Distribution, float]:
    """Update the unmitigated joint distribution so its pairwise marginals
    match the mitigated pairwise distributions:
    Q(x) propto P_um(x) * prod_i P_i(x_i, x_i') / M_i(x_i, x_i'), where M_i
    is the (i, n+i) marginal of P_um.  Pair outcomes with vanishing M_i have
    their mitigated mass assigned uniformly over the matching joint
    outcomes; returns the merged distribution and that injected mass."""
    width = unmitigated.width
    if width % 2:
        raise ReconstructionError("unmitigated distribution must span qubit pairs")
    n = width // 2
    if len(pairwise) != n:
        raise ReconstructionError(f"expected {n} pairwise distributions, got {len(pairwise)}")
    probs = unmitigated.probs.copy()
    bits = outcome_bits(width)
    pair_codes = [(bits[i] << 1) | bits[n + i] for i in range(n)]
    degenerate: list[tuple[int, int, float]] = []
    for i, p_i in enumerate(pairwise):
        if p_i.width != 2:
            raise ReconstructionError("pairwise distributions must be two-bit")
        m_i = marginal(unmitigated, (i, n + i))
        ratio = np.zeros(4)
        for y in range(4):
            if m_i.probs[y] >= 1e-12:
                ratio[y] = p_i.probs[y] / m_i.probs[y]
            elif p_i.probs[y] > 0.0:
                degenerate.append((i, y, float(p_i.probs[y])))
        probs *= ratio[pair_codes[i]]
    injected = sum(mass for _, _, mass in degenerate)
    total = probs.sum()
    if total > 0.0 and injected > 0.0:
        probs *= max(1.0 - injected, 0.0) / total
    for i, y, mass in degenerate:
        cells = pair_codes[i] == y
        probs[cells] += mass / cells.sum()
    total = probs.sum()
    if total <= 0.0:
        raise ReconstructionError("all-zero recombination (disjoint supports)")
    return Distribution(width, probs / total), injected


# ---------------------------------------------------------------------------
# top-level composition


def cut_executions(original: Circuit, groups: Sequence[ParityGroup],
                   shots: int | None, seed: int) -> list[Execution]:
    """Every fragment run of the cut method: group by group (on the group's
    rotated original), pair by pair, in the X, Y and Z bases."""
    return [ex for gi, group in enumerate(groups)
            for p in build_pairwise_pipelines(group.rotated(original))
            for ex in p.executions(shots, seed + 100_003 * gi + 1009 * (p.pair_index + 1))]


def cut_estimate(groups: Sequence[ParityGroup], joints: Sequence[Distribution],
                 fragment_outputs: Sequence[Distribution],
                 shots: int | None) -> ParityEstimate:
    """The cut method's estimate from each group's unmitigated joint
    distribution and the outputs of :func:`cut_executions`, in its order,
    with each group's recombination events: the degenerate mass
    :func:`recombine` injected and the most negative pairwise entry clipped."""
    cache = DiagonalSimulationCache()
    outputs = iter(fragment_outputs)
    parts, events = [], []
    for group, joint in zip(groups, joints):
        pairwise, clipped = zip(*(
            pairwise_distribution([next(outputs) for _ in READ_BASES], shots, cache)
            for _ in range(joint.width // 2)))
        merged, injected = recombine(joint, pairwise)
        parts.append(estimate_from_distribution(merged, group.observable, shots=shots))
        events.append((injected, min(clipped)))
    return ParityEstimate(tuple(parts), tuple(events))
