"""Wire cutting: quasiprobability decomposition of a severed wire into
measure-side and prepare-side fragments, exact reconstruction, the pairwise
distillation pipelines, and recombination of the mitigated pairwise
distributions into the full output.

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
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    h,
    lightcone,
    measure,
    rz,
    x,
)
from .noise import NoiseModel
from .runner import Execution, run_circuit
from .simulate import Distribution, marginal
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


MEASURE_BASES = ("X", "Y", "Z")
PREP_STATES = ("0", "1", "+", "+i")

#: eigenstate -> combination of physically prepared states
_PREP_EXPANSION: dict[str, dict[str, int]] = {
    "0": {"0": 1},
    "1": {"1": 1},
    "+": {"+": 1},
    "-": {"0": 1, "1": 1, "+": -1},
    "+i": {"+i": 1},
    "-i": {"0": 1, "1": 1, "+i": -1},
}

_PREP_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True)
class CutTerm:
    """One term of the single-wire identity
    rho = 1/2 [tr(rho) I + sum_M tr(M rho) M]: a basis matrix eigenstate with
    its +-1/2 coefficient.  The identity matrix is folded into the Z
    measurement (``mode="trace"``)."""

    coefficient: Fraction
    basis: str           # measurement variant: X, Y or Z
    mode: str            # "signed" (eigenvalue-weighted) or "trace"
    eigenstate: str      # one of 0, 1, +, -, +i, -i


_EQ5_TERMS: tuple[CutTerm, ...] = (
    CutTerm(Fraction(1, 2), "Z", "trace", "0"),
    CutTerm(Fraction(1, 2), "Z", "trace", "1"),
    CutTerm(Fraction(1, 2), "Z", "signed", "0"),
    CutTerm(Fraction(-1, 2), "Z", "signed", "1"),
    CutTerm(Fraction(1, 2), "X", "signed", "+"),
    CutTerm(Fraction(-1, 2), "X", "signed", "-"),
    CutTerm(Fraction(1, 2), "Y", "signed", "+i"),
    CutTerm(Fraction(-1, 2), "Y", "signed", "-i"),
)


@dataclass(frozen=True)
class CutPoint:
    """Wire of ``qubit`` severed immediately after gate index ``position``."""

    qubit: int
    position: int


@dataclass(frozen=True)
class FragmentJob:
    """One runnable fragment: the measure-side circuit in one basis or the
    prepare-side circuit for one input state."""

    role: str            # "measure" or "prepare"
    variant: str         # basis letter or preparation state
    circuit: Circuit


@dataclass(frozen=True)
class ReconstructionPlan:
    """Bit bookkeeping for one cut (its coefficients are :data:`_EQ5_TERMS`)."""

    cut: CutPoint
    width: int
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


def _split_at(circuit: Circuit, cut: CutPoint) -> tuple[list[Gate], list[Gate]]:
    if circuit.has_measurements():
        raise CutError("cut circuits before inserting measurements")
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
    return pre, post


def cut_wire(circuit: Circuit, cut: CutPoint) -> tuple[list[FragmentJob], ReconstructionPlan]:
    """Sever one wire: three measure-side fragments (X/Y/Z basis on the cut
    qubit, plus the upstream-exclusive bits) and four prepare-side fragments
    (eigenstate preparation on a fresh wire feeding the downstream gates)."""
    pre, post = _split_at(circuit, cut)
    q = cut.qubit
    post_qubits = {qq for g in post for qq in g.qubits}
    j_bits = tuple(sorted(set(range(circuit.width)) - post_qubits))
    k_bits = tuple(sorted(post_qubits))
    jobs: list[FragmentJob] = []
    for basis in MEASURE_BASES:
        ops = pre + basis_change_gates(basis, q)
        ops += [measure(b) for b in sorted({q, *j_bits})]
        jobs.append(FragmentJob("measure", basis,
                                Circuit(circuit.width, tuple(ops))))
    for state in PREP_STATES:
        ops = preparation_gates(state, q) + post
        ops += [measure(b) for b in k_bits]
        jobs.append(FragmentJob("prepare", state,
                                Circuit(circuit.width, tuple(ops))))
    plan = ReconstructionPlan(cut=cut, width=circuit.width,
                              j_measured=tuple(sorted({q, *j_bits})),
                              k_measured=k_bits)
    return jobs, plan


def _signed_sum(dist: Distribution, q_pos: int, mode: str) -> np.ndarray:
    """Collapse the cut-qubit axis of a measure-side distribution: signed
    difference (eigenvalue weighting) or plain trace."""
    n = dist.width
    t = dist.probs.reshape((2,) * n)
    t = np.moveaxis(t, q_pos, 0)
    if mode == "signed":
        out = t[0] - t[1]
    else:
        out = t[0] + t[1]
    return out.reshape(-1)


def reconstruct(plan: ReconstructionPlan,
                j_results: Mapping[str, Distribution],
                k_results: Mapping[str, Distribution],
                shots: int | None = None) -> Distribution:
    """Linear combination of fragment outcome tensors with the
    :data:`_EQ5_TERMS` coefficients; small negative entries
    (quasiprobability noise) are clamped and the result renormalized."""
    for basis in MEASURE_BASES:
        if basis not in j_results:
            raise ReconstructionError(f"missing measure fragment {basis!r}")
    for state in PREP_STATES:
        if state not in k_results:
            raise ReconstructionError(f"missing prepare fragment {state!r}")
    q_pos = plan.j_measured.index(plan.cut.qubit)
    n_j = len(plan.j_measured) - 1
    n_k = len(plan.k_measured)
    acc = np.zeros((2 ** n_j, 2 ** n_k))
    for term in _EQ5_TERMS:
        v = _signed_sum(j_results[term.basis], q_pos, term.mode)
        u = np.zeros(2 ** n_k)
        for state, sign in _PREP_EXPANSION[term.eigenstate].items():
            u += sign * k_results[state].probs
        acc += float(term.coefficient) * np.outer(v, u)
    j_exclusive = tuple(b for b in plan.j_measured if b != plan.cut.qubit)
    # interleave the two bit groups back into ascending qubit order
    full = acc.reshape((2,) * (n_j + n_k))
    order = list(j_exclusive) + list(plan.k_measured)
    perm = np.argsort(order)
    full = np.transpose(full, perm).reshape(-1)
    return _clamp_normalize(full, len(order), shots)


def _clamp_normalize(raw: np.ndarray, width: int, shots: int | None) -> Distribution:
    eps = 1e-9 if shots is None else 10.0 / np.sqrt(shots)
    low = float(raw.min())
    if low < -eps:
        raise ReconstructionError(
            f"reconstructed mass {low} below the -{eps} clamping threshold")
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ReconstructionError("reconstructed distribution has no mass")
    return Distribution(width, clipped / total)


def run_cut(circuit: Circuit, cut: CutPoint, *,
            noise: NoiseModel | None = None,
            shots: int | None = None, seed: int = 0) -> Distribution:
    """Convenience executor: run all fragments of a single cut and stitch the
    full-circuit distribution."""
    jobs, plan = cut_wire(circuit, cut)
    j_results: dict[str, Distribution] = {}
    k_results: dict[str, Distribution] = {}
    for i, job in enumerate(jobs):
        rec = run_circuit(job.circuit, noise=noise, shots=shots, seed=seed + 7 * i + 1)
        if job.role == "measure":
            j_results[job.variant] = rec.output
        else:
            k_results[job.variant] = rec.output
    return reconstruct(plan, j_results, k_results, shots=shots)


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
        return [Execution(Circuit(base.width,
                                  base.ops + tuple(basis_change_gates(basis, i)) + (measure(i),),
                                  name=f"pair{i}-{basis}"),
                          shots=shots, seed=seed + 11 * bi + 3)
                for bi, basis in enumerate(MEASURE_BASES)]


def build_pairwise_pipelines(original: Circuit) -> list[PairwisePipeline]:
    """One pipeline per qubit pair (i, n+i) of the distillation circuit, each
    holding the lightcone of qubit i in ``original``."""
    return [PairwisePipeline(i, Circuit(original.width, lightcone(original, {i}).ops,
                                        name=f"pair{i}-copy"))
            for i in range(original.width)]


def pairwise_distribution(outputs: Sequence[Distribution], shots: int | None,
                          cache: DiagonalSimulationCache) -> Distribution:
    """Double-cut reconstruction of one mitigated pairwise distribution from
    the fragment's X, Y and Z outputs (shared between the two identical
    copies) and the prepare-side variants simulated noiselessly."""
    measures = {basis: (float(dist.probs[0] - dist.probs[1]), float(dist.probs.sum()))
                for basis, dist in zip(MEASURE_BASES, outputs)}
    k_tensor = cache.tensor(DIAG_UNITARY)

    raw = np.zeros(4)
    for t1 in _EQ5_TERMS:
        m1 = measures[t1.basis][0 if t1.mode == "signed" else 1]
        e1 = _expansion_vector(t1.eigenstate)
        for t2 in _EQ5_TERMS:
            m2 = measures[t2.basis][0 if t2.mode == "signed" else 1]
            e2 = _expansion_vector(t2.eigenstate)
            coeff = float(t1.coefficient * t2.coefficient) * m1 * m2
            if coeff == 0.0:
                continue
            raw += coeff * np.einsum("a,b,aby->y", e1, e2, k_tensor)
    return _clamp_normalize(raw, 2, shots)


def _expansion_vector(eigenstate: str) -> np.ndarray:
    v = np.zeros(4)
    for state, sign in _PREP_EXPANSION[eigenstate].items():
        v[PREP_STATES.index(state)] += sign
    return v


# ---------------------------------------------------------------------------
# recombination


def recombine(unmitigated: Distribution,
              pairwise: Sequence[Distribution]) -> Distribution:
    """Update the unmitigated joint distribution so its pairwise marginals
    match the mitigated pairwise distributions:
    Q(x) propto P_um(x) * prod_i P_i(x_i, x_i') / M_i(x_i, x_i'), where M_i
    is the (i, n+i) marginal of P_um.  Pair outcomes with vanishing M_i have
    their mitigated mass assigned uniformly over the matching joint
    outcomes."""
    width = unmitigated.width
    if width % 2:
        raise ReconstructionError("unmitigated distribution must span qubit pairs")
    n = width // 2
    if len(pairwise) != n:
        raise ReconstructionError(f"expected {n} pairwise distributions, got {len(pairwise)}")
    probs = unmitigated.probs.copy()
    idx = np.arange(probs.size)
    degenerate: list[tuple[int, int, float]] = []
    for i, p_i in enumerate(pairwise):
        if p_i.width != 2:
            raise ReconstructionError("pairwise distributions must be two-bit")
        m_i = marginal(unmitigated, (i, n + i))
        pair_code = (((idx >> (width - 1 - i)) & 1) << 1) | ((idx >> (width - 1 - (n + i))) & 1)
        ratio = np.zeros(4)
        for y in range(4):
            if m_i.probs[y] >= 1e-12:
                ratio[y] = p_i.probs[y] / m_i.probs[y]
            elif p_i.probs[y] > 0.0:
                degenerate.append((i, y, float(p_i.probs[y])))
        probs *= ratio[pair_code]
    injected = sum(mass for _, _, mass in degenerate)
    total = probs.sum()
    if total > 0.0 and injected > 0.0:
        probs *= max(1.0 - injected, 0.0) / total
    for i, y, mass in degenerate:
        pair_code = (((idx >> (width - 1 - i)) & 1) << 1) | ((idx >> (width - 1 - (n + i))) & 1)
        cells = pair_code == y
        probs[cells] += mass / cells.sum()
    total = probs.sum()
    if total <= 0.0:
        raise ReconstructionError("all-zero recombination (disjoint supports)")
    return Distribution(width, probs / total)


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
    distribution and the outputs of :func:`cut_executions`, in its order."""
    cache = DiagonalSimulationCache()
    outputs = iter(fragment_outputs)
    parts = []
    for group, joint in zip(groups, joints):
        pairwise = [pairwise_distribution([next(outputs) for _ in MEASURE_BASES], shots, cache)
                    for _ in range(joint.width // 2)]
        merged = recombine(joint, pairwise)
        parts.append(estimate_from_distribution(merged, group.observable, shots=shots))
    return ParityEstimate(tuple(parts))
