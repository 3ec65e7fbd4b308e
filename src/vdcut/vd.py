"""Virtual distillation with two state copies: circuit construction with
diagonalizing gates, exact matrix-power oracles, and measurement
post-processing estimators.

The copies are joined by one fixed two-qubit gate per qubit pair, the
``DIAG`` gate kind with matrix :data:`DIAG_UNITARY`, which diagonalizes the
pair swap.  Every pass knows the gate by that kind alone: routing starts
the measurement stage at it, ZNE folds it, and the basis decomposition
emits its {RY, RZ, CNOT} form :data:`vdcut.transpile.DIAG_BASIS_FORM` in
its place (see :func:`vdcut.transpile.decompose_to_basis`).

The estimator computes, for a Pauli-Z string T over outcome bits
(z_i, z_i') of each qubit pair:

* denominator weight: product over all pairs of s_i, where s_i = -1 on the
  singlet outcome and +1 otherwise (the swap-operator eigenvalue);
* numerator weight: product over pairs in T of (1/2)((-1)^{z_i} +
  (-1)^{z_i'}) and over the remaining pairs of s_i.

For single-qubit strings the numerator expectation equals Tr(O rho^2)
exactly for every state.  For longer strings it equals the copy-symmetrized
functional 2^{-|T|} sum_{A subset T} Tr(Z_A rho Z_{T\\A} rho), which
coincides with Tr(Z_T rho^2) on states without coherences across both
observable qubits (in particular all diagonal states); pairwise-local
measurements carry no information that could close that gap.

Two-qubit strings are therefore measured through a parity rotation (see
:func:`parity_groups`): CNOT(c, t) applied to the original circuit, before
it is duplicated (or equally to both copies), gives Tr(Z_c Z_t rho^2) = Tr(Z_t (C rho C^dag)^2), a
single-qubit string of the rotated state, which the estimator computes
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (
    _DIAG_MATRIX,
    DIAG,
    PARITY_TAG,
    Circuit,
    Gate,
    PauliObservable,
    cnot,
    extend,
    tensor_two_copies,
)
from .simulate import Distribution, PauliState, outcome_bits

#: The matrix of the diagonalizing gate kind ``DIAG`` (read-only):
#: identity on |00> and |11>, and the Bell-basis rotation sending
#: (|01>+|10>)/sqrt(2) to |01> and (|01>-|10>)/sqrt(2) to |10>.
#: Conjugating SWAP gives diag(1, 1, -1, 1): the singlet outcome is the bit
#: pattern "10" (copy-0 bit first).
DIAG_UNITARY = _DIAG_MATRIX

SINGLET_OUTCOME = "10"


class EstimatorError(RuntimeError):
    """Raised when the distillation denominator is statistically
    insignificant (|den| < 10 * SE) or exactly degenerate."""


def diag_gate_on(a: int, b: int) -> Gate:
    return Gate(DIAG, (a, b))


def build_vd_circuit(original: Circuit, rotation: Sequence[Gate] = ()) -> Circuit:
    """Two copies of ``original``, then the ``rotation`` gates (a parity
    rotation, see :class:`ParityGroup`) on each copy and a diagonalizing gate
    on each pair (i, n+i) in ascending pair order; a run reads all 2n
    qubits.  Rotating both copies is rotating ``original`` before it is
    duplicated; keeping the rotation after the copies lets the device
    compile the state preparation the same way for every rotation."""
    n = original.width
    c = tensor_two_copies(original)
    ops = list(c.ops)
    for g in rotation:
        ops += [g, g.shifted(n)]
    for i in range(n):
        ops.append(diag_gate_on(i, n + i))
    return Circuit(2 * n, tuple(ops))


# ---------------------------------------------------------------------------
# parity rotation of two-qubit Z strings


@dataclass(frozen=True)
class ParityGroup:
    """CNOTs ``(control, target)`` that move each Z_c Z_t parity of a group
    onto its target qubit, and the observable in the rotated frame.

    Targets are distinct and no target is also a control, so the CNOTs
    commute and C^dag Z_t C = Z_c Z_t for each of them; the rotated
    observable holds only single-qubit Z strings and identity terms."""

    cnots: tuple[tuple[int, int], ...]
    observable: PauliObservable

    def gates(self) -> tuple[Gate, ...]:
        """The rotation as CNOTs between index-adjacent qubits where that
        keeps every parity the group measures, else the group's CNOTs.

        Each control fans out over the index range up to its farthest
        target on either side (widest range first); index neighbours are
        the qubits the device placement keeps coupled, so no long-range
        CNOT has to be routed through SWAPs."""
        pairs = [pair for c in sorted({c for c, _ in self.cnots},
                                      key=lambda c: (-_span(c, self._targets_of(c)), c))
                 for pair in _fan_out(c, self._targets_of(c))]
        if not self._rotates_exactly(pairs):
            pairs = list(self.cnots)
        return tuple(cnot(a, b, tag=PARITY_TAG) for a, b in pairs)

    def _targets_of(self, control: int) -> list[int]:
        return [t for c, t in self.cnots if c == control]

    def _rotates_exactly(self, pairs: list[tuple[int, int]]) -> bool:
        """Whether the CNOT sequence maps Z_t to Z_c Z_t for every group CNOT
        and leaves every other measured Z_q unchanged (Z-parity rows over
        GF(2): CNOT(a, b) adds row a to row b)."""
        rows = [1 << q for q in range(self.observable.width)]
        for a, b in pairs:
            rows[b] ^= rows[a]
        want = {q: 1 << q for _, p in self.observable.terms
                for q, ch in enumerate(p) if ch == "Z"}
        want.update({t: (1 << c) | (1 << t) for c, t in self.cnots})
        return all(rows[q] == r for q, r in want.items())

    def rotated(self, circuit: Circuit) -> Circuit:
        """``circuit`` followed by the group's CNOTs."""
        return extend(circuit, self.gates())


def _span(control: int, targets: list[int]) -> int:
    return max(targets) - min(targets + [control]) if targets else 0


def _fan_out(control: int, targets: list[int]) -> list[tuple[int, int]]:
    """Index-adjacent CNOT pairs equal to CNOT(control, j) for every j from
    the control to its farthest target on each side: a ladder down to the
    control and back up."""
    pairs: list[tuple[int, int]] = []
    for side in (1, -1):
        reach = [abs(t - control) for t in targets if (t - control) * side > 0]
        if not reach:
            continue
        path = [control + side * k for k in range(max(reach) + 1)]
        down = [(path[k], path[k + 1]) for k in range(len(path) - 2, -1, -1)]
        pairs += down + down[-2::-1]
    return pairs


def _star_groups(pairs: set[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Split unordered pairs into oriented CNOT groups.  Each group is built
    by repeatedly making the vertex with the most remaining pairs to unused
    vertices (lowest index on ties) a control of all of them; a vertex used
    as a control or target takes no further role in the group."""
    remaining = set(pairs)
    groups = []
    while remaining:
        used: set[int] = set()
        group = []
        while True:
            reach = {}
            for a, b in remaining:
                for c, t in ((a, b), (b, a)):
                    if c not in used and t not in used:
                        reach.setdefault(c, []).append(t)
            if not reach:
                break
            control = min(reach, key=lambda v: (-len(reach[v]), v))
            for t in sorted(reach[control]):
                group.append((control, t))
                remaining.discard((min(control, t), max(control, t)))
            used.update([control, *reach[control]])
        groups.append(group)
    return groups


def parity_groups(obs: PauliObservable) -> tuple[ParityGroup, ...]:
    """Rotation groups that make the estimator exact for every term of an
    observable whose Z strings have weight at most two.

    The grouping depends on the observable alone.  Identity terms go to the
    first group; a single-qubit string goes to the first group that does
    not use its qubit as a target.  Summing the groups' mitigated values
    gives Tr(O rho^2) / Tr(rho^2) term by term."""
    supports = [tuple(i for i, ch in enumerate(p) if ch == "Z") for _, p in obs.terms]
    heavy = [p for (_, p), s in zip(obs.terms, supports) if len(s) > 2]
    if heavy:
        raise ValueError(f"Z strings of weight above 2 are not supported: {heavy}")
    groups = _star_groups({s for s in supports if len(s) == 2}) or [[]]
    terms: list[list[tuple[float, str]]] = [[] for _ in groups]
    identity = "I" * obs.width
    for (coeff, pauli), support in zip(obs.terms, supports):
        if len(support) == 2:
            gi, target = next((gi, t) for gi, g in enumerate(groups)
                              for c, t in g if {c, t} == set(support))
        elif len(support) == 1:
            target = support[0]
            gi = next((gi for gi, g in enumerate(groups)
                       if all(t != target for _, t in g)), None)
            if gi is None:
                gi = len(groups)
                groups.append([])
                terms.append([])
        else:
            terms[0].append((coeff, pauli))
            continue
        terms[gi].append((coeff, identity[:target] + "Z" + identity[target + 1:]))
    return tuple(ParityGroup(tuple(g), PauliObservable(tuple(t)))
                 for g, t in zip(groups, terms))


# ---------------------------------------------------------------------------
# exact oracles


def oracle_mitigated_expectation(state: PauliState, obs: PauliObservable,
                                 m: int) -> float:
    """Tr(O rho^M) / Tr(rho^M) by exact matrix power of the state's density
    matrix (see :meth:`~vdcut.simulate.PauliState.matrix`)."""
    if m < 1:
        raise ValueError("copy count must be >= 1")
    power = np.linalg.matrix_power(state.matrix(), m)
    denom = np.trace(power).real
    if abs(denom) < 1e-14:
        raise EstimatorError(f"Tr(rho^{m}) = {denom} is degenerate")
    num = np.trace(obs.matrix() @ power).real
    return float(num / denom)


# ---------------------------------------------------------------------------
# sampled estimator


@dataclass(frozen=True)
class VDEstimate:
    """Numerator/denominator estimates of the mitigated expectation with
    their standard errors."""

    numerator: float
    denominator: float
    numerator_se: float
    denominator_se: float

    @property
    def mitigated(self) -> float:
        if self.denominator == 0.0 or abs(self.denominator) < 10.0 * self.denominator_se:
            raise EstimatorError(
                f"denominator {self.denominator} insignificant against its "
                f"standard error {self.denominator_se}")
        return self.numerator / self.denominator


@dataclass(frozen=True)
class ParityEstimate:
    """Mitigated expectation summed over parity groups, one independently
    sampled estimate per group (see :func:`parity_groups`).  A cut estimate
    also records, per group, the degenerate mass its recombination injected
    and the most negative reconstructed pairwise entry it clipped (0 when
    none was; see :func:`~vdcut.cutting.cut_estimate`)."""

    parts: tuple[VDEstimate, ...]
    recombination: tuple[tuple[float, float], ...] = ()

    @property
    def mitigated(self) -> float:
        return sum(p.mitigated for p in self.parts)


def estimate_from_distribution(dist: Distribution, obs: PauliObservable,
                               shots: int | None = None) -> VDEstimate:
    """Exact weighting of a (possibly reconstructed or sampled) outcome
    distribution; ``shots`` sets the nominal sample size used for the
    standard errors (None: exact, with standard errors of 0)."""
    if dist.width % 2:
        raise ValueError("VD outcomes must span an even number of qubits")
    n = dist.width // 2
    if obs.width != n:
        raise ValueError(f"observable width {obs.width} != {n} system qubits")
    # per pair i, over the 4^n outcomes: the copy bits z, zp and the swap
    # sign s (-1 on SINGLET_OUTCOME)
    bits = outcome_bits(2 * n)
    z, zp = bits[:n], bits[n:]
    s = np.where((z == int(SINGLET_OUTCOME[0])) & (zp == int(SINGLET_OUTCOME[1])), -1.0, 1.0)
    den_w = s.prod(axis=0)
    num_w = np.zeros(den_w.shape)
    for coeff, pauli in obs.terms:
        t_mask = np.array([ch == "Z" for ch in pauli])
        w = np.ones(den_w.shape)
        for i in range(n):
            if t_mask[i]:
                w = w * 0.5 * ((1.0 - 2.0 * z[i]) + (1.0 - 2.0 * zp[i]))
            else:
                w = w * s[i]
        num_w += coeff * w
    num = float(dist.probs @ num_w)
    den = float(dist.probs @ den_w)
    if shots is None:
        num_se = den_se = 0.0
    else:
        num_se = _sampled_se(dist.probs, num_w, num, shots)
        den_se = _sampled_se(dist.probs, den_w, den, shots)
    return VDEstimate(num, den, num_se, den_se)


def _sampled_se(weight_probs: np.ndarray, w: np.ndarray, mean: float, shots: int) -> float:
    """Standard error of the mean of weights ``w`` over ``shots`` draws from
    ``weight_probs``.  A variance of exactly 0 (every shot on outcomes of one
    weight) says nothing about the spread, so it is floored at the
    resolution of one shot, max|w| / shots."""
    var = max(float(weight_probs @ w ** 2) - mean ** 2, 0.0)
    if var == 0.0:
        return float(np.abs(w).max()) / shots
    return float(np.sqrt(var / shots))
