"""Circuit intermediate representation: gates, immutable circuits, dependency
layers, lightcone pruning and the line-oriented text format.

Conventions used throughout the package:

* Qubit 0 is the leftmost character of an outcome string and the most
  significant bit of a basis-state index.
* Two-qubit gate matrices are written with the first listed qubit as the most
  significant index, e.g. ``CNOT(a, b)`` has control ``a``.
* Circuits are immutable values holding only a width and a gate tuple;
  every transformation returns a new circuit.  What a gate belongs to
  (a copy, the parity rotation, crosstalk) travels in its tag.
* Every gate kind has a fixed matrix, up to its angle; the diagonalizing
  gate of virtual distillation is the fixed two-qubit kind ``DIAG``.
* Circuits hold gates only.  Which qubits a run reads out travels with the
  run, as :attr:`vdcut.runner.Execution.measured`.
* A gate is checked where it enters the program: ``Gate(...)``, the kind
  helpers (:func:`ry`, :func:`cnot`, ...), :func:`from_text` and the
  method builders.  Transforms whose output is valid because their input
  was -- :func:`tensor_two_copies`, :meth:`Gate.retagged`,
  :func:`vdcut.transpile.route`'s relabel onto device labels and
  :func:`vdcut.transpile.decompose_to_basis`'s fixed expansions -- build
  their gates and circuits with ``_derived``, without a second check;
  :meth:`Gate.shifted` takes any offset, so it keeps the check.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

RY = "RY"
RZ = "RZ"
RZZ = "RZZ"
X = "X"
H = "H"
CNOT = "CNOT"
SWAP = "SWAP"
DIAG = "DIAG"

#: tag of the parity-rotation CNOTs; the first of them or of the ``DIAG``
#: gates starts a distillation circuit's measurement stage
PARITY_TAG = "parity"

_ONE_QUBIT_KINDS = {RY, RZ, X, H}
_TWO_QUBIT_KINDS = {RZZ, CNOT, SWAP, DIAG}
_ROTATION_KINDS = {RY, RZ, RZZ}
KINDS = _ONE_QUBIT_KINDS | _TWO_QUBIT_KINDS


class CircuitError(ValueError):
    """Raised when a gate or circuit violates a structural invariant."""


@dataclass(frozen=True)
class Gate:
    """A single operation: gate kind, target qubits, optional angle, and a
    free-form label tag (e.g. ``"copy-0"``, ``"parity"``, ``"xtalk"``);
    the diagonalizing gate is known by its kind, ``DIAG``, not a tag.

    Building one checks it: a known kind, its arity of distinct
    non-negative qubits (kept as plain ints) and a finite float angle on
    exactly the rotation kinds.  :meth:`_derived` skips that check for
    transforms that derive a gate from checked ones."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    tag: str = ""

    #: not a field, and None for every gate: the benchmark's gate key
    #: (``perfbench/tracing.py``) still reads it, and it goes when that
    #: key stops.
    unitary = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        arity = 1 if self.kind in _ONE_QUBIT_KINDS else 2
        if len(qubits) != arity:
            raise CircuitError(f"{self.kind} expects {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"{self.kind} qubits must be distinct, got {qubits}")
        if any(q < 0 for q in qubits):
            raise CircuitError(f"negative qubit index in {qubits}")
        if (self.angle is not None) != (self.kind in _ROTATION_KINDS):
            raise CircuitError(f"angle must be present iff kind is a rotation ({self.kind})")
        if self.angle is not None:
            angle = float(self.angle)
            if not math.isfinite(angle):
                raise CircuitError(f"{self.kind} angle must be finite, got {angle}")
            object.__setattr__(self, "angle", angle)

    @classmethod
    def _derived(cls, kind: str, qubits: tuple[int, ...], angle: float | None,
                 tag: str) -> "Gate":
        """A gate built without :meth:`__post_init__`.  Only for fields
        that already passed it: the kind and angle of a checked gate, and
        plain-int qubits that a map keeping them distinct and non-negative
        took from a checked gate's qubits."""
        gate = object.__new__(cls)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "qubits", qubits)
        object.__setattr__(gate, "angle", angle)
        object.__setattr__(gate, "tag", tag)
        return gate

    def retagged(self, tag: str) -> "Gate":
        return Gate._derived(self.kind, self.qubits, self.angle, tag)

    def shifted(self, offset: int) -> "Gate":
        return replace(self, qubits=tuple(q + offset for q in self.qubits))


def ry(theta: float, q: int, tag: str = "") -> Gate:
    return Gate(RY, (q,), angle=theta, tag=tag)


def rz(theta: float, q: int, tag: str = "") -> Gate:
    return Gate(RZ, (q,), angle=theta, tag=tag)


def rzz(theta: float, a: int, b: int, tag: str = "") -> Gate:
    return Gate(RZZ, (a, b), angle=theta, tag=tag)


def x(q: int, tag: str = "") -> Gate:
    return Gate(X, (q,), tag=tag)


def h(q: int, tag: str = "") -> Gate:
    return Gate(H, (q,), tag=tag)


def cnot(a: int, b: int, tag: str = "") -> Gate:
    return Gate(CNOT, (a, b), tag=tag)


def swap(a: int, b: int, tag: str = "") -> Gate:
    return Gate(SWAP, (a, b), tag=tag)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``width`` qubits; these two fields are the
    whole circuit.  Building one checks that ``width`` is a non-negative
    integer (kept as a plain int) and every gate lies within it;
    :meth:`_derived` skips that check for transforms that keep it."""

    width: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        try:
            width = operator.index(self.width)
        except TypeError:
            raise CircuitError(f"width must be an integer, got {self.width!r}") from None
        if width < 0:
            raise CircuitError("width must be non-negative")
        object.__setattr__(self, "width", width)
        for g in self.ops:
            if max(g.qubits) >= width:
                raise CircuitError(
                    f"gate {g.kind}{g.qubits} out of range for width {width}")

    @classmethod
    def _derived(cls, width: int, ops: tuple[Gate, ...]) -> "Circuit":
        """A circuit built without :meth:`__post_init__`, for a transform
        whose gates lie within ``width`` because its input's did."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "width", width)
        object.__setattr__(circuit, "ops", ops)
        return circuit

    def __len__(self) -> int:
        return len(self.ops)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.ops if g.kind == kind)


def extend(circuit: Circuit, gates: Iterable[Gate]) -> Circuit:
    """Return ``circuit`` with ``gates`` appended; the input is unchanged."""
    return Circuit(circuit.width, circuit.ops + tuple(gates))


def tensor_two_copies(circuit: Circuit) -> Circuit:
    """Two parallel copies of ``circuit``: copy 0 on qubits ``0..n-1`` (tagged
    ``copy-0``) and copy 1 on ``n..2n-1`` (tagged ``copy-1``).  Qubit ``i`` of
    copy 0 pairs with qubit ``n+i`` of copy 1.  Gates are interleaved so the
    copies execute in the same layers.  Both copies are derived from
    checked gates and shifted by the width, so neither is checked again."""
    n = circuit.width
    derived = Gate._derived
    ops: list[Gate] = []
    for g in circuit.ops:
        ops.append(g.retagged("copy-0"))
        ops.append(derived(g.kind, tuple(q + n for q in g.qubits), g.angle, "copy-1"))
    return Circuit._derived(2 * n, tuple(ops))


def lightcone(circuit: Circuit, sink_qubits: Iterable[int]) -> Circuit:
    """Backward dependency cone of the sink qubits' final wire segments.

    Gates with no dependency path to any sink wire are removed; relative order
    of the surviving gates is preserved.  Width is unchanged.
    """
    active = set(sink_qubits)
    kept: list[Gate] = []
    for g in reversed(circuit.ops):
        if active.intersection(g.qubits):
            kept.append(g)
            active.update(g.qubits)
    return Circuit(circuit.width, tuple(reversed(kept)))


def layers(circuit: Circuit) -> tuple[int, ...]:
    """The ASAP dependency layer of each gate: the earliest layer after that
    of every earlier gate sharing one of its qubits."""
    last: dict[int, int] = {}
    out: list[int] = []
    for g in circuit.ops:
        layer = 0
        for q in g.qubits:
            if q in last:
                layer = max(layer, last[q] + 1)
        for q in g.qubits:
            last[q] = layer
        out.append(layer)
    return tuple(out)


# ---------------------------------------------------------------------------
# gate matrices


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def _rzz_matrix(theta: float) -> np.ndarray:
    p = np.exp(-1j * theta / 2)
    m = np.exp(1j * theta / 2)
    return np.diag([p, m, m, p]).astype(complex)


_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_R2 = 1.0 / np.sqrt(2.0)
#: the diagonalizing gate, :data:`vdcut.vd.DIAG_UNITARY`: identity on |00>
#: and |11>, a Hadamard on span(|01>, |10>); real and its own inverse
_DIAG_MATRIX = np.array(
    [[1, 0, 0, 0], [0, _R2, _R2, 0], [0, _R2, -_R2, 0], [0, 0, 0, 1]], dtype=complex)
_DIAG_MATRIX.setflags(write=False)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a gate, with the first listed qubit as the most significant
    index."""
    if gate.kind == RY:
        return _ry_matrix(gate.angle)
    if gate.kind == RZ:
        return _rz_matrix(gate.angle)
    if gate.kind == RZZ:
        return _rzz_matrix(gate.angle)
    if gate.kind == X:
        return _X_MATRIX
    if gate.kind == H:
        return _H_MATRIX
    if gate.kind == CNOT:
        return _CNOT_MATRIX
    if gate.kind == SWAP:
        return _SWAP_MATRIX
    return _DIAG_MATRIX


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class PauliObservable:
    """Real linear combination of Z strings, one letter (``I`` or ``Z``) per
    qubit.  Every observable the methods read is diagonal in the
    computational basis once the diagonalizing gates have run, so any
    other letter is refused when the observable is built."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        terms = tuple((float(c), str(p)) for c, p in self.terms)
        if not terms:
            raise CircuitError("observable needs at least one term")
        width = len(terms[0][1])
        for _, p in terms:
            if len(p) != width:
                raise CircuitError("all Pauli strings must have equal length")
            if any(ch not in "IZ" for ch in p):
                raise CircuitError(f"Pauli letter other than I or Z in {p!r}")
        object.__setattr__(self, "terms", terms)

    @property
    def width(self) -> int:
        return len(self.terms[0][1])

    def matrix(self) -> np.ndarray:
        singles = {
            "I": np.eye(2, dtype=complex),
            "Z": np.diag([1.0, -1.0]).astype(complex),
        }
        dim = 2 ** self.width
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, p in self.terms:
            m = np.array([[1.0 + 0j]])
            for ch in p:
                m = np.kron(m, singles[ch])
            out += coeff * m
        return out


# ---------------------------------------------------------------------------
# text serialization: one gate per line, `KIND q0[,q1][,angle][,#tag]`


def to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.width}"]
    for g in circuit.ops:
        fields = [str(q) for q in g.qubits]
        if g.angle is not None:
            fields.append(f"{g.angle:.17g}")
        if g.tag:
            fields.append(f"#{g.tag}")
        lines.append(f"{g.kind} {','.join(fields)}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    """Parse :func:`to_text` output.  ``Measure q`` lines of older circuit
    files are read and dropped, since a run names the qubits it reads; a
    gate after one on the same qubit is still rejected."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise CircuitError("missing `qubits N` header")
    width = int(lines[0].split()[1])
    ops = []
    measured: set[int] = set()
    for ln in lines[1:]:
        try:
            kind, rest = ln.split(None, 1)
        except ValueError:
            raise CircuitError(f"malformed line {ln!r}") from None
        fields = rest.split(",")
        tag = ""
        if fields and fields[-1].startswith("#"):
            tag = fields.pop()[1:]
        if kind == "Measure":
            if len(fields) != 1 or not 0 <= int(fields[0]) < width:
                raise CircuitError(f"bad measurement {ln!r}")
            measured.add(int(fields[0]))
            continue
        if kind not in KINDS:
            raise CircuitError(f"unknown gate kind {kind!r} in {ln!r}")
        arity = 1 if kind in _ONE_QUBIT_KINDS else 2
        qubits = tuple(int(f) for f in fields[:arity])
        angle = None
        if kind in _ROTATION_KINDS:
            if len(fields) != arity + 1:
                raise CircuitError(f"missing angle in {ln!r}")
            angle = float(fields[arity])
        elif len(fields) != arity:
            raise CircuitError(f"wrong field count in {ln!r}")
        if measured.intersection(qubits):
            raise CircuitError(f"gate after measurement in {ln!r}")
        ops.append(Gate(kind, qubits, angle=angle, tag=tag))
    return Circuit(width, tuple(ops))
