"""Circuit intermediate representation: gates, immutable circuits, dependency
layers, lightcone pruning and the line-oriented text format.

Conventions used throughout the package:

* Qubit 0 is the leftmost character of an outcome string and the most
  significant bit of a basis-state index.
* Two-qubit gate matrices are written with the first listed qubit as the most
  significant index, e.g. ``CNOT(a, b)`` has control ``a``.
* Circuits are immutable values holding only a width and a gate tuple;
  every transformation returns a new circuit.  What a gate belongs to
  (a copy, a diagonalizing gate, crosstalk) travels in its tag.
* Every gate kind has a fixed matrix, up to its angle; the diagonalizing
  gate of virtual distillation is the fixed two-qubit kind ``DIAG``.
* Circuits hold gates only.  Which qubits a run reads out travels with the
  run, as :attr:`vdcut.runner.Execution.measured`.
"""
from __future__ import annotations

import math
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

_ONE_QUBIT_KINDS = {RY, RZ, X, H}
_TWO_QUBIT_KINDS = {RZZ, CNOT, SWAP, DIAG}
_ROTATION_KINDS = {RY, RZ, RZZ}
KINDS = _ONE_QUBIT_KINDS | _TWO_QUBIT_KINDS


class CircuitError(ValueError):
    """Raised when a gate or circuit violates a structural invariant."""


@dataclass(frozen=True)
class Gate:
    """A single operation: gate kind, target qubits, optional angle, and a
    free-form label tag (e.g. ``"diag"``, ``"copy-0"``, ``"xtalk"``)."""

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

    def retagged(self, tag: str) -> "Gate":
        return replace(self, tag=tag)

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
    whole circuit."""

    width: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.width < 0:
            raise CircuitError("width must be non-negative")
        for g in self.ops:
            if max(g.qubits) >= self.width:
                raise CircuitError(
                    f"gate {g.kind}{g.qubits} out of range for width {self.width}")

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
    copies execute in the same layers."""
    n = circuit.width
    ops: list[Gate] = []
    for g in circuit.ops:
        ops.append(g.retagged("copy-0"))
        ops.append(g.shifted(n).retagged("copy-1"))
    return Circuit(2 * n, tuple(ops))


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
    """Real linear combination of Pauli strings, one letter per qubit."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        terms = tuple((float(c), str(p)) for c, p in self.terms)
        if not terms:
            raise CircuitError("observable needs at least one term")
        width = len(terms[0][1])
        for _, p in terms:
            if len(p) != width:
                raise CircuitError("all Pauli strings must have equal length")
            if any(ch not in "IXYZ" for ch in p):
                raise CircuitError(f"invalid Pauli letter in {p!r}")
        object.__setattr__(self, "terms", terms)

    @property
    def width(self) -> int:
        return len(self.terms[0][1])

    def is_diagonal(self) -> bool:
        return all(set(p) <= {"I", "Z"} for _, p in self.terms)

    def matrix(self) -> np.ndarray:
        singles = {
            "I": np.eye(2, dtype=complex),
            "X": _X_MATRIX,
            "Y": np.array([[0, -1j], [1j, 0]]),
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
