"""Noise model configuration: gate depolarizing rates, thermal relaxation
times, readout confusion matrices, and ZZ-crosstalk circuit augmentation.

Three built-in presets mirror a 27-qubit superconducting device's median
calibration: ``basic`` (depolarizing + thermal relaxation + independent
readout error), ``basic+gct`` (adds coherent ZZ crosstalk between same-layer
adjacent two-qubit gates) and ``basic+gct+rct`` (adds correlated readout
error on neighboring measured pairs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .circuit import CNOT, DIAG, SWAP, Circuit, Gate, layers, rzz

CROSSTALK_TAG = "xtalk"

_DEFAULT_READOUT_ERROR = 1.200e-2
_DEFAULT_PAIR_DIAG = 0.991
_DEFAULT_PAIR_OFF = 0.003


def _default_readout() -> np.ndarray:
    e = _DEFAULT_READOUT_ERROR
    return np.array([[1 - e, e], [e, 1 - e]])


def _default_readout_pair() -> np.ndarray:
    m = np.full((4, 4), _DEFAULT_PAIR_OFF)
    np.fill_diagonal(m, _DEFAULT_PAIR_DIAG)
    return m


class NoiseConfigError(ValueError):
    """Raised for physically inconsistent noise parameters."""


@dataclass(frozen=True)
class NoiseModel:
    """Device noise parameters.

    Rates are dimensionless depolarizing probabilities, durations are in
    seconds.  ``readout`` is the per-qubit 2x2 row-stochastic confusion
    matrix (row = prepared state, column = observed state); ``readout_pair``
    is the 4x4 analogue applied to neighboring measured pairs when readout
    crosstalk is enabled.  Both crosstalk mechanisms take the coupled qubit
    pairs from the compiled circuit they act on, not from the model.
    """

    two_qubit_depol: float = 7.936e-3
    one_qubit_depol: float = 0.0
    two_qubit_time: float = 346.667e-9
    one_qubit_time: float = 35.5e-9
    t1: float = 120.385e-6
    t2: float = 138.652e-6
    readout: np.ndarray = field(default_factory=_default_readout)
    gate_crosstalk: bool = False
    crosstalk_angle: float = -math.pi / 3.5
    readout_crosstalk: bool = False
    readout_pair: np.ndarray = field(default_factory=_default_readout_pair)

    def __post_init__(self):
        for name in ("two_qubit_depol", "one_qubit_depol"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise NoiseConfigError(f"{name}={rate} outside [0, 1]")
        if self.t1 <= 0 or self.t2 <= 0:
            raise NoiseConfigError("relaxation times must be positive")
        if self.t2 > 2 * self.t1 + 1e-15:
            raise NoiseConfigError(f"T2={self.t2} exceeds 2*T1={2 * self.t1}")
        ro = np.array(self.readout, dtype=float)
        pair = np.array(self.readout_pair, dtype=float)
        if ro.shape != (2, 2) or pair.shape != (4, 4):
            raise NoiseConfigError("confusion matrices must be 2x2 and 4x4")
        for m in (ro, pair):
            if (m < 0).any() or np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
                raise NoiseConfigError("confusion matrix rows must be stochastic")
        ro.setflags(write=False)
        pair.setflags(write=False)
        object.__setattr__(self, "readout", ro)
        object.__setattr__(self, "readout_pair", pair)


#: Sentinel for ideal simulation; anywhere a NoiseModel is accepted, ``None``
#: means noiseless.
NOISELESS = None

PRESETS = ("basic", "basic+gct", "basic+gct+rct", "noiseless")


def preset(name: str) -> NoiseModel | None:
    """Build one of the built-in noise presets (``noiseless`` yields None)."""
    if name == "noiseless":
        return NOISELESS
    if name == "basic":
        return NoiseModel()
    if name == "basic+gct":
        return NoiseModel(gate_crosstalk=True)
    if name == "basic+gct+rct":
        return NoiseModel(gate_crosstalk=True, readout_crosstalk=True)
    raise NoiseConfigError(f"unknown noise preset {name!r} (choose from {PRESETS})")


#: two-qubit device gates that participate in crosstalk (RZZ itself models
#: the crosstalk and is excluded)
_CROSSTALK_KINDS = (CNOT, SWAP, DIAG)


def insert_zz_crosstalk(circuit: Circuit, edges: Iterable[tuple[int, int]],
                        angle: float = -math.pi / 3.5) -> Circuit:
    """Insert coherent RZZ crosstalk after layers with adjacent parallel
    two-qubit gates.

    For every unordered pair of two-qubit device gates (CNOT, SWAP or the
    diagonalizing gate DIAG) in the same dependency layer whose qubit
    sets contain qubits coupled by one of ``edges``, one ``RZZ(angle)`` tagged
    ``"xtalk"`` is inserted immediately after that layer on the lowest-index
    adjacent cross-gate qubit pair.  :func:`~vdcut.runner.compile_circuit`
    applies it after basis decomposition, so crosstalk follows per-CNOT
    scheduling: a SWAP contributes its three CNOTs, each in its own layer.
    """
    edges = {tuple(sorted(e)) for e in edges}
    by_layer: dict[int, list[int]] = {}
    for i, layer in enumerate(layers(circuit)):
        by_layer.setdefault(layer, []).append(i)
    out: list[Gate] = []
    for layer in sorted(by_layer):
        members = by_layer[layer]
        out.extend(circuit.ops[i] for i in members)
        twoq = [i for i in members if circuit.ops[i].kind in _CROSSTALK_KINDS]
        for ai in range(len(twoq)):
            for bi in range(ai + 1, len(twoq)):
                g1 = circuit.ops[twoq[ai]]
                g2 = circuit.ops[twoq[bi]]
                cross = sorted(
                    tuple(sorted((p, q)))
                    for p in g1.qubits for q in g2.qubits
                    if tuple(sorted((p, q))) in edges
                )
                if cross:
                    a, b = cross[0]
                    out.append(rzz(angle, a, b, tag=CROSSTALK_TAG))
    return Circuit(circuit.width, tuple(out))
