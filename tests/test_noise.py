"""Noise model parameters, presets, crosstalk insertion."""
import math

import numpy as np
import pytest

from vdcut.circuit import Circuit, cnot, swap
from vdcut.noise import (
    NoiseConfigError,
    NoiseModel,
    insert_zz_crosstalk,
    preset,
)


def test_default_parameters_match_device_medians():
    nm = NoiseModel()
    assert nm.two_qubit_depol == pytest.approx(7.936e-3)
    assert nm.two_qubit_time == pytest.approx(346.667e-9)
    assert nm.t1 == pytest.approx(120.385e-6)
    assert nm.t2 == pytest.approx(138.652e-6)
    assert nm.readout[0, 1] == pytest.approx(1.200e-2)
    assert nm.crosstalk_angle == pytest.approx(-math.pi / 3.5)
    assert nm.readout_pair[0, 0] == pytest.approx(0.991)
    assert nm.readout_pair[0, 1] == pytest.approx(0.003)


def test_presets():
    assert preset("noiseless") is None
    basic = preset("basic")
    assert not basic.gate_crosstalk and not basic.readout_crosstalk
    gct = preset("basic+gct")
    assert gct.gate_crosstalk and not gct.readout_crosstalk
    rct = preset("basic+gct+rct")
    assert rct.gate_crosstalk and rct.readout_crosstalk
    with pytest.raises(NoiseConfigError):
        preset("bogus")


def test_validation():
    with pytest.raises(NoiseConfigError):
        NoiseModel(t2=300e-6, t1=100e-6)  # T2 > 2 T1
    with pytest.raises(NoiseConfigError):
        NoiseModel(two_qubit_depol=1.5)
    with pytest.raises(NoiseConfigError):
        NoiseModel(readout=np.array([[0.9, 0.2], [0.1, 0.9]]))


@pytest.mark.parametrize("bad", [
    {"crosstalk_angle": math.nan}, {"crosstalk_angle": math.inf},
    {"t1": math.nan}, {"t2": math.nan},
    {"two_qubit_time": -1.0}, {"one_qubit_time": -1e-9},
    {"one_qubit_time": math.nan}, {"two_qubit_time": math.inf},
])
def test_non_finite_or_negative_values_refused_at_construction(bad):
    with pytest.raises(NoiseConfigError):
        NoiseModel(gate_crosstalk=True, **bad)


LINE4 = [(0, 1), (1, 2), (2, 3)]


def test_crosstalk_inserted_between_adjacent_parallel_gates():
    c = Circuit(4, (cnot(0, 1), cnot(2, 3)))
    out = insert_zz_crosstalk(c, LINE4)
    inserted = [g for g in out.ops if g.kind == "RZZ"]
    assert len(inserted) == 1
    assert inserted[0].qubits == (1, 2)
    assert inserted[0].angle == pytest.approx(-math.pi / 3.5)
    assert inserted[0].tag == "xtalk"


def test_crosstalk_single_gate_unchanged():
    c = Circuit(4, (cnot(0, 1),))
    out = insert_zz_crosstalk(c, LINE4)
    assert out.ops == c.ops


def test_crosstalk_nonadjacent_unchanged():
    line6 = [(i, i + 1) for i in range(5)]
    c = Circuit(6, (cnot(0, 1), cnot(4, 5)))
    out = insert_zz_crosstalk(c, line6)
    assert out.count("RZZ") == 0


def test_crosstalk_sequential_gates_unchanged():
    # same qubits force different layers, so no crosstalk
    c = Circuit(4, (cnot(0, 1), cnot(1, 2)))
    assert insert_zz_crosstalk(c, LINE4).count("RZZ") == 0


def test_crosstalk_counts_swaps_too():
    c = Circuit(4, (swap(0, 1), cnot(2, 3)))
    out = insert_zz_crosstalk(c, LINE4)
    assert out.count("RZZ") == 1


def test_crosstalk_lowest_index_pair_selected():
    # both (1,2) connect the two gates on a fully-coupled square
    square = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    c = Circuit(4, (cnot(0, 1), cnot(2, 3)))
    out = insert_zz_crosstalk(c, square)
    inserted = [g for g in out.ops if g.kind == "RZZ"]
    assert len(inserted) == 1
    assert inserted[0].qubits == (0, 2)


def test_crosstalk_inserts_per_layer():
    # two layers, each with one adjacent parallel pair
    c = Circuit(4, (cnot(0, 1), cnot(2, 3), cnot(1, 0), cnot(3, 2)))
    out = insert_zz_crosstalk(c, LINE4)
    assert out.count("RZZ") == 2
