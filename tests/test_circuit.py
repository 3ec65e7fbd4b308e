"""Circuit IR: construction invariants, copies, lightcone, layers, text format."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdcut.circuit import (
    Circuit,
    CircuitError,
    PauliObservable,
    cnot,
    extend,
    from_text,
    gate_matrix,
    h,
    layers,
    lightcone,
    ry,
    rz,
    rzz,
    swap,
    tensor_two_copies,
    to_text,
    x,
)
from vdcut.benchmarks import real_amplitudes
from vdcut.simulate import evolve
from vdcut.vd import DIAG_UNITARY, diag_gate_on

from helpers import full_unitary, random_circuit


def test_append_returns_new_circuit():
    c = Circuit(2)
    c2 = extend(c, [cnot(0, 1)])
    assert len(c) == 0
    assert len(c2) == 1
    assert c2.ops[0].kind == "CNOT"


def test_append_out_of_range():
    with pytest.raises(CircuitError):
        extend(Circuit(1), [cnot(0, 1)])


def test_gate_after_measurement_rejected():
    """Circuit files may still carry ``Measure q`` lines: they are dropped,
    and a gate after one on the same qubit is refused."""
    c = from_text("qubits 2\nRY 0,0.5\nMeasure 0\nRY 1,0.25\nMeasure 1,#readout\n")
    assert c == Circuit(2, (ry(0.5, 0), ry(0.25, 1)))
    with pytest.raises(CircuitError):
        from_text("qubits 2\nMeasure 0\nRY 0,0.1\n")
    # other qubits remain usable
    assert from_text("qubits 2\nMeasure 0\nRY 1,0.1\n").ops == (ry(0.1, 1),)
    for bad in ("Measure 2", "Measure -1", "Measure 0,1"):
        with pytest.raises(CircuitError):
            from_text(f"qubits 2\n{bad}\n")


def test_gate_validation():
    with pytest.raises(CircuitError):
        cnot(1, 1)
    with pytest.raises(CircuitError):
        ry(None, 0)
    with pytest.raises(CircuitError):
        diag_gate_on(0, 0)


def test_shifted_gate_is_checked():
    """A shift takes any offset, so the shifted gate is checked again."""
    with pytest.raises(CircuitError):
        cnot(0, 1).shifted(-1)
    assert cnot(0, 1).shifted(2) == cnot(2, 3)


def test_circuit_width_is_a_plain_int():
    """Derived circuits shift qubits by the width, so a width is kept as a
    plain int and anything that is not an integer is refused."""
    c = Circuit(np.int64(2), (cnot(0, 1),))
    assert type(c.width) is int
    assert all(type(q) is int for g in tensor_two_copies(c).ops for q in g.qubits)
    for bad in (2.0, "2", None):
        with pytest.raises(CircuitError, match="integer"):
            Circuit(bad)


def test_non_finite_angle_rejected():
    """A NaN or infinite angle is refused by the gate itself, so also when
    it comes from a circuit file or from the ansatz parameters."""
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(CircuitError, match="finite"):
            rzz(angle, 0, 1)
    with pytest.raises(CircuitError, match="finite"):
        from_text("qubits 1\nRY 0,nan\n")
    with pytest.raises(CircuitError, match="finite"):
        real_amplitudes(2, 1, "circular", [0.1, np.nan, 0.3, 0.4])


def test_tensor_two_copies_single_qubit():
    c = Circuit(1, (ry(0.3, 0),))
    c2 = tensor_two_copies(c)
    assert c2.width == 2
    kinds = [(g.kind, g.qubits, g.tag) for g in c2.ops]
    assert kinds == [("RY", (0,), "copy-0"), ("RY", (1,), "copy-1")]


def test_tensor_two_copies_counts():
    rng = np.random.default_rng(5)
    c = random_circuit(3, 12, rng)
    c2 = tensor_two_copies(c)
    assert c2.width == 6
    assert len(c2) == 2 * len(c)


def test_two_copies_state_is_product():
    """Noiseless output of the doubled circuit equals rho (x) rho."""
    rng = np.random.default_rng(7)
    c = random_circuit(3, 14, rng)
    rho = evolve(c).matrix()
    both = evolve(tensor_two_copies(c)).matrix()
    assert np.abs(both - np.kron(rho, rho)).max() < 1e-12


def test_lightcone_trivial():
    c = Circuit(2, (ry(0.1, 0), ry(0.2, 1)))
    pruned = lightcone(c, {0})
    assert [g.qubits for g in pruned.ops] == [(0,)]


def test_lightcone_through_cnot():
    c = Circuit(3, (cnot(0, 1), ry(0.2, 2)))
    pruned = lightcone(c, {1})
    assert [g.kind for g in pruned.ops] == ["CNOT"]


def test_lightcone_idempotent_and_sound():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, int(rng.integers(4, 20)), rng)
        sinks = set(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
        pruned = lightcone(c, sinks)
        again = lightcone(pruned, sinks)
        assert pruned.ops == again.ops
        # reduced state on the sinks is unchanged by pruning
        keep = sorted(sinks)
        r1 = _reduced(evolve(c).matrix(), keep, n)
        r2 = _reduced(evolve(pruned).matrix(), keep, n)
        assert np.abs(r1 - r2).max() < 1e-12


def _reduced(rho, keep, n):
    t = rho.reshape((2,) * (2 * n))
    drop = [q for q in range(n) if q not in keep]
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def test_dag_layers():
    assert layers(Circuit(2, (ry(0.1, 0), ry(0.2, 1)))) == (0, 0)
    assert layers(Circuit(3, (cnot(0, 1), cnot(1, 2)))) == (0, 1)
    assert layers(Circuit(4, (cnot(0, 1), cnot(2, 3)))) == (0, 0)
    assert layers(Circuit(3, (cnot(0, 1), ry(0.1, 2), cnot(1, 2), ry(0.2, 0)))) == (0, 0, 1, 1)


def test_dag_no_shared_layer_on_shared_qubit():
    rng = np.random.default_rng(3)
    c = random_circuit(4, 25, rng)
    found = layers(c)
    for i, gi in enumerate(c.ops):
        for j in range(i + 1, len(c.ops)):
            if set(gi.qubits) & set(c.ops[j].qubits):
                assert found[i] != found[j]


def test_gate_matrices_unitary():
    for g in (ry(0.7, 0), rz(-1.2, 0), rzz(0.5, 0, 1), x(0), h(0), cnot(0, 1), swap(0, 1),
              diag_gate_on(0, 1)):
        u = gate_matrix(g)
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12
    # the diagonalizing gate's matrix is the one constant, and its own inverse
    assert gate_matrix(diag_gate_on(1, 0)) is DIAG_UNITARY
    assert np.abs(DIAG_UNITARY @ DIAG_UNITARY - np.eye(4)).max() < 1e-15


def test_rzz_matrix_diagonal():
    u = gate_matrix(rzz(0.8, 0, 1))
    expected = np.diag(np.exp(-1j * 0.8 / 2 * np.array([1, -1, -1, 1])))
    assert np.abs(u - expected).max() < 1e-15


def test_observable_validation():
    """Observables are Z strings: an X or Y letter is refused when the
    observable is built (a ``CircuitError`` is a ``ValueError``), so no
    expectation, parity grouping or estimator ever sees one."""
    with pytest.raises(CircuitError):
        PauliObservable(((1.0, "IZQ"),))
    with pytest.raises(CircuitError):
        PauliObservable(((1.0, "IZ"), (1.0, "IZZ")))
    for terms in (((1.0, "X"),), ((1.0, "Y"),), ((1.0, "XZ"),),
                  ((1.0, "ZZ"), (0.5, "IY"))):
        with pytest.raises(ValueError, match="other than I or Z"):
            PauliObservable(terms)
    obs = PauliObservable(((0.5, "III"), (-0.5, "ZZI")))
    assert obs.width == 3


def test_text_roundtrip_examples():
    c = Circuit(3, (ry(np.pi / 3, 0), cnot(2, 0, tag="copy-1"), rzz(-0.4, 0, 1), h(2)))
    txt = to_text(c)
    assert txt.splitlines()[0] == "qubits 3"
    c2 = from_text(txt)
    assert to_text(c2) == txt
    assert c2.ops == c.ops


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_text_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 5)), int(rng.integers(0, 15)), rng)
    assert from_text(to_text(c)).ops == c.ops


def test_text_roundtrips_diag_gate():
    """The diagonalizing gate is a gate kind, so a circuit file can hold it,
    in either orientation."""
    c = Circuit(3, (h(0), diag_gate_on(0, 2), diag_gate_on(1, 0).retagged("copy-1")))
    txt = to_text(c)
    assert txt.splitlines()[2:] == ["DIAG 0,2", "DIAG 1,0,#copy-1"]
    assert from_text(txt).ops == c.ops
    with pytest.raises(CircuitError):
        from_text("qubits 2\nDIAG 0,1,0.5\n")  # the gate takes no angle


def test_full_unitary_oracle_matches_engine():
    """The brute-force kron oracle and the contraction engine agree."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = random_circuit(3, 10, rng)
        u = full_unitary(c)
        rho = evolve(c).matrix()
        psi = u[:, 0]
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-12
