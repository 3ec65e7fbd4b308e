"""Diagonalizing-gate folding and linear extrapolation."""
import numpy as np
import pytest

from vdcut.benchmarks import real_amplitudes
from vdcut.circuit import Circuit, ry
from vdcut.noise import NoiseModel
from vdcut.simulate import blocks, evolve, exact_probs, tv_distance
from vdcut.transpile import cnot_count, decompose_to_basis
from vdcut.vd import DIAG_UNITARY, build_vd_circuit, diag_gate_on
from vdcut.zne import FoldingError, extrapolate_linear, fold_diagonalizing

from helpers import density_matrix, embed, full_unitary, purity


def _vd(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return build_vd_circuit(real_amplitudes(n, 1, "circular",
                                            rng.uniform(0, 2 * np.pi, 2 * n)))


def test_scale_one_is_identity():
    vd = _vd()
    assert fold_diagonalizing(vd, 1).ops == vd.ops


def test_fold_counts_and_tags():
    vd = _vd(n=3)
    n_diag = sum(1 for g in vd.ops if g.tag == "diag")
    for scale in (3, 5):
        folded = fold_diagonalizing(vd, scale)
        folded_diag = sum(1 for g in folded.ops if g.tag == "diag")
        assert folded_diag == scale * n_diag
        assert len(folded) == len(vd) + (scale - 1) * n_diag


def test_fold_preserves_noiseless_semantics():
    vd = _vd(n=2, seed=3)
    ref = exact_probs(evolve(vd))
    for scale in (3, 5):
        got = exact_probs(evolve(fold_diagonalizing(vd, scale)))
        assert tv_distance(got, ref) < 1e-10


def test_fold_unitary_is_g_times_adjoint_pairs():
    """A fold at scale 2k+1 puts G (G^dag G)^k in place of each
    diagonalizing gate G, in either orientation, and leaves the other gates
    alone, so the folded distillation circuit has the original's unitary."""
    g = DIAG_UNITARY
    for gate in (diag_gate_on(0, 1), diag_gate_on(1, 0)):
        c = Circuit(2, (ry(0.3, 0), gate, ry(0.5, 1)))
        for scale in (3, 5):
            folded = fold_diagonalizing(c, scale)
            assert folded.ops == (c.ops[0],) + (gate,) * scale + (c.ops[-1],)
            want = g @ np.linalg.matrix_power(g.conj().T @ g, (scale - 1) // 2)
            got = full_unitary(Circuit(2, folded.ops[1:-1]))
            assert np.abs(got - embed(want, gate.qubits, 2)).max() < 1e-14
    vd = _vd(n=2, seed=2)
    for scale in (3, 5):
        assert np.abs(full_unitary(fold_diagonalizing(vd, scale))
                      - full_unitary(vd)).max() < 1e-12


def test_fold_refuses_a_decomposed_distillation_circuit():
    """Once decomposed, the diagonalizing gates are diag-tagged basis gates
    that are no longer their own inverse, so folding them is refused."""
    decomposed = decompose_to_basis(_vd())
    assert fold_diagonalizing(decomposed, 1) is decomposed
    with pytest.raises(FoldingError, match="diag-tagged"):
        fold_diagonalizing(decomposed, 3)


def test_fold_validation():
    vd = _vd()
    with pytest.raises(FoldingError):
        fold_diagonalizing(vd, 2)
    with pytest.raises(FoldingError):
        fold_diagonalizing(vd, 0)
    with pytest.raises(FoldingError):
        fold_diagonalizing(Circuit(1, (ry(0.2, 0),)), 3)  # nothing to fold


def test_fold_increases_decomposed_cnots():
    vd = _vd(n=4, seed=5)
    counts = [cnot_count(decompose_to_basis(fold_diagonalizing(vd, s)))
              for s in (1, 3, 5)]
    assert counts[0] < counts[1] < counts[2]


def test_fold_amplifies_mixing():
    """Purity of the folded circuit's output is non-increasing in the scale
    under the depolarizing model."""
    nm = NoiseModel()
    vd = _vd(n=2, seed=7)
    folded = [decompose_to_basis(fold_diagonalizing(vd, s)) for s in (1, 3, 5)]
    purities = [purity(density_matrix(evolve(blocks(c, nm)))) for c in folded]
    assert purities[0] >= purities[1] >= purities[2]


def test_extrapolate_exact_line():
    assert extrapolate_linear((1, 3, 5), (0.9, 0.7, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_extrapolate_constant_data():
    assert extrapolate_linear((1, 3, 5), (0.42,) * 3) == pytest.approx(0.42, abs=1e-12)


def test_extrapolate_validation():
    with pytest.raises(FoldingError):
        extrapolate_linear((1,), (0.5,))
    with pytest.raises(FoldingError):
        extrapolate_linear((3, 3), (0.5, 0.6))
    with pytest.raises(FoldingError):
        extrapolate_linear((1, 3, 5), (0.5, 0.6))
