"""Virtual distillation: diagonalizing gate, oracles, sampled estimator."""
import numpy as np
import pytest

from vdcut.circuit import Circuit, PauliObservable, cnot, h, ry
from vdcut.noise import NoiseModel
from vdcut.simulate import (
    Counts,
    DensityMatrix,
    blocks,
    evolve,
    exact_probs,
    expectation,
    sample,
)
from vdcut.vd import (
    DIAG_UNITARY,
    SINGLET_OUTCOME,
    EstimatorError,
    VDEstimate,
    build_vd_circuit,
    dominant_eigenstate_expectation,
    eigen_spectrum,
    estimate_from_distribution,
    oracle_mitigated_expectation,
)

from helpers import random_density_matrix

def _from_counts(counts: Counts, obs: PauliObservable):
    return estimate_from_distribution(counts.to_distribution(), obs, shots=counts.shots)


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def test_diagonalizing_gate_invariants():
    d = DIAG_UNITARY @ SWAP @ DIAG_UNITARY.conj().T
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-14
    spec = np.real(np.diag(d))
    assert sorted(np.round(spec).astype(int).tolist()) == [-1, 1, 1, 1]
    assert spec[int(SINGLET_OUTCOME, 2)] == pytest.approx(-1.0)


def test_build_vd_circuit_structure():
    orig = Circuit(1, (ry(0.4, 0),))
    vd = build_vd_circuit(orig)
    assert vd.width == 2
    assert sum(1 for g in vd.ops if g.tag == "diag") == 1
    assert vd.count("Measure") == 2

    orig3 = Circuit(3, tuple(ry(0.1 * (i + 1), i) for i in range(3))
                    + (cnot(2, 0), cnot(0, 1), cnot(1, 2)))
    vd3 = build_vd_circuit(orig3)
    assert vd3.width == 6
    diags = [g for g in vd3.ops if g.tag == "diag"]
    assert [g.qubits for g in diags] == [(0, 3), (1, 4), (2, 5)]
    assert len(vd3.ops) == 2 * len(orig3.ops) + 3 + 6


def test_oracle_pure_state_any_power():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(2, np.outer(psi, psi.conj()))
    obs = PauliObservable(((1.0, "ZI"), (0.5, "ZZ")))
    base = oracle_mitigated_expectation(rho, obs, 1)
    for m in (2, 3, 5):
        assert abs(oracle_mitigated_expectation(rho, obs, m) - base) < 1e-12


def test_oracle_hand_value():
    rho = DensityMatrix(1, np.diag([0.8, 0.2]))
    z = PauliObservable(((1.0, "Z"),))
    got = oracle_mitigated_expectation(rho, z, 2)
    assert got == pytest.approx((0.64 - 0.04) / (0.64 + 0.04))
    assert got == pytest.approx(0.8823529411764706)


def test_oracle_eigendecomposition_cross_check():
    """Independent oracle: evaluate Eq-style mitigated value from the
    spectral decomposition instead of the matrix power."""
    rng = np.random.default_rng(1)
    z0 = PauliObservable(((1.0, "ZI"),))
    for _ in range(20):
        rho = DensityMatrix(2, random_density_matrix(2, rng))
        vals, vecs = eigen_spectrum(rho)
        for m in (1, 2, 3):
            num = sum(
                vals[k] ** m * np.real(vecs[:, k].conj() @ z0.matrix() @ vecs[:, k])
                for k in range(4))
            den = float((vals ** m).sum())
            assert abs(oracle_mitigated_expectation(rho, z0, m) - num / den) < 1e-10


def test_oracle_converges_to_dominant_eigenstate():
    rho = DensityMatrix(1, np.diag([0.8, 0.2]))
    z = PauliObservable(((1.0, "Z"),))
    vals = [oracle_mitigated_expectation(rho, z, m) for m in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)
    assert dominant_eigenstate_expectation(rho, z) == pytest.approx(1.0)


def test_oracle_degenerate_trace_error():
    rho = DensityMatrix(1, np.eye(2) / 2)
    z = PauliObservable(((1.0, "Z"),))
    with pytest.raises(EstimatorError):
        oracle_mitigated_expectation(rho, z, 4000)


def _vd_distribution(rho: np.ndarray, n: int) -> np.ndarray:
    """Exact VD-circuit outcome distribution for an arbitrary input state."""
    big = np.kron(rho, rho)
    full = np.eye(1, dtype=complex)
    # pair (i, n+i): build the joint diagonalizing unitary by explicit kron
    u = np.eye(4 ** n, dtype=complex)
    for i in range(n):
        gate = np.eye(1, dtype=complex)
        # permutation-based embedding over wire order
        m = _embed_pair(DIAG_UNITARY, i, n + i, 2 * n)
        u = m @ u
    out = u @ big @ u.conj().T
    return np.real(np.diag(out))


def _embed_pair(u4, a, b, width):
    rest = [q for q in range(width) if q not in (a, b)]
    order = [a, b] + rest
    big = np.kron(u4, np.eye(2 ** (width - 2), dtype=complex))
    perm = np.argsort(order)
    t = big.reshape((2,) * (2 * width))
    t = np.transpose(t, list(perm) + [width + p for p in perm])
    return t.reshape(2 ** width, 2 ** width)


def test_estimator_unbiased_single_qubit_strings():
    """Exhaustive-outcome expectations equal Tr(Z_j rho^2) and Tr(rho^2) for
    arbitrary mixed states."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(8):
            rho = random_density_matrix(n, rng)
            probs = _vd_distribution(rho, n)
            r2 = rho @ rho
            for j in range(n):
                obs = PauliObservable.z_string(n, [j])
                est = estimate_from_distribution(
                    _as_dist(probs, 2 * n), obs)
                want = np.real(np.trace(obs.matrix() @ r2))
                assert abs(est.numerator - want) < 1e-10
                assert abs(est.denominator - np.real(np.trace(r2))) < 1e-10


def test_estimator_exact_on_diagonal_states_all_strings():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        p = rng.random(2 ** n)
        rho = np.diag(p / p.sum()).astype(complex)
        probs = _vd_distribution(rho, n)
        r2 = rho @ rho
        for qubits in ([0], [n - 1], [0, 1], [0, n - 1]):
            obs = PauliObservable.z_string(n, qubits)
            est = estimate_from_distribution(_as_dist(probs, 2 * n), obs)
            want = np.real(np.trace(obs.matrix() @ r2))
            assert abs(est.numerator - want) < 1e-10


def test_estimator_multiqubit_strings_measure_symmetrized_functional():
    """For |T| = 2 the numerator equals the copy-symmetrized functional
    2^-|T| sum_A Tr(Z_A rho Z_T\\A rho); coherence terms across both
    observable qubits are invisible to pairwise measurements."""
    rng = np.random.default_rng(7)
    n = 2
    zz = PauliObservable.z_string(n, [0, 1])
    z0 = PauliObservable.z_string(n, [0]).matrix()
    z1 = PauliObservable.z_string(n, [1]).matrix()
    for _ in range(10):
        rho = random_density_matrix(n, rng)
        probs = _vd_distribution(rho, n)
        est = estimate_from_distribution(_as_dist(probs, 2 * n), zz)
        want = 0.5 * np.real(
            np.trace(zz.matrix() @ rho @ rho) + np.trace(z0 @ rho @ z1 @ rho))
        assert abs(est.numerator - want) < 1e-10


def _as_dist(probs, width):
    from vdcut.simulate import Distribution
    return Distribution(width, np.clip(probs, 0, None) / probs.sum())


def test_estimator_purity_bound():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(10):
            rho = random_density_matrix(n, rng)
            probs = _vd_distribution(rho, n)
            obs = PauliObservable.z_string(n, [0])
            est = estimate_from_distribution(_as_dist(probs, 2 * n), obs)
            assert 1.0 / 2 ** n - 1e-12 <= est.denominator <= 1.0 + 1e-12


def test_sampled_estimator_matches_oracle_within_5_sigma():
    """Noisy 1-qubit preparation of diag(0.8, 0.2); sampled mitigated value
    matches the hand oracle 0.88235..."""
    rho = np.diag([0.8, 0.2]).astype(complex)
    probs = _vd_distribution(rho, 1)
    dist = _as_dist(probs, 2)
    counts = sample(dist, 10 ** 6, seed=11)
    est = _from_counts(counts, PauliObservable(((1.0, "Z"),)))
    want = 0.8823529411764706
    assert abs(est.mitigated - want) < 5 * est.mitigated_se
    assert est.mitigated == pytest.approx(want, abs=0.01)


def test_noise_free_fixed_point_single_qubit_terms():
    """VD of a noiseless pure-state circuit reproduces ideal single-qubit
    expectations exactly (from exact outcome probabilities)."""
    orig = Circuit(2, (ry(0.7, 0), cnot(0, 1), ry(-0.3, 1)))
    dm = evolve(orig)
    vd = build_vd_circuit(orig)
    dist = exact_probs(evolve(vd.without_measurements()))
    for j in range(2):
        obs = PauliObservable.z_string(2, [j])
        est = estimate_from_distribution(dist, obs)
        assert abs(est.mitigated - expectation(dm, obs)) < 1e-10


def test_noisy_estimator_matches_matrix_oracle():
    """Mitigated estimate from the noisy VD distribution equals the oracle
    applied to the noisy copy state (single-qubit observable)."""
    nm = NoiseModel(two_qubit_depol=5e-2, one_qubit_depol=1e-2)
    orig = Circuit(1, (ry(1.1, 0), ry(-0.4, 0)))
    rho = evolve(blocks(orig, nm))
    probs = _vd_distribution(rho.matrix, 1)
    obs = PauliObservable(((1.0, "Z"),))
    est = estimate_from_distribution(_as_dist(probs, 2), obs)
    want = oracle_mitigated_expectation(rho, obs, 2)
    assert abs(est.mitigated - want) < 1e-10


def test_denominator_insignificance_raises():
    est = VDEstimate(numerator=0.5, denominator=0.01, numerator_se=0.1,
                     denominator_se=0.05, shots=100)
    with pytest.raises(EstimatorError):
        _ = est.mitigated
    est = VDEstimate(numerator=0.5, denominator=0.0, numerator_se=0.0,
                     denominator_se=0.0)
    with pytest.raises(EstimatorError):
        _ = est.mitigated


def test_zero_sampled_variance_is_floored_at_one_shot():
    """Shots that all land on one outcome give a standard error of
    max|w| / shots, not 0; a spread sample keeps sqrt(var / shots)."""
    z = PauliObservable(((1.0, "Z"),))
    est = _from_counts(Counts(2, np.array([50, 0, 0, 0])), z)
    assert (est.numerator, est.denominator) == (1.0, 1.0)
    assert (est.numerator_se, est.denominator_se) == (1 / 50, 1 / 50)
    assert est.mitigated == 1.0
    single = _from_counts(Counts(2, np.array([1, 0, 0, 0])), z)
    assert single.denominator_se == 1.0
    with pytest.raises(EstimatorError):
        _ = single.mitigated
    est = _from_counts(Counts(2, np.array([40, 0, 0, 10])), z)
    assert est.numerator_se == pytest.approx(np.sqrt((1 - 0.6 ** 2) / 50), rel=1e-12)


def test_estimator_rejects_nondiagonal():
    rho = np.diag([0.7, 0.3]).astype(complex)
    dist = _as_dist(_vd_distribution(rho, 1), 2)
    with pytest.raises(ValueError):
        estimate_from_distribution(dist, PauliObservable(((1.0, "X"),)))


@pytest.mark.parametrize("terms", [
    ((0.5, "III"), (-0.5, "ZZI"), (0.25, "IZZ"), (1.5, "ZIZ"), (0.7, "IZI"),
     (-0.3, "IIZ")),
    # Z_1 sits inside the fan-out range of 0 -> 3: the plain CNOT is kept
    ((1.0, "ZIIZ"), (0.4, "IZII")),
])
def test_parity_groups_make_every_term_exact(terms):
    """Summed over groups, the single-qubit estimator on each rotated state
    gives Tr(O rho^2) / Tr(rho^2) for identity, Z and ZZ terms alike."""
    from vdcut.vd import ParityEstimate, parity_groups
    from helpers import full_unitary

    obs = PauliObservable(terms)
    n = obs.width
    groups = parity_groups(obs)
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho = random_density_matrix(n, rng)
        parts = []
        for g in groups:
            c = full_unitary(Circuit(n, g.gates()))
            probs = _vd_distribution(c @ rho @ c.conj().T, n)
            parts.append(estimate_from_distribution(_as_dist(probs, 2 * n), g.observable))
        want = oracle_mitigated_expectation(DensityMatrix(n, rho), obs, 2)
        assert abs(ParityEstimate(tuple(parts)).mitigated - want) < 1e-10


def test_parity_groups_reject_unsupported_strings():
    from vdcut.vd import parity_groups

    with pytest.raises(ValueError):
        parity_groups(PauliObservable(((1.0, "ZZZ"),)))
    with pytest.raises(ValueError):
        parity_groups(PauliObservable(((1.0, "XZ"),)))
    (single,) = parity_groups(PauliObservable(((1.0, "ZI"), (2.0, "IZ"))))
    assert single.cnots == ()
