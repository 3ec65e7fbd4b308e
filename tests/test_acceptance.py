"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured quantities.

Criterion 5 is known-red on this implementation, for the reason recorded
in CHANGES.md: with ZZ terms measured exactly through the parity rotation,
the table-2 distillation removes the diagonalizing-gate noise but not the
coherent crosstalk of the 6-qubit preparation, so the extrapolated error
stays slightly above the unmitigated one and "zne < none" fails.
"""
import functools
import time

import numpy as np
import pytest

from vdcut.benchmarks import AnsatzSpec, ring_problem
from vdcut.circuit import Circuit, PauliObservable
from vdcut.cutting import (
    CutError,
    CutPoint,
    DiagonalSimulationCache,
    build_pairwise_pipelines,
    cut_wire,
    recombine,
    run_cut,
)
from vdcut.experiments import ExperimentConfig, emit, run_experiment
from vdcut.simulate import (
    DensityMatrix,
    Distribution,
    evolve,
    exact_probs,
    marginal,
    tv_distance,
)
from vdcut.sweep import growth_exponent, overhead_sweep
from vdcut.vd import (
    build_vd_circuit,
    estimate_from_distribution,
    oracle_mitigated_expectation,
    parity_groups,
)
from vdcut.zne import extrapolate_linear, fold_diagonalizing

from helpers import (
    dominant_eigenstate_expectation,
    eigen_spectrum,
    full_unitary,
    pairwise,
    random_circuit,
    random_density_matrix,
    z_string,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared experiment fixtures


@pytest.fixture(scope="session")
def table1_results():
    """4-qubit benchmark across the three noise presets (10,000 shots), all
    at the parameters ``parameters="optimize"`` would find (criterion 10
    checks that it does)."""
    out = {}
    theta = tuple(_benchmark_parameters(4))
    for preset in ("basic", "basic+gct", "basic+gct+rct"):
        cfg = ExperimentConfig(problem=ring_problem(4), noise=preset, seed=7,
                               shots=10000, parameters=theta, out="table1")
        out[preset] = run_experiment(cfg)
    return out


@pytest.fixture(scope="session")
def table2_result():
    """6-qubit benchmark under the heaviest preset.

    A linear device keeps the doubled register within the dense-simulation
    cap; the shot budget is raised to 10^6 so the distillation denominator
    (purity signal ~0.03 for our 180-CNOT routed circuit) clears the
    10-sigma significance bar that 10,000 shots cannot resolve.
    """
    cfg = ExperimentConfig(problem=ring_problem(6), noise="basic+gct+rct",
                           seed=7, shots=10 ** 6, coupling_map="linear",
                           out="table2")
    return run_experiment(cfg)


def _cell(result, method):
    return next(c for c in result.cells if c.method == method)


# ---------------------------------------------------------------------------
# criterion 1: exponential suppression of the mitigated-expectation error


def test_criterion_1_exponential_suppression():
    """The distilled state approaches the dominant eigenvector.  With
    eigenpairs (lam_k, v_k) and o_k = <v_k|O|v_k>, the signed error of
    Tr(O rho^M)/Tr(rho^M) against o_1 is sum_k lam_k^M (o_k - o_1) /
    sum_k lam_k^M, so |err_M| <= 2 ||O|| (1 - lam_1^M / sum_k lam_k^M).
    That envelope, not |err_M| itself, is what falls with every copy: the
    signed error may cross zero between copies (draw 6 of this seed does,
    from +8.8e-6 at M=2 to -1.8e-5 at M=3)."""
    started = time.time()
    rng = np.random.default_rng(101)
    z0 = PauliObservable(((1.0, "ZI"),))
    z0_norm = 1.0
    checked_ratio = 0
    worst_formula = 0.0
    for _ in range(50):
        lam1 = rng.uniform(0.6, 0.95)
        rest = rng.random(3)
        rest = (1 - lam1) * rest / rest.sum()
        vals = np.sort(np.concatenate([[lam1], rest]))[::-1]
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        rho = DensityMatrix(2, q @ np.diag(vals) @ q.conj().T)
        target = dominant_eigenstate_expectation(rho, z0)
        lam, vecs = eigen_spectrum(rho)
        o = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), z0.matrix(), vecs))
        envelope = []
        for m in range(1, 5):
            err = oracle_mitigated_expectation(rho, z0, m) - target
            weights = lam ** m / np.sum(lam ** m)
            worst_formula = max(worst_formula, abs(err - weights @ (o - o[0])))
            envelope.append(2 * z0_norm * (1 - weights[0]))
            assert abs(err) <= envelope[-1] + 1e-12, (
                f"M={m}: |error| {abs(err):.3e} above the envelope {envelope[-1]:.3e}")
        for a, b in zip(envelope, envelope[1:]):
            assert b < a, f"envelope not falling: {envelope}"
        if vals[1] / vals[0] <= 0.5:
            checked_ratio += 1
            for a, b in zip(envelope, envelope[1:]):
                assert b <= a / 2, f"envelope suppression below 2x: {envelope}"
    assert worst_formula < 1e-12, f"oracle deviates from the spectral formula by {worst_formula:.2e}"
    elapsed = time.time() - started
    assert elapsed < 5.0
    report(1, True, f"50 states within a falling envelope, spectral formula "
                    f"err {worst_formula:.1e}, {checked_ratio} fast-suppression "
                    f"states at >=2x per copy, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: estimator correctness against the matrix oracle


def _vd_outcome_distribution(rho: np.ndarray, n: int) -> Distribution:
    from vdcut.vd import DIAG_UNITARY

    big = np.kron(rho, rho)
    u = np.eye(4 ** n, dtype=complex)
    for i in range(n):
        u = _embed_pair(DIAG_UNITARY, i, n + i, 2 * n) @ u
    probs = np.real(np.diag(u @ big @ u.conj().T))
    return Distribution(2 * n, np.clip(probs, 0, None) / probs.sum())


def _embed_pair(u4, a, b, width):
    rest = [q for q in range(width) if q not in (a, b)]
    order = [a, b] + rest
    big = np.kron(u4, np.eye(2 ** (width - 2), dtype=complex))
    perm = np.argsort(order)
    t = big.reshape((2,) * (2 * width))
    t = np.transpose(t, list(perm) + [width + p for p in perm])
    return t.reshape(2 ** width, 2 ** width)


def _criterion2_states():
    rng = np.random.default_rng(202)
    states = []
    for k in range(100):
        n = (1, 2, 3)[k % 3]
        states.append((n, random_density_matrix(n, rng)))
    return states


def test_criterion_2_single_qubit_strings_and_denominator():
    started = time.time()
    worst_num = worst_den = 0.0
    for n, rho in _criterion2_states():
        dist = _vd_outcome_distribution(rho, n)
        r2 = rho @ rho
        purity = float(np.real(np.trace(r2)))
        for j in range(n):
            obs = z_string(n, [j])
            est = estimate_from_distribution(dist, obs)
            worst_num = max(worst_num, abs(est.numerator -
                                           np.real(np.trace(obs.matrix() @ r2))))
            worst_den = max(worst_den, abs(est.denominator - purity))
    elapsed = time.time() - started
    ok = worst_num < 1e-10 and worst_den < 1e-10 and elapsed < 30
    report(2, ok, f"single-qubit strings: worst numerator err {worst_num:.2e}, "
                  f"denominator err {worst_den:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_two_qubit_strings():
    """Z_i Z_j is measured through the parity rotation: with the program's
    CNOT C applied to the state before duplication, the single-qubit
    estimator on the rotated observable gives Tr(Z_i Z_j rho^2) and
    Tr(rho^2).  (No post-processing of the plain distillation outcomes can:
    they determine only the copy-symmetrized functional, which
    tests/test_vd.py checks.)"""
    worst_num = worst_den = 0.0
    for n, rho in _criterion2_states():
        if n < 2:
            continue
        r2 = rho @ rho
        purity = float(np.real(np.trace(r2)))
        for i in range(n):
            for j in range(i + 1, n):
                obs = z_string(n, [i, j])
                (group,) = parity_groups(obs)
                c = full_unitary(Circuit(n, group.gates()))
                dist = _vd_outcome_distribution(c @ rho @ c.conj().T, n)
                est = estimate_from_distribution(dist, group.observable)
                worst_num = max(worst_num, abs(est.numerator -
                                               np.real(np.trace(obs.matrix() @ r2))))
                worst_den = max(worst_den, abs(est.denominator - purity))
    ok = worst_num < 1e-10 and worst_den < 1e-10
    report(2, ok, f"two-qubit strings via parity rotation: worst numerator err "
                  f"{worst_num:.2e}, denominator err {worst_den:.2e}")
    assert ok, (
        f"worst ZZ numerator deviation {worst_num:.3e} or denominator deviation "
        f"{worst_den:.3e} exceeds 1e-10 on the parity-rotated states; see "
        "CHANGES.md for why the rotation is needed")


# ---------------------------------------------------------------------------
# criterion 3: cutting identity


def test_criterion_3_cutting_identity():
    started = time.time()
    rng = np.random.default_rng(303)
    worst_single = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 5))
        circuit = random_circuit(n, int(rng.integers(3, 12)), rng)
        cuts = []
        for q in range(n):
            for p in range(len(circuit.ops)):
                try:
                    cut_wire(circuit, CutPoint(q, p))
                except CutError:
                    continue
                cuts.append(CutPoint(q, p))
        if not cuts:
            continue
        cut = cuts[int(rng.integers(len(cuts)))]
        got = run_cut(circuit, cut)
        ref = exact_probs(evolve(circuit))
        worst_single = max(worst_single, tv_distance(got, ref))
        done += 1
    assert worst_single < 1e-10

    # double-cut pairwise pipelines of the 4-qubit benchmark, noiseless
    theta = _benchmark_parameters(4)
    orig = AnsatzSpec(4).circuit(theta)
    ref = exact_probs(evolve(build_vd_circuit(orig)))
    cache = DiagonalSimulationCache()
    worst_pair = 0.0
    for pipe in build_pairwise_pipelines(orig):
        got = pairwise(pipe, cache=cache)
        want = marginal(ref, (pipe.pair_index, 4 + pipe.pair_index))
        worst_pair = max(worst_pair, tv_distance(got, want))
    elapsed = time.time() - started
    ok = worst_single < 1e-10 and worst_pair < 1e-9 and elapsed < 60
    report(3, ok, f"200 single cuts worst TV {worst_single:.2e}, pairwise "
                  f"double cuts worst TV {worst_pair:.2e}, {elapsed:.1f}s")
    assert ok


@functools.cache  # criteria 3, 6, 9 and table 1 share one optimization; criterion 10 reruns its own
def _benchmark_parameters(n):
    from vdcut.benchmarks import optimize_parameters
    from vdcut.experiments import _derive_seed

    return optimize_parameters(ring_problem(n), AnsatzSpec(n),
                               seed=_derive_seed(7, 0xA11))


# ---------------------------------------------------------------------------
# criterion 4: Table-I-style orderings on the 4-qubit benchmark


def test_criterion_4_table1_orderings(table1_results):
    err = lambda preset, method: _cell(table1_results[preset], method).abs_error
    for preset, res in table1_results.items():
        for cell in res.cells:
            assert cell.error is None, f"{preset}/{cell.method}: {cell.error}"
    basic_ok = err("basic", "vd+cut") < err("basic", "vd") < err("basic", "none")
    cut_errors = [err(p, "vd+cut") for p in table1_results]
    spread = max(cut_errors) - min(cut_errors)
    vd_increases = err("basic+gct", "vd") > err("basic", "vd")
    ok = basic_ok and spread < 0.05 and vd_increases
    report(4, ok, f"basic errors cut={err('basic','vd+cut'):.3f} < "
                  f"vd={err('basic','vd'):.3f} < none={err('basic','none'):.3f}; "
                  f"cut spread {spread:.3f} < 0.05; vd "
                  f"{err('basic','vd'):.3f} -> {err('basic+gct','vd'):.3f} under gct")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: Table-II-style ordering on the 6-qubit benchmark


def test_criterion_5_table2_ordering(table2_result):
    """Known-red on the clause "zne < none": the extrapolated distillation
    error stays slightly above the unmitigated one (see CHANGES.md); "cut <
    zne" and "none < vd" hold.

    Error budget, measured with exact probabilities on this configuration:
    the noiseless-diag reference (distillation with noiseless diagonalizing
    gates) errs by 1.151 as configured and by 0.164 without the crosstalk
    RZZs of the two-copy preparation.  The bare circuit gets no crosstalk,
    while each group's preparation gets 10 RZZs, 4 of them across the
    copies.  VD cannot remove that coherent error, and ZNE over the
    diagonalizing gates extrapolates towards this floor, not below it."""
    for cell in table2_result.cells:
        assert cell.error is None, f"{cell.method}: {cell.error}"
    errs = {c.method: c.abs_error for c in table2_result.cells}
    ok = errs["vd+cut"] < errs["vd+zne"] < errs["none"] < errs["vd"]
    report(5, ok, "errors cut={vd+cut:.3f}, zne={vd+zne:.3f}, none={none:.3f}, "
                  "vd={vd:.3f}".format(**errs))
    assert ok, (
        f"ordering cut < zne < none < vd violated: {errs}; see CHANGES.md for "
        "the measured errors and the reason")


# ---------------------------------------------------------------------------
# criterion 6: zero-noise-extrapolation sanity


def test_criterion_6_zne_sanity(table1_results):
    theta = _benchmark_parameters(4)
    vd = build_vd_circuit(AnsatzSpec(4).circuit(theta))
    ref = exact_probs(evolve(vd))
    worst = 0.0
    for scale in (3, 5):
        folded = exact_probs(evolve(fold_diagonalizing(vd, scale)))
        worst = max(worst, tv_distance(folded, ref))
    assert worst < 1e-10

    intercept = extrapolate_linear((1, 3, 5), (0.9, 0.7, 0.5))
    assert abs(intercept - 1.0) < 1e-12

    zne_err = _cell(table1_results["basic"], "vd+zne").abs_error
    vd_err = _cell(table1_results["basic"], "vd").abs_error
    ok = worst < 1e-10 and zne_err < vd_err
    report(6, ok, f"folding TV {worst:.2e}; synthetic intercept exact; basic "
                  f"extrapolated err {zne_err:.3f} < scale-1 err {vd_err:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: routing-overhead growth trends


def test_criterion_7_overhead_trends():
    started = time.time()
    qubits = range(4, 13)
    layers = (2, 4, 8)
    full_rows = overhead_sweep(qubits, layers, "full")
    hh_rows = overhead_sweep(qubits, layers, "heavyhex:5")
    assert all(r.cnot_vd > r.cnot_original for r in full_rows + hh_rows)
    full_exps = [growth_exponent([r for r in full_rows if r.layers == L])
                 for L in layers]
    hh_exps = [growth_exponent([r for r in hh_rows if r.layers == L])
               for L in layers]
    elapsed = time.time() - started
    ok = (all(0.9 <= e <= 1.1 for e in full_exps)
          and all(e > 1.2 for e in hh_exps) and elapsed < 120)
    report(7, ok, f"fully-connected exponents {[round(e, 3) for e in full_exps]}, "
                  f"heavy-hex exponents {[round(e, 3) for e in hh_exps]}, "
                  f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: crosstalk accounting


def test_criterion_8_crosstalk_accounting(table1_results, table2_result):
    vd4 = _cell(table1_results["basic+gct"], "vd").rzz[0]
    frag4 = max(_cell(table1_results["basic+gct"], "vd+cut").rzz)
    vd6 = _cell(table2_result, "vd").rzz[0]
    frag6 = max(_cell(table2_result, "vd+cut").rzz)
    ok = vd4 > frag4 and vd6 > frag6
    report(8, ok, f"4-qubit: distillation rzz {vd4} > fragment max {frag4}; "
                  f"6-qubit: {vd6} > {frag6}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: recombination properties


def test_criterion_9_recombination():
    rng = np.random.default_rng(909)
    worst_fp = 0.0
    for k in range(500):
        n = 2 if k % 2 == 0 else 3
        p = rng.random(4 ** n)
        dist = Distribution(2 * n, p / p.sum())
        marginals = [marginal(dist, (i, n + i)) for i in range(n)]
        worst_fp = max(worst_fp, tv_distance(recombine(dist, marginals)[0], dist))
    assert worst_fp < 1e-12

    theta = _benchmark_parameters(4)
    orig = AnsatzSpec(4).circuit(theta)
    ref = exact_probs(evolve(build_vd_circuit(orig)))
    cache = DiagonalSimulationCache()
    mitigated = [pairwise(p, cache=cache) for p in build_pairwise_pipelines(orig)]
    end_to_end = tv_distance(recombine(ref, mitigated)[0], ref)
    ok = worst_fp < 1e-12 and end_to_end < 1e-9
    report(9, ok, f"fixed point worst TV {worst_fp:.2e} over 500 draws; "
                  f"noiseless end-to-end TV {end_to_end:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: determinism


def test_criterion_10_determinism(table1_results, tmp_path):
    """A rerun that optimizes its own parameters reproduces the bytes of the
    table-1 run at the shared parameters."""
    cfg = ExperimentConfig(problem=ring_problem(4), noise="basic", seed=7,
                           shots=10000, out="det")
    rerun = run_experiment(cfg)
    p1 = emit(table1_results["basic"], str(tmp_path / "a"))[0]
    p2 = emit(rerun, str(tmp_path / "b"))[0]
    same = open(p1, "rb").read() == open(p2, "rb").read()
    report(10, same, "identical seed reproduces byte-identical CSV")
    assert same
