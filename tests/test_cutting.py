"""Wire cutting, pairwise pipelines, and recombination."""
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdcut.benchmarks import real_amplitudes
from vdcut.circuit import Circuit, cnot, h, lightcone, measure, ry
from vdcut.cutting import (
    CutError,
    CutPoint,
    DiagonalSimulationCache,
    ReconstructionError,
    basis_change_gates,
    build_pairwise_pipelines,
    cut_wire,
    recombine,
    run_cut,
    run_pairwise,
)
from vdcut.noise import NoiseModel, preset
from vdcut.simulate import (
    Distribution,
    evolve,
    exact_probs,
    marginal,
    tv_distance,
)
from vdcut.vd import DIAG_UNITARY, build_vd_circuit

from helpers import random_circuit


def valid_cuts(circuit):
    cuts = []
    for q in range(circuit.width):
        for p in range(len(circuit.ops)):
            try:
                cut_wire(circuit, CutPoint(q, p))
            except CutError:
                continue
            cuts.append(CutPoint(q, p))
    return cuts


def test_cut_produces_three_j_and_four_k_fragments():
    c = Circuit(2, (h(0), cnot(0, 1)))
    jobs, plan = cut_wire(c, CutPoint(0, 0))
    roles = [(j.role, j.variant) for j in jobs]
    assert roles == [("measure", "X"), ("measure", "Y"), ("measure", "Z"),
                     ("prepare", "0"), ("prepare", "1"), ("prepare", "+"),
                     ("prepare", "+i")]
    assert len(plan.terms) == 8
    assert sum(float(t.coefficient) for t in plan.terms) == pytest.approx(1.0)
    assert all(abs(t.coefficient) == pytest.approx(0.5) for t in plan.terms)


def test_cut_validation():
    c = Circuit(2, (h(0), cnot(0, 1)))
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(1, 1))  # nothing downstream: vacuous
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(1, 0))  # qubit 0 crosses the partition
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(0, 5))  # position outside circuit
    with pytest.raises(CutError):
        cut_wire(Circuit(1, (ry(0.4, 0), measure(0))), CutPoint(0, 0))


def test_cut_on_fresh_wire_preserves_state():
    c = Circuit(1, (ry(0.0, 0), h(0)))
    d = run_cut(c, CutPoint(0, 0))
    assert d["0"] == pytest.approx(0.5, abs=1e-12)
    assert d["1"] == pytest.approx(0.5, abs=1e-12)


def test_cut_before_measurement_of_plus_state():
    c = Circuit(1, (h(0), ry(0.0, 0)))
    d = run_cut(c, CutPoint(0, 0))
    assert d.as_dict() == pytest.approx({"0": 0.5, "1": 0.5})


def test_cut_identity_bell_circuit():
    c = Circuit(2, (h(0), cnot(0, 1)))
    d = run_cut(c, CutPoint(0, 0))
    ref = exact_probs(evolve(c))
    assert tv_distance(d, ref) < 1e-12


def test_cut_identity_random_circuits():
    rng = np.random.default_rng(12)
    done = 0
    while done < 25:
        c = random_circuit(int(rng.integers(2, 5)), int(rng.integers(3, 12)), rng)
        cuts = valid_cuts(c)
        if not cuts:
            continue
        cut = cuts[int(rng.integers(len(cuts)))]
        got = run_cut(c, cut)
        ref = exact_probs(evolve(c))
        assert tv_distance(got, ref) < 1e-10
        done += 1


def test_sampled_cut_identity_within_tolerance():
    rng = np.random.default_rng(13)
    c = Circuit(2, (ry(0.8, 0), cnot(0, 1), ry(-0.5, 1)))
    cut = CutPoint(1, 1)
    got = run_cut(c, cut, shots=10 ** 6, seed=5)
    ref = exact_probs(evolve(c))
    assert tv_distance(got, ref) < 5e-3


def test_reconstruction_negativity_error():
    c = Circuit(2, (h(0), cnot(0, 1)))
    jobs, plan = cut_wire(c, CutPoint(0, 0))
    # deliberately inconsistent fragment data
    bogus_j = {b: Distribution.from_dict({"0": 1.0}, 1) for b in "XYZ"}
    bogus_k = {
        "0": Distribution.from_dict({"11": 1.0}, 2),
        "1": Distribution.from_dict({"00": 1.0}, 2),
        "+": Distribution.from_dict({"01": 1.0}, 2),
        "+i": Distribution.from_dict({"10": 1.0}, 2),
    }
    with pytest.raises(ReconstructionError):
        from vdcut.cutting import reconstruct
        reconstruct(plan, bogus_j, bogus_k)


def test_pairwise_pipeline_structure():
    orig = Circuit(3, (ry(0.9, 0), cnot(0, 1), ry(0.4, 2), h(1)))
    pipes = build_pairwise_pipelines(orig)
    assert [p.pair_index for p in pipes] == [0, 1, 2]
    for i, pipe in enumerate(pipes):
        assert pipe.copy_fragment.width == orig.width
        assert pipe.copy_fragment.ops == lightcone(orig, {i}).ops
    assert pipes[0].copy_fragment.ops == (orig.ops[0], orig.ops[1])
    assert pipes[2].copy_fragment.ops == (orig.ops[2],)


def test_pairwise_fragment_counts():
    """A double-cut pipeline has 3x3 measure variants collapsing to three
    runnable fragments (the copies are identical) and 4x4 prepare variants
    evaluated classically at constant cost."""
    theta = np.linspace(0.1, 1.2, 9)
    orig = real_amplitudes(3, 2, "circular", theta)
    pipes = build_pairwise_pipelines(orig)
    assert len(pipes) == 3
    for pipe in pipes:
        i = pipe.pair_index
        executions = pipe.executions(shots=100, seed=5)
        assert [ex.circuit.ops for ex in executions] == [
            lightcone(orig, {i}).ops + tuple(basis_change_gates(basis, i)) + (measure(i),)
            for basis in ("X", "Y", "Z")]
        assert [(ex.shots, ex.seed) for ex in executions] == [(100, 8), (100, 19), (100, 30)]
    with pytest.raises(FrozenInstanceError):
        pipes[0].pair_index = 1
    cache = DiagonalSimulationCache()
    assert cache.tensor(DIAG_UNITARY).shape == (4, 4, 4)


def test_pairwise_noiseless_matches_vd_marginals():
    rng = np.random.default_rng(14)
    theta = rng.uniform(0, 2 * np.pi, 12)
    orig = real_amplitudes(4, 2, "circular", theta)
    ref = exact_probs(evolve(build_vd_circuit(orig).without_measurements()))
    cache = DiagonalSimulationCache()
    for pipe in build_pairwise_pipelines(orig):
        got = run_pairwise(pipe, None, cache=cache)
        want = marginal(ref, (pipe.pair_index, 4 + pipe.pair_index))
        assert tv_distance(got, want) < 1e-9
    assert cache.hits == 3  # identical gates simulated once


def test_pairwise_fully_depolarized_is_uniform():
    nm = NoiseModel(one_qubit_depol=1.0, one_qubit_time=0.0,
                    two_qubit_time=0.0)
    orig = Circuit(1, (ry(0.7, 0),))
    (pipe,) = build_pairwise_pipelines(orig)
    got = run_pairwise(pipe, nm)
    assert np.abs(got.probs - 0.25).max() < 1e-12


def test_pairwise_closer_to_ideal_than_uncut_marginals():
    """On a routed device under the basic noise model, the mitigated pairwise
    distributions beat the uncut noisy circuit's marginals for at least 3 of
    4 pairs (the cutting scheme's core mechanism)."""
    from vdcut.runner import run_circuit
    from vdcut.transpile import linear

    rng = np.random.default_rng(15)
    theta = rng.uniform(0, 2 * np.pi, 12)
    orig = real_amplitudes(4, 2, "circular", theta)
    nm = preset("basic")
    cmap = linear(8)
    vd = build_vd_circuit(orig)
    ideal = exact_probs(evolve(vd.without_measurements()))
    noisy = run_circuit(vd, noise=nm, cmap=cmap).distribution
    cache = DiagonalSimulationCache()
    wins = 0
    for pipe in build_pairwise_pipelines(orig):
        pair = (pipe.pair_index, 4 + pipe.pair_index)
        mitigated = run_pairwise(pipe, nm, cmap=cmap, cache=cache)
        d_mit = tv_distance(mitigated, marginal(ideal, pair))
        d_raw = tv_distance(marginal(noisy, pair), marginal(ideal, pair))
        wins += d_mit < d_raw
    assert wins >= 3


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
def test_recombine_fixed_point(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.random(4 ** n)
    dist = Distribution(2 * n, p / p.sum())
    marginals = [marginal(dist, (i, n + i)) for i in range(n)]
    assert tv_distance(recombine(dist, marginals), dist) < 1e-12


def test_recombine_single_pair_fully_determined():
    unmit = Distribution.from_dict({"00": 1.0}, 2)
    pair = Distribution.from_dict({"01": 1.0}, 2)
    assert recombine(unmit, [pair]).as_dict() == pytest.approx({"01": 1.0})


def test_recombine_rejects_wrong_count():
    unmit = Distribution.from_dict({"0000": 1.0}, 4)
    with pytest.raises(ReconstructionError):
        recombine(unmit, [Distribution.from_dict({"00": 1.0}, 2)])


def test_recombined_noiseless_end_to_end():
    rng = np.random.default_rng(16)
    theta = rng.uniform(0, 2 * np.pi, 12)
    orig = real_amplitudes(4, 2, "circular", theta)
    ref = exact_probs(evolve(build_vd_circuit(orig).without_measurements()))
    cache = DiagonalSimulationCache()
    pairwise = [run_pairwise(p, None, cache=cache)
                for p in build_pairwise_pipelines(orig)]
    assert tv_distance(recombine(ref, pairwise), ref) < 1e-9

