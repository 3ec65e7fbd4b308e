"""Wire cutting, pairwise pipelines, and recombination."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdcut.benchmarks import maxcut_hamiltonian, real_amplitudes, ring_problem
from vdcut.circuit import Circuit, cnot, gate_matrix, h, lightcone, ry
from vdcut.cutting import (
    _PREP_VECTORS,
    _prep_weights,
    READ_BASES,
    PREP_STATES,
    CutError,
    CutPoint,
    DiagonalSimulationCache,
    ReconstructionError,
    basis_change_gates,
    cut_estimate,
    cut_executions,
    cut_points,
    cut_wire,
    preparation_gates,
    recombine,
    reconstruct,
    run_cut,
)
from vdcut.noise import NoiseModel, preset
from vdcut.runner import run_circuits
from vdcut.simulate import (
    Distribution,
    evolve,
    exact_probs,
    marginal,
    tv_distance,
)
from vdcut.vd import DIAG_UNITARY, build_vd_circuit, parity_groups

from helpers import as_dict, distribution, identity_group, pairwise, random_circuit


def test_cut_produces_three_j_and_four_k_fragments():
    """The measure side in the X, Y and Z bases, read on the cut qubit and
    the upstream-exclusive qubit 2, then the prepare side for each prepared
    state, read downstream, in that order."""
    c = Circuit(3, (h(2), cnot(2, 0), cnot(0, 1)))
    fragments, plan = cut_wire(c, CutPoint(0, 1))
    reads = [plan.j_measured] * len(READ_BASES) + [plan.k_measured] * len(PREP_STATES)
    assert [(f.ops, bits) for f, bits in zip(fragments, reads, strict=True)] == (
        [((h(2), cnot(2, 0), *basis_change_gates(basis, 0)), (0, 2)) for basis in READ_BASES]
        + [((*preparation_gates(state, 0), cnot(0, 1)), (0, 1)) for state in PREP_STATES])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 1.0))
def test_prep_weights_rebuild_any_single_qubit_state(direction, radius):
    """The prepared-state weights of a state's exact X, Y and Z one-bit
    distributions recombine the prepared states into that state."""
    norm = np.linalg.norm(direction)
    bloch = radius * np.asarray(direction) / norm if norm > 0 else np.zeros(3)
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    rho = (np.eye(2) + sum(r * p for r, p in zip(bloch, paulis))) / 2
    outputs = []
    for basis in READ_BASES:
        u = np.eye(2)
        for g in basis_change_gates(basis, 0):
            u = gate_matrix(g) @ u
        outputs.append(Distribution(1, np.real(np.diag(u @ rho @ u.conj().T))))
    (weights,) = _prep_weights(outputs, 0).T
    rebuilt = sum(w * np.outer(_PREP_VECTORS[s], _PREP_VECTORS[s].conj())
                  for w, s in zip(weights, PREP_STATES))
    assert np.abs(rebuilt - rho).max() < 1e-12


def test_cut_validation():
    c = Circuit(2, (h(0), cnot(0, 1)))
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(1, 1))  # nothing downstream: vacuous
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(1, 0))  # qubit 0 crosses the partition
    with pytest.raises(CutError):
        cut_wire(c, CutPoint(0, 5))  # position outside circuit


def test_cut_points_are_the_cuts_cut_wire_accepts_in_qubit_then_gate_order():
    assert cut_points(Circuit(2, (h(0), cnot(0, 1)))) == [CutPoint(0, 0)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_circuit(int(rng.integers(2, 5)), int(rng.integers(3, 12)), rng)
        points = cut_points(c)
        assert points == sorted(points, key=lambda cut: (cut.qubit, cut.position))
        for q in range(c.width):
            for p in range(len(c.ops)):
                if CutPoint(q, p) in points:
                    cut_wire(c, CutPoint(q, p))
                else:
                    with pytest.raises(CutError):
                        cut_wire(c, CutPoint(q, p))


def test_cut_on_fresh_wire_preserves_state():
    c = Circuit(1, (ry(0.0, 0), h(0)))
    d = run_cut(c, CutPoint(0, 0))
    assert d["0"] == pytest.approx(0.5, abs=1e-12)
    assert d["1"] == pytest.approx(0.5, abs=1e-12)


def test_cut_before_measurement_of_plus_state():
    c = Circuit(1, (h(0), ry(0.0, 0)))
    d = run_cut(c, CutPoint(0, 0))
    assert as_dict(d) == pytest.approx({"0": 0.5, "1": 0.5})


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
        cuts = cut_points(c)
        if not cuts:
            continue
        cut = cuts[int(rng.integers(len(cuts)))]
        got = run_cut(c, cut)
        ref = exact_probs(evolve(c))
        assert tv_distance(got, ref) < 1e-10
        done += 1


def test_reconstruction_negativity_error():
    c = Circuit(2, (h(0), cnot(0, 1)))
    _, plan = cut_wire(c, CutPoint(0, 0))
    # deliberately inconsistent fragment data: X, Y, Z, then 0, 1, +, +i
    bogus = [distribution({"0": 1.0}, 1)] * 3 + [
        distribution({outcome: 1.0}, 2) for outcome in ("11", "00", "01", "10")]
    with pytest.raises(ReconstructionError, match="below"):
        reconstruct(plan, bogus)
    with pytest.raises(ReconstructionError, match="expected 7"):
        reconstruct(plan, bogus[:6])


def test_pairwise_pipeline_structure():
    """Pair by pair, the fragment is the lightcone of qubit i, read on qubit
    i in the X, Y and Z bases."""
    orig = Circuit(3, (ry(0.9, 0), cnot(0, 1), ry(0.4, 2), h(1)))
    executions = cut_executions(orig, [identity_group(3)], None, 0)
    cones = [(orig.ops[0], orig.ops[1]), (orig.ops[0], orig.ops[1], orig.ops[3]),
             (orig.ops[2],)]
    assert [(ex.circuit.width, ex.circuit.ops, ex.measured) for ex in executions] == [
        (3, cone + tuple(basis_change_gates(basis, i)), (i,))
        for i, cone in enumerate(cones) for basis in READ_BASES]


def test_pairwise_fragment_counts():
    """A double-cut pipeline has 3x3 measure variants collapsing to three
    runnable fragments (the copies are identical) and 4x4 prepare variants
    evaluated classically at constant cost.  Group by group, pair by pair,
    each fragment is cut from the group's rotated circuit and gets its own
    seed."""
    theta = np.linspace(0.1, 1.2, 9)
    orig = real_amplitudes(3, 2, "circular", theta)
    groups = parity_groups(maxcut_hamiltonian(ring_problem(3)))
    executions = cut_executions(orig, groups, shots=100, seed=5)
    assert [(ex.circuit.ops, ex.measured) for ex in executions] == [
        (lightcone(group.rotated(orig), {i}).ops + tuple(basis_change_gates(basis, i)), (i,))
        for group in groups for i in range(3) for basis in READ_BASES]
    assert [ex.shots for ex in executions] == [100] * 18
    assert [ex.seed for ex in executions] == [
        1017, 1028, 1039, 2026, 2037, 2048, 3035, 3046, 3057,
        101020, 101031, 101042, 102029, 102040, 102051, 103038, 103049, 103060]
    cache = DiagonalSimulationCache()
    assert cache.tensor(DIAG_UNITARY).shape == (4, 4, 4)


def test_cut_estimate_refuses_wrong_counts():
    """One ring-2 group takes one joint and 2 pairs x 3 bases = 6 fragment
    outputs; fewer or more of either are refused, not cut short."""
    orig = real_amplitudes(2, 1, "circular", [0.3, 1.1, 0.7, 0.2])
    groups = parity_groups(maxcut_hamiltonian(ring_problem(2)))
    joint = exact_probs(evolve(build_vd_circuit(orig, groups[0].gates())))
    outputs = [rec.output for rec in
               run_circuits(cut_executions(orig, groups, None, 0)).records]
    assert len(outputs) == 6
    assert len(cut_estimate(groups, [joint], outputs, None).parts) == 1
    for joints, count in (([joint], 5), ([joint], 9), ([], 6), ([joint, joint], 6)):
        with pytest.raises(ReconstructionError, match="expected"):
            cut_estimate(groups, joints, (outputs * 2)[:count], None)


def test_pairwise_noiseless_matches_vd_marginals():
    rng = np.random.default_rng(14)
    theta = rng.uniform(0, 2 * np.pi, 12)
    orig = real_amplitudes(4, 2, "circular", theta)
    ref = exact_probs(evolve(build_vd_circuit(orig)))
    cache = DiagonalSimulationCache()
    for i, got in enumerate(pairwise(orig, cache=cache)):
        assert tv_distance(got, marginal(ref, (i, 4 + i))) < 1e-9
    assert cache.hits == 3  # identical gates simulated once


def test_pairwise_fully_depolarized_is_uniform():
    nm = NoiseModel(one_qubit_depol=1.0, one_qubit_time=0.0,
                    two_qubit_time=0.0)
    orig = Circuit(1, (ry(0.7, 0),))
    (got,) = pairwise(orig, nm)
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
    ideal = exact_probs(evolve(vd))
    noisy = run_circuit(vd, noise=nm, cmap=cmap).distribution
    wins = 0
    for i, mitigated in enumerate(pairwise(orig, nm, cmap=cmap)):
        pair = (i, 4 + i)
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
    assert tv_distance(recombine(dist, marginals)[0], dist) < 1e-12


def test_recombine_single_pair_fully_determined():
    """The pair outcome the unmitigated marginal never reached gets its
    mitigated mass injected, and recombine reports that mass."""
    unmit = distribution({"00": 1.0}, 2)
    pair = distribution({"01": 1.0}, 2)
    merged, injected = recombine(unmit, [pair])
    assert as_dict(merged) == pytest.approx({"01": 1.0}) and injected == 1.0
    merged, injected = recombine(unmit, [distribution({"00": 0.75, "01": 0.25}, 2)])
    assert as_dict(merged) == pytest.approx({"00": 0.75, "01": 0.25}) and injected == 0.25


def test_recombine_rejects_wrong_count():
    unmit = distribution({"0000": 1.0}, 4)
    with pytest.raises(ReconstructionError):
        recombine(unmit, [distribution({"00": 1.0}, 2)])


def test_recombined_noiseless_end_to_end():
    rng = np.random.default_rng(16)
    theta = rng.uniform(0, 2 * np.pi, 12)
    orig = real_amplitudes(4, 2, "circular", theta)
    ref = exact_probs(evolve(build_vd_circuit(orig)))
    assert tv_distance(recombine(ref, pairwise(orig))[0], ref) < 1e-9

