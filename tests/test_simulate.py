"""Density-matrix engine: channels, distributions, sampling, readout."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdcut import simulate
from vdcut.circuit import (
    _SWAP_MATRIX,
    Circuit,
    PauliObservable,
    cnot,
    gate_matrix,
    h,
    measure,
    ry,
    rz,
    rzz,
    swap,
    two_qubit,
    x,
)
from vdcut.noise import NoiseModel, preset
from vdcut.simulate import (
    _gate_superop,
    _kraus_to_super,
    Block,
    Counts,
    DensityMatrix,
    Distribution,
    FusedCircuit,
    SimulationSizeError,
    apply_readout,
    blocks,
    evolve,
    exact_probs,
    expectation,
    fuse,
    marginal,
    sample,
    thermal_relaxation_kraus,
    tv_distance,
)

from helpers import (
    apply_channel,
    as_dict,
    copies_register,
    distribution,
    purity,
    random_circuit,
    random_density_matrix,
    reference_evolve,
    statevector,
    validate,
)


def test_empty_circuit_ground_state():
    dm = evolve(Circuit(1))
    assert np.abs(dm.matrix - np.diag([1.0, 0.0])).max() == 0


def test_full_depolarization_gives_maximally_mixed():
    # zero gate duration disables relaxation, leaving pure depolarization
    nm = NoiseModel(one_qubit_depol=1.0, one_qubit_time=0.0)
    dm = evolve(blocks(Circuit(1, (x(0),)), nm))
    assert np.abs(dm.matrix - np.eye(2) / 2).max() < 1e-15


def test_noiseless_purity():
    rng = np.random.default_rng(2)
    c = random_circuit(3, 16, rng)
    assert abs(purity(evolve(c)) - 1.0) < 1e-10


def test_width_cap(monkeypatch):
    """Admission counts evolve's two buffers (plus ``initial``), and a
    batch's held snapshots on top, against physical memory, and rejects
    before allocating anything."""
    from vdcut import runner
    from vdcut.noise import preset
    from vdcut.transpile import coupling_map_for

    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    gib = 2 ** 30
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 7 * gib)
    with pytest.raises(SimulationSizeError):
        evolve(Circuit(14))        # 2 x 4 GiB
    # table 2: 12 qubits, two snapshots plus two buffers of 256 MiB
    monkeypatch.setattr(runner, "evolve", admitted)
    with pytest.raises(Admitted):
        runner.run_circuits(copies_register(6), noise=preset("basic+gct+rct"),
                            cmap=coupling_map_for("linear", 12))
    monkeypatch.undo()

    # the ring-4 copies register holds two snapshots: each of its evolutions
    # fits in three 8-qubit tensors, the batch does not, and is refused
    # before its first evolution
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 3 * 16 * 4 ** 8)
    simulate.admit(8, 3)
    monkeypatch.setattr(runner, "evolve", admitted)
    with pytest.raises(SimulationSizeError):
        runner.run_circuits(copies_register(4), noise=preset("basic+gct"),
                            cmap=coupling_map_for("heavyhex:3", 8))
    monkeypatch.undo()

    monkeypatch.setattr(simulate, "_physical_memory", lambda: 2 * 16 * 4 ** 10)
    evolve(Circuit(10))
    with pytest.raises(SimulationSizeError):   # before the initial state's width is read
        evolve(Circuit(10), initial=DensityMatrix.ground_state(2))


def test_admit_honours_a_cgroup_limit(monkeypatch):
    """Admission takes the smaller of physical memory and the cgroup-v2
    ``memory.max``, and physical memory alone when no limit is set."""
    tensor = 16 * 4 ** 8
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 4 * tensor)
    monkeypatch.setattr(simulate, "_cgroup_memory_limit", lambda: None)
    simulate.admit(8, 4)
    with pytest.raises(SimulationSizeError):
        simulate.admit(8, 5)
    monkeypatch.setattr(simulate, "_cgroup_memory_limit", lambda: 2 * tensor)
    simulate.admit(8, 2)
    with pytest.raises(SimulationSizeError, match="0.0 GiB is available"):
        simulate.admit(8, 3)
    monkeypatch.setattr(simulate, "_cgroup_memory_limit", lambda: 8 * tensor)
    simulate.admit(8, 4)
    with pytest.raises(SimulationSizeError):
        simulate.admit(8, 5)


def test_cgroup_memory_limit_reads_memory_max(monkeypatch, tmp_path):
    """The limit is the ``memory.max`` of the process's cgroup-v2 entry:
    bytes when set, None for ``max`` or when there is no such entry."""
    files = {"/proc/self/cgroup": "4:memory:/v1\n0::/job\n"}
    real_open = open

    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        out = tmp_path / "f"
        out.write_text(files[path])
        return real_open(out, *args, **kwargs)

    read = simulate._cgroup_memory_limit.__wrapped__   # past the per-process cache
    monkeypatch.setattr("builtins.open", fake_open)
    assert read() is None
    files["/sys/fs/cgroup/job/memory.max"] = "1073741824\n"
    assert read() == 2 ** 30
    files["/sys/fs/cgroup/job/memory.max"] = "max\n"
    assert read() is None
    files["/proc/self/cgroup"] = "4:memory:/v1\n"
    assert read() is None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
def test_evolve_matches_reference_kernel_bit_for_bit(seed, n, resume):
    """The two-buffer kernel computes every noisy gate as a fresh transpose
    and product would, byte for byte, and leaves ``initial`` unchanged."""
    rng = np.random.default_rng(seed)
    noise = preset("basic")
    c = random_circuit(n, int(rng.integers(0, 4 * n + 1)), rng)
    initial = DensityMatrix(n, random_density_matrix(n, rng)) if resume else None
    before = None if initial is None else initial.matrix.copy()
    per_gate = FusedCircuit(n, tuple(
        Block(tuple(sorted(g.qubits)), _gate_superop(g, noise, False)) for g in c.ops))
    got = evolve(per_gate, initial=initial)
    want = reference_evolve(c, noise, initial=before)
    assert got.matrix.tobytes() == want.tobytes()
    if resume:
        assert initial.matrix.tobytes() == before.tobytes()


def _tagged_random_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """A random circuit with some ops tagged ``diag`` or ``xtalk`` and, on
    two or more qubits, some crosstalk RZZs."""
    ops = []
    for g in random_circuit(n, int(rng.integers(0, 6 * n + 1)), rng).ops:
        ops.append(g.retagged(str(rng.choice(["", "", "diag", "xtalk"]))))
        if n >= 2 and rng.random() < 0.2:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(rzz(float(rng.uniform(-0.1, 0.1)), int(a), int(b), tag="xtalk"))
    return Circuit(n, tuple(ops))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans(), st.booleans())
def test_fused_evolution_matches_reference(seed, n, resume, ideal_diag):
    """Evolving the fused blocks is evolving the circuit gate by gate, to
    rounding, with noisy channels composed (tagged ops ideal) and with or
    without an initial state."""
    rng = np.random.default_rng(seed)
    noise = preset("basic")
    tags = ("xtalk", "diag") if ideal_diag else ("xtalk",)
    c = _tagged_random_circuit(n, rng)
    initial = DensityMatrix(n, random_density_matrix(n, rng)) if resume else None
    before = None if initial is None else initial.matrix.copy()
    got = evolve(blocks(c, noise, tags), initial=initial)
    want = reference_evolve(c, noise, tags, initial=before)
    assert np.abs(got.matrix - want).max() < 1e-12
    if resume:
        assert initial.matrix.tobytes() == before.tobytes()


def _check_blocks(c: Circuit) -> list:
    groups = fuse(c.ops)
    assert sorted(i for _, members in groups for i in members) == list(range(len(c.ops)))
    for qubits, members in groups:
        assert 1 <= len(qubits) <= 2 and list(qubits) == sorted(qubits)
        assert members == sorted(members)
        assert all(set(c.ops[i].qubits) <= set(qubits) for i in members)
    for q in range(c.width):
        on_q = [i for i, g in enumerate(c.ops) if q in g.qubits]
        assert [i for qubits, members in groups if q in qubits
                for i in members if q in c.ops[i].qubits] == on_q
    return groups


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_fuse_keeps_each_qubits_op_order(seed, n):
    """Every op lands in exactly one block of at most two qubits, and per
    qubit the blocks, in order, read back the circuit's ops on it."""
    _check_blocks(_tagged_random_circuit(n, np.random.default_rng(seed)))


def test_fuse_groups_pairs_and_absorbs_single_qubit_ops():
    c = Circuit(4, (h(0), ry(0.2, 1), cnot(0, 1), rz(0.3, 1), cnot(1, 0),
                    x(2), rzz(0.1, 1, 2), ry(0.4, 0), cnot(0, 1), rz(0.5, 3)))
    assert _check_blocks(c) == [((0, 1), [0, 1, 2, 3, 4, 7]), ((1, 2), [5, 6]),
                                ((0, 1), [8]), ((3,), [9])]


def test_fused_copies_register_fuses_every_single_qubit_op():
    """On a compiled ring-4 copies register no single-qubit block is left,
    and the fused body is the gate-by-gate one to rounding."""
    from vdcut.runner import compile_circuit
    from vdcut.transpile import coupling_map_for

    noise = preset("basic+gct")
    ex = copies_register(2)[1]
    c = compile_circuit(ex.circuit, noise=noise, cmap=coupling_map_for("heavyhex:3", 4))
    groups = _check_blocks(c.body)
    assert all(len(qubits) == 2 for qubits, _ in groups) and len(groups) < len(c.body.ops)
    got = evolve(blocks(c.body, c.noise, c.ideal_tags))
    want = reference_evolve(c.body, c.noise, c.ideal_tags)
    assert np.abs(got.matrix - want).max() < 1e-12


def test_one_memo_shares_blocks_over_a_common_prefix():
    """Two noisy circuits that share a prefix, built through one memo, hold
    the same block objects over that prefix and part where they differ;
    a plain circuit evolves as its noiseless blocks, byte for byte."""
    noise = preset("basic")
    prefix = (h(0), ry(0.3, 1), cnot(0, 1), rz(0.2, 2), cnot(1, 2))
    first = Circuit(3, prefix + (cnot(0, 2), ry(0.5, 0)))
    second = Circuit(3, prefix + (cnot(0, 2), ry(0.7, 0)))
    memo = {}
    a, b = (blocks(c, noise, memo=memo).ops for c in (first, second))
    shared = len(blocks(Circuit(3, prefix), noise).ops)
    assert 0 < shared < min(len(a), len(b))
    assert all(u is v for u, v in zip(a[:shared], b[:shared]))
    assert all(u is not v for u, v in zip(a[shared:], b[shared:]))
    assert blocks(first, noise, memo=memo).ops == a
    assert sum(block.gates for block in a) == len(first.ops)
    for c in (first, second):
        assert evolve(c).matrix.tobytes() == evolve(blocks(c)).matrix.tobytes()


def test_measurement_rejected_by_evolve():
    with pytest.raises(ValueError):
        evolve(Circuit(1, (measure(0),)))


def test_channels_preserve_density_matrix_invariants():
    rng = np.random.default_rng(4)
    nm = NoiseModel(gate_crosstalk=True, readout_crosstalk=True)
    for _ in range(40):
        c = random_circuit(int(rng.integers(1, 4)), int(rng.integers(1, 12)), rng)
        dm = evolve(blocks(c, nm))
        validate(dm, atol=1e-10)


def test_noiseless_evolve_matches_statevector():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            c = random_circuit(n, 16, rng)
            psi = statevector(c)
            assert np.abs(evolve(c).matrix - np.outer(psi, psi.conj())).max() < 1e-12


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gate_superoperator_equals_kron_bit_for_bit():
    rng = np.random.default_rng(12)
    u4 = _random_unitary(4, rng)
    gates = [ry(0.3, 0), rz(-1.1, 0), h(0), x(0), cnot(0, 1), cnot(1, 0),
             rzz(0.7, 0, 1), rzz(0.7, 1, 0), swap(0, 1), swap(1, 0),
             two_qubit(u4, 0, 1), two_qubit(u4, 1, 0)]
    for g in gates:
        u = gate_matrix(g)
        if len(g.qubits) == 2 and g.qubits[0] > g.qubits[1]:
            u = _SWAP_MATRIX @ u @ _SWAP_MATRIX
        want = np.kron(u, u.conj()).tobytes()
        assert _gate_superop(g, None, False).tobytes() == want, g
        assert _gate_superop(g, preset("basic"), True).tobytes() == want, g
    for d in (10e-9, 300e-9, 60e-6):
        ks = thermal_relaxation_kraus(120e-6, 140e-6, d) + [_random_unitary(2, rng)]
        want = sum(np.kron(k, k.conj()) for k in ks)
        assert _kraus_to_super(ks).tobytes() == want.tobytes()


def test_thermal_relaxation_fixed_point():
    """An idle qubit relaxed for t >> T1 ends in |0> regardless of start."""
    t1, t2 = 120.385e-6, 138.652e-6
    ks = thermal_relaxation_kraus(t1, t2, 60 * t1)
    rho = np.array([[0.2, 0.4 - 0.1j], [0.4 + 0.1j, 0.8]])
    out = apply_channel(rho, ks)
    z = np.real(out[0, 0] - out[1, 1])
    assert abs(z - 1.0) < 1e-6


def test_thermal_relaxation_coherence_decay():
    t1, t2, d = 100e-6, 150e-6, 5e-6
    ks = thermal_relaxation_kraus(t1, t2, d)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply_channel(plus, ks)
    assert abs(abs(out[0, 1]) - 0.5 * np.exp(-d / t2)) < 1e-12


def test_exact_probs_examples():
    assert as_dict(exact_probs(DensityMatrix(1, np.diag([1.0, 0.0])))) == {"0": 1.0}
    assert as_dict(exact_probs(DensityMatrix(1, np.eye(2) / 2))) == {"0": 0.5, "1": 0.5}
    bell = evolve(Circuit(2, (h(0), cnot(0, 1))))
    assert as_dict(exact_probs(bell)) == pytest.approx({"00": 0.5, "11": 0.5})


def test_sampling_deterministic_and_concentrated():
    d = distribution({"0": 1.0}, 1)
    c = sample(d, 100, seed=1)
    assert c["0"] == 100

    d = distribution({"0": 0.5, "1": 0.5}, 1)
    c = sample(d, 10 ** 6, seed=9)
    # 5 sigma binomial bound
    assert abs(c["0"] - 5 * 10 ** 5) < 5 * np.sqrt(10 ** 6 * 0.25)
    again = sample(d, 10 ** 6, seed=9)
    assert np.array_equal(c.values, again.values)


def test_counts_roundtrip():
    c = Counts(2, np.array([3, 0, 1, 0]))
    assert c.shots == 4
    assert as_dict(c) == {"00": 3, "10": 1}
    assert as_dict(c.to_distribution()) == {"00": 0.75, "10": 0.25}


def test_marginal_orders_bits():
    d = distribution({"011": 1.0}, 3)
    assert as_dict(marginal(d, [0])) == {"0": 1.0}
    assert as_dict(marginal(d, [2, 1])) == {"11": 1.0}
    assert as_dict(marginal(d, [2, 0])) == {"10": 1.0}


def test_expectation_maxcut_examples():
    # triangle-graph MaxCut Hamiltonian
    terms = [(0.5, "III"), (-0.5, "ZZI"),
             (0.5, "III"), (-0.5, "IZZ"),
             (0.5, "III"), (-0.5, "ZIZ")]
    hamiltonian = PauliObservable(tuple(terms))
    assert expectation(distribution({"001": 1.0}, 3), hamiltonian) == pytest.approx(2.0)
    assert expectation(distribution({"000": 1.0}, 3), hamiltonian) == pytest.approx(0.0)

    mixed = DensityMatrix(2, np.eye(4) / 4)
    assert expectation(mixed, PauliObservable(((1.0, "ZZ"),))) == pytest.approx(0.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_diagonal_expectation_equals_trace_bit_for_bit(seed, n):
    """The I/Z density path returns the float of Tr(O rho) exactly, so the
    optimizer that reads it follows the same path as with the matrix."""
    rng = np.random.default_rng(seed)
    dm = evolve(blocks(random_circuit(n, 4 * n, rng), preset("basic")))
    terms = tuple(
        (float(rng.choice([0.5, -0.5, rng.normal()])), "".join(rng.choice(["I", "Z"], n)))
        for _ in range(int(rng.integers(1, 3 * n + 2))))
    obs = PauliObservable(terms)
    assert expectation(dm, obs) == float(np.trace(obs.matrix() @ dm.matrix).real)
    mixed = PauliObservable(terms + ((0.25, "X" + "Z" * (n - 1)),))
    assert expectation(dm, mixed) == float(np.trace(mixed.matrix() @ dm.matrix).real)


def test_expectation_rejects_offdiagonal_on_distribution():
    d = distribution({"0": 1.0}, 1)
    with pytest.raises(ValueError):
        expectation(d, PauliObservable(((1.0, "X"),)))


def test_readout_identity_and_single_qubit():
    ident = NoiseModel(readout=np.eye(2))
    d = distribution({"0": 1.0}, 1)
    assert as_dict(apply_readout(d, ident)) == {"0": 1.0}

    nm = NoiseModel()  # default symmetric 1.2e-2 error
    out = apply_readout(d, nm)
    assert out["0"] == pytest.approx(0.988)
    assert out["1"] == pytest.approx(0.012)


def test_readout_crosstalk_pair_matrix():
    nm = NoiseModel(readout=np.eye(2), readout_crosstalk=True,
                    adjacency=((0, 1),))
    d = distribution({"00": 1.0}, 2)
    out = apply_readout(d, nm)
    assert out["00"] == pytest.approx(0.991)
    assert out["01"] == pytest.approx(0.003)
    assert out["10"] == pytest.approx(0.003)
    assert out["11"] == pytest.approx(0.003)


def test_readout_crosstalk_greedy_matching():
    # physical ids 0-1-2 on a line; only one pair (0,1) forms, 2 stays single
    nm = NoiseModel(readout=np.eye(2), readout_crosstalk=True,
                    adjacency=((0, 1), (1, 2)))
    d = distribution({"000": 1.0}, 3)
    out = apply_readout(d, nm)
    # qubit 2 sees no crosstalk: its marginal stays exactly deterministic
    assert as_dict(marginal(out, [2])) == {"0": 1.0}
    assert marginal(out, [0, 1])["00"] == pytest.approx(0.991)


def test_readout_preserves_normalization():
    rng = np.random.default_rng(8)
    nm = NoiseModel(readout_crosstalk=True, adjacency=((0, 1), (1, 2), (2, 3)))
    p = rng.random(16)
    d = Distribution(4, p / p.sum())
    out = apply_readout(d, nm)
    assert abs(out.probs.sum() - 1.0) < 1e-12


def test_tv_distance():
    a = distribution({"0": 1.0}, 1)
    b = distribution({"0": 0.5, "1": 0.5}, 1)
    assert tv_distance(a, b) == pytest.approx(0.5)
