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
    ry,
    rz,
    rzz,
    swap,
    x,
)
from vdcut.noise import NoiseModel, preset
from vdcut.vd import diag_gate_on
from vdcut.simulate import (
    _gate_superop,
    _pauli_transfer,
    _relaxation_transfer,
    DensityMatrix,
    Distribution,
    FusedCircuit,
    PauliState,
    SimulationError,
    SimulationSizeError,
    apply_readout,
    blocks,
    evolve,
    exact_probs,
    expectation,
    fuse,
    marginal,
    sample,
    tv_distance,
)

from helpers import (
    apply_channel,
    as_dict,
    copies_register,
    density_matrix,
    distribution,
    ground_state,
    pauli_state,
    purity,
    random_circuit,
    random_density_matrix,
    reference_evolve,
    reference_kernel,
    statevector,
    thermal_relaxation_kraus,
    validate,
)


def test_empty_circuit_ground_state():
    dm = evolve(Circuit(1))
    assert np.abs(dm.matrix - np.diag([1.0, 0.0])).max() == 0


def test_full_depolarization_gives_maximally_mixed():
    # zero gate duration disables relaxation, leaving pure depolarization
    nm = NoiseModel(one_qubit_depol=1.0, one_qubit_time=0.0)
    dm = density_matrix(evolve(blocks(Circuit(1, (x(0),)), nm)))
    assert np.abs(dm.matrix - np.eye(2) / 2).max() < 1e-15


def test_noiseless_purity():
    rng = np.random.default_rng(2)
    c = random_circuit(3, 16, rng)
    assert abs(purity(evolve(c)) - 1.0) < 1e-10


def test_width_cap(monkeypatch):
    """Admission counts evolve's two buffers (plus ``initial``), and a
    batch's held snapshots on top, against physical memory, and rejects
    before allocating anything; a Pauli state takes half the bytes of a
    density tensor."""
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
    # table 2: 12 qubits, two snapshots plus two buffers of 128 MiB
    monkeypatch.setattr(runner, "evolve", admitted)
    with pytest.raises(Admitted):
        runner.run_circuits(copies_register(6), noise=preset("basic+gct+rct"),
                            cmap=coupling_map_for("linear", 12))
    monkeypatch.undo()

    # the ring-4 copies register holds two snapshots: each of its evolutions
    # fits in three 8-qubit Pauli tensors, the batch does not, and is refused
    # before its first evolution
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 3 * 8 * 4 ** 8)
    simulate.admit(8, 3, pauli=True)
    monkeypatch.setattr(runner, "evolve", admitted)
    with pytest.raises(SimulationSizeError):
        runner.run_circuits(copies_register(4), noise=preset("basic+gct"),
                            cmap=coupling_map_for("heavyhex:3", 8))
    monkeypatch.undo()

    monkeypatch.setattr(simulate, "_physical_memory", lambda: 2 * 16 * 4 ** 10)
    evolve(Circuit(10))
    with pytest.raises(SimulationSizeError):   # before the initial state's width is read
        evolve(Circuit(10), initial=ground_state(2))
    pauli = FusedCircuit(10, (), pauli=True)
    evolve(pauli, initial=evolve(pauli))     # three Pauli tensors


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
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans(), st.booleans())
def test_evolve_matches_reference_kernel_bit_for_bit(seed, n, resume, noisy):
    """The two-buffer kernel computes every block, a noisy Pauli-transfer
    matrix or a noiseless complex superoperator, as a fresh transpose and
    product would, byte for byte, and leaves ``initial`` unchanged."""
    rng = np.random.default_rng(seed)
    c = random_circuit(n, int(rng.integers(0, 4 * n + 1)), rng)
    fused = blocks(c, preset("basic") if noisy else None)
    initial = None
    if resume:
        dm = DensityMatrix(n, random_density_matrix(n, rng))
        initial = pauli_state(dm) if noisy else dm

    def tensor(state):
        return state.coeffs if noisy else state.matrix

    before = None if initial is None else tensor(initial).copy()
    got = evolve(fused, initial=initial)
    assert tensor(got).tobytes() == reference_kernel(fused, initial=before).tobytes()
    if resume:
        assert tensor(initial).tobytes() == before.tobytes()


def _tagged_random_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """A random circuit with some ops tagged ``diag`` or ``xtalk`` and, on
    two or more qubits, some crosstalk RZZs and some diagonalizing gates."""
    ops = []
    for g in random_circuit(n, int(rng.integers(0, 6 * n + 1)), rng).ops:
        ops.append(g.retagged(str(rng.choice(["", "", "diag", "xtalk"]))))
        if n >= 2 and rng.random() < 0.3:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append(rzz(float(rng.uniform(-0.1, 0.1)), a, b, tag="xtalk")
                       if rng.random() < 0.6 else diag_gate_on(a, b))
    return Circuit(n, tuple(ops))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
def test_fused_evolution_matches_reference(seed, n, resume):
    """Evolving the fused blocks is evolving the circuit gate by gate, to
    rounding, with noisy channels composed (crosstalk and diagonalizing
    gates ideal) and with or without an initial state, and the Pauli
    state's exact probabilities are the reference density matrix's."""
    rng = np.random.default_rng(seed)
    noise = preset("basic")
    c = _tagged_random_circuit(n, rng)
    rho = random_density_matrix(n, rng) if resume else None
    initial = None if rho is None else pauli_state(DensityMatrix(n, rho))
    before = None if initial is None else initial.coeffs.copy()
    got = evolve(blocks(c, noise), initial=initial)
    want = reference_evolve(c, noise, initial=rho)
    assert isinstance(got, PauliState)
    assert np.abs(density_matrix(got).matrix - want).max() < 1e-12
    assert np.abs(exact_probs(got).probs
                  - exact_probs(DensityMatrix(n, want)).probs).max() < 1e-12
    if resume:
        assert initial.coeffs.tobytes() == before.tobytes()


def test_pauli_probabilities_below_the_floor_are_refused():
    """A Pauli state whose diagonal dips below the negative-probability
    floor is a simulator bug, not a distribution to clamp; one within it
    is clamped and renormalized."""
    coeffs = np.zeros(4)
    coeffs[[0, 3]] = 1.0, 1.0 + 1e-10      # rho_11 = -5e-11
    assert as_dict(exact_probs(PauliState(1, coeffs))) == {"0": 1.0}
    coeffs[3] = 1.0 + 4e-10                # rho_11 = -2e-10
    with pytest.raises(SimulationError, match="below"):
        exact_probs(PauliState(1, coeffs))


def test_non_hermiticity_preserving_block_is_refused(monkeypatch):
    """A gate whose superoperator does not map Hermitian operators to
    Hermitian ones has no real Pauli-transfer matrix, so building its
    channel under noise raises, for an ideal (crosstalk) gate too; noiseless
    blocks are never converted."""
    left = np.kron(np.diag([1.0, 1j]), np.eye(2))   # rho -> S rho, not S rho S^dag
    monkeypatch.setattr(simulate, "_conjugation_super", lambda u: left)
    c = Circuit(1, (rz(0.3, 0),))
    for tag in ("", "xtalk"):
        with pytest.raises(SimulationError, match="imaginary"):
            blocks(Circuit(1, (rz(0.3, 0, tag=tag),)), preset("basic"))
    assert blocks(c).ops[0].superop is left


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
    got = density_matrix(evolve(blocks(c.body, noise)))
    want = reference_evolve(c.body, noise)
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


def test_initial_state_must_match_the_blocks():
    """Noisy (Pauli) blocks evolve a Pauli state and plain blocks a density
    matrix; an initial state of the other kind is refused."""
    c = Circuit(1, (x(0),))
    with pytest.raises(TypeError):
        evolve(blocks(c, preset("basic")), initial=ground_state(1))
    with pytest.raises(TypeError):
        evolve(c, initial=evolve(blocks(Circuit(1), preset("basic"))))


def test_channels_preserve_density_matrix_invariants():
    rng = np.random.default_rng(4)
    nm = NoiseModel(gate_crosstalk=True, readout_crosstalk=True)
    for _ in range(40):
        c = random_circuit(int(rng.integers(1, 4)), int(rng.integers(1, 12)), rng)
        validate(density_matrix(evolve(blocks(c, nm))), atol=1e-10)


def test_noiseless_evolve_matches_statevector():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            c = random_circuit(n, 16, rng)
            psi = statevector(c)
            assert np.abs(evolve(c).matrix - np.outer(psi, psi.conj())).max() < 1e-12


def test_gate_superoperator_equals_kron_bit_for_bit():
    """DIAG, unlike SWAP and RZZ, is not symmetric under swapping its
    qubits, so its two orientations check the flip to ascending order."""
    gates = [ry(0.3, 0), rz(-1.1, 0), h(0), x(0), cnot(0, 1), cnot(1, 0),
             rzz(0.7, 0, 1), rzz(0.7, 1, 0), swap(0, 1), swap(1, 0),
             diag_gate_on(0, 1), diag_gate_on(1, 0)]
    assert not np.array_equal(_gate_superop(gates[-1], None, False),
                              _gate_superop(gates[-2], None, False))
    for g in gates:
        u = gate_matrix(g)
        if len(g.qubits) == 2 and g.qubits[0] > g.qubits[1]:
            u = _SWAP_MATRIX @ u @ _SWAP_MATRIX
        want = np.kron(u, u.conj())
        assert _gate_superop(g, None, False).tobytes() == want.tobytes(), g
        # under noise, an ideal-tagged gate is its unitary's Pauli-transfer matrix only
        ideal = _pauli_transfer(want, len(g.qubits)).tobytes()
        assert _gate_superop(g, preset("basic"), True).tobytes() == ideal, g


def _relaxed(rho: np.ndarray, t1: float, t2: float, d: float) -> np.ndarray:
    """``rho`` after the closed-form relaxation, applied to its Pauli coefficients."""
    coeffs = _relaxation_transfer(t1, t2, d) @ pauli_state(DensityMatrix(1, rho)).coeffs
    return density_matrix(PauliState(1, coeffs)).matrix


def test_thermal_relaxation_fixed_point():
    """An idle qubit relaxed for t >> T1 ends in |0> regardless of start."""
    t1, t2 = 120.385e-6, 138.652e-6
    out = _relaxed(np.array([[0.2, 0.4 - 0.1j], [0.4 + 0.1j, 0.8]]), t1, t2, 60 * t1)
    z = np.real(out[0, 0] - out[1, 1])
    assert abs(z - 1.0) < 1e-6


def test_thermal_relaxation_coherence_decay():
    """The closed form decays coherences as exp(-d/T2), and is the channel
    of the amplitude-damping and dephasing Kraus operators up to T2 = 2 T1."""
    t1, t2, d = 100e-6, 150e-6, 5e-6
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert abs(abs(_relaxed(plus, t1, t2, d)[0, 1]) - 0.5 * np.exp(-d / t2)) < 1e-12
    rng = np.random.default_rng(13)
    for t1, t2, d in ((100e-6, 150e-6, 5e-6), (120.385e-6, 138.652e-6, 346.667e-9),
                      (120e-6, 240e-6, 60e-6), (120e-6, 20e-6, 35.5e-9)):
        for rho in (plus, random_density_matrix(1, rng)):
            want = apply_channel(rho, thermal_relaxation_kraus(t1, t2, d))
            assert np.abs(_relaxed(rho, t1, t2, d) - want).max() < 1e-12


def test_exact_probs_examples():
    assert as_dict(exact_probs(DensityMatrix(1, np.diag([1.0, 0.0])))) == {"0": 1.0}
    assert as_dict(exact_probs(DensityMatrix(1, np.eye(2) / 2))) == {"0": 0.5, "1": 0.5}
    bell = evolve(Circuit(2, (h(0), cnot(0, 1))))
    assert as_dict(exact_probs(bell)) == pytest.approx({"00": 0.5, "11": 0.5})


def test_sampling_deterministic_and_concentrated():
    d = distribution({"0": 1.0}, 1)
    c = sample(d, 100, seed=1)
    assert c["0"] == 1.0

    d = distribution({"0": 0.5, "1": 0.5}, 1)
    c = sample(d, 10 ** 6, seed=9)
    # 5 sigma binomial bound
    assert abs(c["0"] * 10 ** 6 - 5 * 10 ** 5) < 5 * np.sqrt(10 ** 6 * 0.25)
    again = sample(d, 10 ** 6, seed=9)
    assert np.array_equal(c.probs, again.probs)


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
    dm = density_matrix(evolve(blocks(random_circuit(n, 4 * n, rng), preset("basic"))))
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
    nm = NoiseModel(readout=np.eye(2), readout_crosstalk=True)
    d = distribution({"00": 1.0}, 2)
    out = apply_readout(d, nm, edges=((0, 1),))
    assert out["00"] == pytest.approx(0.991)
    assert out["01"] == pytest.approx(0.003)
    assert out["10"] == pytest.approx(0.003)
    assert out["11"] == pytest.approx(0.003)


def test_readout_crosstalk_greedy_matching():
    # physical ids 0-1-2 on a line; only one pair (0,1) forms, 2 stays single
    nm = NoiseModel(readout=np.eye(2), readout_crosstalk=True)
    d = distribution({"000": 1.0}, 3)
    out = apply_readout(d, nm, edges=((0, 1), (1, 2)))
    # qubit 2 sees no crosstalk: its marginal stays exactly deterministic
    assert as_dict(marginal(out, [2])) == {"0": 1.0}
    assert marginal(out, [0, 1])["00"] == pytest.approx(0.991)


def test_readout_preserves_normalization():
    rng = np.random.default_rng(8)
    nm = NoiseModel(readout_crosstalk=True)
    p = rng.random(16)
    d = Distribution(4, p / p.sum())
    out = apply_readout(d, nm, edges=((0, 1), (1, 2), (2, 3)))
    assert abs(out.probs.sum() - 1.0) < 1e-12


def test_distribution_rejects_non_finite_entries():
    """A NaN entry compares false with every bound, so it used to pass both
    the negativity and the normalization check; it and infinite entries are
    refused."""
    for probs in ([np.nan, 1.0], [np.inf, 0.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            Distribution(1, probs)


def test_tv_distance():
    a = distribution({"0": 1.0}, 1)
    b = distribution({"0": 0.5, "1": 0.5}, 1)
    assert tv_distance(a, b) == pytest.approx(0.5)
