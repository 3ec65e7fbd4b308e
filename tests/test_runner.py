"""Batched execution: shared compiled prefixes give the same results as
separate runs."""
import weakref

import numpy as np
import pytest

from vdcut import runner, simulate
from vdcut.benchmarks import real_amplitudes
from vdcut.circuit import Circuit
from vdcut.cutting import build_pairwise_pipelines
from vdcut.noise import NoiseModel, preset
from vdcut.runner import Execution, compile_circuit, run_circuits
from vdcut.simulate import blocks, marginal
from vdcut.transpile import CouplingMap, coupling_map_for, route
from vdcut.vd import build_vd_circuit

from helpers import copies_register, single_register


def test_batch_matches_separate_runs():
    orig = real_amplitudes(2, 1, "circular", [0.3, 1.1, 0.7, 0.2])
    vd = build_vd_circuit(orig)
    noise = preset("basic+gct")
    cmap = coupling_map_for("heavyhex:3", 4)
    copies = [Execution(vd, ideal_diag=True),
              Execution(vd, shots=500, seed=1),
              Execution(vd, scale=3, shots=500, seed=2),
              Execution(vd, shots=500, seed=3)]
    # distinct circuits of one register: the bare circuit and the X/Y/Z
    # fragments of both pairs, as an experiment's single-copy batch holds them
    single = [Execution(orig, shots=500, seed=4)] + [
        ex for pipe in build_pairwise_pipelines(orig)
        for ex in pipe.executions(500, 5 + 100 * pipe.pair_index)]
    assert len(single) == 7
    batches = [run_circuits(executions, noise=noise, cmap=cmap).records
               for executions in (copies, single)]
    for executions, batch in zip((copies, single), batches):
        for ex, rec in zip(executions, batch, strict=True):
            (alone,) = run_circuits([ex], noise=noise, cmap=cmap).records
            assert np.array_equal(rec.distribution.probs, alone.distribution.probs)
            assert (rec.output is rec.distribution) == (ex.shots is None)
            assert np.array_equal(rec.output.probs, alone.output.probs)
            assert (rec.cnots, rec.rzz_gates, rec.swaps) == (alone.cnots, alone.rzz_gates,
                                                             alone.swaps)
    batch = batches[0]
    # the two scale-1 executions share one evolution but keep their own seeds
    assert np.array_equal(batch[1].distribution.probs, batch[3].distribution.probs)
    assert not np.array_equal(batch[1].output.probs, batch[3].output.probs)


def test_runs_without_a_map_share_one_coupling_map(monkeypatch):
    """Without a map, compilation uses the cached all-to-all map of the
    circuit's width instead of building one per compilation."""
    built = []
    post_init = CouplingMap.__post_init__

    def counting_post_init(self):
        built.append(self.n_qubits)
        post_init(self)

    monkeypatch.setattr(CouplingMap, "__post_init__", counting_post_init)
    circuit = real_amplitudes(5, 1, "circular", np.linspace(0.1, 0.9, 10))
    for _ in range(2):
        run_circuits([Execution(circuit)])
    assert len(built) <= 1


def test_readout_pairs_match_the_device_edges_between_read_qubits():
    """Readout crosstalk pairs the read qubits that a device edge joins,
    greedily in ascending compiled label, each qubit at most once, and
    names each pair by its bit positions."""
    vd = build_vd_circuit(real_amplitudes(4, 1, "circular", np.linspace(0.2, 1.4, 8)))
    cmap = coupling_map_for("heavyhex:3", 8)
    rc = route(vd, cmap)
    physical = rc.physical
    assert physical[-1] >= len(physical)  # the labels are not the device qubits
    edges = {(physical.index(a), physical.index(b))
             for a, b in cmap.edges if a in physical and b in physical}
    bit = {rc.final_layout[q]: q for q in range(vd.width)}
    matched, expected = set(), []
    for p in sorted(bit):
        q = next((q for q in sorted(bit) if q > p and (p, q) in edges
                  and not matched & {p, q}), None)
        if q is not None:
            matched.update((p, q))
            expected.append((bit[p], bit[q]))
    assert len(expected) > 1 and any(bit[p] != p for p in bit)  # bits are not labels
    compiled = compile_circuit(vd, noise=preset("basic+gct+rct"), cmap=cmap)
    assert compiled.readout_pairs == tuple(expected)
    assert compile_circuit(vd, noise=preset("basic+gct"), cmap=cmap).readout_pairs == ()


def test_readout_crosstalk_greedy_matching():
    """On the line 0-1-2 only the pair (0, 1) forms and qubit 2 stays
    single; reading qubits 1 and 2 pairs their bit positions (0, 1)."""
    noise = NoiseModel(readout=np.eye(2), readout_crosstalk=True)
    cmap = coupling_map_for("linear", 3)
    circuit = Circuit(3)
    assert compile_circuit(circuit, noise=noise, cmap=cmap).readout_pairs == ((0, 1),)
    assert compile_circuit(circuit, noise=noise, cmap=cmap,
                           measured=(1, 2)).readout_pairs == ((0, 1),)
    assert compile_circuit(circuit, noise=noise, cmap=cmap,
                           measured=(0, 2)).readout_pairs == ()
    (record,) = run_circuits([Execution(circuit)], noise=noise, cmap=cmap).records
    # qubit 2 sees no crosstalk: its marginal stays exactly deterministic
    assert marginal(record.distribution, [2]).probs.tolist() == [1.0, 0.0]
    assert marginal(record.distribution, [0, 1]).probs[0] == pytest.approx(0.991)


def test_execution_reads_its_measured_qubits():
    """An execution reads the qubits it names, in ascending logical order,
    and one circuit object read two ways in one batch keeps both reads."""
    circuit = real_amplitudes(3, 1, "circular", np.linspace(0.2, 1.4, 6))
    cmap = coupling_map_for("heavyhex:3", 3)
    every, pair, single = run_circuits(
        [Execution(circuit), Execution(circuit, measured=(2, 0)),
         Execution(circuit, measured=(1,))], noise=preset("basic"), cmap=cmap).records
    assert (every.distribution.width, pair.distribution.width) == (3, 2)
    assert np.allclose(pair.distribution.probs, marginal(every.distribution, (0, 2)).probs)
    assert np.allclose(single.distribution.probs, marginal(every.distribution, (1,)).probs)
    for measured in ((0, 0), (3,), (-1,)):
        with pytest.raises(ValueError):
            Execution(circuit, measured=measured)


def test_execution_checks_its_inputs_when_built(monkeypatch):
    """Bad shots, seeds, folds and read qubits are refused when the
    execution is built, before anything is compiled; read qubits are kept
    sorted, so one circuit read as (2, 0) and as [0, 2] compiles once."""
    circuit = real_amplitudes(3, 1, "circular", np.linspace(0.2, 1.4, 6))
    for bad in ({"shots": 0}, {"shots": 2.5}, {"shots": True}, {"seed": -1},
                {"seed": 1.0}, {"measured": (0.5,)}, {"measured": [0, 3]},
                {"measured": 1}, {"scale": 0}, {"scale": 2}, {"scale": 3.0},
                {"scale": True}, {"scale": 3}):  # the last: no DIAG gate to fold
        with pytest.raises(ValueError):
            Execution(circuit, **bad)
    vd = build_vd_circuit(real_amplitudes(2, 1, "circular", [0.3, 1.1, 0.7, 0.2]))
    assert Execution(vd, scale=np.int64(3)).scale == 3
    with pytest.raises(ValueError, match="odd"):
        Execution(vd, scale=2)
    assert Execution(circuit, shots=np.int64(5), measured=[2, 0]).measured == (0, 2)
    calls = []
    monkeypatch.setattr(runner, "compile_circuit",
                        lambda *a, **k: calls.append(k["measured"]) or compile_circuit(*a, **k))
    listed, ordered = run_circuits([Execution(circuit, measured=[2, 0]),
                                    Execution(circuit, measured=(0, 2))]).records
    assert calls == [(0, 2)]
    assert listed.distribution.width == 2
    assert np.array_equal(listed.distribution.probs, ordered.distribution.probs)


def _compiled_register(register=copies_register):
    noise = preset("basic+gct")
    cmap = coupling_map_for("heavyhex:3", 8)
    executions = register(4)
    compiled = [compile_circuit(ex.circuit, noise=noise, cmap=cmap, scale=ex.scale,
                                ideal_diag=ex.ideal_diag, measured=ex.measured)
                for ex in executions]
    return executions, noise, cmap, compiled


def _op_keys(c) -> list[tuple]:
    """Per op of a compiled body, everything its channel and placement
    depend on: crosstalk and diagonalizing gates evolve ideal."""
    return [(g.kind, g.qubits, g.angle, g.tag == "xtalk" or g.kind == "DIAG")
            for g in c.body.ops]


@pytest.mark.parametrize("register, width, variants, snapshots", [
    (copies_register, 8, 8, 2), (single_register, 4, 25, 2)], ids=["copies", "single"])
def test_trie_evolves_each_distinct_prefix_once(monkeypatch, register, width, variants,
                                                snapshots):
    """The ring-4 copies register branches at the groups, at the noiseless
    diagonalizing gates and at each ZNE fold; the single-copy register
    branches where the bare circuit and the cut fragments part.  Each
    variant is fused into blocks, and the batch evolves each distinct block
    prefix once, in fewer full-tensor passes than the distinct op-key
    prefixes it would take unfused and fewer ops than one shared prefix plus
    every suffix, holds no more snapshots than it admitted, and gives the
    bits of separate runs."""
    executions, noise, cmap, compiled = _compiled_register(register)
    keys = [_op_keys(c) for c in compiled]
    memo = {}
    fused = [blocks(c.body, noise, memo).ops for c in compiled]
    op_prefixes = {tuple(k[:i]) for k in keys for i in range(1, len(k) + 1)}
    block_prefixes = {tuple(b[:i]) for b in fused for i in range(1, len(b) + 1)}
    common = next((i for i, column in enumerate(zip(*keys)) if len(set(column)) > 1),
                  min(map(len, keys)))
    one_prefix = common + sum(len(k) - common for k in keys)

    real = runner.evolve
    evolved, alive, crowded = [], [], []

    def tracking(circuit, *args, **kwargs):
        evolved.append(len(circuit.ops))
        crowded.append(sum(ref() is not None for ref in alive))
        dm = real(circuit, *args, **kwargs)
        alive.append(weakref.ref(dm))
        return dm

    monkeypatch.setattr(runner, "evolve", tracking)
    batch = run_circuits(executions, noise=noise, cmap=cmap)
    monkeypatch.undo()
    stats = batch.stats
    assert (stats.width, stats.variants) == (width, variants)
    assert stats.ops_requested == sum(map(len, keys))
    assert sum(evolved) == stats.blocks_evolved == len(block_prefixes) < len(op_prefixes)
    assert stats.ops_evolved == sum(p[-1].gates for p in block_prefixes) < one_prefix
    assert max(crowded) == stats.max_snapshots == snapshots
    for ex, rec in zip(executions, batch.records, strict=True):
        (alone,) = run_circuits([ex], noise=noise, cmap=cmap).records
        assert rec.distribution.probs.tobytes() == alone.distribution.probs.tobytes()


def test_batch_builds_each_gate_superoperator_once(monkeypatch):
    """Every distinct channel of the register's variants (kind, angle,
    orientation, ideal flag) has its superoperator built once per batch,
    however many ops and blocks hold it."""
    executions, noise, cmap, compiled = _compiled_register()
    op_keys = {k for c in compiled for k in _op_keys(c)}
    distinct = {(kind, angle, qubits[0] > qubits[-1], ideal)
                for kind, qubits, angle, ideal in op_keys}
    real = simulate._gate_superop
    built = []

    def counting(gate, noise, ideal):
        built.append((gate.kind, gate.angle, gate.qubits[0] > gate.qubits[-1], ideal))
        return real(gate, noise, ideal)

    monkeypatch.setattr(simulate, "_gate_superop", counting)
    run_circuits(executions, noise=noise, cmap=cmap)
    assert len(built) == len(set(built)) == len(distinct) < len(op_keys)
    assert set(built) == distinct


def test_noiseless_batch_evolves_one_block_per_op():
    """Noiseless outputs are exact, not sampled, so a noiseless batch is not
    fused: each variant's distribution has the bits of evolving its compiled
    body gate by gate."""
    from vdcut.simulate import evolve, exact_probs, marginal

    cmap = coupling_map_for("heavyhex:3", 8)
    executions = copies_register(4)
    batch = run_circuits(executions, cmap=cmap)
    assert batch.stats.blocks_evolved == batch.stats.ops_evolved
    assert batch.stats.state_bytes == 16 * 4 ** 8
    for ex, rec in zip(executions, batch.records, strict=True):
        c = compile_circuit(ex.circuit, cmap=cmap, scale=ex.scale, ideal_diag=ex.ideal_diag,
                            measured=ex.measured)
        want = marginal(exact_probs(evolve(c.body)), c.positions)
        assert rec.distribution.probs.tobytes() == want.probs.tobytes()
