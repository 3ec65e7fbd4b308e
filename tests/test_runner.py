"""Batched execution: shared compiled prefixes give the same results as
separate runs."""
import weakref

import numpy as np
import pytest

from vdcut import runner, simulate
from vdcut.benchmarks import real_amplitudes
from vdcut.cutting import build_pairwise_pipelines
from vdcut.noise import preset
from vdcut.runner import Execution, compile_circuit, run_circuits
from vdcut.simulate import blocks, marginal
from vdcut.transpile import coupling_map_for
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
    (copies_register, 8, 8, 2), (single_register, 4, 25, 3)], ids=["copies", "single"])
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
