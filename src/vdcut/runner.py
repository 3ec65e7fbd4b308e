"""Shared execution pipeline: route a measured logical circuit onto a
device, decompose to the CNOT basis, insert crosstalk, evolve under noise,
apply readout error, and return the measured-bit distribution (exact or
sampled) together with gate statistics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuit import CNOT, RZZ, SWAP, Circuit
from .noise import NoiseModel, insert_zz_crosstalk
from .simulate import (
    Counts,
    Distribution,
    apply_readout,
    evolve,
    exact_probs,
    marginal,
    sample,
)
from .transpile import CouplingMap, compact, decompose_to_basis, route
from .vd import DIAG_TAG, PARITY_TAG
from .zne import fold_diagonalizing

@dataclass(frozen=True)
class ExecutionRecord:
    """Result of one circuit execution plus bookkeeping for result tables."""

    distribution: Distribution
    counts: Counts | None
    measured: tuple[int, ...]
    cnots: int
    rzz_gates: int
    swaps: int
    width: int

    @property
    def output(self) -> Distribution:
        return self.counts.to_distribution() if self.counts is not None else self.distribution


@dataclass(frozen=True)
class Execution:
    """One requested execution of a measured logical circuit: diagonalizing
    gate fold ``scale``, ``ideal_diag`` reference mode and sampling budget
    (``shots=None`` keeps the exact distribution)."""

    circuit: Circuit
    scale: int = 1
    ideal_diag: bool = False
    shots: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class CompiledCircuit:
    """A logical circuit as the simulator evolves it: routed, folded,
    basis-decomposed and crosstalk-augmented, without measurements."""

    body: Circuit
    noise: NoiseModel | None
    ideal_tags: tuple[str, ...]
    measured: tuple[int, ...]
    positions: tuple[int, ...]
    swaps: int

    def op_keys(self) -> list[tuple]:
        """Per op, everything its superoperator depends on."""
        return [(g.kind, g.qubits, g.angle,
                 None if g.unitary is None else g.unitary.tobytes(),
                 g.tag in self.ideal_tags) for g in self.body.ops]


def compile_circuit(circuit: Circuit, *,
                    noise: NoiseModel | None = None,
                    cmap: CouplingMap | None = None,
                    scale: int = 1,
                    ideal_diag: bool = False) -> CompiledCircuit:
    """Route, fold (``scale``), decompose and insert crosstalk.  Measured
    bits are reported in ascending logical qubit order.

    A distillation circuit's measurement stage (parity rotation and
    diagonalizing gates) is routed after its state preparation, so every
    parity group measures the same compiled preparation."""
    measured_logical = circuit.measured_qubits
    if not measured_logical:
        measured_logical = tuple(range(circuit.width))
    swaps = 0
    if cmap is not None:
        rc = route(circuit, cmap, stage_tags=(PARITY_TAG, DIAG_TAG))
        rc, edges = compact(rc, cmap)
        swaps = rc.circuit.count(SWAP)
        body = rc.circuit
        positions = tuple(rc.final_layout[q] for q in measured_logical)
    else:
        body = circuit
        edges = tuple(
            (a, b) for a in range(circuit.width) for b in range(a + 1, circuit.width))
        positions = measured_logical

    if scale != 1:
        body = fold_diagonalizing(body, scale)
    body = decompose_to_basis(body, keep_tags=("diag",) if ideal_diag else ())
    noise_local = noise
    if noise is not None and noise.gate_crosstalk:
        # crosstalk between parallel two-qubit gates of the basis-decomposed
        # circuit, mirroring per-CNOT scheduling on hardware
        body = insert_zz_crosstalk(body, edges, angle=noise.crosstalk_angle)
    if noise is not None:
        noise_local = noise.with_adjacency(edges)
    ideal_tags = ("xtalk", "diag") if ideal_diag else ("xtalk",)
    return CompiledCircuit(body.without_measurements(), noise_local, ideal_tags,
                           measured_logical, positions, swaps)


def run_circuit(circuit: Circuit, *,
                noise: NoiseModel | None = None,
                cmap: CouplingMap | None = None,
                shots: int | None = None,
                seed: int = 0,
                scale: int = 1,
                ideal_diag: bool = False) -> ExecutionRecord:
    """Execute a logical circuit end to end.

    Measured bits are reported in ascending logical qubit order.  ``scale``
    folds the diagonalizing gates before decomposition; ``ideal_diag`` keeps
    them atomic and noiseless (the noise-free-diagonalizing reference).
    """
    (record,) = run_circuits([Execution(circuit, scale, ideal_diag, shots, seed)],
                             noise=noise, cmap=cmap)
    return record


def run_circuits(executions: Sequence[Execution], *,
                 noise: NoiseModel | None = None,
                 cmap: CouplingMap | None = None) -> list[ExecutionRecord]:
    """Execute variants of one register on one device under one noise model,
    with the same results as one :func:`run_circuit` call each.

    Executions of the same circuit object share its compilation.  Each
    distinct compiled circuit is evolved once: the longest compiled prefix
    that all of them share is evolved once, and each suffix resumes from
    that snapshot.  Sampling uses each execution's own shots and seed.
    """
    compiled: dict[tuple, CompiledCircuit] = {}
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag)
        if key not in compiled:
            compiled[key] = compile_circuit(ex.circuit, noise=noise, cmap=cmap,
                                            scale=ex.scale, ideal_diag=ex.ideal_diag)
    variant_of = {key: (tuple(c.op_keys()), c.positions) for key, c in compiled.items()}
    variants = {variant_of[key]: c for key, c in compiled.items()}
    widths = {c.body.width for c in variants.values()}
    if len(widths) != 1:
        raise ValueError("executions must compile to one register width")
    (width,) = widths

    op_keys = [ops for ops, _ in variants]
    shared = min(map(len, op_keys))
    for i, column in enumerate(zip(*op_keys)):
        if any(k != column[0] for k in column):
            shared = i
            break
    first = next(iter(variants.values()))
    snapshot = evolve(Circuit(width, first.body.ops[:shared]), first.noise,
                      ideal_tags=first.ideal_tags)
    dists: dict[tuple, Distribution] = {}
    for variant, c in variants.items():
        suffix = c.body.ops[shared:]
        dm = snapshot if not suffix else evolve(
            Circuit(width, suffix), c.noise, ideal_tags=c.ideal_tags, initial=snapshot)
        dist = exact_probs(dm)
        del dm
        if c.positions:
            dist = marginal(dist, c.positions)
        dists[variant] = apply_readout(dist, c.noise, physical=c.positions)
    del snapshot

    records = []
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag)
        c, dist = compiled[key], dists[variant_of[key]]
        records.append(ExecutionRecord(
            distribution=dist,
            counts=sample(dist, ex.shots, ex.seed) if ex.shots is not None else None,
            measured=c.measured, cnots=c.body.count(CNOT), rzz_gates=c.body.count(RZZ),
            swaps=c.swaps, width=c.body.width))
    return records
