"""Shared execution pipeline: route a logical circuit onto a device,
decompose to the CNOT basis, insert crosstalk, evolve under noise, apply
readout error, and return the distribution of the bits an execution reads
(exact or sampled) together with gate statistics.  A batch is planned once
as evolution steps over shared block prefixes, which its stats, admission
and walk read.  Every batch evolves real Pauli-transfer blocks on Pauli
states (see :mod:`vdcut.simulate`)."""
from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .circuit import CNOT, DIAG, RZZ, SWAP, Circuit
from .noise import NoiseModel, insert_zz_crosstalk
from .simulate import (
    Distribution,
    FusedCircuit,
    PauliState,
    admit,
    apply_readout,
    blocks,
    evolve,
    exact_probs,
    marginal,
    sample,
    state_bytes,
)
from .transpile import CouplingMap, coupling_map_for, decompose_to_basis, route
from .zne import fold_diagonalizing


@dataclass(frozen=True)
class ExecutionRecord:
    """Result of one circuit execution plus bookkeeping for result tables:
    the exact measured-bit ``distribution`` and the ``output`` the execution
    reports, its sampled frequencies (see :func:`~vdcut.simulate.sample`),
    or ``distribution`` itself when the execution is exact."""

    distribution: Distribution
    output: Distribution
    cnots: int
    rzz_gates: int
    swaps: int


_MAX_SHOTS = 2 ** 63 - 1  # the largest count Generator.multinomial takes (a C long)


@dataclass(frozen=True)
class Execution:
    """One requested execution of a logical circuit: diagonalizing gate fold
    ``scale``, ``ideal_diag`` reference mode, sampling budget
    (``shots=None`` keeps the exact distribution) and the logical qubits it
    reads (``measured=None`` reads every qubit), checked when built:
    ``scale`` is odd, and above 1 only on a circuit with ``DIAG`` gates to
    fold; ``shots`` is at most 2**63 - 1; ``measured`` is kept as a sorted
    tuple, the order its bits are read in."""

    circuit: Circuit
    scale: int = 1
    ideal_diag: bool = False
    shots: int | None = None
    seed: int = 0
    measured: tuple[int, ...] | None = None

    def __post_init__(self):
        scale = _integer("scale", self.scale, 1)
        if scale % 2 == 0:
            raise ValueError(f"scale must be odd, got {scale}")
        if scale > 1 and not any(g.kind == DIAG for g in self.circuit.ops):
            raise ValueError(f"scale {scale} needs {DIAG} gates to fold, and the circuit has none")
        object.__setattr__(self, "scale", scale)
        if self.shots is not None:
            shots = _integer("shots", self.shots, 1)
            if shots > _MAX_SHOTS:
                raise ValueError(f"shots must be at most {_MAX_SHOTS}, got {shots}")
            object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.measured is not None:
            if not isinstance(self.measured, Iterable):
                raise ValueError(f"measured must be a sequence of qubits, got {self.measured!r}")
            read = tuple(sorted(_integer("measured qubit", q, 0) for q in self.measured))
            if len(set(read)) != len(read) or read and read[-1] >= self.circuit.width:
                raise ValueError(f"measured qubits {self.measured} must be distinct qubits "
                                 f"of the width-{self.circuit.width} circuit")
            object.__setattr__(self, "measured", read)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CompiledCircuit:
    """A logical circuit as the simulator evolves it: routed, folded,
    basis-decomposed and crosstalk-augmented, with the ``positions`` of the
    bits it reads and the ``readout_pairs`` of those bit positions that
    share readout crosstalk (none when the noise has no readout
    crosstalk).  Its ``DIAG`` gates, kept only by the
    noiseless-diagonalizing reference, evolve ideal, as its crosstalk does
    (see :func:`~vdcut.simulate.blocks`)."""

    body: Circuit
    readout_pairs: tuple[tuple[int, int], ...]
    positions: tuple[int, ...]
    swaps: int


def compile_circuit(circuit: Circuit, *,
                    noise: NoiseModel | None = None,
                    cmap: CouplingMap | None = None,
                    scale: int = 1,
                    ideal_diag: bool = False,
                    measured: tuple[int, ...] | None = None) -> CompiledCircuit:
    """Route (on ``cmap``, or all-to-all when it is None), fold
    (``scale``), decompose and insert crosstalk.  The bits of the
    ``measured`` logical qubits (every qubit when None) are reported in
    ascending logical qubit order.

    Gate crosstalk and readout crosstalk both read the device edges
    between the compiled qubits.  Under readout crosstalk, measured qubits
    joined by an edge are paired greedily: in ascending label order, each
    qubit at most once.

    :func:`~vdcut.transpile.route` routes a distillation circuit's
    measurement stage (parity rotation and diagonalizing gates) after its
    state preparation, so every parity group measures the same compiled
    preparation."""
    read = range(circuit.width) if measured is None else sorted(measured)
    cmap = coupling_map_for("full", circuit.width) if cmap is None else cmap
    rc = route(circuit, cmap)
    label = {p: i for i, p in enumerate(rc.physical)}
    edges = tuple((i, label[b]) for i, a in enumerate(rc.physical)
                  for b in cmap.neighbors(a) if b > a and b in label)
    body = rc.circuit
    positions = tuple(rc.final_layout[q] for q in read)
    if scale != 1:
        body = fold_diagonalizing(body, scale)
    body = decompose_to_basis(body, keep_diag=ideal_diag)
    if noise is not None and noise.gate_crosstalk:
        # crosstalk between parallel two-qubit gates of the basis-decomposed
        # circuit, mirroring per-CNOT scheduling on hardware
        body = insert_zz_crosstalk(body, edges, angle=noise.crosstalk_angle)
    pairs = []
    if noise is not None and noise.readout_crosstalk:
        bit = {p: j for j, p in enumerate(positions)}
        matched: set[int] = set()
        for a, b in edges:  # sorted, so each qubit takes its lowest free partner
            if a in bit and b in bit and not matched & {a, b}:
                matched.update((a, b))
                pairs.append((bit[a], bit[b]))
    return CompiledCircuit(body, tuple(pairs), positions, rc.circuit.count(SWAP))


def run_circuit(circuit: Circuit, *,
                noise: NoiseModel | None = None,
                cmap: CouplingMap | None = None,
                shots: int | None = None,
                seed: int = 0,
                scale: int = 1,
                ideal_diag: bool = False) -> ExecutionRecord:
    """Execute a logical circuit end to end, reading every qubit.

    Bits are reported in ascending logical qubit order.  ``scale``
    folds the diagonalizing gates before decomposition; ``ideal_diag`` keeps
    them atomic and noiseless (the noise-free-diagonalizing reference).
    """
    (record,) = run_circuits([Execution(circuit, scale, ideal_diag, shots, seed)],
                             noise=noise, cmap=cmap).records
    return record


@dataclass(frozen=True)
class BatchStats:
    """What one :func:`run_circuits` call evolved on its register: the number
    of distinct compiled variants, the ops they hold together
    (``ops_requested``), the fused blocks their steps evolved
    (``blocks_evolved``, one full-tensor pass each) and the ops in those
    blocks (``ops_evolved``), the most step states held during one
    evolution (``max_snapshots``) and the bytes of one Pauli state
    (``state_bytes``, 8 * 4**width)."""

    width: int
    variants: int
    ops_requested: int
    ops_evolved: int
    blocks_evolved: int
    max_snapshots: int
    state_bytes: int


@dataclass(frozen=True)
class Batch:
    """The records of one :func:`run_circuits` call, in execution order."""

    records: tuple[ExecutionRecord, ...]
    stats: BatchStats


@dataclass(eq=False)
class _Step:
    """One evolution of a batch: ``blocks`` applied to ``source``'s state
    (the initial state when None), then ``measured``'s variants read out.
    ``hold`` keeps the result for a later step; ``release`` drops
    ``source``'s state once this step has evolved."""

    blocks: tuple
    source: "_Step | None"
    measured: list[tuple]
    hold: bool = False
    release: bool = False


def _steps(variants: list[tuple], source: _Step | None = None,
           start: int = 0) -> list[_Step]:
    """The depth-first steps of the prefix trie of ``variants`` (keys
    ``(blocks, positions)``) below block ``start``.  A step is a maximal run
    of blocks that all its variants share.  Each step comes before the steps
    that start from it, sibling subtrees run smallest first, and the first
    step of the last (largest) one releases their source."""
    first, _ = variants[0]
    shortest = min(len(ops) for ops, _ in variants)
    end = start
    while end < shortest and all(ops[end] == first[end] for ops, _ in variants):
        end += 1
    step = _Step(first[start:end], source, [v for v in variants if len(v[0]) == end])
    branches: dict[tuple, list[tuple]] = {}
    for v in variants:
        if len(v[0]) > end:
            branches.setdefault(v[0][end], []).append(v)
    subtrees = sorted((_steps(group, step, end) for group in branches.values()),
                      key=lambda sub: sum(len(s.blocks) for s in sub))
    if subtrees:
        step.hold = subtrees[-1][0].release = True
    return [step] + [s for sub in subtrees for s in sub]


def run_circuits(executions: Sequence[Execution], *,
                 noise: NoiseModel | None = None,
                 cmap: CouplingMap | None = None) -> Batch:
    """Execute variants of one register on one device under one noise model,
    with the results each execution would give in a batch of its own.

    Executions of the same circuit object, fold, reference mode and read
    qubits share one compilation.  Each reads its ``measured`` qubits (every
    qubit when None) in ascending logical order.  Each distinct compiled
    variant becomes its evolution blocks through
    :func:`~vdcut.simulate.blocks` (fused under noise, one per op without),
    with one memo per batch, so every distinct gate channel and every
    distinct block is built once per batch and equal blocks are one object.
    The variants' prefix trie is planned once as its depth-first steps (see
    :func:`_steps`).  Each step is evolved once from its source step's state
    as a :class:`~vdcut.simulate.FusedCircuit`, and a variant is measured at
    the step where its blocks end; each state is a
    :class:`~vdcut.simulate.PauliState`.  The stats
    are read off the steps, and the batch is admitted as a whole before
    anything is allocated: the held states at their most, plus the two
    buffers of one evolution, one of which holds its result and the other
    is freed (see :func:`~vdcut.simulate.evolve`).
    Sampling uses each execution's own shots and seed.
    """
    compiled: dict[tuple, CompiledCircuit] = {}
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag, ex.measured)
        if key not in compiled:
            compiled[key] = compile_circuit(ex.circuit, noise=noise, cmap=cmap,
                                            scale=ex.scale, ideal_diag=ex.ideal_diag,
                                            measured=ex.measured)
    memo: dict = {}
    variant_of = {key: (blocks(c.body, noise, memo).ops, c.positions)
                  for key, c in compiled.items()}
    variants = {variant_of[key]: c for key, c in compiled.items()}
    widths = {c.body.width for c in variants.values()}
    if len(widths) != 1:
        raise ValueError("executions must compile to one register width")
    (width,) = widths

    steps = _steps(list(variants))
    stats = BatchStats(width=width, variants=len(variants),
                       ops_requested=sum(len(c.body.ops) for c in variants.values()),
                       ops_evolved=sum(b.gates for step in steps for b in step.blocks),
                       blocks_evolved=sum(len(step.blocks) for step in steps),
                       max_snapshots=max(accumulate((s.hold - s.release for s in steps),
                                                    initial=0)),
                       state_bytes=state_bytes(width))
    admit(width, stats.max_snapshots + 2)
    states: dict[_Step, PauliState] = {}
    dists: dict[tuple, Distribution] = {}
    for step in steps:
        state = evolve(FusedCircuit(width, step.blocks),
                       initial=None if step.source is None else states[step.source])
        if step.release:
            del states[step.source]
        for variant in step.measured:
            c = variants[variant]
            dists[variant] = apply_readout(marginal(exact_probs(state), c.positions), noise,
                                           c.readout_pairs)
        if step.hold:
            states[step] = state
        del state

    records = []
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag, ex.measured)
        c, dist = compiled[key], dists[variant_of[key]]
        records.append(ExecutionRecord(
            distribution=dist,
            output=dist if ex.shots is None else sample(dist, ex.shots, ex.seed),
            cnots=c.body.count(CNOT), rzz_gates=c.body.count(RZZ), swaps=c.swaps))
    return Batch(tuple(records), stats)
