"""Shared execution pipeline: route a measured logical circuit onto a
device, decompose to the CNOT basis, insert crosstalk, evolve under noise,
apply readout error, and return the measured-bit distribution (exact or
sampled) together with gate statistics."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .circuit import CNOT, RZZ, SWAP, Circuit
from .noise import NoiseModel, insert_zz_crosstalk
from .simulate import (
    Counts,
    DensityMatrix,
    Distribution,
    FusedCircuit,
    admit,
    apply_readout,
    blocks,
    evolve,
    exact_probs,
    marginal,
    sample,
)
from .transpile import CouplingMap, compact, decompose_to_basis, fully_connected, route
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


def compile_circuit(circuit: Circuit, *,
                    noise: NoiseModel | None = None,
                    cmap: CouplingMap | None = None,
                    scale: int = 1,
                    ideal_diag: bool = False) -> CompiledCircuit:
    """Route (on ``cmap``, or all-to-all when it is None), fold
    (``scale``), decompose and insert crosstalk.  Measured bits are reported
    in ascending logical qubit order.

    A distillation circuit's measurement stage (parity rotation and
    diagonalizing gates) is routed after its state preparation, so every
    parity group measures the same compiled preparation."""
    measured_logical = circuit.measured_qubits
    if not measured_logical:
        measured_logical = tuple(range(circuit.width))
    cmap = fully_connected(circuit.width) if cmap is None else cmap
    rc, edges = compact(route(circuit, cmap, stage_tags=(PARITY_TAG, DIAG_TAG)), cmap)
    body = rc.circuit
    positions = tuple(rc.final_layout[q] for q in measured_logical)
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
                           measured_logical, positions, rc.circuit.count(SWAP))


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
                             noise=noise, cmap=cmap).records
    return record


@dataclass(frozen=True)
class BatchStats:
    """What one :func:`run_circuits` call evolved on its register: the number
    of distinct compiled variants, the ops they hold together
    (``ops_requested``), the fused blocks their prefix trie evolved
    (``blocks_evolved``, one full-tensor pass each) and the ops in those
    blocks (``ops_evolved``), and the most snapshots the trie held during
    one evolution."""

    width: int
    variants: int
    ops_requested: int
    ops_evolved: int
    blocks_evolved: int
    max_snapshots: int


@dataclass(frozen=True)
class Batch:
    """The records of one :func:`run_circuits` call, in execution order."""

    records: tuple[ExecutionRecord, ...]
    stats: BatchStats


@dataclass(eq=False)
class _Node:
    """A prefix-trie node: blocks ``start:end`` of ``variant``'s fused body
    lead to it from ``parent``.  ``leaves`` are the variants whose fused
    body ends here, ``size`` counts the blocks of the subtree, and ``last``
    is the position of the last child in evolution order."""

    parent: "_Node | None"
    start: int
    end: int
    variant: tuple
    leaves: list[tuple]
    children: list["_Node"] = field(default_factory=list)
    size: int = 0
    last: int = -1


def _trie(variants: list[tuple], parent: _Node | None = None, start: int = 0) -> _Node:
    """The trie of ``variants`` (keys ``(blocks, positions)``) below
    ``start``: each edge is a maximal run of blocks all its variants share,
    and children are sorted smallest subtree first."""
    first, _ = variants[0]
    shortest = min(len(ops) for ops, _ in variants)
    end = start
    while end < shortest and all(ops[end] == first[end] for ops, _ in variants):
        end += 1
    node = _Node(parent, start, end, variants[0],
                 [v for v in variants if len(v[0]) == end])
    branches: dict[tuple, list[tuple]] = {}
    for v in variants:
        if len(v[0]) > end:
            branches.setdefault(v[0][end], []).append(v)
    node.children = sorted((_trie(group, node, end) for group in branches.values()),
                           key=lambda child: child.size)
    node.size = end - start + sum(child.size for child in node.children)
    return node


def _depth_first(root: _Node) -> list[_Node]:
    """Nodes in evolution order: each node before its children, siblings
    smallest subtree first.  Sets each node's ``last``."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.parent is not None:
            node.parent.last = len(order)
        order.append(node)
        stack.extend(reversed(node.children))
    return order


def _max_snapshots(order: list[_Node]) -> int:
    """The most node states held during one evolution of ``order``: a node
    with children is held from its own evolution until its last child's
    evolution ends, the way :func:`run_circuits` holds them."""
    held: list[_Node] = []
    peak = 0
    for i, node in enumerate(order):
        peak = max(peak, len(held))
        held = [h for h in held if h.last != i]
        if node.children:
            held.append(node)
    return peak


def run_circuits(executions: Sequence[Execution], *,
                 noise: NoiseModel | None = None,
                 cmap: CouplingMap | None = None) -> Batch:
    """Execute variants of one register on one device under one noise model,
    with the results of one :func:`run_circuit` call each.

    Executions of the same circuit object share its compilation.  Each
    distinct compiled variant becomes its evolution blocks through
    :func:`~vdcut.simulate.blocks` (fused under noise, one per op without),
    with one memo per batch, so every distinct gate channel and every
    distinct block is built once per batch and equal blocks are one object.
    The variants form a trie over their blocks, walked depth first: each
    edge, a maximal run of blocks that all variants below it share, is
    evolved once from its parent's state as a
    :class:`~vdcut.simulate.FusedCircuit`, and a variant is measured at the
    node where its blocks end.  Siblings run smallest subtree first, and a
    node's state is dropped once its last (largest) child has evolved from
    it, so only the states of nodes with children still to run are held.
    The batch is admitted as a whole before anything is allocated: those
    snapshots at their most, plus the two buffers of one evolution, the
    first of which becomes its result (see :func:`~vdcut.simulate.evolve`).
    Sampling uses each execution's own shots and seed.
    """
    compiled: dict[tuple, CompiledCircuit] = {}
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag)
        if key not in compiled:
            compiled[key] = compile_circuit(ex.circuit, noise=noise, cmap=cmap,
                                            scale=ex.scale, ideal_diag=ex.ideal_diag)
    memo: dict = {}
    variant_of = {key: (blocks(c.body, noise, c.ideal_tags, memo).ops, c.positions)
                  for key, c in compiled.items()}
    variants = {variant_of[key]: c for key, c in compiled.items()}
    widths = {c.body.width for c in variants.values()}
    if len(widths) != 1:
        raise ValueError("executions must compile to one register width")
    (width,) = widths

    order = _depth_first(_trie(list(variants)))
    edges = [node.variant[0][node.start:node.end] for node in order]
    stats = BatchStats(width=width, variants=len(variants),
                       ops_requested=sum(len(c.body.ops) for c in variants.values()),
                       ops_evolved=sum(block.gates for edge in edges for block in edge),
                       blocks_evolved=sum(map(len, edges)),
                       max_snapshots=_max_snapshots(order))
    admit(width, stats.max_snapshots + 2)
    states: dict[_Node, DensityMatrix] = {}
    dists: dict[tuple, Distribution] = {}
    for i, (node, edge) in enumerate(zip(order, edges)):
        parent = node.parent
        dm = evolve(FusedCircuit(width, edge),
                    initial=None if parent is None else states[parent])
        if parent is not None and parent.last == i:
            del states[parent]
        for variant in node.leaves:
            dists[variant] = _measure(dm, variants[variant])
        if node.children:
            states[node] = dm
        del dm

    records = []
    for ex in executions:
        key = (id(ex.circuit), ex.scale, ex.ideal_diag)
        c, dist = compiled[key], dists[variant_of[key]]
        records.append(ExecutionRecord(
            distribution=dist,
            counts=sample(dist, ex.shots, ex.seed) if ex.shots is not None else None,
            measured=c.measured, cnots=c.body.count(CNOT), rzz_gates=c.body.count(RZZ),
            swaps=c.swaps, width=c.body.width))
    return Batch(tuple(records), stats)


def _measure(dm: DensityMatrix, c: CompiledCircuit) -> Distribution:
    """The readout distribution of ``c``'s measured qubits in state ``dm``."""
    dist = exact_probs(dm)
    if c.positions:
        dist = marginal(dist, c.positions)
    return apply_readout(dist, c.noise, physical=c.positions)
