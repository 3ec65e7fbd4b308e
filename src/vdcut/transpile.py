"""Coupling maps, SWAP-insertion routing, and decomposition to the
{RY, RZ, X, H, CNOT} basis.

Routing is a greedy pass that places gates in list order from a snake
layout, in two stages: the state preparation, then a distillation
circuit's measurement stage (see :func:`route`).  The diagonalizing
gate of virtual distillation, the ``DIAG`` kind, decomposes to the pinned
three-CNOT form :data:`DIAG_BASIS_FORM` (see :func:`decompose_to_basis`).
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .circuit import (
    CNOT,
    DIAG,
    PARITY_TAG,
    RY,
    RZ,
    RZZ,
    SWAP,
    Circuit,
    Gate,
    swap as swap_gate,
)


class RoutingError(ValueError):
    """Raised when a circuit cannot be placed on a coupling map."""


# ---------------------------------------------------------------------------
# coupling maps


@dataclass(frozen=True)
class CouplingMap:
    """Undirected device connectivity graph, with its neighbour table and
    all-pairs distance table built once, with the map."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _distances: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_qubits
        edges = frozenset(tuple(sorted((int(a), int(b)))) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if a == b or a < 0 or b >= n:
                raise RoutingError(f"edge ({a},{b}) references invalid qubits")
        neighbours = [[] for _ in range(n)]
        for a, b in edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        adjacency = tuple(tuple(sorted(nbs)) for nbs in neighbours)
        rows = []
        for s in range(n):  # BFS from each qubit; n + 1 marks unreachable
            row = [n + 1] * n
            row[s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for q in frontier:
                    for r in adjacency[q]:
                        if row[r] > row[q] + 1:
                            row[r] = row[q] + 1
                            nxt.append(r)
                frontier = nxt
            rows.append(tuple(row))
        if any(n + 1 in row for row in rows):
            raise RoutingError("coupling graph must be connected")
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_distances", tuple(rows))

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacency[q]

    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs shortest-path distances: ``distances()[a][b]``."""
        return self._distances


def fully_connected(n: int) -> CouplingMap:
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n))
    return CouplingMap(n, edges, name="fully-connected")


def linear(n: int) -> CouplingMap:
    return CouplingMap(n, frozenset((i, i + 1) for i in range(n - 1)), name="linear")


def heavy_hex(d: int) -> CouplingMap:
    """Heavy-hex lattice of code distance ``d`` (odd): ``d`` rows of
    ``2d + 1`` columns (first row missing its last site, last row its first)
    joined by bridge qubits every four columns with alternating offsets.
    ``d = 7`` reproduces the 127-qubit layout."""
    if d < 3 or d % 2 == 0:
        raise RoutingError("heavy-hex distance must be an odd integer >= 3")
    cols = 2 * d + 1
    index: dict[tuple[int, int], int] = {}
    edges: set[tuple[int, int]] = set()
    counter = 0

    def row_cols(r: int) -> range:
        if r == 0:
            return range(cols - 1)
        if r == d - 1:
            return range(1, cols)
        return range(cols)

    for r in range(d):
        prev = None
        for c in row_cols(r):
            index[(r, c)] = counter
            if prev is not None:
                edges.add((prev, counter))
            prev = counter
            counter += 1
        if r < d - 1:
            start = 0 if r % 2 == 0 else 2
            for c in range(start, cols, 4):
                if (r, c) in index and c in row_cols(r + 1):
                    bridge = counter
                    counter += 1
                    index[(r, "bridge", c)] = bridge
                    edges.add((index[(r, c)], bridge))
    # connect bridges downward once the next row exists
    for r in range(d - 1):
        for key, bridge in index.items():
            if len(key) == 3 and key[0] == r:
                edges.add((bridge, index[(r + 1, key[2])]))
    return CouplingMap(counter, frozenset(edges), name=f"heavy-hex({d})")


@functools.cache
def coupling_map_for(spec: str, width: int) -> CouplingMap:
    """The map of a CLI spec: ``full``, ``linear`` or ``heavyhex:d``.
    ``full``/``linear`` are sized to ``width``.  Maps are frozen and their
    tables read-only, so each (spec, width) is built once per process and
    shared."""
    if spec in ("full", "fully-connected"):
        return fully_connected(width)
    if spec == "linear":
        return linear(width)
    if spec.startswith("heavyhex:"):
        cm = heavy_hex(int(spec.split(":", 1)[1]))
        if cm.n_qubits < width:
            raise RoutingError(
                f"{cm.name} has {cm.n_qubits} qubits, circuit needs {width}")
        return cm
    raise RoutingError(f"unknown coupling map spec {spec!r}")


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class RoutedCircuit:
    """A routed circuit on the device qubits it touches, labelled ``0..k-1``
    in ascending device order: ``physical[i]`` is the device qubit behind
    label ``i``.  The layouts give each logical qubit's label before and
    after the inserted SWAPs."""

    circuit: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    physical: tuple[int, ...]


_LOOKAHEAD = 20
_SWAP = swap_gate(0, 1)  # stands for each inserted SWAP until it is relabelled


def path_placement(cmap: CouplingMap) -> list[int]:
    """Deterministic snake placement: DFS preorder from qubit 0 preferring
    low-index neighbors, so consecutive logical indices usually sit on
    coupled physical qubits.  Reduces to the identity on linear and
    fully-connected maps."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [0]
    while stack:
        q = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        order.append(q)
        for nb in sorted(cmap.neighbors(q), reverse=True):
            if nb not in seen:
                stack.append(nb)
    return order


def _route_pass_inorder(body: Sequence[Gate], cmap: CouplingMap,
                        start_layout: list[int]) -> tuple[list[tuple], list[int]]:
    """Greedy in-order routing: gates are placed in list order; a blocked
    two-qubit gate triggers swaps (restricted to strict distance
    improvements) chosen by the summed distance of the next 20 unresolved
    two-qubit gates, ties toward the lowest physical pair.  Returns each
    placed gate with the device qubits it acts on, and the final layout."""
    dist = cmap.distances()
    l2p = list(start_layout)
    p2l = [0] * cmap.n_qubits
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    twoq_positions = [i for i, g in enumerate(body) if len(g.qubits) == 2]
    out: list[tuple[Gate, tuple[int, ...]]] = []

    def lookahead_cost(from_idx: int, l2p_view: list[int]) -> int:
        start = bisect.bisect_left(twoq_positions, from_idx)
        return sum(dist[l2p_view[a]][l2p_view[b]] for a, b in
                   (body[j].qubits for j in twoq_positions[start:start + _LOOKAHEAD]))

    for i, g in enumerate(body):
        if len(g.qubits) == 1:
            out.append((g, (l2p[g.qubits[0]],)))
            continue
        la, lb = g.qubits
        while dist[l2p[la]][l2p[lb]] > 1:
            pa, pb = l2p[la], l2p[lb]
            cur = dist[pa][pb]
            candidates = []
            for endpoint in (pa, pb):
                for nb in cmap.neighbors(endpoint):
                    u, v = min(endpoint, nb), max(endpoint, nb)
                    trial = list(l2p)
                    lu, lv = p2l[u], p2l[v]
                    trial[lu], trial[lv] = trial[lv], trial[lu]
                    if dist[trial[la]][trial[lb]] < cur:
                        candidates.append((lookahead_cost(i, trial), (u, v)))
            _, (u, v) = min(candidates)
            out.append((_SWAP, (u, v)))
            lu, lv = p2l[u], p2l[v]
            l2p[lu], l2p[lv] = v, u
            p2l[u], p2l[v] = lv, lu
        out.append((g, (l2p[la], l2p[lb])))
    return out, l2p


def route(circuit: Circuit, cmap: CouplingMap) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    The initial layout snakes the logical qubits along a DFS path of the
    coupling graph (the identity on linear and fully-connected maps).  Gates
    are placed strictly in list order; a blocked two-qubit gate gets the
    SWAPs that the next 20 two-qubit gates of its stage favour.
    Deterministic: the heuristic draws no randomness.

    A distillation circuit's measurement stage, from its first ``DIAG``
    gate or ``parity``-tagged gate on, is routed from the layout in which
    the state preparation ends, so the preparation's routing does not
    depend on the parity rotation that follows it.

    Each routed gate is built once, on the labels of the device qubits the
    circuit touches (see :class:`RoutedCircuit`), and is not checked
    again: the labels number a sorted set of device qubits, so they are
    distinct non-negative ints below the routed width, and the kind and
    angle are those of a checked gate.
    """
    n = circuit.width
    if n > cmap.n_qubits:
        raise RoutingError(f"circuit width {n} exceeds device size {cmap.n_qubits}")
    ops = circuit.ops
    split = next((i for i, g in enumerate(ops) if g.kind == DIAG or g.tag == PARITY_TAG),
                 len(ops))
    start = path_placement(cmap)
    placed, mid_layout = _route_pass_inorder(ops[:split], cmap, start)
    rest, final_layout = _route_pass_inorder(ops[split:], cmap, mid_layout)
    placed += rest
    physical = sorted({q for _, qs in placed for q in qs}.union(start[:n]))
    label = {p: i for i, p in enumerate(physical)}
    derived = Gate._derived
    routed = tuple(derived(g.kind, tuple([label[q] for q in qs]), g.angle, g.tag)
                   for g, qs in placed)
    return RoutedCircuit(
        Circuit._derived(len(physical), routed),
        initial_layout=tuple(label[p] for p in start[:n]),
        final_layout=tuple(label[p] for p in final_layout[:n]),
        physical=tuple(physical),
    )


# ---------------------------------------------------------------------------
# basis decomposition


#: ``DIAG`` in the {RY, RZ, CNOT} basis, up to global phase, as (kind, local
#: qubits, angle) over its qubits (a, b) = (0, 1): three CNOTs and the angles
#: a canonical (magic-basis) synthesis emitted.  The numerically zero RZ
#: stays: under noise it carries a one-qubit relaxation step.
DIAG_BASIS_FORM = (
    (RY, (0,), -math.pi),
    (RZ, (1,), -math.pi),
    (CNOT, (1, 0), None),
    (RZ, (0,), -2.2371143170757385e-17),
    (RY, (1,), -0.7853981633974484),
    (CNOT, (0, 1), None),
    (RY, (1,), -0.7853981633974484),
    (CNOT, (1, 0), None),
    (RZ, (0,), -math.pi),
    (RY, (1,), -math.pi),
)


def decompose_to_basis(circuit: Circuit, keep_diag: bool = False) -> Circuit:
    """Rewrite to {RY, RZ, X, H, CNOT}.

    SWAP becomes three CNOTs, RZZ becomes CNOT-RZ-CNOT and ``DIAG`` becomes
    :data:`DIAG_BASIS_FORM` on its qubits, unless ``keep_diag`` keeps it
    whole (the noiseless-diagonalizing reference).  Each expansion carries
    the replaced gate's tag.  Idempotent on already-decomposed circuits.

    The expansions are not checked again: they act on the replaced gate's
    distinct qubits, with its angle or a fixed float of the pinned form.
    """
    derived = Gate._derived
    out: list[Gate] = []
    for g in circuit.ops:
        if g.kind == SWAP:
            a, b = g.qubits
            ab = derived(CNOT, g.qubits, None, g.tag)
            out += (ab, derived(CNOT, (b, a), None, g.tag), ab)
        elif g.kind == RZZ:
            a, b = g.qubits
            ab = derived(CNOT, g.qubits, None, g.tag)
            out += (ab, derived(RZ, (b,), g.angle, g.tag), ab)
        elif g.kind == DIAG and not keep_diag:
            out += (derived(kind, tuple([g.qubits[q] for q in local]), angle, g.tag)
                    for kind, local, angle in DIAG_BASIS_FORM)
        else:
            out.append(g)
    return Circuit._derived(circuit.width, tuple(out))
