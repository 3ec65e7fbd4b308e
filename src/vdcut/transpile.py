"""Coupling maps, SWAP-insertion routing, and decomposition to the
{RY, RZ, X, H, CNOT} basis.

Routing is one greedy pass that places gates in list order from a snake
layout, optionally in two stages (see :func:`route`).  The diagonalizing
gate of virtual distillation, the ``DIAG`` kind, decomposes to a pinned
three-CNOT form checked once against its matrix (see
:func:`decompose_to_basis`).
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .circuit import (
    CNOT,
    DIAG,
    RZZ,
    SWAP,
    Circuit,
    Gate,
    cnot,
    gate_matrix,
    rz,
    swap as swap_gate,
)
from .vd import DIAG_TAG, DIAG_UNITARY, diag_basis_gates


class RoutingError(ValueError):
    """Raised when a circuit cannot be placed on a coupling map."""


class DecompositionError(RuntimeError):
    """Raised when the diagonalizing gate's basis form fails its accuracy
    check."""


# ---------------------------------------------------------------------------
# coupling maps


@dataclass(frozen=True)
class CouplingMap:
    """Undirected device connectivity graph, with its neighbour table and
    all-pairs distance matrix built once, with the map."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _distances: np.ndarray = field(init=False, repr=False, compare=False)

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
            rows.append(row)
        if any(n + 1 in row for row in rows):
            raise RoutingError("coupling graph must be connected")
        dist = np.array(rows, dtype=np.int64).reshape(n, n)
        dist.setflags(write=False)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_distances", dist)

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacency[q]

    def distances(self) -> np.ndarray:
        """All-pairs shortest-path distances, read-only."""
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


def coupling_map_for(spec: str, width: int) -> CouplingMap:
    """Build a map from a CLI spec: ``full``, ``linear`` or ``heavyhex:d``.
    ``full``/``linear`` are sized to ``width``."""
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
    """Physical circuit plus the logical-to-physical layouts before and after
    the inserted SWAPs."""

    circuit: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]


_LOOKAHEAD = 20


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


def _route_pass_inorder(body: Sequence[Gate], cmap: CouplingMap, dist: np.ndarray,
                        start_layout: list[int]) -> tuple[list[Gate], list[int]]:
    """Greedy in-order routing: gates are placed in list order; a blocked
    two-qubit gate triggers swaps (restricted to strict distance
    improvements) chosen by the summed distance of the next 20 unresolved
    two-qubit gates, ties toward the lowest physical pair."""
    l2p = list(start_layout)
    p2l = [0] * cmap.n_qubits
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    twoq_positions = [i for i, g in enumerate(body) if len(g.qubits) == 2]
    out: list[Gate] = []

    def lookahead_cost(from_idx: int, l2p_view: list[int]) -> int:
        start = bisect.bisect_left(twoq_positions, from_idx)
        return sum(int(dist[l2p_view[a], l2p_view[b]]) for a, b in
                   (body[j].qubits for j in twoq_positions[start:start + _LOOKAHEAD]))

    for i, g in enumerate(body):
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (l2p[g.qubits[0]],), angle=g.angle, tag=g.tag))
            continue
        la, lb = g.qubits
        while dist[l2p[la], l2p[lb]] > 1:
            pa, pb = l2p[la], l2p[lb]
            cur = dist[pa, pb]
            candidates = []
            for endpoint in (pa, pb):
                for nb in cmap.neighbors(endpoint):
                    u, v = min(endpoint, nb), max(endpoint, nb)
                    trial = list(l2p)
                    lu, lv = p2l[u], p2l[v]
                    trial[lu], trial[lv] = trial[lv], trial[lu]
                    if dist[trial[la], trial[lb]] < cur:
                        candidates.append((lookahead_cost(i, trial), (u, v)))
            _, (u, v) = min(candidates)
            out.append(swap_gate(u, v))
            lu, lv = p2l[u], p2l[v]
            l2p[lu], l2p[lv] = v, u
            p2l[u], p2l[v] = lv, lu
        out.append(Gate(g.kind, (l2p[la], l2p[lb]), angle=g.angle, tag=g.tag))
    return out, l2p


def route(circuit: Circuit, cmap: CouplingMap, *,
          stage_tags: Iterable[str] = ()) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    The initial layout snakes the logical qubits along a DFS path of the
    coupling graph (the identity on linear and fully-connected maps).  Gates
    are placed strictly in list order; a blocked two-qubit gate gets the
    SWAPs that the next 20 two-qubit gates favour.  Deterministic: the
    heuristic draws no randomness.

    With ``stage_tags``, the gates from the first one carrying such a tag on
    form a second stage, routed from the layout the first stage ends in: the
    first stage's routing then does not depend on what follows it.
    """
    n = circuit.width
    if n > cmap.n_qubits:
        raise RoutingError(f"circuit width {n} exceeds device size {cmap.n_qubits}")
    ops = circuit.ops
    dist = cmap.distances()
    stage_tags = frozenset(stage_tags)
    split = next((i for i, g in enumerate(ops) if g.tag in stage_tags), len(ops))
    start = path_placement(cmap)
    out, mid_layout = _route_pass_inorder(ops[:split], cmap, dist, start)
    rest, final_layout = _route_pass_inorder(ops[split:], cmap, dist, mid_layout)
    out += rest
    return RoutedCircuit(
        Circuit(cmap.n_qubits, tuple(out)),
        initial_layout=tuple(start[:n]),
        final_layout=tuple(final_layout[:n]),
    )


def compact(rc: RoutedCircuit, cmap: CouplingMap) -> tuple[RoutedCircuit, tuple[tuple[int, int], ...]]:
    """Restrict a routed circuit to the physical qubits it actually touches.

    Returns the relabeled RoutedCircuit and the induced adjacency edges
    (which may form a disconnected graph)."""
    used = {q for g in rc.circuit.ops for q in g.qubits}
    used.update(rc.initial_layout)
    used.update(rc.final_layout)
    order = sorted(used)
    relabel = {p: i for i, p in enumerate(order)}
    ops = tuple(
        Gate(g.kind, tuple(relabel[q] for q in g.qubits), angle=g.angle, tag=g.tag)
        for g in rc.circuit.ops)
    edges = tuple(sorted(
        (relabel[a], relabel[b]) for a, b in cmap.edges if a in used and b in used))
    out = RoutedCircuit(
        Circuit(len(order), ops),
        initial_layout=tuple(relabel[p] for p in rc.initial_layout),
        final_layout=tuple(relabel[p] for p in rc.final_layout),
    )
    return out, edges


# ---------------------------------------------------------------------------
# basis decomposition


_SWAP4 = gate_matrix(swap_gate(0, 1))


@functools.cache
def _check_diag_basis_form() -> None:
    """Check the pinned basis form against DIAG_UNITARY up to global phase,
    once per process."""
    m = np.eye(4, dtype=complex)
    for g in diag_basis_gates(0, 1, DIAG_TAG):
        u = gate_matrix(g)
        if len(g.qubits) == 1:
            u = np.kron(u, np.eye(2)) if g.qubits[0] == 0 else np.kron(np.eye(2), u)
        elif g.qubits == (1, 0):
            u = _SWAP4 @ u @ _SWAP4
        m = u @ m
    if abs(abs(np.trace(m.conj().T @ DIAG_UNITARY)) - 4) > 1e-9:
        raise DecompositionError("the diagonalizing gate's basis form misses 1e-9 tolerance")


def decompose_to_basis(circuit: Circuit, keep_tags: Iterable[str] = ()) -> Circuit:
    """Rewrite to {RY, RZ, X, H, CNOT}.

    SWAP becomes three CNOTs and RZZ becomes CNOT-RZ-CNOT.  The
    diagonalizing gate ``DIAG`` becomes the pinned three-CNOT list
    ``vd.DIAG_BASIS_FORM`` on its qubits, with its tag.  Gates whose tag is
    in ``keep_tags`` are left untouched.  Idempotent on already-decomposed
    circuits.
    """
    keep = frozenset(keep_tags)
    out: list[Gate] = []
    for g in circuit.ops:
        if g.tag in keep:
            out.append(g)
        elif g.kind == SWAP:
            a, b = g.qubits
            out.extend([cnot(a, b, tag=g.tag), cnot(b, a, tag=g.tag), cnot(a, b, tag=g.tag)])
        elif g.kind == RZZ:
            a, b = g.qubits
            out.extend([cnot(a, b, tag=g.tag), rz(g.angle, b, tag=g.tag), cnot(a, b, tag=g.tag)])
        elif g.kind == DIAG:
            _check_diag_basis_form()
            out.extend(diag_basis_gates(*g.qubits, g.tag))
        else:
            out.append(g)
    return Circuit(circuit.width, tuple(out))


def cnot_count(circuit: Circuit) -> int:
    """CNOT count of a basis-decomposed circuit."""
    return circuit.count(CNOT)
