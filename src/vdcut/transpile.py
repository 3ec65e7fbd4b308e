"""Coupling maps, SWAP-insertion routing, and decomposition to the
{RY, RZ, X, H, CNOT} basis.

Routing is one greedy pass that places gates in list order from a snake
layout, optionally in two stages (see :func:`route`).  Two-qubit unitaries
go through canonical synthesis with at most three CNOTs, checked against
the target.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import (
    CNOT,
    MEASURE,
    RZZ,
    SWAP,
    TWO_QUBIT_UNITARY,
    Circuit,
    Gate,
    cnot,
    gate_matrix,
    h,
    measure,
    ry,
    rz,
    swap as swap_gate,
)


class RoutingError(ValueError):
    """Raised when a circuit cannot be placed on a coupling map."""


class DecompositionError(RuntimeError):
    """Raised when a two-qubit synthesis fails its accuracy check."""


# ---------------------------------------------------------------------------
# coupling maps


@dataclass(frozen=True)
class CouplingMap:
    """Undirected device connectivity graph."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"

    def __post_init__(self):
        edges = frozenset(tuple(sorted((int(a), int(b)))) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if a == b or a < 0 or b >= self.n_qubits:
                raise RoutingError(f"edge ({a},{b}) references invalid qubits")
        if self.n_qubits > 1 and len(self._components()) != 1:
            raise RoutingError("coupling graph must be connected")

    def _components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for start in range(self.n_qubits):
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                q = frontier.pop()
                for r in self.neighbors(q):
                    if r not in comp:
                        comp.add(r)
                        frontier.append(r)
            seen |= comp
            comps.append(comp)
        return comps

    def neighbors(self, q: int) -> tuple[int, ...]:
        return tuple(sorted(b if a == q else a for a, b in self.edges if q in (a, b)))

    def is_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def distances(self) -> np.ndarray:
        """All-pairs shortest-path distances (BFS)."""
        n = self.n_qubits
        dist = np.full((n, n), n + 1, dtype=np.int64)
        adj = [self.neighbors(q) for q in range(n)]
        for s in range(n):
            dist[s, s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for q in frontier:
                    for r in adj[q]:
                        if dist[s, r] > dist[s, q] + 1:
                            dist[s, r] = dist[s, q] + 1
                            nxt.append(r)
                frontier = nxt
        return dist


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


def _route_pass_inorder(body: list[Gate], cmap: CouplingMap, dist: np.ndarray,
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
        cost = 0
        seen = 0
        for j in twoq_positions:
            if j < from_idx:
                continue
            a, b = body[j].qubits
            cost += int(dist[l2p_view[a], l2p_view[b]])
            seen += 1
            if seen >= _LOOKAHEAD:
                break
        return cost

    for i, g in enumerate(body):
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (l2p[g.qubits[0]],), angle=g.angle,
                            unitary=g.unitary, tag=g.tag))
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
        out.append(Gate(g.kind, (l2p[la], l2p[lb]), angle=g.angle,
                        unitary=g.unitary, tag=g.tag))
    return out, l2p


def route(circuit: Circuit, cmap: CouplingMap, *,
          stage_tags: Iterable[str] = ()) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    The initial layout snakes the logical qubits along a DFS path of the
    coupling graph (the identity on linear and fully-connected maps).  Gates
    are placed strictly in list order; a blocked two-qubit gate gets the
    SWAPs that the next 20 two-qubit gates favour.  Measurements are
    re-appended on final physical positions.  Deterministic: the heuristic
    draws no randomness.

    With ``stage_tags``, the gates from the first one carrying such a tag on
    form a second stage, routed from the layout the first stage ends in: the
    first stage's routing then does not depend on what follows it.
    """
    n = circuit.width
    if n > cmap.n_qubits:
        raise RoutingError(f"circuit width {n} exceeds device size {cmap.n_qubits}")
    body = [g for g in circuit.ops if g.kind != MEASURE]
    measures = [g for g in circuit.ops if g.kind == MEASURE]
    dist = cmap.distances()
    stage_tags = frozenset(stage_tags)
    split = next((i for i, g in enumerate(body) if g.tag in stage_tags), len(body))
    start = path_placement(cmap)
    out, mid_layout = _route_pass_inorder(body[:split], cmap, dist, start)
    rest, final_layout = _route_pass_inorder(body[split:], cmap, dist, mid_layout)
    out += rest
    for m in measures:
        out.append(measure(final_layout[m.qubits[0]], tag=m.tag))
    return RoutedCircuit(
        Circuit(cmap.n_qubits, tuple(out), circuit.name),
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
        Gate(g.kind, tuple(relabel[q] for q in g.qubits), angle=g.angle,
             unitary=g.unitary, tag=g.tag)
        for g in rc.circuit.ops)
    edges = tuple(sorted(
        (relabel[a], relabel[b]) for a, b in cmap.edges if a in used and b in used))
    out = RoutedCircuit(
        Circuit(len(order), ops, rc.circuit.name),
        initial_layout=tuple(relabel[p] for p in rc.initial_layout),
        final_layout=tuple(relabel[p] for p in rc.final_layout),
    )
    return out, edges


# ---------------------------------------------------------------------------
# single-qubit ZYZ synthesis


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (a, b, c) with U ~ RZ(a) RY(b) RZ(c) up to global phase."""
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    cb = abs(su[0, 0])
    sb = abs(su[1, 0])
    beta = 2 * np.arctan2(sb, cb)
    if sb < 1e-12:
        return -2 * np.angle(su[0, 0]), 0.0, 0.0
    if cb < 1e-12:
        return 2 * np.angle(su[1, 0]), np.pi, 0.0
    alpha = np.angle(su[1, 0]) - np.angle(su[0, 0])
    gamma = -np.angle(su[0, 0]) - np.angle(su[1, 0])
    return alpha, beta, gamma


def _wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2 * np.pi) - np.pi)


def _emit_1q(u: np.ndarray, q: int, tag: str) -> list[Gate]:
    a, b, c = _zyz_angles(u)
    gates = []
    for kind, theta in (("RZ", c), ("RY", b), ("RZ", a)):
        theta = _wrap_angle(theta)
        if abs(theta) < 1e-12:
            continue
        gates.append(Gate(kind, (q,), angle=theta, tag=tag))
    return gates


# ---------------------------------------------------------------------------
# two-qubit canonical (Cartan / magic-basis) synthesis

_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]],
    dtype=complex) / np.sqrt(2)
_MAGIC_DAG = _MAGIC.conj().T
_CNOT01 = gate_matrix(cnot(0, 1))
_CNOT10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
_SWAP4 = gate_matrix(swap_gate(0, 1))


def _to_su4(u: np.ndarray) -> np.ndarray:
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / 4)


def _gamma(u_su4: np.ndarray) -> np.ndarray:
    m = _MAGIC_DAG @ u_su4 @ _MAGIC
    return m @ m.T


def cnot_cost(u: np.ndarray) -> int:
    """Minimal CNOT count of a two-qubit unitary (0..3), via the spectrum of
    the magic-basis invariant gamma(U)."""
    g = _gamma(_to_su4(u))
    tr = np.trace(g)
    if abs(tr - 4) < 1e-9 or abs(tr + 4) < 1e-9:
        return 0
    evs = np.sort(np.linalg.eigvals(g).imag)
    if abs(tr) < 1e-9 and np.allclose(evs, [-1, -1, 1, 1], atol=1e-7):
        return 1
    if abs(tr.imag) < 1e-9:
        return 2
    return 3


def _simdiag(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Real orthogonal O with O^T m O diagonal for complex symmetric unitary
    m (whose real and imaginary parts commute)."""
    are, aim = m.real, m.imag
    w, o = np.linalg.eigh(are)
    i = 0
    dim = m.shape[0]
    while i < dim:
        j = i
        while j < dim and abs(w[j] - w[i]) < tol:
            j += 1
        if j - i > 1:
            blk = o[:, i:j]
            sub = blk.T @ aim @ blk
            _, r = np.linalg.eigh((sub + sub.T) / 2)
            o[:, i:j] = blk @ r
        i = j
    return o


def _kron_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = A (x) B for m in the SU(2)xSU(2) image (largest-entry
    anchored extraction)."""
    a, b = max(((i, j) for i in range(4) for j in range(4)), key=lambda t: abs(m[t]))
    f1 = np.zeros((2, 2), dtype=complex)
    f2 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            f1[(a >> 1) ^ i, (b >> 1) ^ j] = m[a ^ (i << 1), b ^ (j << 1)]
            f2[(a & 1) ^ i, (b & 1) ^ j] = m[a ^ i, b ^ j]
    d1, d2 = np.linalg.det(f1), np.linalg.det(f2)
    if abs(d1) < 1e-12 or abs(d2) < 1e-12:
        raise DecompositionError("matrix is not a Kronecker product")
    return f1 / np.sqrt(d1), f2 / np.sqrt(d2)


def _match_columns(p: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Permute columns of p so du (its eigenvalues) lines up with dv."""
    perm = []
    used: set[int] = set()
    for target in dv:
        best, best_d = None, np.inf
        for k, val in enumerate(du):
            if k in used:
                continue
            dd = abs(val - target)
            if dd < best_d:
                best, best_d = k, dd
        used.add(best)
        perm.append(best)
    return p[:, perm]


def _extract_prefactors(u4: np.ndarray, v4: np.ndarray):
    """A, B, C, D in SU(2) with u4 = (A x B) v4 (C x D); u4, v4 in SU(4) and
    in the same magic-basis double coset."""
    u = _MAGIC_DAG @ u4 @ _MAGIC
    v = _MAGIC_DAG @ v4 @ _MAGIC
    uuT = u @ u.T
    vvT = v @ v.T
    p = _simdiag(uuT)
    q = _simdiag(vvT)
    du = np.diag(p.T @ uuT @ p)
    dv = np.diag(q.T @ vvT @ q)
    p = _match_columns(p, du, dv)
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    g = p @ q.T
    hm = v.conj().T @ g.T @ u
    if np.abs(hm.imag).max() > 1e-8:
        raise DecompositionError("prefactor extraction failed (H not real)")
    ab = _MAGIC @ g @ _MAGIC_DAG
    cd = _MAGIC @ hm @ _MAGIC_DAG
    a, b = _kron_factor(ab)
    c, d = _kron_factor(cd)
    return a, b, c, d


def _rx_gates(theta: float, q: int, tag: str) -> list[Gate]:
    return [h(q, tag=tag), rz(theta, q, tag=tag), h(q, tag=tag)]


def _interior_matrix(gates: Sequence[Gate]) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    for g in gates:
        u = gate_matrix(g)
        if len(g.qubits) == 1:
            u = np.kron(u, np.eye(2)) if g.qubits[0] == 0 else np.kron(np.eye(2), u)
        elif g.qubits == (1, 0):
            u = _SWAP4 @ u @ _SWAP4
        m = u @ m
    return m


def _synthesize_two_qubit(u: np.ndarray, tag: str) -> list[Gate]:
    """Gate list over local qubits (0, 1) realizing u up to global phase."""
    usu = _to_su4(u)
    cost = cnot_cost(u)
    if cost == 0:
        a, b = _kron_factor(usu)
        return _emit_1q(a, 0, tag) + _emit_1q(b, 1, tag)
    if cost == 1:
        v = _to_su4(_CNOT01)
        a, b, c, d = _extract_prefactors(usu, v)
        interior = [cnot(0, 1, tag=tag)]
        return (_emit_1q(c, 0, tag) + _emit_1q(d, 1, tag) + interior
                + _emit_1q(a, 0, tag) + _emit_1q(b, 1, tag))
    if cost == 2:
        g = _gamma(usu)
        evs = np.linalg.eigvals(g)
        if np.allclose(np.sort(evs.real), [-1, -1, 1, 1], atol=1e-7) \
                and np.abs(evs.imag).max() < 1e-7:
            s_gate = np.array([[1, 0], [0, 1j]], dtype=complex)
            sx = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
            inner_mat = np.kron(s_gate, sx)
            inner = [rz(np.pi / 2, 0, tag=tag)] + _rx_gates(np.pi / 2, 1, tag)
        else:
            ang0 = np.angle(evs[0])
            ang1 = np.angle(evs[1])
            if abs(ang0 + ang1) < 1e-9:
                ang1 = np.angle(evs[2])
            delta = (ang0 + ang1) / 2
            phi = (ang0 - ang1) / 2
            rx = np.array([[np.cos(phi / 2), -1j * np.sin(phi / 2)],
                           [-1j * np.sin(phi / 2), np.cos(phi / 2)]])
            rz_m = np.array([[np.exp(-1j * delta / 2), 0], [0, np.exp(1j * delta / 2)]])
            inner_mat = np.kron(rz_m, rx)
            inner = [rz(delta, 0, tag=tag)] + _rx_gates(phi, 1, tag)
        v = _CNOT10 @ inner_mat @ _CNOT10
        a, b, c, d = _extract_prefactors(usu, _to_su4(v))
        interior = [cnot(1, 0, tag=tag)] + inner + [cnot(1, 0, tag=tag)]
        return (_emit_1q(c, 0, tag) + _emit_1q(d, 1, tag) + interior
                + _emit_1q(a, 0, tag) + _emit_1q(b, 1, tag))
    return _synthesize_three_cnot(usu, tag)


def _synthesize_three_cnot(usu: np.ndarray, tag: str) -> list[Gate]:
    """Generic three-CNOT synthesis of an SU(4) matrix, via the SWAP trick."""
    swap_u = np.exp(1j * np.pi / 4) * (_SWAP4 @ usu)
    g = _gamma(_to_su4(swap_u))
    angles = np.sort(np.angle(np.linalg.eigvals(g)))
    ax, ay, az = angles[0], angles[1], angles[2]
    alpha, beta, delta = (ax + ay) / 2, (ax + az) / 2, (az + ay) / 2
    ry_a = gate_matrix(ry(alpha, 0))
    ry_b = gate_matrix(ry(beta, 0))
    rz_d = gate_matrix(rz(delta, 0))
    vm = _CNOT10 @ np.kron(np.eye(2), ry_a) @ _CNOT01 @ np.kron(rz_d, ry_b) @ _CNOT10
    a, b, c, d = _extract_prefactors(_to_su4(swap_u), _to_su4(_SWAP4 @ vm))
    interior = ([cnot(1, 0, tag=tag), rz(delta, 0, tag=tag), ry(beta, 1, tag=tag),
                 cnot(0, 1, tag=tag), ry(alpha, 1, tag=tag), cnot(1, 0, tag=tag)])
    # the trailing SWAP of v cancels against swap_u, exchanging A and B
    return (_emit_1q(c, 0, tag) + _emit_1q(d, 1, tag) + interior
            + _emit_1q(b, 0, tag) + _emit_1q(a, 1, tag))


def _decompose_gate(gate: Gate) -> list[Gate]:
    u = np.array(gate.unitary)
    a, b = gate.qubits
    try:
        local = _synthesize_two_qubit(u, gate.tag)
    except DecompositionError:
        local = None
    if local is None or _verify_distance(local, u) > 1e-9:
        # fall back to the generic synthesis path if a smaller template failed
        local = _synthesize_three_cnot(_to_su4(u), gate.tag)
        if _verify_distance(local, u) > 1e-9:
            raise DecompositionError("two-qubit synthesis exceeded 1e-9 tolerance")
    remap = {0: a, 1: b}
    return [Gate(g.kind, tuple(remap[q] for q in g.qubits), angle=g.angle,
                 unitary=g.unitary, tag=g.tag) for g in local]


def _verify_distance(gates: Sequence[Gate], target: np.ndarray) -> float:
    m = _interior_matrix(gates)
    d = np.trace(m.conj().T @ target)
    return float(abs(abs(d) - 4))


def decompose_to_basis(circuit: Circuit, keep_tags: Iterable[str] = ()) -> Circuit:
    """Rewrite to {RY, RZ, X, H, CNOT} (measurements pass through).

    SWAP becomes three CNOTs, RZZ becomes CNOT-RZ-CNOT, and explicit
    two-qubit unitaries go through the canonical magic-basis synthesis with
    at most three CNOTs.  Gates whose tag is in ``keep_tags`` are left
    untouched.  Idempotent on already-decomposed circuits.
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
        elif g.kind == TWO_QUBIT_UNITARY:
            out.extend(_decompose_gate(g))
        else:
            out.append(g)
    return Circuit(circuit.width, tuple(out), circuit.name)


def cnot_count(circuit: Circuit) -> int:
    """CNOT count of a basis-decomposed circuit."""
    return circuit.count(CNOT)
