"""Coupling maps, routing, and basis decomposition."""
import numpy as np
import pytest

from vdcut.benchmarks import maxcut_hamiltonian, real_amplitudes, ring_problem
from vdcut.circuit import (
    Circuit,
    cnot,
    gate_matrix,
    ry,
    rzz,
    swap,
    tensor_two_copies,
)
from vdcut.simulate import evolve, exact_probs, marginal, tv_distance
from vdcut.sweep import overhead_point
from vdcut.transpile import (
    CouplingMap,
    RoutingError,
    cnot_count,
    compact,
    coupling_map_for,
    decompose_to_basis,
    fully_connected,
    heavy_hex,
    linear,
    route,
)
from vdcut.vd import DIAG_TAG, PARITY_TAG, build_vd_circuit, diag_gate_on, parity_groups
from vdcut.zne import fold_diagonalizing

from helpers import full_unitary, is_edge, phase_distance, random_circuit


def test_coupling_map_validation():
    with pytest.raises(RoutingError):
        linear(3).__class__(3, frozenset({(0, 3)}))  # invalid qubit
    for edges in ({(0, 1)}, {(1, 2), (2, 3)}, {(0, 1), (2, 3)}):  # disconnected
        with pytest.raises(RoutingError):
            CouplingMap(4, frozenset(edges))
    assert CouplingMap(1, frozenset()).n_qubits == 1
    assert is_edge(fully_connected(4), 1, 3)
    assert linear(4).neighbors(1) == (0, 2)


def test_heavy_hex_sizes():
    # the d=7 construction matches the 127-qubit device layout
    assert heavy_hex(7).n_qubits == 127
    assert heavy_hex(3).n_qubits == 23
    with pytest.raises(RoutingError):
        heavy_hex(4)


def test_coupling_map_spec_parser():
    assert coupling_map_for("full", 5).n_qubits == 5
    assert coupling_map_for("linear", 3).name == "linear"
    assert coupling_map_for("heavyhex:3", 8).n_qubits == 23
    with pytest.raises(RoutingError):
        coupling_map_for("heavyhex:3", 40)
    with pytest.raises(RoutingError):
        coupling_map_for("mesh", 4)


def test_route_fully_connected_inserts_nothing():
    rng = np.random.default_rng(0)
    c = random_circuit(5, 20, rng)
    rc = route(c, fully_connected(5))
    assert rc.circuit.count("SWAP") == 0
    assert [g.kind for g in rc.circuit.ops] == [g.kind for g in c.ops]


def test_route_distance_two_needs_one_swap():
    rc = route(Circuit(3, (cnot(0, 2),)), linear(3))
    assert rc.circuit.count("SWAP") == 1
    kinds = [(g.kind, g.qubits) for g in rc.circuit.ops]
    assert kinds == [("SWAP", (0, 1)), ("CNOT", (1, 2))]


def test_route_vd_circuit_on_line_within_three_swaps():
    """Distillation of a three-qubit state-preparation block on a linear
    device needs at most three SWAPs to pair up the copies."""
    orig = Circuit(3, tuple(ry(0.3 * (i + 1), i) for i in range(3)))
    rc = route(build_vd_circuit(orig), linear(6))
    assert rc.circuit.count("SWAP") <= 3


def test_route_all_two_qubit_gates_on_edges():
    rng = np.random.default_rng(3)
    cmap = heavy_hex(3)
    for _ in range(5):
        c = random_circuit(6, 25, rng)
        rc = route(c, cmap)
        for g in rc.circuit.ops:
            if len(g.qubits) == 2:
                assert is_edge(cmap, *g.qubits)


def test_route_layout_permutation_consistency():
    rng = np.random.default_rng(4)
    cmap = linear(6)
    c = random_circuit(5, 18, rng)
    rc = route(c, cmap)
    layout = list(rc.initial_layout) + [
        p for p in range(cmap.n_qubits) if p not in rc.initial_layout]
    pos = {p: i for i, p in enumerate(layout)}
    l2p = list(layout)
    for g in rc.circuit.ops:
        if g.kind == "SWAP":
            a, b = g.qubits
            la = [l for l, p in enumerate(l2p) if p == a][0]
            lb = [l for l, p in enumerate(l2p) if p == b][0]
            l2p[la], l2p[lb] = b, a
    assert tuple(l2p[: len(rc.initial_layout)]) == rc.final_layout


def test_route_preserves_semantics():
    """Noiseless output of the routed circuit equals the original once the
    final permutation is undone."""
    rng = np.random.default_rng(5)
    cmap = linear(4)
    for _ in range(10):
        c = random_circuit(4, 14, rng)
        rc = route(c, cmap)
        ref = exact_probs(evolve(c))
        routed = exact_probs(evolve(rc.circuit))
        got = marginal(routed, rc.final_layout)
        assert tv_distance(got, ref) < 1e-10


def test_route_rejects_oversized_circuit():
    with pytest.raises(RoutingError):
        route(Circuit(5), linear(3))


def test_compact_restricts_to_used_qubits():
    c = Circuit(3, (cnot(0, 2),))
    rc = route(c, heavy_hex(3))
    cc, edges = compact(rc, heavy_hex(3))
    assert cc.circuit.width <= 5
    used = {q for g in cc.circuit.ops for q in g.qubits}
    assert used <= set(range(cc.circuit.width))
    for a, b in edges:
        assert 0 <= a < b < cc.circuit.width


def test_decompose_swap_and_rzz():
    out = decompose_to_basis(Circuit(2, (swap(0, 1),)))
    assert [g.kind for g in out.ops] == ["CNOT", "CNOT", "CNOT"]
    out = decompose_to_basis(Circuit(2, (rzz(0.7, 0, 1),)))
    assert [g.kind for g in out.ops] == ["CNOT", "RZ", "CNOT"]
    assert phase_distance(full_unitary(out), gate_matrix(rzz(0.7, 0, 1))) < 1e-12


def test_decompose_basis_only_and_idempotent():
    rng = np.random.default_rng(6)
    c = random_circuit(3, 15, rng)
    c = Circuit(3, c.ops + (swap(0, 2), rzz(-0.4, 1, 2)))
    out = decompose_to_basis(c)
    assert set(g.kind for g in out.ops) <= {"RY", "RZ", "X", "H", "CNOT"}
    assert decompose_to_basis(out).ops == out.ops


def test_decompose_diag_gate_within_three_cnots():
    diag = diag_gate_on(0, 1)
    # ZNE folding repeats the gate, its own adjoint
    adjoint = fold_diagonalizing(Circuit(2, (diag,)), 3).ops[1]
    for gate in (diag, diag_gate_on(1, 0), adjoint):
        c = Circuit(2, (gate,))
        out = decompose_to_basis(c)
        assert cnot_count(out) == 3
        assert phase_distance(full_unitary(out), full_unitary(c)) < 1e-12
        # the basis gates inherit the tag
        assert all(g.tag == "diag" for g in out.ops)


def test_decompose_keep_tags():
    c = Circuit(2, (diag_gate_on(0, 1),))
    out = decompose_to_basis(c, keep_tags=("diag",))
    assert out.ops == c.ops


def test_vd_circuit_monotone_overhead():
    rng = np.random.default_rng(8)
    orig = random_circuit(3, 10, rng)
    cmap = linear(6)
    base = cnot_count(decompose_to_basis(route(orig, cmap).circuit))
    vd = cnot_count(decompose_to_basis(route(build_vd_circuit(orig), cmap).circuit))
    assert vd > base


def test_staged_routing_gives_every_parity_group_the_same_preparation():
    """Routing the measurement stage separately keeps the state preparation's
    routing independent of the parity rotation that follows it."""
    orig = real_amplitudes(4, 2, "circular", np.linspace(0.1, 1.2, 12))
    cmap = heavy_hex(3)
    groups = parity_groups(maxcut_hamiltonian(ring_problem(4)))
    assert len(groups) == 2
    prefixes = []
    for group in groups:
        rc = route(build_vd_circuit(orig, group.gates()), cmap,
                   stage_tags=(PARITY_TAG, DIAG_TAG))
        ops = rc.circuit.ops
        split = next(i for i, g in enumerate(ops) if g.tag == PARITY_TAG)
        prefixes.append([(g.kind, g.qubits, g.angle, g.tag) for g in ops[:split]])
    assert prefixes[0] == prefixes[1]
    assert any(kind == "SWAP" for kind, *_ in prefixes[0])


@pytest.mark.parametrize("point, counts", [
    ((4, 2, "full"), (8, 28)),
    ((6, 4, "heavyhex:5"), (120, 291)),
    ((8, 2, "heavyhex:5"), (88, 272)),
    ((5, 2, "linear"), (46, 137)),
])
def test_overhead_point_cnot_counts(point, counts):
    row = overhead_point(*point)
    assert (row.cnot_original, row.cnot_vd) == counts
