"""Coupling maps, routing, and basis decomposition."""
import numpy as np
import pytest

from vdcut.benchmarks import maxcut_hamiltonian, real_amplitudes, ring_problem
from vdcut.circuit import (
    CNOT,
    DIAG,
    PARITY_TAG,
    Circuit,
    Gate,
    cnot,
    gate_matrix,
    ry,
    rzz,
    swap,
    tensor_two_copies,
)
from vdcut.runner import compile_circuit
from vdcut.simulate import evolve, exact_probs, marginal, tv_distance
from vdcut.sweep import overhead_point
from vdcut.transpile import (
    CouplingMap,
    RoutingError,
    coupling_map_for,
    decompose_to_basis,
    fully_connected,
    heavy_hex,
    linear,
    route,
)
from vdcut.vd import build_vd_circuit, diag_gate_on, parity_groups
from vdcut.zne import fold_diagonalizing

from helpers import (
    assert_gates_as_checked,
    full_unitary,
    is_edge,
    phase_distance,
    random_circuit,
)


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


def test_coupling_map_is_built_once_per_spec_and_width():
    """A (spec, width) gives one shared map, whose tables cannot be written."""
    cm = coupling_map_for("heavyhex:3", 8)
    assert coupling_map_for("heavyhex:3", 8) is cm
    assert coupling_map_for("heavyhex:3", 6) is not cm
    assert coupling_map_for("linear", 6) is not coupling_map_for("linear", 7)
    with pytest.raises(TypeError):
        cm.distances()[0][1] = 5


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
                assert is_edge(cmap, *(rc.physical[q] for q in g.qubits))


def test_route_layout_permutation_consistency():
    rng = np.random.default_rng(4)
    cmap = linear(6)
    c = random_circuit(5, 18, rng)
    rc = route(c, cmap)
    layout = list(rc.initial_layout) + [
        p for p in range(rc.circuit.width) if p not in rc.initial_layout]
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


def test_route_restricts_to_used_qubits():
    """The routed circuit holds only the device qubits it touches or places a
    logical qubit on, labelled in ascending device order."""
    cmap = heavy_hex(3)
    rc = route(Circuit(3, (cnot(0, 2),)), cmap)
    assert rc.circuit.width == len(rc.physical) <= 5
    assert list(rc.physical) == sorted(rc.physical)
    used = {rc.physical[q] for g in rc.circuit.ops for q in g.qubits}
    used.update(rc.physical[q] for q in rc.initial_layout + rc.final_layout)
    assert used == set(rc.physical)
    assert rc.circuit.count("SWAP") == 1


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
    diag = diag_gate_on(0, 1).retagged("copy-0")
    # ZNE folding repeats the gate, its own adjoint
    adjoint = fold_diagonalizing(Circuit(2, (diag,)), 3).ops[1]
    for gate in (diag, diag_gate_on(1, 0), adjoint):
        c = Circuit(2, (gate,))
        out = decompose_to_basis(c)
        assert out.count(CNOT) == 3
        assert phase_distance(full_unitary(out), full_unitary(c)) < 1e-12
        # the basis gates inherit the tag of the gate they replace
        assert all(g.tag == gate.tag for g in out.ops)


def test_decompose_keep_diag():
    """``keep_diag`` leaves every DIAG gate whole and decomposes the rest."""
    c = Circuit(3, (diag_gate_on(0, 1), swap(1, 2), diag_gate_on(2, 0)))
    out = decompose_to_basis(c, keep_diag=True)
    assert out.ops == (c.ops[0],) + decompose_to_basis(Circuit(3, c.ops[1:2])).ops + c.ops[2:]
    assert DIAG not in {g.kind for g in decompose_to_basis(c).ops}


def test_vd_circuit_monotone_overhead():
    rng = np.random.default_rng(8)
    orig = random_circuit(3, 10, rng)
    cmap = linear(6)
    base = decompose_to_basis(route(orig, cmap).circuit).count(CNOT)
    vd = decompose_to_basis(route(build_vd_circuit(orig), cmap).circuit).count(CNOT)
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
        rc = route(build_vd_circuit(orig, group.gates()), cmap)
        ops = rc.circuit.ops
        split = next(i for i, g in enumerate(ops) if g.tag == PARITY_TAG)
        prefixes.append([(g.kind, g.qubits, g.angle, g.tag) for g in ops[:split]])
    assert prefixes[0] == prefixes[1]
    assert any(kind == "SWAP" for kind, *_ in prefixes[0])


def test_an_untagged_diag_gate_starts_the_measurement_stage():
    """The first DIAG gate starts the measurement stage with no tag to mark
    it, so the two copies before it are routed as if they were alone."""
    orig = real_amplitudes(4, 2, "full", np.linspace(0.1, 1.2, 12))
    cmap = heavy_hex(3)
    vd = build_vd_circuit(orig)
    assert {g.tag for g in vd.ops if g.kind == DIAG} == {""}

    def on_device(rc, ops):
        return [(g.kind, tuple(rc.physical[q] for q in g.qubits), g.angle) for g in ops]

    alone = route(tensor_two_copies(orig), cmap)
    want = on_device(alone, alone.circuit.ops)
    assert any(kind == "SWAP" for kind, *_ in want)
    rc = route(vd, cmap)
    assert on_device(rc, rc.circuit.ops[:len(want)]) == want


@pytest.mark.parametrize("point, counts", [
    ((4, 2, "full"), (8, 28)),
    ((6, 4, "heavyhex:5"), (120, 285)),
    ((8, 2, "heavyhex:5"), (88, 308)),
    ((5, 2, "linear"), (46, 137)),
])
def test_overhead_point_cnot_counts(point, counts):
    row = overhead_point(*point)
    assert (row.cnot_original, row.cnot_vd) == counts


def test_overhead_point_counts_what_compile_circuit_builds():
    """On criterion 7's grid, the sweep counts the CNOTs of the bodies that
    the experiments run: the distillation circuit's measurement stage is
    routed after its preparation in both."""
    mismatched = []
    for spec in ("full", "heavyhex:5"):
        for n in range(4, 13):
            cmap = coupling_map_for(spec, 2 * n)
            for layers in (2, 4, 8):
                ansatz = real_amplitudes(n, reps=layers)
                row = overhead_point(n, layers, spec)
                counts = tuple(compile_circuit(c, cmap=cmap).body.count("CNOT")
                               for c in (ansatz, build_vd_circuit(ansatz)))
                if (row.cnot_original, row.cnot_vd) != counts:
                    mismatched.append((n, layers, spec))
    assert mismatched == []


def test_derived_gates_equal_their_checked_rebuild():
    """The two copies, the routed relabel and the basis expansions build
    their gates without checking them; on criterion 7's grid, on both
    maps, each such gate equals a checked build of its fields."""
    for spec in ("full", "heavyhex:5"):
        for n in range(4, 13):
            cmap = coupling_map_for(spec, 2 * n)
            for layers in (2, 4, 8):
                ansatz = real_amplitudes(n, reps=layers)
                vd = build_vd_circuit(ansatz)
                for circuit in (ansatz, vd):
                    assert_gates_as_checked(route(circuit, cmap).circuit)
                    assert_gates_as_checked(compile_circuit(circuit, cmap=cmap).body)
                assert_gates_as_checked(tensor_two_copies(ansatz))


def test_sweep_point_checks_only_the_gates_it_builds(monkeypatch):
    """A sweep point checks the gates that enter it, the distillation
    circuit's diagonalizing gates; its copies, routing and decomposition
    derive every other gate from checked ones without checking it again."""
    checked = []
    post_init = Gate.__post_init__

    def counting_post_init(self):
        checked.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Gate, "__post_init__", counting_post_init)
    overhead_point(8, 4, "heavyhex:5")
    assert checked == [DIAG] * 8
