"""MaxCut problems, the RY/CNOT ansatz, and parameter optimization."""
import numpy as np
import pytest

from vdcut.benchmarks import (
    AnsatzSpec,
    MaxCutProblem,
    maxcut_hamiltonian,
    optimize_parameters,
    parameter_count,
    real_amplitudes,
    ring_problem,
)
from vdcut.circuit import CircuitError
from vdcut.simulate import evolve, expectation

from helpers import distribution


def test_problem_validation():
    with pytest.raises(CircuitError):
        MaxCutProblem(3, ((0, 0),))
    with pytest.raises(CircuitError):
        MaxCutProblem(3, ((0, 3),))
    with pytest.raises(CircuitError):
        MaxCutProblem(3, ((0, 1), (1, 0)))
    assert set(ring_problem(4).edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert ring_problem(2).edges == ((0, 1),)


def test_maxcut_hamiltonian_triangle():
    h = maxcut_hamiltonian(MaxCutProblem(3, ((0, 1), (1, 2), (0, 2))))
    consts = [c for c, p in h.terms if set(p) == {"I"}]
    zz = [(c, p) for c, p in h.terms if "Z" in p]
    assert sum(consts) == pytest.approx(1.5)
    assert all(c == pytest.approx(-0.5) for c, _ in zz)
    assert expectation(distribution({"001": 1.0}, 3), h) == pytest.approx(2.0)


def test_maxcut_single_edge_and_ring():
    h = maxcut_hamiltonian(MaxCutProblem(2, ((0, 1),)))
    assert expectation(distribution({"01": 1.0}, 2), h) == pytest.approx(1.0)
    h4 = maxcut_hamiltonian(ring_problem(4))
    assert expectation(distribution({"0101": 1.0}, 4), h4) == pytest.approx(4.0)


def test_real_amplitudes_structure():
    c = real_amplitudes(3, 2, "circular", np.arange(9) * 0.1)
    assert parameter_count(3, 2) == 9
    assert c.count("RY") == 9
    cnots = [g.qubits for g in c.ops if g.kind == "CNOT"]
    # the wrap gate leads each entangling layer
    assert cnots == [(2, 0), (0, 1), (1, 2)] * 2


def test_real_amplitudes_two_qubit_ring_dedup():
    c = real_amplitudes(2, 1, "circular", np.zeros(4))
    assert c.count("CNOT") == 1


def test_real_amplitudes_no_reps():
    c = real_amplitudes(3, 0, "circular", np.zeros(3))
    assert c.count("CNOT") == 0


def test_real_amplitudes_validation():
    with pytest.raises(CircuitError):
        real_amplitudes(3, 2, "circular", np.zeros(5))
    with pytest.raises(CircuitError):
        real_amplitudes(3, 1, "bogus")


def test_optimize_single_edge_reaches_max():
    problem = MaxCutProblem(2, ((0, 1),))
    spec = AnsatzSpec(2, reps=2)
    theta = optimize_parameters(problem, spec, seed=1)
    value = expectation(evolve(spec.circuit(theta)), maxcut_hamiltonian(problem))
    assert value >= 0.99


def test_optimize_ring_c4_reaches_max():
    problem = ring_problem(4)
    spec = AnsatzSpec(4, reps=2)
    theta = optimize_parameters(problem, spec, seed=1)
    value = expectation(evolve(spec.circuit(theta)), maxcut_hamiltonian(problem))
    assert value >= 3.9


def test_optimize_deterministic():
    problem = MaxCutProblem(2, ((0, 1),))
    spec = AnsatzSpec(2, reps=1)
    a = optimize_parameters(problem, spec, seed=9)
    b = optimize_parameters(problem, spec, seed=9)
    assert np.array_equal(a, b)
