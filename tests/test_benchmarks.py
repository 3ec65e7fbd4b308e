"""MaxCut problems, the RY/CNOT ansatz, and parameter optimization."""
import subprocess

import numpy as np
import pytest

from vdcut import benchmarks
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
from vdcut.simulate import SimulationSizeError, evolve, expectation

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


def serial_optimize(problem, ansatz, seed, restarts, maxiter):
    """The optimizer as one in-process loop over the restarts: the reference
    that the worker interpreters must reproduce to the byte."""
    from scipy.optimize import minimize

    hamiltonian = maxcut_hamiltonian(problem)

    def negative_cut(theta):
        return -expectation(evolve(ansatz.circuit(theta)), hamiltonian)

    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_theta = np.zeros(ansatz.parameter_count)
    for _ in range(restarts):
        theta0 = rng.uniform(0.0, 2.0 * np.pi, size=ansatz.parameter_count)
        res = minimize(negative_cut, theta0, method="COBYLA",
                       options={"maxiter": maxiter, "rhobeg": 0.6, "tol": 1e-8})
        if res.fun < best_val:
            best_val = res.fun
            best_theta = np.asarray(res.x, dtype=float)
    return best_theta


@pytest.mark.parametrize("n", [3, 4])
def test_optimize_equals_serial_loop_bytes(n):
    problem, spec = ring_problem(n), AnsatzSpec(n)
    for seed in (0, 4, 7):
        theta = optimize_parameters(problem, spec, seed=seed, restarts=4, maxiter=40)
        assert theta.dtype == np.float64
        assert theta.tobytes() == serial_optimize(problem, spec, seed, 4, 40).tobytes()


@pytest.fixture
def started(monkeypatch):
    """Every worker process the optimizer starts, in order."""
    procs = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return procs


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_optimize_same_bytes_for_any_worker_count(cpus, monkeypatch, started):
    monkeypatch.setattr(benchmarks, "_usable_cpus", lambda: cpus)
    problem, spec = ring_problem(3), AnsatzSpec(3, reps=1)
    theta = optimize_parameters(problem, spec, seed=2, restarts=5, maxiter=30)
    assert len(started) == cpus
    assert theta.tobytes() == serial_optimize(problem, spec, 2, 5, 30).tobytes()
    # every worker has exited and been waited for
    assert [p.returncode for p in started] == [0] * cpus


def test_optimize_failing_worker_raises_and_leaves_no_worker(monkeypatch, started):
    """The first worker fails at once; the second, still running, is killed."""
    monkeypatch.setattr(benchmarks, "_usable_cpus", lambda: 2)
    codes = iter(["import sys; sys.exit(3)", "import time; time.sleep(60)"])
    recording = subprocess.Popen

    def one_fails(argv, **kwargs):
        return recording(argv[:-1] + [next(codes)], **kwargs)

    monkeypatch.setattr(subprocess, "Popen", one_fails)
    with pytest.raises(RuntimeError, match="status 3"):
        optimize_parameters(ring_problem(2), AnsatzSpec(2, reps=1), restarts=2, maxiter=5)
    assert [p.returncode for p in started] == [3, -9]


def test_optimize_inputs_refused_before_any_worker(started):
    problem = ring_problem(3)
    with pytest.raises(CircuitError, match="vertices"):
        optimize_parameters(problem, AnsatzSpec(4))
    with pytest.raises(CircuitError):
        optimize_parameters(problem, AnsatzSpec(3, entanglement="bogus"))
    with pytest.raises(CircuitError):
        optimize_parameters(problem, AnsatzSpec(3, reps=-1))
    for restarts, maxiter in ((0, 10), (-1, 10), (2, 0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            optimize_parameters(problem, AnsatzSpec(3), restarts=restarts, maxiter=maxiter)
    with pytest.raises(SimulationSizeError):
        optimize_parameters(ring_problem(20), AnsatzSpec(20))
    assert started == []
