"""Experiment orchestration: config parsing, method cells, persistence."""
import hashlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from vdcut.benchmarks import ring_problem
from vdcut.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    emit,
    run_experiment,
)
from vdcut.noise import NoiseModel


def _fast_config(**overrides):
    base = dict(problem=ring_problem(2), reps=1, noise="basic", shots=200,
                seed=3, coupling_map="linear", out="exp",
                parameters=(0.1, 0.2, 0.3, 0.4))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _fast_config(methods=())
    with pytest.raises(ConfigError):
        _fast_config(methods=("teleport",))
    with pytest.raises(ConfigError):
        _fast_config(shots=0)
    for bad in ({"noise": "bogus"}, {"coupling_map": "ring"},
                {"coupling_map": "heavyhex:x"}, {"entanglement": "star"},
                {"problem": ring_problem(12), "coupling_map": "heavyhex:3"},
                {"shots": "100"}, {"reps": "1"}, {"seed": "x"}, {"seed": -1},
                {"coupling_map": 5}, {"circuit_file": 5}, {"parameters": 5},
                {"parameters": (0.1, 0.2)}, {"parameters": (0.1, "x", 0.3, 0.4)},
                {"reps": -1, "parameters": ()}):
        with pytest.raises(ConfigError):
            _fast_config(**bad)


def test_config_from_dict_roundtrip():
    cfg = ExperimentConfig.from_dict({
        "problem": {"ring": 4},
        "reps": 2,
        "noise": "basic+gct",
        "methods": ["none", "vd"],
        "shots": 500,
        "seed": 11,
    })
    assert cfg.problem.n == 4
    assert cfg.methods == ("none", "vd")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": {"ring": 3}, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": {"shape": "star"}})


def test_config_from_dict_leaves_its_argument_alone():
    data = {"problem": {"ring": 3}, "methods": ["none"]}
    first = ExperimentConfig.from_dict(data)
    second = ExperimentConfig.from_dict(data)
    assert first == second
    assert second.problem.n == 3
    assert data == {"problem": {"ring": 3}, "methods": ["none"]}


def test_noiseless_none_method_is_exact():
    cfg = _fast_config(noise="noiseless", methods=("none",))
    res = run_experiment(cfg)
    (cell,) = res.cells
    assert cell.error is None
    assert cell.abs_error == pytest.approx(0.0, abs=1e-12)


def test_matrix_completeness_and_error_recording():
    # a 1-state problem keeps runtime small; all four methods produce cells
    cfg = _fast_config(methods=("none", "vd", "vd+zne", "vd+cut"))
    res = run_experiment(cfg)
    assert [c.method for c in res.cells] == ["none", "vd", "vd+zne", "vd+cut"]
    for cell in res.cells:
        assert cell.error is None, cell.error
        assert cell.abs_error == pytest.approx(abs(cell.expectation - res.ideal),
                                               abs=1e-12)


def test_register_failure_fails_only_the_cells_that_read_it(monkeypatch):
    """With memory for the 2-qubit single-copy register but not for the
    4-qubit copies register, the none cell keeps its value and every
    distillation cell records the refusal."""
    from vdcut import simulate

    methods = ("none", "vd", "vd+zne", "vd+cut")
    fits = run_experiment(_fast_config(methods=methods))
    # three 4-qubit Pauli tensors do not fit; 2 qubits plus a snapshot do
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 3 * 8 * 4 ** 4 - 1)
    res = run_experiment(_fast_config(methods=methods))
    none, *distilled = res.cells
    assert none.error is None
    assert (none.expectation, none.cnots) == (fits.cells[0].expectation, fits.cells[0].cnots)
    for cell in distilled:
        assert cell.expectation is None
        assert cell.error.startswith("SimulationSizeError"), (cell.method, cell.error)
    assert res.reference_noiseless_diag is None


def test_experiment_runs_one_batch_per_register(monkeypatch):
    """The four-method matrix runs two batches, the copies register and the
    single-copy register, and none of the one-off executors."""
    from vdcut import cutting, experiments, runner

    batches = []
    real = experiments.run_circuits

    def counting(executions, **kwargs):
        batches.append(len(executions))
        return real(executions, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("one-off executor called")

    monkeypatch.setattr(experiments, "run_circuits", counting)
    for module, name in ((runner, "run_circuit"), (cutting, "run_cut")):
        monkeypatch.setattr(module, name, forbidden)
    res = run_experiment(_fast_config(methods=("none", "vd", "vd+zne", "vd+cut")))
    assert all(cell.error is None for cell in res.cells)
    # ring-2 has one parity group: reference, vd, 3 ZNE scales and the cut's
    # joint run; then the bare circuit and 2 pairs x 3 bases of fragments
    assert batches == [6, 7]


def test_vd_cut_is_exact_on_a_noiseless_product_state():
    """Cut-enhanced distillation of a noiseless product state reproduces
    the ideal expectation."""
    config = ExperimentConfig(problem=ring_problem(4), reps=0,
                              parameters=(0.4, 0.8, 1.2, 1.6), noise="noiseless",
                              methods=("vd+cut",))
    (cell,) = run_experiment(config).cells
    assert cell.error is None and cell.abs_error < 1e-9


def test_zne_cell_reports_three_scales():
    cfg = _fast_config(methods=("vd+zne",))
    res = run_experiment(cfg)
    (cell,) = res.cells
    assert len(cell.cnots) == 3
    assert cell.cnots[0] < cell.cnots[1] < cell.cnots[2]


def test_cut_cell_reports_per_pair_fragments():
    cfg = _fast_config(methods=("vd+cut",))
    res = run_experiment(cfg)
    (cell,) = res.cells
    assert len(cell.cnots) == 2  # one fragment per pair
    assert len(cell.rzz) == 2


def test_ideal_value_independent_of_map_and_seed():
    a = run_experiment(_fast_config(methods=("none",), coupling_map="linear", seed=1))
    b = run_experiment(_fast_config(methods=("none",), coupling_map="full", seed=9))
    assert a.ideal == pytest.approx(b.ideal, abs=1e-12)


def test_determinism_byte_identical_csv(tmp_path):
    cfg = _fast_config(methods=("none", "vd"))
    p1 = emit(run_experiment(cfg), str(tmp_path / "a"))[0]
    p2 = emit(run_experiment(cfg), str(tmp_path / "b"))[0]
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("noise, digest", [
    ("basic", "f85540f0697700a69eef9665840c19624a2262e23817f99eaffa550e5aeacd61"),
    ("basic+gct", "11c8c27768eaaa73e3dfcb0ef1185ba354e5c5f04b959a1e51f0daf9fc3f4f60"),
    ("basic+gct+rct", "2738cefea33d99019e6f09718675b54ea4dd910287295f85e2fd2e35042e99dd"),
    ("noiseless", "fd13736789468f89be796cd96dedf2f8abc009cdc2de88b546da5a6d77d3f88e"),
])
def test_csv_bytes_pinned(noise, digest, tmp_path):
    """The CSV of a ring-3 matrix on heavyhex:3 keeps its bytes: a change
    meant to keep every output must not move a single one."""
    cfg = ExperimentConfig(problem=ring_problem(3), reps=1,
                           parameters=(0.3, 1.1, 0.7, 0.2, 2.0, -0.4), noise=noise,
                           shots=10_000, seed=5, coupling_map="heavyhex:3")
    csv_path = emit(run_experiment(cfg), str(tmp_path / "run"))[0]
    assert hashlib.sha256(open(csv_path, "rb").read()).hexdigest() == digest


def test_emit_csv_and_json(tmp_path):
    cfg = _fast_config(methods=("none", "vd"))
    res = run_experiment(cfg)
    csv_path, json_path = emit(res, str(tmp_path / "run"))
    lines = open(csv_path).read().splitlines()
    assert lines[0] == CSV_HEADER == "method,cnot,rzz,expectation,abs_error"
    assert len(lines) == 3
    doc = json.load(open(json_path))
    assert doc["ideal"] == pytest.approx(res.ideal)
    assert doc["config"]["shots"] == 200
    assert doc["noise_parameters"]["two_qubit_depol"] == pytest.approx(7.936e-3)
    assert list(doc["noise_parameters"]) == [f.name for f in fields(NoiseModel)]
    assert len(doc["cells"]) == 2
    # round trip: the JSON reproduces the result values
    for cell, stored in zip(res.cells, doc["cells"]):
        assert stored["expectation"] == pytest.approx(cell.expectation)


def test_json_records_registers_and_estimator_diagnostics(tmp_path):
    """The JSON records what each register's batch evolved and the bytes of
    its (Pauli) states, and every distillation cell's per-group estimates,
    so a refused denominator can be read from the file; at 10 shots vd's is
    below 10 standard errors.  The cut cell adds its recombination events."""
    res = run_experiment(_fast_config(shots=10))
    doc = json.load(open(emit(res, str(tmp_path / "run"))[1]))
    assert [(r["width"], r["variants"]) for r in doc["registers"]] == [(4, 4), (2, 7)]
    for r in doc["registers"]:
        assert r["blocks_evolved"] < r["ops_evolved"] < r["ops_requested"]
        assert r["max_snapshots"] >= 1
        assert r["state_bytes"] == 8 * 4 ** r["width"]
    cells = {c["method"]: c for c in doc["cells"]}
    assert cells["none"]["diagnostics"] == []
    assert cells["vd"]["error"].startswith("EstimatorError")
    (diag,) = cells["vd"]["diagnostics"]
    assert diag["den_over_se"] == abs(diag["denominator"]) / diag["denominator_se"] < 10
    assert [(d["scale"], d["group"]) for d in cells["vd+zne"]["diagnostics"]] == [
        (1, 0), (3, 0), (5, 0)]
    (cut,) = cells["vd+cut"]["diagnostics"]
    assert cells["vd+cut"]["error"] is None and cut["den_over_se"] >= 10
    assert cut["degenerate_mass"] >= 0.0 >= cut["clamped_min"]
    assert "degenerate_mass" not in cells["vd+zne"]["diagnostics"][0]


def test_json_cells_record_swaps(tmp_path):
    """Each cell lists the SWAPs that routing inserted, one count per
    execution, next to its CNOT and RZZ counts.  On a 4-qubit line the
    copies of ring 2 sit on (0, 1) and (2, 3), so the diagonalizing gates on
    (0, 2) and (1, 3) need one SWAP; folding comes after routing and adds
    none, and the single-copy runs need none.  The CSV does not list them."""
    res = run_experiment(_fast_config())
    csv_path, json_path = emit(res, str(tmp_path / "run"))
    cells = {c["method"]: c for c in json.load(open(json_path))["cells"]}
    assert {m: c["swaps"] for m, c in cells.items()} == {
        "none": [0], "vd": [1], "vd+zne": [1, 1, 1], "vd+cut": [0, 0]}
    for cell in res.cells:
        assert cells[cell.method]["swaps"] == list(cell.swaps)
        assert len(cell.swaps) == len(cell.cnots) == len(cell.rzz)
    assert open(csv_path).readline().strip() == CSV_HEADER


def test_json_records_versions_and_cpu_count(tmp_path):
    """The JSON names the software versions and the CPU count of the host
    that wrote it, so a timing can be read against them."""
    import platform

    import scipy

    import vdcut

    res = run_experiment(_fast_config(methods=("none",), noise="noiseless"))
    doc = json.load(open(emit(res, str(tmp_path / "run"))[1]))
    assert doc["versions"] == {"vdcut": vdcut.__version__,
                               "python": platform.python_version(),
                               "numpy": np.__version__, "scipy": scipy.__version__}
    assert doc["cpu_count"] == os.cpu_count() >= 1


def test_single_shot_denominator_is_refused(tmp_path):
    """One shot gives a sampled variance of 0; its standard error is floored
    at one shot's resolution, so the denominator cannot pass the 10-SE check
    and the JSON reports a finite den/SE."""
    res = run_experiment(_fast_config(shots=1))
    doc = json.load(open(emit(res, str(tmp_path / "run"))[1]))
    cells = {c["method"]: c for c in doc["cells"]}
    for method in ("vd", "vd+zne"):
        assert cells[method]["error"].startswith("EstimatorError"), method
        for diag in cells[method]["diagnostics"]:
            assert diag["denominator_se"] == 1.0
            assert diag["den_over_se"] == abs(diag["denominator"]) == 1.0


def test_reference_noiseless_diag_present_for_vd_methods():
    res = run_experiment(_fast_config(methods=("vd",)))
    assert res.reference_noiseless_diag is not None
    res = run_experiment(_fast_config(methods=("none",)))
    assert res.reference_noiseless_diag is None


def test_parameters_from_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"parameters": [0.1, 0.2, 0.3, 0.4]}))
    cfg = _fast_config(parameters=str(path))
    res = run_experiment(cfg)
    assert res.parameters == (0.1, 0.2, 0.3, 0.4)


def test_non_finite_parameters_rejected_before_optimizing(tmp_path, monkeypatch):
    """NaN or infinite parameters, given inline or in a parameters file,
    are a config error raised before any optimization or simulation."""
    from vdcut import experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize_parameters called")

    monkeypatch.setattr(experiments, "optimize_parameters", forbidden)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            _fast_config(parameters=(0.1, bad, 0.3, 0.4))
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"parameters": [0.1, float("nan"), 0.3, 0.4]}))
    with pytest.raises(ConfigError, match="finite"):
        run_experiment(_fast_config(parameters=str(path), noise="noiseless"))


def test_circuit_file_override(tmp_path):
    from vdcut.circuit import Circuit, ry, to_text

    path = tmp_path / "circ.txt"
    path.write_text(to_text(Circuit(2, (ry(0.4, 0), ry(1.1, 1)))))
    cfg = _fast_config(circuit_file=str(path), methods=("none",))
    res = run_experiment(cfg)
    assert res.cells[0].error is None


def test_circuit_file_run_never_optimizes(tmp_path, monkeypatch):
    """A circuit file replaces the ansatz, so its run resolves no
    parameters, and a malformed file is refused before any optimization."""
    from vdcut import experiments
    from vdcut.circuit import Circuit, ry, to_text

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize_parameters called")

    monkeypatch.setattr(experiments, "optimize_parameters", forbidden)
    path = tmp_path / "circ.txt"
    path.write_text(to_text(Circuit(2, (ry(0.4, 0), ry(1.1, 1)))))
    cfg = _fast_config(circuit_file=str(path), parameters="optimize", methods=("none",))
    res = run_experiment(cfg)
    assert res.cells[0].error is None and res.parameters == ()
    doc = json.load(open(emit(res, str(tmp_path / "run"))[1]))
    assert doc["parameters"] == []
    path.write_text("qubits 2\nRY 0\n")
    with pytest.raises(ConfigError, match="bad circuit file"):
        run_experiment(cfg)


def test_noiseless_bell_ring_distillation_is_exact():
    """(pi, pi/2, 0, 0) on the two-qubit ring prepares (|01> + |10>)/sqrt(2),
    whose ZZ coherence the plain pairwise estimator halves; the parity
    rotation makes every distillation method exact."""
    cfg = _fast_config(noise="noiseless", parameters=(np.pi, np.pi / 2, 0.0, 0.0))
    res = run_experiment(cfg)
    assert res.ideal == pytest.approx(1.0, abs=1e-12)
    assert res.reference_noiseless_diag == pytest.approx(1.0, abs=1e-9)
    for cell in res.cells:
        assert cell.error is None, cell.error
        assert cell.expectation == pytest.approx(res.ideal, abs=1e-9), cell.method


@pytest.mark.parametrize("n", [4, 5])
def test_ring_parity_groups_cover_every_edge_once(n):
    from vdcut.benchmarks import maxcut_hamiltonian
    from vdcut.vd import parity_groups

    problem = ring_problem(n)
    groups = parity_groups(maxcut_hamiltonian(problem))
    assert len(groups) == 2
    covered = sorted(tuple(sorted(c)) for g in groups for c in g.cnots)
    assert covered == sorted(problem.edges)
    for g in groups:
        targets = [t for _, t in g.cnots]
        assert len(set(targets)) == len(targets)
        assert not set(targets) & {c for c, _ in g.cnots}
