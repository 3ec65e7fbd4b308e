"""Command-line interface subcommands and exit codes."""
import json

import numpy as np
import pytest

from vdcut import cli
from vdcut.cli import main
from vdcut.simulate import Distribution


def test_run_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"ring": 2},
        "reps": 1,
        "parameters": [0.1, 0.2, 0.3, 0.4],
        "noise": "basic",
        "methods": ["none", "vd"],
        "shots": 200,
        "seed": 5,
        "coupling_map": "linear",
    }))
    out = tmp_path / "res"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "ideal" in text
    lines = (tmp_path / "res.csv").read_text().splitlines()
    assert lines[0] == "method,cnot,rzz,expectation,abs_error"
    assert (tmp_path / "res.json").exists()


def test_run_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"ring": 2},
        "reps": 1,
        "parameters": [0.0, 0.0, 0.0, 0.0],
        "coupling_map": "linear",
    }))
    out = tmp_path / "r"
    code = main(["run", "--config", str(cfg), "--noise", "noiseless",
                 "--methods", "none", "--shots", "100", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["config"]["noise"] == "noiseless"
    assert doc["config"]["methods"] == ["none"]


def test_run_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"ring": 2}, "methods": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 1
    for text, names in (('{"problem": {"ring": 2},', "JSON"),
                        ('[{"problem": {"ring": 2}}]', "JSON object"),
                        ('{"problem": {"ring": 2}, "methods": "vd"}', "methods")):
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and names in err
    for key, value in (("noise", "bogus"), ("coupling_map", "ring"),
                       ("entanglement", "star"), ("shots", "100"),
                       ("parameters", [0.1, 0.2, 0.3]), ("parameters", [0.1, 0.2, 0.3, "x"]),
                       ("parameters", [0.1, 0.2, 0.3, None]), ("parameters", 5),
                       ("coupling_map", 5), ("circuit_file", 5), ("seed", -1)):
        cfg.write_text(json.dumps({"problem": {"ring": 2}, "reps": 1, key: value}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    for problem in ({"ring": 1}, {"n": 3, "edges": [[0, 0]]}, {"n": 3, "edges": []},
                    {"edges": [[0, 1]]}, 4):
        cfg.write_text(json.dumps({"problem": problem}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    cfg.write_text(json.dumps({"problem": {"ring": 2}, "reps": -1, "parameters": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    params = tmp_path / "params.json"
    for text in ('{"parameters": [0.1, 0.2, 0.3]}', '{"parameters": [0.1, 0.2, "x", 0.4]}',
                 '{"angles": [0.1, 0.2, 0.3, 0.4]}', '{"parameters": [0.1,'):
        params.write_text(text)
        cfg.write_text(json.dumps({"problem": {"ring": 2}, "reps": 1,
                                   "parameters": str(params)}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv", [
    ["overhead-sweep", "--map", "mesh", "--qubits", "3", "--layers", "1"],
    ["overhead-sweep", "--map", "heavyhex:3", "--qubits", "16", "--layers", "1"],
    ["overhead-sweep", "--map", "full", "--qubits", "4..x", "--layers", "1"],
    ["optimize", "--graph", "ring:1"],
    ["optimize", "--graph", "ring:2", "--entanglement", "star"],
    ["optimize", "--graph", "ring:2", "--reps", "-2"],
    ["optimize", "--graph", "ring:2", "--seed", "-1"],
    ["cut-check", "--seed", "-1"],
    ["cut-check", "--circuits", "-3"],
])
def test_sweep_and_optimize_bad_arguments_exit_code(argv, tmp_path, capsys):
    if argv[0] != "cut-check":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overhead_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["overhead-sweep", "--map", "full", "--qubits", "3..4",
                 "--layers", "1,2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,layers,map,cnot_original,cnot_vd,cnot_extra"
    assert len(lines) == 5


def test_optimize(tmp_path):
    out = tmp_path / "params.json"
    code = main(["optimize", "--graph", "ring:2", "--reps", "1",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["parameters"]) == 4
    assert doc["cut_value"] >= 0.99


def test_cut_check(capsys):
    code = main(["cut-check", "--circuits", "5", "--seed", "1"])
    assert code == 0
    assert "worst TV" in capsys.readouterr().out


def test_cut_check_fails_on_a_wrong_reconstruction(monkeypatch, capsys):
    def wrong(circuit, cut):
        probs = np.zeros(2 ** circuit.width)
        probs[-1] = 1.0
        return Distribution(circuit.width, probs)

    monkeypatch.setattr(cli, "run_cut", wrong)
    assert main(["cut-check", "--circuits", "3", "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out
