"""Tests of the benchmark's own code: span arithmetic, repeat keying, the
tracer's install/remove cycle and the metric names.

    python3 -m pytest -q perfbench/tests
"""
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import pytest  # noqa: E402

import vdcut  # noqa: E402
from metrics import END_TO_END, PER_LAYER, output_metrics, self_time_breakdown, span_metrics  # noqa: E402
from tracing import Span, Tracer, repeat_ratio, run_circuit_key, self_times  # noqa: E402
from workloads import PassOutput  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    return [Span("m.root", 0.0, 10.0, -1, 0), Span("m.a", 1.0, 4.0, 0, 0),
            Span("m.b", 5.0, 9.0, 0, 0), Span("m.c", 6.0, 7.0, 2, 0)]


def test_self_times_subtract_direct_children_only():
    assert self_times(_tree()) == [3.0, 3.0, 3.0, 1.0]


def test_breakdown_shares_and_unattributed_remainder():
    rows = self_time_breakdown(_tree(), wall_s=12.0)
    assert rows[-1] == ("unattributed", 0, 2.0, pytest.approx(2.0 / 12.0))
    assert sum(r[2] for r in rows) == pytest.approx(12.0)
    assert sum(r[3] for r in rows) == pytest.approx(1.0)


def test_repeat_ratio_counts_calls_seen_before():
    assert repeat_ratio(["a", "b", "a", "a", "c"]) == pytest.approx(2 / 5)
    assert repeat_ratio([]) == 0.0


def test_run_circuit_key_ignores_sampling_but_not_compilation():
    circuit = vdcut.build_vd_circuit(vdcut.real_amplitudes(2, reps=1, parameters=[0.1, 0.2, 0.3, 0.4]))
    noise = vdcut.preset("basic")
    cmap = vdcut.coupling_map_for("full", 4)
    base = run_circuit_key(circuit, noise, cmap)
    assert base == run_circuit_key(circuit, vdcut.preset("basic"), vdcut.coupling_map_for("full", 4))
    assert base != run_circuit_key(circuit, noise, cmap, scale=3)
    assert base != run_circuit_key(circuit, noise, cmap, ideal_diag=True)
    assert base != run_circuit_key(circuit, vdcut.preset("basic+gct"), cmap)
    assert base != run_circuit_key(circuit, noise, vdcut.coupling_map_for("linear", 4))


def _traced_calls():
    """A small traced workload: three optimizer calls (one a repeat given
    positionally) and two executions of one circuit with different seeds."""
    problem = vdcut.ring_problem(2)
    ansatz = vdcut.AnsatzSpec(2, reps=1)
    circuit = vdcut.build_vd_circuit(ansatz.circuit([0.3, 1.1, 0.7, 0.2]))
    tracer = Tracer()
    original = vdcut.runner.evolve
    tracer.install()
    try:
        vdcut.optimize_parameters(problem, ansatz, seed=3, restarts=1, maxiter=6)
        vdcut.benchmarks.optimize_parameters(problem, ansatz, 3, 1, 6)
        vdcut.optimize_parameters(problem, ansatz, seed=4, restarts=1, maxiter=6)
        for seed in (1, 2):
            vdcut.run_circuit(circuit, noise=vdcut.preset("basic"), shots=100, seed=seed)
    finally:
        tracer.remove()
    assert vdcut.runner.evolve is original
    return tracer.spans


def test_tracer_spans_and_repeat_keys():
    spans = _traced_calls()
    outputs = [PassOutput(digest="", attempted=1, failed=0, cnots_total=7,
                          errors={"vd": 0.5}, cell_s={"vd": 1.0})]
    m = span_metrics(spans, traced_wall_s=10.0)
    outputs_m = output_metrics(outputs)
    assert m["benchmarks.optimize_parameters.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["runner.run_circuit.calls"] == 2
    assert m["runner.run_circuit.repeat_ratio"] == pytest.approx(1 / 2)
    evolves = [s for s in spans if s.name == "simulate.evolve"]
    assert m["benchmarks.optimize_parameters.evals"] == len(evolves) - 2
    assert m["simulate.evolve.ms_per_op.w4"] > 0.0
    assert m["vd.estimate.calls"] == 0
    assert outputs_m["err_vd"] == 0.5 and outputs_m["cnots_total"] == 7
    # the run adds trace.overhead_s, the one metric needing both kinds of pass
    assert set(m) | set(outputs_m) | {"trace.overhead_s"} == set(PER_LAYER)
    assert not set(m) & set(outputs_m)

    # a call that raised has a span but no probe counts
    raised = Span("simulate.evolve", 0.0, 1.0, -1, 0)
    m2 = span_metrics(spans + [raised], 10.0)
    assert m2["simulate.evolve.calls"] == m["simulate.evolve.calls"] + 1
    assert m2["simulate.evolve.ops"] == m["simulate.evolve.ops"]


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {e["name"]: e["unit"] for e in doc["end_to_end"]} == END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in doc["per_layer"]} == PER_LAYER
    names = [e["name"] for e in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
