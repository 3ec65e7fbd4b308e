"""Names, units and computation of the benchmark's metrics.

End-to-end metrics come from untraced passes.  Per-layer metrics are named
``<module>.<function>.<stat>`` and come from one traced pass
(:func:`span_metrics`), except the output-derived ones (``err_*``,
``cnots_total``, ``experiments.cell_s.*``, :func:`output_metrics`), which the
program itself reports on every pass, and ``trace.overhead_s``, the traced
pass minus the untraced median.  A layer that a workload does not reach
reports 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Sequence

from tracing import DIAG_CACHE_SPAN, TRACED_MODULES, Span, repeat_ratio, self_times

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

EVOLVE_WIDTHS = (4, 5, 8, 10)
METHOD_KEYS = ("none", "vd", "vd_zne", "vd_cut")

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "benchmarks.optimize_parameters.busy_s": ("s", "lower"),
    "benchmarks.optimize_parameters.evals": ("count", "lower"),
    "benchmarks.optimize_parameters.ms_per_eval": ("ms", "lower"),
    "benchmarks.optimize_parameters.repeat_ratio": ("ratio", "lower"),
    "simulate.evolve.calls": ("count", "lower"),
    "simulate.evolve.busy_s": ("s", "lower"),
    "simulate.evolve.ops": ("count", "lower"),
    **{f"simulate.evolve.ms_per_op.w{w}": ("ms", "lower") for w in EVOLVE_WIDTHS},
    "simulate.evolve.computed_gbps": ("GB/s", "higher"),
    "simulate.evolve.tensor_mib_max": ("MiB", "lower"),
    "simulate.exact_probs.busy_s": ("s", "lower"),
    "simulate.apply_readout.busy_s": ("s", "lower"),
    "simulate.sample.busy_s": ("s", "lower"),
    "runner.run_circuit.calls": ("count", "lower"),
    "runner.run_circuit.busy_s": ("s", "lower"),
    "runner.run_circuit.self_s": ("s", "lower"),
    "runner.run_circuit.repeat_ratio": ("ratio", "lower"),
    "transpile.route.busy_s": ("s", "lower"),
    "transpile.route.swaps": ("count", "lower"),
    "transpile.decompose_to_basis.busy_s": ("s", "lower"),
    "transpile.decompose_to_basis.cnots": ("count", "lower"),
    "noise.insert_zz_crosstalk.busy_s": ("s", "lower"),
    "noise.insert_zz_crosstalk.rzz_added": ("count", "lower"),
    "vd.estimate.calls": ("count", "lower"),
    "vd.estimate.busy_s": ("s", "lower"),
    "vd.estimate.min_den_over_se": ("ratio", "higher"),
    "zne.fold_diagonalizing.ops_added": ("count", "lower"),
    "cutting.build_pairwise_pipelines.busy_s": ("s", "lower"),
    "cutting.run_pairwise.calls": ("count", "lower"),
    "cutting.run_pairwise.busy_s": ("s", "lower"),
    "cutting.recombine.busy_s": ("s", "lower"),
    "cutting.diag_cache.hit_ratio": ("ratio", "higher"),
    **{f"experiments.cell_s.{m}": ("s", "lower") for m in METHOD_KEYS},
    "experiments.reference_s": ("s", "lower"),
    "sweep.overhead_point.calls": ("count", "lower"),
    "sweep.overhead_point.ms_per_point": ("ms", "lower"),
    **{f"err_{m}": ("abs", "lower") for m in METHOD_KEYS},
    "cnots_total": ("count", "lower"),
    **{f"share.{m}": ("ratio", "lower") for m in TRACED_MODULES},
    "share.unattributed": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def evolve_bytes_per_op(width: int) -> int:
    """Computed bytes one gate application moves: a complex128 read and write
    of each of the 4^width density-tensor entries."""
    return 2 * 16 * 4 ** width


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_time_breakdown(spans: Sequence[Span], wall_s: float) -> list[tuple[str, int, float, float]]:
    """(span name, calls, self seconds, share of ``wall_s``) rows, largest
    self time first, closed by the ``unattributed`` row: pass time outside
    every span."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += t
    rows = sorted(((n, calls[n], self_s[n], _ratio(self_s[n], wall_s)) for n in calls),
                  key=lambda r: -r[2])
    outside = wall_s - sum(s.duration for s in spans if s.parent < 0)
    rows.append(("unattributed", 0, outside, _ratio(outside, wall_s)))
    return rows


def span_metrics(spans: Sequence[Span], traced_wall_s: float) -> dict[str, float]:
    """The ``PER_LAYER`` metrics taken from the spans of one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(*names):
        return sum(spans[i].duration for n in names for i in by_name[n])

    def probed(*names):
        """Indices of the named spans whose call returned (a call that
        raised carries no probe counts)."""
        return [i for n in names for i in by_name[n] if spans[i].info is not None]

    def info(name, key):
        return [spans[i].info[key] for i in probed(name)]

    m: dict[str, float] = {}

    # evolutions made under the optimizer, marked top-down (parents precede children)
    under_opt = [False] * len(spans)
    for i, s in enumerate(spans):
        under_opt[i] = (s.name == "benchmarks.optimize_parameters"
                        or (s.parent >= 0 and under_opt[s.parent]))
    evals = sum(1 for i in by_name["simulate.evolve"] if under_opt[i])
    opt_busy = busy("benchmarks.optimize_parameters")
    m["benchmarks.optimize_parameters.busy_s"] = opt_busy
    m["benchmarks.optimize_parameters.evals"] = evals
    m["benchmarks.optimize_parameters.ms_per_eval"] = _ratio(1e3 * opt_busy, evals)
    m["benchmarks.optimize_parameters.repeat_ratio"] = repeat_ratio(
        info("benchmarks.optimize_parameters", "key"))

    evolve = probed("simulate.evolve")
    widths = info("simulate.evolve", "width")
    ops = info("simulate.evolve", "ops")
    m["simulate.evolve.calls"] = calls("simulate.evolve")
    m["simulate.evolve.busy_s"] = busy("simulate.evolve")
    m["simulate.evolve.ops"] = sum(ops)
    for w in EVOLVE_WIDTHS:
        sel = [k for k, width in enumerate(widths) if width == w]
        m[f"simulate.evolve.ms_per_op.w{w}"] = _ratio(
            1e3 * sum(spans[evolve[k]].duration for k in sel), sum(ops[k] for k in sel))
    moved = sum(n * evolve_bytes_per_op(w) for n, w in zip(ops, widths))
    m["simulate.evolve.computed_gbps"] = _ratio(
        moved / 1e9, sum(spans[i].duration for i in evolve))
    m["simulate.evolve.tensor_mib_max"] = max((16 * 4 ** w / 2 ** 20 for w in widths),
                                              default=0.0)
    for f in ("exact_probs", "apply_readout", "sample"):
        m[f"simulate.{f}.busy_s"] = busy(f"simulate.{f}")

    runs = by_name["runner.run_circuit"]
    m["runner.run_circuit.calls"] = len(runs)
    m["runner.run_circuit.busy_s"] = busy("runner.run_circuit")
    m["runner.run_circuit.self_s"] = sum(selfs[i] for i in runs)
    m["runner.run_circuit.repeat_ratio"] = repeat_ratio(info("runner.run_circuit", "key"))

    m["transpile.route.busy_s"] = busy("transpile.route")
    m["transpile.route.swaps"] = sum(info("transpile.route", "swaps"))
    m["transpile.decompose_to_basis.busy_s"] = busy("transpile.decompose_to_basis")
    m["transpile.decompose_to_basis.cnots"] = sum(info("transpile.decompose_to_basis", "cnots"))
    m["noise.insert_zz_crosstalk.busy_s"] = busy("noise.insert_zz_crosstalk")
    m["noise.insert_zz_crosstalk.rzz_added"] = sum(info("noise.insert_zz_crosstalk",
                                                        "rzz_added"))

    estimates = ("vd.estimate_from_counts", "vd.estimate_from_distribution")
    m["vd.estimate.calls"] = sum(calls(n) for n in estimates)
    m["vd.estimate.busy_s"] = busy(*estimates)
    significance = [abs(spans[i].info["den"]) / spans[i].info["den_se"]
                    for i in probed(*estimates) if spans[i].info["den_se"] > 0]
    m["vd.estimate.min_den_over_se"] = min(significance, default=0.0)
    m["zne.fold_diagonalizing.ops_added"] = sum(info("zne.fold_diagonalizing", "ops_added"))

    m["cutting.build_pairwise_pipelines.busy_s"] = busy("cutting.build_pairwise_pipelines")
    m["cutting.run_pairwise.calls"] = calls("cutting.run_pairwise")
    m["cutting.run_pairwise.busy_s"] = busy("cutting.run_pairwise")
    m["cutting.recombine.busy_s"] = busy("cutting.recombine")
    m["cutting.diag_cache.hit_ratio"] = _ratio(sum(info(DIAG_CACHE_SPAN, "hit")),
                                               calls(DIAG_CACHE_SPAN))

    m["experiments.reference_s"] = sum(spans[i].duration for i in probed("runner.run_circuit")
                                       if spans[i].info["ideal_diag"])
    points = calls("sweep.overhead_point")
    m["sweep.overhead_point.calls"] = points
    m["sweep.overhead_point.ms_per_point"] = _ratio(1e3 * busy("sweep.overhead_point"), points)

    module_self: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        module_self[s.name.split(".", 1)[0]] += t
    for mod in TRACED_MODULES:
        m[f"share.{mod}"] = _ratio(module_self[mod], traced_wall_s)
    outside = traced_wall_s - sum(s.duration for s in spans if s.parent < 0)
    m["share.unattributed"] = _ratio(outside, traced_wall_s)
    m["trace.spans"] = len(spans)
    return m


def output_metrics(outputs: Sequence) -> dict[str, float]:
    """The ``PER_LAYER`` metrics the program reports itself, from the
    ``PassOutput`` of each untraced pass."""
    m = {f"experiments.cell_s.{key}": statistics.median(o.cell_s.get(key, 0.0) for o in outputs)
         for key in METHOD_KEYS}
    m.update({f"err_{key}": outputs[0].errors.get(key, 0.0) for key in METHOD_KEYS})
    m["cnots_total"] = outputs[0].cnots_total
    return m
