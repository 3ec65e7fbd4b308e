"""Experiment orchestration: build the benchmark circuit, route it onto the
configured device, and evaluate every requested mitigation method under the
configured noise preset, recording expectation values, absolute errors and
gate counts in CSV/JSON form.

All randomness flows from the config seed through deterministic per-cell
derivations, so identical configs produce byte-identical CSV output.  Under
the ``noiseless`` preset executions are exact (no shot sampling), making the
no-mitigation cell reproduce the ideal value exactly.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmarks import (
    AnsatzSpec,
    MaxCutProblem,
    _entangling_pairs,
    maxcut_hamiltonian,
    optimize_parameters,
    ring_problem,
)
from .circuit import Circuit, from_text, measure
from .cutting import PairwisePipeline, mitigated_expectation_cut
from .noise import NOISELESS, NoiseModel, preset
from .runner import Execution, run_circuit, run_circuits
from .simulate import expectation, evolve
from .transpile import coupling_map_for
from .vd import (
    ParityEstimate,
    ParityGroup,
    build_vd_circuit,
    estimate_from_distribution,
    parity_groups,
)
from .zne import ScaledRun, extrapolate_linear

METHODS = ("none", "vd", "vd+zne", "vd+cut")
ZNE_SCALES = (1, 3, 5)

CSV_HEADER = "method,cnot,rzz,expectation,abs_error"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a problem instance, ansatz settings, parameter source,
    noise preset, method list and execution budget."""

    problem: MaxCutProblem
    reps: int = 2
    entanglement: str = "circular"
    parameters: tuple[float, ...] | str = "optimize"
    noise: str = "basic"
    methods: tuple[str, ...] = METHODS
    shots: int = 10000
    seed: int = 0
    coupling_map: str = "heavyhex:3"
    circuit_file: str | None = None
    out: str = "experiment"

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods list must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (choose from {METHODS})")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        try:
            preset(self.noise)
            coupling_map_for(self.coupling_map, 2 * self.problem.n)
            _entangling_pairs(self.problem.n, self.entanglement)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.parameters, str):
            object.__setattr__(self, "parameters",
                               tuple(float(v) for v in self.parameters))

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        data = dict(data)
        spec = data.pop("problem", {"ring": 4})
        if "ring" in spec:
            problem = ring_problem(int(spec["ring"]))
        elif "edges" in spec:
            problem = MaxCutProblem(int(spec["n"]),
                                    tuple((a, b) for a, b in spec["edges"]))
        else:
            raise ConfigError("problem spec needs a 'ring' size or an 'n'/'edges' pair")
        known = {
            "reps", "entanglement", "parameters", "noise", "methods", "shots",
            "seed", "coupling_map", "circuit_file", "out",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "methods" in data:
            data["methods"] = tuple(data["methods"])
        if "parameters" in data and not isinstance(data["parameters"], str):
            data["parameters"] = tuple(data["parameters"])
        return ExperimentConfig(problem=problem, **data)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (method, preset) cell.  ``cnots`` and ``rzz`` hold one
    count per execution; distillation methods list them group by group
    (per group: one run for vd, the ZNE scales, or one fragment per pair)."""

    method: str
    preset: str
    expectation: float | None
    abs_error: float | None
    cnots: tuple[int, ...]
    rzz: tuple[int, ...]
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Cells of one preset.  ``shared_wall_time`` covers the distillation
    executions the cells share (see :func:`run_experiment`); each cell's
    ``wall_time`` covers only its own work."""

    config: ExperimentConfig
    ideal: float
    reference_noiseless_diag: float | None
    parameters: tuple[float, ...]
    cells: tuple[CellResult, ...]
    parity_groups: tuple[ParityGroup, ...] = ()
    shared_wall_time: float = 0.0


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence((base,) + key).generate_state(1)[0])


def _resolve_parameters(config: ExperimentConfig, ansatz: AnsatzSpec) -> np.ndarray:
    if isinstance(config.parameters, tuple):
        return np.array(config.parameters, dtype=float)
    if config.parameters == "optimize":
        return optimize_parameters(config.problem, ansatz,
                                   seed=_derive_seed(config.seed, 0xA11))
    with open(config.parameters) as f:
        return np.array(json.load(f)["parameters"], dtype=float)


def _prepare_circuit(config: ExperimentConfig, ansatz: AnsatzSpec,
                     theta: np.ndarray) -> Circuit:
    if config.circuit_file is not None:
        circuit = from_text(Path(config.circuit_file).read_text())
        if circuit.width != config.problem.n:
            raise ConfigError("circuit file width does not match the problem size")
        return circuit.without_measurements()
    return ansatz.circuit(theta)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the experiment matrix for one noise preset.

    The distillation methods measure every Hamiltonian term through the
    parity rotation groups of :func:`parity_groups` and sum the groups'
    mitigated values.  The executions they share (per group: the
    noiseless-diag reference, scale 1 for vd, ZNE and the cut's unmitigated
    joint distribution, and ZNE scales 3 and 5) run as one batch, so their
    common compiled prefix is evolved once; each cell keeps its own
    sampling seed.  Per-cell failures, a failed shared batch included, are
    recorded in the cell's ``error`` field without aborting the remaining
    methods.
    """
    ansatz = AnsatzSpec(config.problem.n, config.reps, config.entanglement)
    theta = _resolve_parameters(config, ansatz)
    circuit = _prepare_circuit(config, ansatz, theta)
    hamiltonian = maxcut_hamiltonian(config.problem)
    noise = preset(config.noise)
    shots = None if noise is NOISELESS else config.shots
    cmap = coupling_map_for(config.coupling_map, 2 * circuit.width)
    seeds = {method: _derive_seed(config.seed, mi + 1)
             for mi, method in enumerate(config.methods)}

    ideal = expectation(evolve(circuit), hamiltonian)
    distilling = [m for m in config.methods if m != "none"]
    groups = parity_groups(hamiltonian) if distilling else ()
    runs: list[dict] = []
    shared_failure = None
    reference = None
    started = time.perf_counter()
    if distilling:
        try:
            runs = _distillation_runs(circuit, groups, distilling, seeds, noise, cmap, shots)
        except Exception as exc:  # recorded in every distillation cell
            shared_failure = exc
        else:
            reference = _parity_estimate(
                groups, [r["reference"] for r in runs], None).mitigated
    shared_wall_time = time.perf_counter() - started

    cells = []
    for method in config.methods:
        started = time.perf_counter()
        try:
            if method != "none" and shared_failure is not None:
                raise shared_failure
            value, cnots, rzz = _run_method(
                method, circuit, hamiltonian, groups, runs, noise, cmap, shots,
                seeds[method])
            cells.append(CellResult(
                method=method, preset=config.noise, expectation=value,
                abs_error=abs(value - ideal), cnots=cnots, rzz=rzz,
                wall_time=time.perf_counter() - started))
        except Exception as exc:  # per-cell failure; matrix completes
            cells.append(CellResult(
                method=method, preset=config.noise, expectation=None,
                abs_error=None, cnots=(), rzz=(),
                wall_time=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}"))
    return ExperimentResult(config=config, ideal=ideal,
                            reference_noiseless_diag=reference,
                            parameters=tuple(float(v) for v in theta),
                            cells=tuple(cells), parity_groups=groups,
                            shared_wall_time=shared_wall_time)


def _distillation_runs(circuit, groups, methods, seeds, noise, cmap, shots) -> list[dict]:
    """Every execution of every group's distillation circuit, in one batch;
    per group, keyed by use: ``"reference"``, ``"vd"``, ``"vd+cut"`` or a
    ZNE scale."""
    jobs = {}
    for gi, group in enumerate(groups):
        vd = build_vd_circuit(circuit, group.gates())

        def sampled(method, *key, scale=1):
            return Execution(vd, scale=scale, shots=shots,
                             seed=_derive_seed(seeds[method], gi, *key))

        jobs[gi, "reference"] = Execution(vd, ideal_diag=True)
        if "vd" in methods:
            jobs[gi, "vd"] = sampled("vd")
        if "vd+zne" in methods:
            for si, scale in enumerate(ZNE_SCALES):
                jobs[gi, scale] = sampled("vd+zne", si, scale=scale)
        if "vd+cut" in methods:
            jobs[gi, "vd+cut"] = sampled("vd+cut")
    records = run_circuits(list(jobs.values()), noise=noise, cmap=cmap)
    runs: list[dict] = [{} for _ in groups]
    for (gi, use), rec in zip(jobs, records):
        runs[gi][use] = rec
    return runs


def _parity_estimate(groups, records, shots) -> ParityEstimate:
    return ParityEstimate(tuple(
        estimate_from_distribution(rec.output, g.observable, shots=shots)
        for g, rec in zip(groups, records)))


def _run_method(method, circuit, hamiltonian, groups, runs, noise, cmap, shots, seed):
    """Value and per-execution gate counts of one cell."""
    if method == "none":
        bare = Circuit(circuit.width,
                       circuit.ops + tuple(measure(q) for q in range(circuit.width)))
        rec = run_circuit(bare, noise=noise, cmap=cmap, shots=shots, seed=seed)
        return expectation(rec.output, hamiltonian), (rec.cnots,), (rec.rzz_gates,)

    if method == "vd":
        records = [r["vd"] for r in runs]
        value = _parity_estimate(groups, records, shots).mitigated
        return (value, tuple(rec.cnots for rec in records),
                tuple(rec.rzz_gates for rec in records))

    if method == "vd+zne":
        scaled = []
        for scale in ZNE_SCALES:
            est = _parity_estimate(groups, [r[scale] for r in runs], shots)
            scaled.append(ScaledRun(scale, est.mitigated, est.mitigated_se))
        records = [r[scale] for r in runs for scale in ZNE_SCALES]
        return (extrapolate_linear(scaled), tuple(rec.cnots for rec in records),
                tuple(rec.rzz_gates for rec in records))

    if method == "vd+cut":
        pipelines: list[PairwisePipeline] = []
        est = mitigated_expectation_cut(
            circuit, hamiltonian, noise, shots, cmap=cmap, seed=seed,
            unmitigated=[r["vd+cut"].output for r in runs], pipelines=pipelines)
        return (est.mitigated, tuple(p.fragment_stats["cnots"] for p in pipelines),
                tuple(p.fragment_stats["rzz"] for p in pipelines))

    raise ConfigError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# persistence


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit(result: ExperimentResult, out: str | None = None) -> tuple[str, str]:
    """Write ``<out>.csv`` (fixed table mirroring the method rows) and
    ``<out>.json`` (full provenance).  Returns the two paths."""
    if not result.cells:
        raise ConfigError("nothing to emit: no method cells")
    base = Path(out if out is not None else result.config.out)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    lines = [CSV_HEADER]
    for cell in result.cells:
        lines.append(",".join([
            cell.method,
            ";".join(str(c) for c in cell.cnots),
            ";".join(str(r) for r in cell.rzz),
            _fmt(cell.expectation),
            _fmt(cell.abs_error),
        ]))
    csv_path.write_text("\n".join(lines) + "\n")

    noise = preset(result.config.noise)
    doc = {
        "config": {
            "problem": {"n": result.config.problem.n,
                        "edges": [list(e) for e in result.config.problem.edges]},
            "reps": result.config.reps,
            "entanglement": result.config.entanglement,
            "noise": result.config.noise,
            "methods": list(result.config.methods),
            "shots": result.config.shots,
            "seed": result.config.seed,
            "coupling_map": result.config.coupling_map,
        },
        "parameters": list(result.parameters),
        "ideal": result.ideal,
        "reference_noiseless_diag": result.reference_noiseless_diag,
        "parity_groups": [
            {"cnots": [list(c) for c in g.cnots],
             "shots": None if noise is NOISELESS else result.config.shots}
            for g in result.parity_groups
        ],
        "shared_wall_time": result.shared_wall_time,
        "noise_parameters": _noise_doc(noise),
        "cells": [
            {
                "method": c.method,
                "preset": c.preset,
                "expectation": c.expectation,
                "abs_error": c.abs_error,
                "cnots": list(c.cnots),
                "rzz": list(c.rzz),
                "wall_time": c.wall_time,
                "error": c.error,
            }
            for c in result.cells
        ],
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(csv_path), str(json_path)


def _noise_doc(noise: NoiseModel | None) -> dict | None:
    if noise is None:
        return None
    return {
        "two_qubit_depol": noise.two_qubit_depol,
        "one_qubit_depol": noise.one_qubit_depol,
        "two_qubit_time": noise.two_qubit_time,
        "one_qubit_time": noise.one_qubit_time,
        "t1": noise.t1,
        "t2": noise.t2,
        "readout": noise.readout.tolist(),
        "gate_crosstalk": noise.gate_crosstalk,
        "crosstalk_angle": noise.crosstalk_angle,
        "readout_crosstalk": noise.readout_crosstalk,
        "readout_pair": noise.readout_pair.tolist(),
    }
