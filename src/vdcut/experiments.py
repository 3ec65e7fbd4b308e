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
import math
import numbers
import os
import platform
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .benchmarks import (
    AnsatzSpec,
    MaxCutProblem,
    maxcut_hamiltonian,
    optimize_parameters,
    parameter_count,
    real_amplitudes,
    ring_problem,
)
from .circuit import Circuit, from_text
from .cutting import READ_BASES, cut_executions, cut_estimate
from .noise import NOISELESS, NoiseModel, preset
from .runner import BatchStats, Execution, ExecutionRecord, run_circuits
from .simulate import expectation, evolve
from .transpile import coupling_map_for
from .vd import (
    ParityEstimate,
    ParityGroup,
    build_vd_circuit,
    estimate_from_distribution,
    parity_groups,
)
from .zne import extrapolate_linear

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
        for name in ("reps", "shots", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not isinstance(self.coupling_map, str):
            raise ConfigError("coupling_map must be a string")
        if self.circuit_file is not None and not isinstance(self.circuit_file, str):
            raise ConfigError("circuit_file must be a string")
        if not isinstance(self.out, str):
            raise ConfigError("out must be a string")
        try:
            preset(self.noise)
            coupling_map_for(self.coupling_map, 2 * self.problem.n)
            real_amplitudes(self.problem.n, self.reps, self.entanglement)
            maxcut_hamiltonian(self.problem)
            if not isinstance(self.parameters, str):
                object.__setattr__(self, "parameters",
                                   tuple(float(v) for v in self.parameters))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.parameters, str) and not all(map(math.isfinite, self.parameters)):
            raise ConfigError(f"parameters must be finite, got {self.parameters}")
        count = parameter_count(self.problem.n, self.reps)
        if (self.circuit_file is None and not isinstance(self.parameters, str)
                and len(self.parameters) != count):
            raise ConfigError(f"expected {count} parameters, got {len(self.parameters)}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        data = dict(data)
        spec = data.pop("problem", {"ring": 4})
        try:
            if "ring" in spec:
                problem = ring_problem(int(spec["ring"]))
            elif "edges" in spec:
                problem = MaxCutProblem(int(spec["n"]),
                                        tuple((a, b) for a, b in spec["edges"]))
            else:
                raise ConfigError("it needs a 'ring' size or an 'n'/'edges' pair")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad problem spec {spec!r}: {exc}") from exc
        known = {
            "reps", "entanglement", "parameters", "noise", "methods", "shots",
            "seed", "coupling_map", "circuit_file", "out",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "methods" in data:
            if not isinstance(data["methods"], (list, tuple)):
                raise ConfigError("methods must be a list of method names")
            data["methods"] = tuple(data["methods"])
        return ExperimentConfig(problem=problem, **data)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (method, preset) cell.  ``cnots``, ``rzz`` and
    ``swaps`` (the SWAPs routing inserted) hold one count per execution;
    distillation methods list them group by group (per group: one run for
    vd, the ZNE scales, or one fragment per pair).
    ``estimates`` holds a distillation cell's parity estimate per ZNE scale
    (scale 1 only, outside vd+zne), kept when its mitigation fails too."""

    method: str
    preset: str
    expectation: float | None
    abs_error: float | None
    cnots: tuple[int, ...]
    rzz: tuple[int, ...]
    swaps: tuple[int, ...]
    wall_time: float
    error: str | None = None
    estimates: tuple[tuple[int, ParityEstimate], ...] = ()


@dataclass(frozen=True)
class ExperimentResult:
    """Cells of one preset.  ``shared_wall_time`` covers the batched
    executions of both registers (see :func:`run_experiment`); each cell's
    ``wall_time`` covers only its own post-processing.  ``registers`` holds
    what each batch that ran evolved."""

    config: ExperimentConfig
    ideal: float
    reference_noiseless_diag: float | None
    parameters: tuple[float, ...]
    cells: tuple[CellResult, ...]
    parity_groups: tuple[ParityGroup, ...] = ()
    shared_wall_time: float = 0.0
    registers: tuple[BatchStats, ...] = ()


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence((base,) + key).generate_state(1)[0])


def _resolve_parameters(config: ExperimentConfig, ansatz: AnsatzSpec) -> np.ndarray:
    if isinstance(config.parameters, tuple):
        return np.array(config.parameters, dtype=float)
    if config.parameters == "optimize":
        return optimize_parameters(config.problem, ansatz,
                                   seed=_derive_seed(config.seed, 0xA11))
    try:
        with open(config.parameters) as f:
            theta = np.array(json.load(f)["parameters"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters file {config.parameters}: {exc!r}") from exc
    if theta.shape != (ansatz.parameter_count,):
        raise ConfigError(f"parameters file {config.parameters}: expected "
                          f"{ansatz.parameter_count} parameters, got shape {theta.shape}")
    if not all(map(math.isfinite, theta)):
        raise ConfigError(f"parameters file {config.parameters}: parameters must be finite")
    return theta


def _prepare_circuit(config: ExperimentConfig,
                     ansatz: AnsatzSpec) -> tuple[Circuit, np.ndarray]:
    """The circuit to mitigate and the ansatz angles that built it; a
    circuit file has none, so its parameters are never resolved."""
    if config.circuit_file is None:
        theta = _resolve_parameters(config, ansatz)
        return ansatz.circuit(theta), theta
    try:
        circuit = from_text(Path(config.circuit_file).read_text())
    except ValueError as exc:  # CircuitError included
        raise ConfigError(f"bad circuit file {config.circuit_file}: {exc}") from exc
    if circuit.width != config.problem.n:
        raise ConfigError("circuit file width does not match the problem size")
    return circuit, np.empty(0)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the experiment matrix for one noise preset.

    The distillation methods measure every Hamiltonian term through the
    parity rotation groups of :func:`parity_groups` and sum the groups'
    mitigated values.  Every execution is planned up front, and each register
    runs as one batch, so each compiled prefix its executions share is
    evolved once (see :func:`_plan` and :func:`~vdcut.runner.run_circuits`).
    Each execution keeps its own sampling seed.  A failed batch is recorded
    in the ``error`` field of every cell that reads one of its records,
    without aborting the remaining methods.
    """
    ansatz = AnsatzSpec(config.problem.n, config.reps, config.entanglement)
    circuit, theta = _prepare_circuit(config, ansatz)
    hamiltonian = maxcut_hamiltonian(config.problem)
    noise = preset(config.noise)
    shots = None if noise is NOISELESS else config.shots
    cmap = coupling_map_for(config.coupling_map, 2 * circuit.width)
    seeds = {method: _derive_seed(config.seed, mi + 1)
             for mi, method in enumerate(config.methods)}

    ideal = expectation(evolve(circuit), hamiltonian)
    distilling = any(m != "none" for m in config.methods)
    groups = parity_groups(hamiltonian) if distilling else ()
    records: dict[tuple, ExecutionRecord | Exception] = {}
    registers = []
    started = time.perf_counter()
    for jobs in _plan(circuit, groups, config.methods, seeds, shots):
        try:
            batch = run_circuits(list(jobs.values()), noise=noise, cmap=cmap)
        except Exception as exc:  # recorded in every cell that reads the register
            records.update(dict.fromkeys(jobs, exc))
            continue
        records.update(zip(jobs, batch.records))
        registers.append(batch.stats)
    shared_wall_time = time.perf_counter() - started
    reference = None
    if distilling and not isinstance(records["reference", 0], Exception):
        reference = _parity_estimate(groups, _take(records, "reference"), None).mitigated

    cells = []
    for method in config.methods:
        started = time.perf_counter()
        value, counted, scaled, error = None, [], {}, None
        try:
            if method == "none":
                (rec,) = _take(records, "none")
                value, counted = expectation(rec.output, hamiltonian), [rec]
            else:
                scaled, found = _distill(method, groups, records, shots)
                value, counted = _mitigate(scaled), found
        except Exception as exc:  # per-cell failure; matrix completes
            error = f"{type(exc).__name__}: {exc}"
        cells.append(CellResult(
            method=method, preset=config.noise, expectation=value,
            abs_error=None if error else abs(value - ideal),
            cnots=tuple(rec.cnots for rec in counted),
            rzz=tuple(rec.rzz_gates for rec in counted),
            swaps=tuple(rec.swaps for rec in counted),
            wall_time=time.perf_counter() - started, error=error,
            estimates=tuple(scaled.items())))
    return ExperimentResult(config=config, ideal=ideal,
                            reference_noiseless_diag=reference,
                            parameters=tuple(float(v) for v in theta),
                            cells=tuple(cells), parity_groups=groups,
                            shared_wall_time=shared_wall_time,
                            registers=tuple(registers))


def _plan(circuit, groups, methods, seeds, shots) -> list[dict]:
    """Every execution of the experiment keyed by (use, *index), one dict per
    register that runs.  The copies register holds, per group, the
    noiseless-diag reference, the scale-1 runs of vd and of the cut's
    unmitigated joint distribution, and the ZNE scales.  The single-copy
    register holds the bare circuit and the cut's fragments."""
    copies: dict[tuple, Execution] = {}
    for gi, group in enumerate(groups):
        vd = build_vd_circuit(circuit, group.gates())

        def sampled(method, *key, scale=1):
            return Execution(vd, scale=scale, shots=shots,
                             seed=_derive_seed(seeds[method], gi, *key))

        copies["reference", gi] = Execution(vd, ideal_diag=True)
        if "vd" in methods:
            copies["vd", gi] = sampled("vd")
        if "vd+zne" in methods:
            for si, scale in enumerate(ZNE_SCALES):
                copies["vd+zne", gi, si] = sampled("vd+zne", si, scale=scale)
        if "vd+cut" in methods:
            copies["vd+cut", gi] = sampled("vd+cut")
    single: dict[tuple, Execution] = {}
    if "none" in methods:
        single[("none",)] = Execution(circuit, shots=shots, seed=seeds["none"])
    if "vd+cut" in methods:
        single.update((("cut", k), ex) for k, ex in
                      enumerate(cut_executions(circuit, groups, shots, seeds["vd+cut"])))
    return [jobs for jobs in (copies, single) if jobs]


def _take(records, use) -> list[ExecutionRecord]:
    """The records of one use in plan order; raises the exception that
    stopped their batch instead."""
    found = [rec for key, rec in records.items() if key[0] == use]
    for rec in found:
        if isinstance(rec, Exception):
            raise rec
    return found


def _parity_estimate(groups, records, shots) -> ParityEstimate:
    return ParityEstimate(tuple(
        estimate_from_distribution(rec.output, g.observable, shots=shots)
        for g, rec in zip(groups, records)))


def _distill(method, groups, records, shots) -> tuple[dict[int, ParityEstimate], list]:
    """A distillation cell's parity estimate per ZNE scale (scale 1 only,
    outside vd+zne), and the records whose gate counts it lists."""
    if method == "vd":
        counted = _take(records, "vd")
        return {1: _parity_estimate(groups, counted, shots)}, counted

    if method == "vd+zne":
        counted = _take(records, "vd+zne")
        return {scale: _parity_estimate(groups, counted[si::len(ZNE_SCALES)], shots)
                for si, scale in enumerate(ZNE_SCALES)}, counted

    if method == "vd+cut":
        joints = _take(records, "vd+cut")
        fragments = _take(records, "cut")
        est = cut_estimate(groups, [rec.output for rec in joints],
                           [rec.output for rec in fragments], shots)
        z = READ_BASES.index("Z")
        return {1: est}, fragments[z::len(READ_BASES)]  # each pair's Z-basis run

    raise ConfigError(f"unknown method {method!r}")


def _mitigate(scaled: dict[int, ParityEstimate]) -> float:
    """The cell's value: the one estimate, or its zero-noise extrapolation
    over the ZNE scales."""
    if len(scaled) == 1:
        (est,) = scaled.values()
        return est.mitigated
    return extrapolate_linear(list(scaled), [est.mitigated for est in scaled.values()])


def _diagnostics(cell: CellResult) -> list[dict]:
    """Per ZNE scale and parity group, the estimate that decides whether
    the distillation can be trusted; ``den_over_se`` below 10 raises
    ``EstimatorError`` (``None`` for exact estimates).  A cut cell adds the
    group's ``degenerate_mass`` injected by recombination and its
    ``clamped_min``, the most negative pairwise entry clipped (0 when none
    was)."""
    rows = []
    for scale, est in cell.estimates:
        for gi, p in enumerate(est.parts):
            rows.append({"scale": scale, "group": gi,
                         "numerator": p.numerator, "numerator_se": p.numerator_se,
                         "denominator": p.denominator, "denominator_se": p.denominator_se,
                         "den_over_se": (abs(p.denominator) / p.denominator_se
                                         if p.denominator_se else None)})
            if est.recombination:
                rows[-1]["degenerate_mass"], rows[-1]["clamped_min"] = est.recombination[gi]
    return rows


# ---------------------------------------------------------------------------
# persistence


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit(result: ExperimentResult, out: str | None = None) -> tuple[str, str]:
    """Write ``<out>.csv`` (fixed table mirroring the method rows) and
    ``<out>.json`` (full provenance, with the vdcut, Python, numpy and scipy
    versions and ``os.cpu_count()``).  Returns the two paths."""
    if not result.cells:
        raise ConfigError("nothing to emit: no method cells")
    base = out if out is not None else result.config.out
    csv_path, json_path = Path(f"{base}.csv"), Path(f"{base}.json")
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
        "versions": {"vdcut": __version__, "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "cpu_count": os.cpu_count(),
        "parity_groups": [
            {"cnots": [list(c) for c in g.cnots],
             "shots": None if noise is NOISELESS else result.config.shots}
            for g in result.parity_groups
        ],
        "shared_wall_time": result.shared_wall_time,
        "registers": [asdict(stats) for stats in result.registers],
        "noise_parameters": _noise_doc(noise),
        "cells": [
            {
                "method": c.method,
                "preset": c.preset,
                "expectation": c.expectation,
                "abs_error": c.abs_error,
                "cnots": list(c.cnots),
                "rzz": list(c.rzz),
                "swaps": list(c.swaps),
                "wall_time": c.wall_time,
                "error": c.error,
                "diagnostics": _diagnostics(c),
            }
            for c in result.cells
        ],
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(csv_path), str(json_path)


def _noise_doc(noise: NoiseModel | None) -> dict | None:
    """Every ``NoiseModel`` field in declaration order, arrays as lists."""
    if noise is None:
        return None
    doc = {f.name: getattr(noise, f.name) for f in fields(noise)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
