"""The benchmark's workloads, run through the public ``vdcut`` API.

Each workload has a set-up (input generation from the seed, then a small
warm-up through the same code paths) and a pass (one timed run of the
workload).  A pass returns a :class:`PassOutput`; ``problems`` lists every
failed output check, and a run with any problem fails.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

#: maximum cut of the 4- and 5-vertex rings
RING_OPTIMUM = 4.0
IDEAL_TOL = 1e-6

TABLE1_PRESETS = ("basic", "basic+gct", "basic+gct+rct")
SWEEP_QUBITS = tuple(range(4, 17))
SWEEP_LAYERS = (2, 4, 8, 16)
SWEEP_MAPS = ("full", "heavyhex:5")


@dataclass
class PassOutput:
    digest: str                       # SHA-256 of the pass's emitted outputs
    attempted: int                    # experiment cells or sweep points
    failed: int
    cnots_total: int
    errors: dict[str, float] = field(default_factory=dict)   # method -> mean |<H> - ideal|
    cell_s: dict[str, float] = field(default_factory=dict)   # method -> summed CellResult.wall_time
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], object]          # (seed, out_dir) -> inputs
    run_pass: Callable[[object], PassOutput]


# ---------------------------------------------------------------------------
# experiment workloads


def _warm_up_experiment(out_dir: Path) -> None:
    """Run every method once on a 2-qubit problem, so lazy imports and
    first-call costs land in set-up."""
    from vdcut import ExperimentConfig, emit, ring_problem, run_experiment

    cfg = ExperimentConfig(problem=ring_problem(2), reps=1, parameters=(0.3, 1.1, 0.7, 0.2),
                           noise="basic+gct+rct", shots=1000, coupling_map="full")
    emit(run_experiment(cfg), str(out_dir / "warm-up"))


def _experiment_pass(inputs) -> PassOutput:
    from vdcut import emit, run_experiment

    configs, out_dir = inputs
    sha = hashlib.sha256()
    out = PassOutput(digest="", attempted=0, failed=0, cnots_total=0)
    by_method: dict[str, list] = {}
    for cfg in configs:
        result = run_experiment(cfg)
        if abs(result.ideal - RING_OPTIMUM) > IDEAL_TOL:
            out.problems.append(
                f"{cfg.noise}: ideal {result.ideal!r} is not the ring optimum {RING_OPTIMUM}")
        csv_path, _ = emit(result, str(out_dir / cfg.noise))
        sha.update(cfg.noise.encode() + b"\n" + Path(csv_path).read_bytes())
        for cell in result.cells:
            by_method.setdefault(cell.method, []).append(cell)
    out.digest = sha.hexdigest()
    for method, cells in by_method.items():
        key = method.replace("+", "_")
        ok = [c for c in cells if c.error is None]
        out.attempted += len(cells)
        out.failed += len(cells) - len(ok)
        out.cnots_total += sum(sum(c.cnots) for c in ok)
        out.cell_s[key] = sum(c.wall_time for c in cells)
        if ok:
            out.errors[key] = sum(c.abs_error for c in ok) / len(ok)
    return out


def _table1_setup(seed: int, out_dir: Path):
    """One table-1 preset per pass, chosen by the seed, so that a run holds
    several passes; ten consecutive seeds cover all three presets.  A pass of
    all three presets (25-50 s on a 2-core host) allows one pass per run, and
    single passes spread too much from run to run."""
    from vdcut import ExperimentConfig, ring_problem

    configs = [ExperimentConfig(problem=ring_problem(4), reps=2, entanglement="circular",
                                parameters="optimize",
                                noise=TABLE1_PRESETS[seed % len(TABLE1_PRESETS)],
                                shots=10_000, seed=seed, coupling_map="heavyhex:3")]
    _warm_up_experiment(out_dir)
    return configs, out_dir


def load_ring5_parameters() -> tuple[float, ...]:
    """The stored ``dense-ring5`` parameters, checked to reach the noiseless
    ring optimum."""
    from vdcut import AnsatzSpec, evolve, expectation, maxcut_hamiltonian, ring_problem

    doc = json.loads((HERE / "ring5_params.json").read_text())
    theta = tuple(doc["parameters"])
    ansatz = AnsatzSpec(5, reps=doc["reps"], entanglement=doc["entanglement"])
    cut = expectation(evolve(ansatz.circuit(theta)), maxcut_hamiltonian(ring_problem(5)))
    if abs(cut - RING_OPTIMUM) > IDEAL_TOL:
        raise ValueError(f"stored ring-5 parameters give cut value {cut!r}, "
                         f"not {RING_OPTIMUM}; regenerate with make_ring5_params.py")
    return theta


def _dense_setup(seed: int, out_dir: Path):
    from vdcut import ExperimentConfig, ring_problem

    configs = [ExperimentConfig(problem=ring_problem(5), reps=2, entanglement="circular",
                                parameters=load_ring5_parameters(), noise="basic+gct+rct",
                                shots=10 ** 6, seed=seed, coupling_map="linear")]
    _warm_up_experiment(out_dir)
    return configs, out_dir


# ---------------------------------------------------------------------------
# overhead sweep


def _sweep_setup(seed: int, out_dir: Path):
    """The sweep's grid is fixed: transpilation draws no randomness, so the
    seed changes nothing here."""
    from vdcut import overhead_sweep

    overhead_sweep(SWEEP_QUBITS[:1], SWEEP_LAYERS[:1], SWEEP_MAPS[0])
    return None


def _sweep_pass(_inputs) -> PassOutput:
    from vdcut import overhead_sweep

    rows = [row for spec in SWEEP_MAPS
            for row in overhead_sweep(SWEEP_QUBITS, SWEEP_LAYERS, spec)]
    text = "\n".join(f"{r.n},{r.layers},{r.map_spec},{r.cnot_original},{r.cnot_vd}"
                     for r in rows)
    out = PassOutput(digest=hashlib.sha256(text.encode()).hexdigest(),
                     attempted=len(rows), failed=0,
                     cnots_total=sum(r.cnot_original + r.cnot_vd for r in rows))
    expected = len(SWEEP_MAPS) * len(SWEEP_QUBITS) * len(SWEEP_LAYERS)
    if len(rows) != expected:
        out.problems.append(f"sweep returned {len(rows)} rows, expected {expected}")
    for r in rows:
        if not r.cnot_vd > r.cnot_original:
            out.problems.append(f"point {r.n}x{r.layers} on {r.map_spec}: cnot_vd "
                                f"{r.cnot_vd} <= cnot_original {r.cnot_original}")
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("table1-ring4", _table1_setup, _experiment_pass),
        Workload("dense-ring5", _dense_setup, _experiment_pass),
        Workload("overhead-sweep", _sweep_setup, _sweep_pass),
    )
}
