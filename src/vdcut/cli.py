"""Command-line interface.

Subcommands: ``run`` (experiment matrix from a JSON config), ``overhead-sweep``
(gate-count study), ``optimize`` (noiseless parameter search), ``cut-check``
(exact cutting-identity self-test).  Exit codes: 0 success, 1 configuration
error, 2 per-cell failures.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmarks import AnsatzSpec, MaxCutProblem, maxcut_hamiltonian, optimize_parameters, ring_problem
from .circuit import CircuitError
from .cutting import CutError, CutPoint, cut_wire, run_cut
from .experiments import ConfigError, ExperimentConfig, emit, run_experiment
from .noise import PRESETS
from .simulate import evolve, exact_probs, expectation, tv_distance
from .sweep import overhead_sweep, write_sweep_csv
from .transpile import coupling_map_for


def _parse_range(spec: str, minimum: int) -> list[int]:
    """``a..b`` (inclusive) or a comma list like ``2,4,8``, each value at
    least ``minimum``."""
    try:
        if ".." in spec:
            a, b = spec.split("..", 1)
            values = list(range(int(a), int(b) + 1))
        else:
            values = [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad range {spec!r}: {exc}") from exc
    if not values or min(values) < minimum:
        raise ConfigError(f"range {spec!r} must be non-empty with values >= {minimum}")
    return values


def _parse_graph(spec: str) -> MaxCutProblem:
    try:
        if spec.startswith("ring:"):
            return ring_problem(int(spec.split(":", 1)[1]))
        with open(spec) as f:
            data = json.load(f)
        return MaxCutProblem(int(data["n"]), tuple((a, b) for a, b in data["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad graph {spec!r}: {exc!r}") from exc


def _parse_ansatz(n: int, reps: int, entanglement: str) -> AnsatzSpec:
    ansatz = AnsatzSpec(n, reps=reps, entanglement=entanglement)
    try:
        ansatz.circuit(None)
    except CircuitError as exc:
        raise ConfigError(str(exc)) from exc
    return ansatz


def _cmd_run(args) -> int:
    data = {}
    if args.config:
        with open(args.config) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad JSON in {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
    for key, value in (("noise", args.noise), ("shots", args.shots),
                       ("seed", args.seed), ("out", args.out)):
        if value is not None:
            data[key] = value
    if args.methods is not None:
        data["methods"] = args.methods.split(",")
    config = ExperimentConfig.from_dict(data)
    result = run_experiment(config)
    csv_path, json_path = emit(result, args.out)
    failed = [c for c in result.cells if c.error is not None]
    for cell in result.cells:
        status = f"ERROR {cell.error}" if cell.error else (
            f"<H> = {cell.expectation:.6f}  |err| = {cell.abs_error:.6f}")
        print(f"{cell.method:8s} [{cell.preset}] {status}")
    print(f"ideal = {result.ideal:.6f}  -> {csv_path}, {json_path}")
    return 2 if failed else 0


def _cmd_sweep(args) -> int:
    qubits = _parse_range(args.qubits, 1)
    layers = _parse_range(args.layers, 0)
    try:
        coupling_map_for(args.map, 2 * max(qubits))
    except ValueError as exc:
        raise ConfigError(f"bad map {args.map!r}: {exc}") from exc
    rows = overhead_sweep(qubits, layers, args.map)
    write_sweep_csv(rows, args.out)
    print(f"{len(rows)} sweep points -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    problem = _parse_graph(args.graph)
    ansatz = _parse_ansatz(problem.n, args.reps, args.entanglement)
    theta = optimize_parameters(problem, ansatz, seed=args.seed)
    value = expectation(evolve(ansatz.circuit(theta)),
                        maxcut_hamiltonian(problem))
    with open(args.out, "w") as f:
        json.dump({"parameters": theta.tolist(), "cut_value": value}, f, indent=2)
    print(f"optimized <H> = {value:.6f} -> {args.out}")
    return 0


def _cmd_cut_check(args) -> int:
    """Exact cutting-identity self-test over random circuits."""
    from .circuit import Circuit, cnot, h, ry, rz, x

    if args.circuits < 1 or args.seed < 0:
        raise ConfigError("cut-check needs --circuits >= 1 and --seed >= 0")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    done = 0
    attempts = 0
    while done < args.circuits and attempts < 50 * args.circuits:
        attempts += 1
        n = int(rng.integers(2, 5))
        ops = []
        for _ in range(int(rng.integers(3, 12))):
            if n >= 2 and rng.random() < 0.45:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(cnot(int(a), int(b)))
            else:
                q = int(rng.integers(n))
                theta = float(rng.uniform(-np.pi, np.pi))
                ops.append([ry(theta, q), rz(theta, q), h(q), x(q)][rng.integers(4)])
        circuit = Circuit(n, tuple(ops))
        valid = []
        for q in range(n):
            for p in range(len(ops)):
                try:
                    cut_wire(circuit, CutPoint(q, p))
                    valid.append(CutPoint(q, p))
                except CutError:
                    continue
        if not valid:
            continue
        cut = valid[rng.integers(len(valid))]
        stitched = run_cut(circuit, cut)
        reference = exact_probs(evolve(circuit))
        worst = max(worst, tv_distance(stitched, reference))
        done += 1
    print(f"cut identity over {done} circuits: worst TV distance {worst:.3e}")
    if worst > 1e-10:
        print("FAIL: exceeds 1e-10")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vdcut")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment matrix")
    p_run.add_argument("--config", help="JSON experiment config")
    p_run.add_argument("--noise", choices=PRESETS)
    p_run.add_argument("--methods", help="comma list from none,vd,vd+zne,vd+cut")
    p_run.add_argument("--shots", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="experiment")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("overhead-sweep", help="CNOT overhead study")
    p_sweep.add_argument("--map", required=True,
                         help="full | linear | heavyhex:d")
    p_sweep.add_argument("--qubits", required=True, help="a..b or comma list")
    p_sweep.add_argument("--layers", required=True, help="a..b or comma list")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="noiseless parameter search")
    p_opt.add_argument("--graph", required=True, help="ring:n or a JSON edge list")
    p_opt.add_argument("--reps", type=int, default=2)
    p_opt.add_argument("--entanglement", default="circular")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", required=True)
    p_opt.set_defaults(func=_cmd_optimize)

    p_check = sub.add_parser("cut-check", help="exact cutting-identity self-test")
    p_check.add_argument("--circuits", type=int, default=25)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_cut_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
