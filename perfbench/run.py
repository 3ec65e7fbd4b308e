"""Run one workload of the vdcut benchmark and print its metrics.

    python3 perfbench/run.py --workload table1-ring4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``vdcut`` is imported from its
``src/`` directory, never from an installed copy.

Every pass runs in a fresh interpreter that imports ``vdcut``, generates the
inputs and warms up (the timed set-up), then runs and times one pass.  A
cache the program keeps in its process therefore cannot carry over from one
pass to the next.  Passes run until the next one would end after
``--seconds`` (at least one), and extra set-up-only interpreters bring the
set-up samples to ``SETUP_SAMPLES``.  End-to-end metrics are medians over
them.  ``--trace 1`` adds one pass with every public ``vdcut`` function
wrapped in a span and reports the per-layer metrics instead.

Every pass's outputs are checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed check exits with status 1.  Files are written only under
``.bench_out/`` in the checkout.
"""
from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def pin_blas_threads() -> int:
    """Pin BLAS to at most the usable cores (and at most 2) before numpy loads."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_vdcut():
    if not (SRC / "vdcut" / "__init__.py").is_file():
        raise SystemExit(f"no vdcut sources under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import vdcut
    if Path(vdcut.__file__).resolve().parent != SRC / "vdcut":
        raise SystemExit(f"imported vdcut from {vdcut.__file__}, not from {SRC}")
    return vdcut


def environment(threads: int) -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if find_spec("numba") else "absent (numpy kernel only)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# one interpreter: set-up, then at most one pass


def child(args) -> dict:
    threads = pin_blas_threads()
    import_vdcut()
    from metrics import self_time_breakdown, span_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, out_dir)
    record = {"setup_s": perf_counter() - STARTED}
    if args.child == "setup":
        return record

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        t = perf_counter()
        output = workload.run_pass(inputs)
        wall = perf_counter() - t
    finally:
        if tracer:
            tracer.remove()
    record.update(wall_s=wall, output=asdict(output), environment=environment(threads),
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        record["span_metrics"] = span_metrics(tracer.spans, wall)
        record["breakdown"] = self_time_breakdown(tracer.spans, wall)
        (OUT / f"{workload.name}-seed{args.seed}-spans.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.pass_id] for s in tracer.spans]) + "\n")
    return record


def run_child(args, mode: str, trace: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--child", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} interpreter exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the run


def output_problems(outputs, labels) -> list[str]:
    problems = [f"{label}: {p}" for o, label in zip(outputs, labels) for p in o.problems]
    first = outputs[0].digest
    problems += [f"{label}: outputs differ from pass 0 (sha256 {o.digest} != {first})"
                 for o, label in zip(outputs, labels) if o.digest != first]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"),
                        help="internal: run one set-up (and pass) in this interpreter")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    from metrics import END_TO_END, PER_LAYER, output_metrics
    from workloads import WORKLOADS, PassOutput

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "vdcut" / "__init__.py").is_file():
        raise SystemExit(f"no vdcut sources under {SRC}: run from a source checkout")

    passes = []
    started = perf_counter()
    while True:
        passes.append(run_child(args, "pass"))
        walls = [p["wall_s"] for p in passes]
        if perf_counter() - started + statistics.median(walls) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    if not args.trace:
        setups += [run_child(args, "setup")["setup_s"]
                   for _ in range(SETUP_SAMPLES - len(setups))]
    outputs = [PassOutput(**p["output"]) for p in passes]
    labels = [f"pass {i}" for i in range(len(outputs))]
    wall_s = statistics.median(walls)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": passes[0]["environment"],
        "setup_samples_s": setups, "pass_wall_s": walls,
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
        "outputs_sha256": outputs[0].digest,
    }
    if args.trace:
        traced = run_child(args, "pass", trace=1)
        outputs.append(PassOutput(**traced["output"]))
        labels.append("traced pass")
        metrics = {**traced["span_metrics"], **output_metrics(outputs[:-1]),
                   "trace.overhead_s": traced["wall_s"] - wall_s}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        record["traced_wall_s"] = traced["wall_s"]
        record["breakdown"] = traced["breakdown"]
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setups),
                   "peak_rss_mib": statistics.median(record["peak_rss_mib"])}
        units = END_TO_END

    problems = output_problems(outputs, labels)
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outputs),
        "failed": sum(o.failed for o in outputs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["problems"] = problems
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"passes: {len(walls)}, wall_s median {wall_s:.3f} of "
          f"{', '.join(f'{w:.3f}' for w in walls)}")
    print(f"outputs sha256: {outputs[0].digest}")
    if args.trace:
        print(f"traced pass {record['traced_wall_s']:.3f} s; self-time share of it:")
        for name, calls, self_s, share in record["breakdown"]:
            print(f"  {share:7.2%} {self_s:9.4f} s {calls:7d}  {name}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
