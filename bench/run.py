"""Benchmark of lntlab: one workload per run, checked against independent oracles.

Run from the repository root:

    python3 bench/run.py --workload exponent-roots --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones (set-up, wall and CPU time per round, median
time per operation, peak memory); with ``--trace 1`` the layer functions are
wrapped and the metrics are the per-layer ones derived from the spans, which
are also written to ``.bench_out/traces/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exponent-roots", "cli-examples")
SETUP_REPEATS = 3


def _fresh_import_seconds(module: str, env: dict) -> float:
    """Median time of ``import <module>`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _build(name: str, seed: int, work: Path, env: dict, traced: bool):
    import workloads as wl  # imports lntlab, so only after src/ is on the path

    draw = wl.Draw(seed)
    if name == "cli-examples":
        # untraced calls run in fresh interpreters as a user's would; the
        # traced run calls lntlab.cli.main in this process so its spans are seen
        return wl.cli_examples(draw, work, env, in_process=traced)
    return wl.exponent_roots(draw)


def run(args, work: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(work)}
    setup_s = None if args.trace else _fresh_import_seconds("lntlab", env)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.instrument(tracer)
    workload = _build(args.workload, args.seed, work, env, bool(args.trace))
    print(f"inputs: {json.dumps(workload.inputs)}", file=sys.stderr)

    rounds, walls, cpus, layers = [], [], [], []
    op_times = [[] for _ in workload.ops]  # per operation, one time per round
    failed = 0
    # whole rounds only; another round starts while it would end, by the mean
    # round so far, less than half a round past --seconds
    while not rounds or sum(walls) + 0.5 * statistics.fmean(walls) < args.seconds:
        first_span = len(tracer.spans) if tracer else 0
        results = []
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for op, times in zip(workload.ops, op_times):
            t_op = time.perf_counter()
            try:
                results.append(op.run())
                times.append(time.perf_counter() - t_op)
            except Exception as exc:  # recorded as a failed operation and judged by the check
                results.append(exc)
                times.append(math.inf)
                failed += 1
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - cpu0)
        rounds.append(results)
        if tracer:
            layers.append(tracing.layer_metrics(tracer.spans, first_span, walls[-1]))
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_mib = resource.getrusage(usage).ru_maxrss / 1024.0
    print(f"round wall times: {' '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)

    t_check = time.perf_counter()
    problems = workload.check(rounds)
    print(f"checks took {time.perf_counter() - t_check:.1f} s", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        measured = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        measured["cli.import_s"] = _fresh_import_seconds("lntlab.cli", env)
        metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tracer.run_id}.json")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            # per round, over the whole run: a median of three or four rounds
            # follows the host's slow phases more than their mean does
            "wall_s": (statistics.fmean(walls), "s"),
            "cpu_s": (statistics.fmean(cpus), "s"),
            # the operations differ in size, so each one's median over the
            # rounds is taken first, and then the median over the operations
            "op_p50_s": (statistics.median(statistics.median(t) for t in op_times), "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
    return {
        "correct": not problems,
        "attempted": len(workload.ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "lntlab" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lntlab

    if Path(lntlab.__file__).resolve() != package:
        print(f"error: imported lntlab from {lntlab.__file__}, not {package}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
