"""Paired benchmark runs of the working tree against a parent commit.

Run from the repository root:

    python3 tools/bench_pairs.py --parent 830600f --workload exponent-roots \
        --pairs 10 --seed 41 --seconds 50

The parent commit is unpacked with ``git archive`` into a temporary
directory, which is removed afterwards. Pair k runs ``bench/run.py --trace 0``
once on each side with the seed ``--seed + k``, under
``PYTHONDONTWRITEBYTECODE=1``; the parent runs first in the even-numbered
pairs and the working tree in the odd ones. The last line of
standard output is one JSON object holding, per workload and end-to-end
metric of BENCHMARK.json, every run of each side in pair order, each side's
median and quartiles, the pairs each side won (ties count for neither), and
the verdict of the paired rule: the change is ``better`` when it wins at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles, ``worse`` when the parent does, and
``level`` otherwise; and the no-regression rule: the metric's ``bound`` from
BENCHMARK.json and ``within_bound``, true when the change's median is worse
than the parent's by no more than that fraction of the parent's median.
Progress goes to standard error. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unpack(commit: str, into: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    # each side compiles its source as a fresh checkout does, and leaves no
    # __pycache__ for the next run to read
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _side(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> dict:
    """The paired rule and the no-regression rule on one metric, from the two
    sides' runs in pair order; ``bound`` is the fraction of the parent's
    median by which the change's median may be worse."""
    sign = 1.0 if lower_is_better else -1.0
    gains = [sign * (a - b) for a, b in zip(parent, change)]
    won = sum(g > 0 for g in gains)
    lost = sum(g < 0 for g in gains)
    sides = {"parent": _side(parent), "change": _side(change)}
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
    verdict = "level"
    if 10 * won >= 9 * len(gains) and gap > spread:
        verdict = "better"
    elif 10 * lost >= 9 * len(gains) and -gap > spread:
        verdict = "worse"
    ratio = sides["change"]["median"] / sides["parent"]["median"]
    within = ratio <= 1.0 + bound if lower_is_better else ratio >= 1.0 - bound
    return {**sides, "ratio": ratio, "bound": bound, "within_bound": within,
            "change_won": won, "parent_won": lost, "pairs": len(gains),
            "parent_quartile_distance": spread, "verdict": verdict,
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of bench/run.py; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent_root = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    result = {"parent": args.parent, "seconds": args.seconds, "workloads": {}}
    try:
        _unpack(args.parent, parent_root)
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    runs[side].append(_run(root, workload, seed, args.seconds))
                    print(f"{workload} pair {k} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
            metrics = {}
            for m in declared:
                values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                          for side in runs}
                metrics[m["name"]] = compare(values["parent"], values["change"],
                                             m["better"] == "lower", m["bound"])
            result["workloads"][workload] = {
                "seeds": list(range(args.seed, args.seed + args.pairs)),
                "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
                "metrics": metrics,
            }
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
