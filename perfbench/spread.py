"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload solve_so3 --seeds 0 1 2 3 4 5 6 7 8 9

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  This
reports the median and spread of every metric beside its bound in
BENCHMARK.json and passes no verdict on them; the exit code is 1 only if a run
failed or was not correct.  Runs are sequential; the summary goes to stdout
and to ``.perfbench/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of at least two numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, share = spread(values)
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share, "bound": bound}
        print(f"{name:>40} median={median:.6g} q1={q1:.6g} q3={q3:.6g} iqr/median={share:.4f} bound={bound}")
    out = os.path.join(ROOT, ".perfbench", f"spread-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "runs": runs, "summary": summary}, handle, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
