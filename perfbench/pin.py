"""Compute, write or confirm the pinned output digests of the benchmark.

    python3 perfbench/pin.py                      # print the digests this checkout gives
    python3 perfbench/pin.py --write              # write them to perfbench/pins.json
    python3 perfbench/pin.py --hash-seeds 0 1     # recompute under each PYTHONHASHSEED
                                                  # in a child process; compare with pins.json

``base`` holds, per workload, the digest of each pool entry's output on the
unscaled base input; every seed's outputs are checked against these after
mapping back.  ``raw`` holds the output digests themselves for the default
seed 0 and the held-out seed 7.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

PINNED_SEEDS = (0, 7)


def _digests(cli, cases):
    out = []
    for case in cases:
        ok = run.run_op(cli.main, case, lambda _case, _data: True)[0]
        if not ok:
            raise RuntimeError(f"operation failed: {' '.join(case.argv)}")
        with open(case.out_path, "rb") as handle:
            out.append(workloads.digest(handle.read()))
    return out


def compute() -> dict:
    sys.path.insert(0, run.SRC)
    cli = run.import_library()["gfoperad.cli"]
    workdir = os.path.join(run.OUT_DIR, "work", f"pin-{os.getpid()}")
    pins = {"base": {}, "raw": {str(s): {} for s in PINNED_SEEDS}}
    try:
        for name in workloads.WORKLOADS:
            pins["base"][name] = _digests(cli, workloads.build(name, 0, workdir, identity=True))
            for seed in PINNED_SEEDS:
                pins["raw"][str(seed)][name] = _digests(cli, workloads.build(name, seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--hash-seeds", nargs="+", default=None)
    args = parser.parse_args(argv)
    if args.hash_seeds is None:
        pins = compute()
        text = json.dumps(pins, indent=2) + "\n"
        if args.write:
            with open(run.PINS, "w", encoding="utf-8") as handle:
                handle.write(text)
        print(text, end="")
        return 0
    expected = workloads.load_pins(run.PINS)
    mismatches = 0
    for hash_seed in args.hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, timeout=900, check=True,
        )
        same = json.loads(child.stdout) == expected
        mismatches += 0 if same else 1
        print(f"PYTHONHASHSEED={hash_seed}: {'matches' if same else 'DIFFERS FROM'} pins.json")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
