#!/usr/bin/env python3
"""Compare a parent checkout with this one on a benchmark workload.

Run from the repository root:

    python3 scripts/alternate.py PARENT_DIR --workload fuzz --pairs 6 [--seed 1]

PARENT_DIR is another checkout of the repository (for example one made
with `git archive PARENT | tar -x -C DIR`).  Each pair runs
`benchmark/run.py` once in the parent checkout and once in this one, in
an order that flips every pair, so slow drift of the machine falls on
both sides alike.  Each run lasts BENCHMARK.json's `run_seconds`, and
each side builds into a directory of its own through CARGO_TARGET_DIR,
under `.alternate_build/` in this checkout.  Only the last line of a
run's standard output is read, as the run's JSON result; nothing is
written under `benchmark/`.

For every end-to-end metric of BENCHMARK.json the script prints the
parent's and the change's medians, the parent's interquartile range,
the median difference and the number of pairs the change won (a tie
counts for neither side).  It stops with exit 1 at the first run that
fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """The first and third quartiles of xs (inclusive method)."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_once(checkout, build_dir, args):
    """One benchmark run in `checkout`: its JSON result, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "benchmark/run.py"] + args
    proc = subprocess.run(
        cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {checkout} (exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()

    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args = [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    build_root = os.path.join(HERE, ".alternate_build")
    sides = {
        "parent": (os.path.abspath(opts.parent), os.path.join(build_root, "parent")),
        "change": (HERE, os.path.join(build_root, "change")),
    }
    os.makedirs(build_root, exist_ok=True)
    results = {"parent": [], "change": []}
    for i in range(opts.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout, build_dir = sides[side]
            r = run_once(checkout, build_dir, args)
            if r is None:
                return 1
            if not r.get("correct") or r.get("failed", 0) > 0:
                print(f"  {side}: incorrect result or failed operations", file=sys.stderr)
                return 1
            results[side].append(r["metrics"])
        print(f"pair {i + 1}/{opts.pairs} done ({' then '.join(order)})", file=sys.stderr)

    pairs = opts.pairs
    print(f"workload {opts.workload}, seed {opts.seed}, {pairs} pairs")
    print(f"{'metric':<18} {'parent':>12} {'change':>12} {'diff':>8} {'parent IQR':>12} {'wins':>6}")
    for m in bench["end_to_end"]:
        name, better = m["name"], m["better"]
        p = [r[name]["value"] for r in results["parent"] if name in r]
        c = [r[name]["value"] for r in results["change"] if name in r]
        if not p or len(p) != len(c):
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        wins = sum(
            1 for a, b in zip(p, c) if (b > a if better == "higher" else b < a)
        )
        diff = (cm - pm) / pm * 100 if pm else 0.0
        print(
            f"{name:<18} {pm:>12.4g} {cm:>12.4g} {diff:>+7.1f}% {q3 - q1:>12.3g} {wins:>3}/{pairs}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
