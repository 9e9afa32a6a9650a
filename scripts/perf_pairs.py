#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark in alternating pairs.

    python3 scripts/perf_pairs.py --parent DIR --change DIR \\
        [--workload NAME ...] [--pairs 10] [--first-seed 1] \\
        [--trace 0|1] [--ratio NUM/DEN ...]

Pair i runs perfbench/run.py with seed first_seed + i in both checkouts
at run.py's fixed run length, the parent first on odd seeds and the
change first on even ones, so a drift of the host's speed falls on both
sides alike. For every workload and metric it prints the median and
quartiles of each side (perfbench/ledger.py's quantile), the change of
the median, and in how many pairs the change was better (the direction
comes from BENCHMARK.json of the change checkout). `--ratio` adds a
metric computed per run, e.g. `bsat.enumerate_self_s/solver.solve_calls`
on traced runs.

Exit status: 1 if any seed's witness digest differs between the two
sides, 2 if a run failed or printed no result, else 0.
Standard library only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
from ledger import quantile  # noqa: E402

WORKLOADS = ["offline_sample", "warm_draws", "daemon_mix"]
DIGEST = re.compile(r"witness digest ([^\s,]+)")


def order(seed):
    """The sides of a pair in running order: parent first on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def summarize(parent, change, direction):
    """Medians, quartiles and change wins of one metric over paired runs
    (parent[i] and change[i] share a seed)."""
    p1, pm, p3 = (quantile(parent, q) for q in (0.25, 0.5, 0.75))
    c1, cm, c3 = (quantile(change, q) for q in (0.25, 0.5, 0.75))
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "delta": (cm - pm) / pm if pm else float("nan"),
        "wins": sum(better(c, p, direction) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_parent_iqr": abs(cm - pm) > p3 - p1,
    }


def add_ratios(metrics, ratios):
    """Adds NUM/DEN for every requested ratio whose parts are present."""
    for r in ratios:
        num, den = r.split("/")
        if num in metrics and den in metrics and metrics[den]:
            metrics[r] = metrics[num] / metrics[den]
    return metrics


def parse_run(stdout):
    """(metrics, digest, failed) from run.py's standard output."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    m = DIGEST.search(stdout)
    return metrics, (m.group(1) if m else None), result.get("failed", 0)


def directions(checkout, ratios):
    d = {}
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
            d[m["name"]] = m.get("better", "lower")
    except (OSError, ValueError):
        pass
    for r in ratios:
        d[r] = d.get(r.split("/")[0], "lower")
    return d


def run_side(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    try:
        metrics, digest, failed = parse_run(p.stdout)
    except (ValueError, KeyError, IndexError):
        metrics = None
    if metrics is None or p.returncode != 0:
        sys.stderr.write(p.stderr)
    if metrics is None:
        return None
    return {"code": p.returncode, "metrics": metrics, "digest": digest, "failed": failed}


def report(workload, runs, dirs):
    names = [n for n in runs[0]["parent"]["metrics"]
             if all(n in r[s]["metrics"] for r in runs for s in ("parent", "change"))]
    print("\n== %s (%d pairs)" % (workload, len(runs)))
    print("  %-42s %-30s %-30s %8s %6s %s" % ("metric", "parent q1 / median / q3",
          "change q1 / median / q3", "median", "wins", "gap > parent IQR"))
    for n in names:
        s = summarize([r["parent"]["metrics"][n] for r in runs],
                      [r["change"]["metrics"][n] for r in runs], dirs.get(n, "lower"))
        print("  %-42s %-30s %-30s %+7.1f%% %3d/%-2d %s" % (
            n, "%.4g / %.4g / %.4g" % s["parent"], "%.4g / %.4g / %.4g" % s["change"],
            100 * s["delta"], s["wins"], s["pairs"], "yes" if s["beyond_parent_iqr"] else "no"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="extend", nargs="+", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ratio", action="append", default=[])
    return ap.parse_args(argv)


def main():
    args = parse_args()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    dirs = directions(checkouts["change"], args.ratio)
    digest_mismatch = failed_run = False
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            pair = {"seed": seed}
            for side in order(seed):
                r = run_side(checkouts[side], workload, seed, args.trace)
                if r is None or r["code"] != 0:
                    failed_run = True
                    print("perf_pairs: %s seed %d: %s run failed" % (workload, seed, side),
                          file=sys.stderr)
                if r is not None:
                    add_ratios(r["metrics"], args.ratio)
                pair[side] = r
            if pair["parent"] is None or pair["change"] is None:
                continue
            same = (pair["parent"]["digest"] is not None
                    and pair["parent"]["digest"] == pair["change"]["digest"])
            if not same:
                digest_mismatch = True
                print("perf_pairs: %s seed %d: witness digest %s (parent) != %s (change)"
                      % (workload, seed, pair["parent"]["digest"], pair["change"]["digest"]),
                      file=sys.stderr)
            print("  %s seed %d: digests %s, failed ops %d / %d" % (
                workload, seed, "equal" if same else "DIFFER",
                pair["parent"]["failed"], pair["change"]["failed"]), flush=True)
            runs.append(pair)
        if runs:
            report(workload, runs, dirs)
    sys.exit(1 if digest_mismatch else 2 if failed_run else 0)


if __name__ == "__main__":
    main()
