"""Append one parent-vs-change comparison to ``BENCH_e2e.json``.

Runs ``benchmarks/e2e/compare.py pair`` (alternating pairs, the same
medians, quartiles, wins and verdicts) and keeps what its report drops:
each side's ``env`` stamp and, per seed, its ``exact.*`` counts and
failed/attempted totals.  The entry is appended to the trajectory file
at the top of the repository, so every perf change leaves its measured
before/after behind::

    git archive HEAD --prefix=parent/ | tar -x -C ..
    python3 benchmarks/e2e_trajectory.py --base ../parent --change . \\
        --base-rev "$(git rev-parse HEAD)" --change-rev "working tree" \\
        --label "what the change does" --runs 10

Exit status is ``compare.py pair``'s: 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))
import compare  # noqa: E402

OUT = os.path.join(os.path.dirname(HERE), "BENCH_e2e.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--base-rev", required=True)
    p.add_argument("--change-rev", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--note", action="append", default=[],
                   help="what a reader must know to read the entry, e.g. "
                   "a known benchmark artifact behind a metric; repeatable")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--workloads", nargs="+", default=list(compare.WORKLOADS),
                   choices=compare.WORKLOADS)
    p.add_argument("--out", default=OUT)
    args = p.parse_args(argv)

    runs = {"base": [], "change": []}
    sides = {os.path.abspath(args.base): "base",
             os.path.abspath(args.change): "change"}
    run_once = compare.run_once

    def recorded(root, workload, seed, seconds, trace):
        out = run_once(root, workload, seed, seconds, trace)
        runs[sides[root]].append((workload, seed, out))
        return out

    compare.run_once = recorded
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "pair.json")
        status = compare.cmd_pair(argparse.Namespace(
            base=args.base, change=args.change, runs=args.runs,
            seed_base=args.seed_base, seconds=args.seconds,
            workloads=args.workloads, out=report_path))
        with open(report_path) as f:
            report = json.load(f)

    workloads = {}
    for w in args.workloads:
        per_side = {side: [(seed, out) for wl, seed, out in runs[side]
                           if wl == w] for side in runs}
        exact = {side: {str(seed): out["exact"] for seed, out in rs}
                 for side, rs in per_side.items()}
        workloads[w] = {
            "metrics": report[w],
            "exact_by_seed": exact,
            "exact_identical": exact["base"] == exact["change"],
            "attempted": {side: sum(out["attempted"] for _, out in rs)
                          for side, rs in per_side.items()},
            "failed": {side: sum(out["failed"] for _, out in rs)
                       for side, rs in per_side.items()},
            "env": {side: rs[0][1]["env"] for side, rs in per_side.items()},
        }
    entry = {"label": args.label, "notes": args.note,
             "base_rev": args.base_rev,
             "change_rev": args.change_rev, "runs": args.runs,
             "seed_base": args.seed_base, "run_seconds": args.seconds,
             "workloads": workloads}

    doc = {"schema": "bench-e2e-trajectory/v1", "entries": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
