"""Repeat the benchmark and summarise it: a baseline, or parent vs change.

Record two sets of runs of this checkout (median and quartiles per
metric, exact counts per seed, one traced run per workload)::

    python3 benchmarks/e2e/compare.py record --runs 10 --sets 2 \\
        --traced --out benchmarks/e2e/results/baseline.json

Compare two checkouts, e.g. the parent commit exported with
``git archive`` and the change, alternating which side runs first::

    python3 benchmarks/e2e/compare.py pair --base ../parent \\
        --change . --runs 10 --out pair.json

Each side runs its own ``benchmarks/e2e/run.py`` from its own root, with
the same seeds and run length.  ``pair`` reports, per workload and
metric, both medians and quartiles, the share of pairs the change won
and a verdict: ``improved`` (wins at least nine tenths of the pairs and
the medians differ by more than the parent's quartile spread),
``regressed`` (median worse than the parent's by more than the bound in
``BENCHMARK.json``), ``unresolved`` (the parent's spread exceeds the
bound) or ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from common import ROOT, child_env

WORKLOADS = ("spec_asbr", "spec_plain", "dse_sweep", "serve_mix")


def run_once(root: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One benchmark run in checkout ``root``: its final JSON object plus
    the ``exact.*`` lines and the ``env`` stamp."""
    cmd = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    env = child_env()
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s%s"
                           % (workload, seed, proc.returncode,
                              proc.stdout[-2000:], proc.stderr[-2000:]))
    out = json.loads(lines[-1])
    out["exact"] = {}
    out["extra"] = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        if parts[0] == "env":
            out["env"] = json.loads(line[4:])
        elif len(parts) == 3 and parts[0] not in out["metrics"]:
            try:
                value = float(parts[1])
            except ValueError:
                continue
            if parts[0].startswith("exact."):
                out["exact"][parts[0][len("exact."):]] = value
            else:
                out["extra"][parts[0]] = value
    print("%s seed %d: %s" % (workload, seed, " ".join(
        "%s=%.6g" % (k, v["value"]) for k, v in out["metrics"].items())),
        file=sys.stderr, flush=True)
    return out


def summarise(values: List[float]) -> dict:
    """Median, quartiles as ``statistics.quantiles(n=4)`` gives them,
    and the spread: quartile distance over median."""
    if len(values) < 2:
        q1 = med = q3 = float(values[0])
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def record_set(workloads, seeds, seconds) -> dict:
    out = {"seeds": list(seeds), "workloads": {}}
    for w in workloads:
        runs = [run_once(ROOT, w, s, seconds, False) for s in seeds]
        metrics = {m: summarise([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        out["workloads"][w] = {
            "metrics": metrics,
            "units": {m: v["unit"] for m, v in runs[0]["metrics"].items()},
            "exact_by_seed": {str(s): r["exact"]
                              for s, r in zip(seeds, runs)},
            "extra_by_seed": {str(s): r["extra"]
                              for s, r in zip(seeds, runs)},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "env": runs[0]["env"],
        }
    return out


def bounds() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def worse_by(metric: dict, base: float, change: float) -> float:
    """Share by which ``change`` is worse than ``base`` (negative when
    better)."""
    delta = (change - base) / base
    return delta if metric["better"] == "lower" else -delta


def cmd_record(args) -> int:
    seeds = range(args.seed_base, args.seed_base + args.runs)
    sets = [record_set(args.workloads, seeds, args.seconds)
            for _ in range(args.sets)]
    limits = bounds()
    agreement = {}
    for w in args.workloads:
        agreement[w] = {}
        for m, meta in limits.items():
            first = sets[0]["workloads"][w]["metrics"][m]
            later = [s["workloads"][w]["metrics"][m] for s in sets[1:]]
            worst = max((worse_by(meta, first["median"], s["median"])
                         for s in later), default=0.0)
            agreement[w][m] = {
                "bound": meta["bound"],
                "spreads": [s["workloads"][w]["metrics"][m]["spread"]
                            for s in sets],
                "second_worse_by": worst,
                "spreads_below_third_of_bound": all(
                    s["workloads"][w]["metrics"][m]["spread"]
                    < meta["bound"] / 3 for s in sets),
                "within_bound": worst <= meta["bound"] and (
                    m == "setup_s" or all(
                        s["workloads"][w]["metrics"][m]["spread"]
                        <= meta["bound"] for s in sets)),
            }
        exacts = [s["workloads"][w]["exact_by_seed"] for s in sets]
        agreement[w]["exact_identical_across_sets"] = all(
            e == exacts[0] for e in exacts)
    doc = {"schema": "bench-e2e-baseline/v1", "run_seconds": args.seconds,
           "sets": sets, "agreement": agreement}
    if args.traced:
        doc["traced"] = {}
        for w in args.workloads:
            run = run_once(ROOT, w, args.seed_base, args.seconds, True)
            doc["traced"][w] = {
                "metrics": {m: v["value"] for m, v in run["metrics"].items()},
                "extra": run["extra"]}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    ok = all(a[m]["within_bound"] for a in agreement.values()
             for m in limits) and all(
        a["exact_identical_across_sets"] for a in agreement.values())
    print("agreement within every bound: %s" % ok)
    return 0 if ok else 1


def cmd_pair(args) -> int:
    limits = bounds()
    report = {}
    for w in args.workloads:
        base_runs, change_runs = [], []
        for i in range(args.runs):
            seed = args.seed_base + i
            order = [("base", args.base), ("change", args.change)]
            for side, root in (order if i % 2 == 0 else order[::-1]):
                run = run_once(os.path.abspath(root), w, seed, args.seconds,
                               False)
                (base_runs if side == "base" else change_runs).append(run)
        report[w] = {}
        for m, meta in limits.items():
            b = [r["metrics"][m]["value"] for r in base_runs]
            c = [r["metrics"][m]["value"] for r in change_runs]
            wins = sum(worse_by(meta, x, y) < 0 for x, y in zip(b, c))
            bs, cs = summarise(b), summarise(c)
            worse = worse_by(meta, bs["median"], cs["median"])
            if wins >= 0.9 * len(b) and abs(cs["median"] - bs["median"]) \
                    > bs["q3"] - bs["q1"]:
                verdict = "improved"
            elif worse > meta["bound"]:
                verdict = "regressed"
            elif bs["spread"] > meta["bound"]:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            report[w][m] = {"base": bs, "change": cs, "wins": wins,
                            "pairs": len(b), "worse_by": worse,
                            "verdict": verdict}
            print("%-10s %-18s base %.6g [%.6g, %.6g]  change %.6g "
                  "[%.6g, %.6g]  wins %d/%d  %s"
                  % (w, m, bs["median"], bs["q1"], bs["q3"], cs["median"],
                     cs["q1"], cs["q3"], wins, len(b), verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 1 if any(v["verdict"] == "regressed" for r in report.values()
                    for v in r.values()) else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("record", "pair"):
        sp = sub.add_parser(name)
        sp.add_argument("--runs", type=int, default=10)
        sp.add_argument("--seed-base", type=int, default=1)
        sp.add_argument("--seconds", type=float, default=15)
        sp.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
        sp.add_argument("--out", required=name == "record")
    rec = sub.choices["record"]
    rec.add_argument("--sets", type=int, default=2)
    rec.add_argument("--traced", action="store_true")
    pair = sub.choices["pair"]
    pair.add_argument("--base", required=True)
    pair.add_argument("--change", required=True)
    args = p.parse_args(argv)
    return cmd_record(args) if args.cmd == "record" else cmd_pair(args)


if __name__ == "__main__":
    sys.exit(main())
