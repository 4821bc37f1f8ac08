#!/usr/bin/env python
"""Quantifying the paper's power claims with the activity-based model.

The paper argues ASBR saves power twice over: folded branches (and the
wrong-path work they would have caused) never pass through the
pipeline, and the displaced predictor tables are far smaller.  This
example runs one benchmark under a range of front-end configurations
and prints the energy breakdown for each.

Each configuration is one ``RunSpec`` through the executor
(``execute_spec``: profile, select, load the BIT, simulate, check the
golden output), and its stats are priced by the one energy estimator.

Run:  python examples/energy_study.py [benchmark] [n_samples]
"""

import sys

from repro.asbr.bdt import BranchDirectionTable
from repro.asbr.bit import BITS_PER_ENTRY
from repro.power import estimate_energy_from_stats
from repro.predictors import make_predictor
from repro.runner import RunSpec, execute_spec

SEED = 1234          # speech_like's default input seed
BIT_CAPACITY = 16


def price(spec, stats):
    """Energy report for one run, its structures sized from ``spec``."""
    asbr_bits = {}
    if spec.with_asbr:
        asbr_bits = dict(bit_state_bits=spec.bit_capacity * BITS_PER_ENTRY,
                         bdt_state_bits=BranchDirectionTable().state_bits)
    return estimate_energy_from_stats(
        stats, make_predictor(spec.predictor_spec).state_bits, **asbr_bits)


def main(benchmark="adpcm_enc", n_samples=1200):
    configs = [
        ("not-taken (no predictor)", "not-taken", False),
        ("bimodal-2048 (baseline)", "bimodal-2048", False),
        ("gshare-2048", "gshare-2048-11-2048", False),
        ("ASBR + bimodal-512", "bimodal-512-512", True),
    ]
    reports = []
    for title, predictor_spec, asbr_on in configs:
        spec = RunSpec(benchmark=benchmark, n_samples=n_samples, seed=SEED,
                       predictor_spec=predictor_spec, with_asbr=asbr_on,
                       bit_capacity=BIT_CAPACITY, bdt_update="execute")
        stats = execute_spec(spec)
        report = price(spec, stats)
        reports.append((title, stats, report))
        print(report.render("--- %s ---" % title))
        print("    cycles=%d  fetched=%d  squashed=%d"
              % (stats.cycles, stats.fetched, stats.squashed))
        print()

    base = next(r for t, _s, r in reports if "baseline" in t)
    print("=== energy relative to the bimodal-2048 baseline ===")
    for title, _stats, report in reports:
        print("  %-26s %6.1f%%"
              % (title, 100.0 * report.total / base.total))
    print("\nThe customized core wins on both fronts the paper names: "
          "less pipeline\nactivity (fewer instructions fetched) and "
          "less table energy (small aux\npredictor + tiny BIT/BDT "
          "instead of a 2048-entry PHT+BTB).")


if __name__ == "__main__":
    bench = sys.argv[1] if len(sys.argv) > 1 else "adpcm_enc"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 1200
    main(bench, n)
