"""Extension experiment E1 — energy (the paper's power claims).

The paper asserts, without numbers, that ASBR reduces power because (a)
folded branches and avoided wrong-path work mean fewer instructions
pass through the pipeline, and (b) the displaced predictor tables are
far smaller.  This driver quantifies both with the activity-based model
in :mod:`repro.power`: baseline (bimodal-2048) vs customized core
(ASBR + bi-512) on every benchmark.  The eight runs go through the
shared setup (:meth:`ExperimentSetup.run`, so the pool, the result
cache and the memo of the other figures), and each is priced off its
stats alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.asbr.bdt import BranchDirectionTable
from repro.asbr.bit import BITS_PER_ENTRY
from repro.experiments import paper_data
from repro.experiments.common import (
    BENCHMARKS,
    ExperimentSetup,
    default_setup,
    render_table,
)
from repro.power import (EnergyReport, compare_energy,
                          estimate_energy_from_stats)
from repro.predictors import make_predictor
from repro.sim.pipeline import PipelineStats

#: the two cores compared: (predictor, with ASBR)
_BASELINE = ("bimodal-2048", False)
_CUSTOMIZED = ("bimodal-512-512", True)


@dataclass
class EnergyRow:
    benchmark: str
    baseline: EnergyReport
    customized: EnergyReport
    baseline_fetched: int
    customized_fetched: int

    @property
    def saving(self) -> float:
        return compare_energy(self.baseline, self.customized)


def _energy(setup: ExperimentSetup, stats: PipelineStats,
            predictor_spec: str, with_asbr: bool) -> EnergyReport:
    """Price one run's stats, its structures sized from its config."""
    asbr_bits = {}
    if with_asbr:
        asbr_bits = dict(bit_state_bits=setup.bit_capacity * BITS_PER_ENTRY,
                         bdt_state_bits=BranchDirectionTable().state_bits)
    return estimate_energy_from_stats(
        stats, make_predictor(predictor_spec).state_bits, **asbr_bits)


def run(setup: Optional[ExperimentSetup] = None) -> List[EnergyRow]:
    setup = setup if setup is not None else default_setup()
    setup.prefetch((bench,) + core for bench in BENCHMARKS
                   for core in (_BASELINE, _CUSTOMIZED))
    rows = []
    for bench in BENCHMARKS:
        base = setup.run(bench, *_BASELINE)
        cust = setup.run(bench, *_CUSTOMIZED)
        rows.append(EnergyRow(
            benchmark=bench,
            baseline=_energy(setup, base, *_BASELINE),
            customized=_energy(setup, cust, *_CUSTOMIZED),
            baseline_fetched=base.fetched,
            customized_fetched=cust.fetched))
    return rows


def render(rows: List[EnergyRow]) -> str:
    headers = ["benchmark", "baseline energy", "ASBR energy", "saving",
               "fetched (base)", "fetched (ASBR)"]
    cells = []
    for r in rows:
        cells.append([paper_data.DISPLAY[r.benchmark],
                      "%.0f" % r.baseline.total,
                      "%.0f" % r.customized.total,
                      "%.1f%%" % (100 * r.saving),
                      "{:,}".format(r.baseline_fetched),
                      "{:,}".format(r.customized_fetched)])
    return render_table(
        headers, cells,
        "Extension E1: relative energy, bimodal-2048 baseline vs "
        "ASBR + bi-512 (activity-based model)")


def main(setup: Optional[ExperimentSetup] = None) -> str:
    text = render(run(setup))
    print(text)
    return text


if __name__ == "__main__":
    main()
