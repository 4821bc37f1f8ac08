"""Ablation studies for the design choices the paper argues for.

* :func:`threshold_sweep` — BDT update point (Section 5.2): commit
  (threshold 4) vs post-MEM forwarding (3) vs post-EX (2).
* :func:`bit_size_sweep` — Amdahl-style selectivity (Section 6): cycles
  as a function of BIT capacity.
* :func:`area_table` — predictor state bits vs accuracy, with ASBR
  configurations included ("comparable branch prediction accuracies ...
  at significantly lower area costs").
* :func:`scheduling_study` — compiler support (Section 5.1): fold
  distances and ASBR benefit on naive vs scheduled code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.asbr import ASBRUnit
from repro.experiments.common import (
    ExperimentSetup,
    default_setup,
    render_table,
)
from repro.predictors import evaluate_on_trace, make_predictor
from repro.sched import static_fold_distances
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# A1: BDT update point / threshold
# ----------------------------------------------------------------------
@dataclass
class ThresholdRow:
    bdt_update: str
    threshold: int
    cycles: int
    selected: int


def threshold_sweep(benchmark: str = "adpcm_enc",
                    setup: Optional[ExperimentSetup] = None
                    ) -> List[ThresholdRow]:
    setup = setup if setup is not None else default_setup()
    from repro.asbr.folding import THRESHOLD_BY_UPDATE
    setup.prefetch((benchmark, "bimodal-512-512", True, None, update)
                   for update in THRESHOLD_BY_UPDATE)
    rows = []
    for update, threshold in sorted(THRESHOLD_BY_UPDATE.items(),
                                    key=lambda kv: kv[1]):
        sel = setup.selection(benchmark, bdt_update=update)
        stats = setup.run(benchmark, "bimodal-512-512", with_asbr=True,
                          bdt_update=update)
        rows.append(ThresholdRow(update, threshold, stats.cycles,
                                 len(sel.selected)))
    return rows


def render_threshold(rows: List[ThresholdRow], benchmark: str) -> str:
    cells = [[r.bdt_update, str(r.threshold), "{:,}".format(r.cycles),
              str(r.selected)] for r in rows]
    return render_table(
        ["BDT update", "threshold", "cycles", "branches selected"], cells,
        "Ablation A1 (%s): forwarding path into the early-condition "
        "logic" % benchmark)


# ----------------------------------------------------------------------
# A2: BIT capacity
# ----------------------------------------------------------------------
@dataclass
class BitSizeRow:
    capacity: int
    cycles: int
    selected: int
    state_bits: int


def bit_size_sweep(benchmark: str = "g721_enc",
                   capacities=(1, 2, 4, 8, 16),
                   setup: Optional[ExperimentSetup] = None
                   ) -> List[BitSizeRow]:
    setup = setup if setup is not None else default_setup()
    setup.prefetch((benchmark, "bimodal-512-512", True, cap)
                   for cap in capacities)
    rows = []
    for cap in capacities:
        sel = setup.selection(benchmark, bit_capacity=cap)
        stats = setup.run(benchmark, "bimodal-512-512", with_asbr=True,
                          bit_capacity=cap)
        unit = ASBRUnit.from_branch_infos(sel.infos, capacity=cap,
                                          bdt_update=setup.bdt_update)
        rows.append(BitSizeRow(cap, stats.cycles, len(sel.selected),
                               unit.state_bits))
    return rows


def render_bit_size(rows: List[BitSizeRow], benchmark: str) -> str:
    cells = [[str(r.capacity), "{:,}".format(r.cycles), str(r.selected),
              "{:,}".format(r.state_bits)] for r in rows]
    return render_table(
        ["BIT entries", "cycles", "branches", "ASBR state bits"], cells,
        "Ablation A2 (%s): benefit vs BIT capacity (Amdahl selectivity)"
        % benchmark)


# ----------------------------------------------------------------------
# A4: predictor area vs accuracy
# ----------------------------------------------------------------------
@dataclass
class AreaRow:
    config: str
    state_bits: int
    accuracy: float            # trace accuracy over remaining branches
    cycles: int


def area_table(benchmark: str = "adpcm_enc",
               setup: Optional[ExperimentSetup] = None) -> List[AreaRow]:
    """Accuracy and cycles vs hardware state, with and without ASBR."""
    setup = setup if setup is not None else default_setup()
    setup.prefetch(
        [(benchmark, spec, False)
         for spec in ("bimodal-256-512", "bimodal-512-512", "bimodal-2048",
                      "gshare-2048-11-2048", "combining-2048")]
        + [(benchmark, spec, True)
           for spec in ("bimodal-256-512", "bimodal-512-512")])
    rows = []
    for spec in ("bimodal-256-512", "bimodal-512-512", "bimodal-2048",
                 "gshare-2048-11-2048", "combining-2048"):
        pred = make_predictor(spec)
        acc = evaluate_on_trace(pred, setup.trace(benchmark))
        # combining is an extension: no full pipeline baseline needed
        cycles = setup.run(benchmark, spec, with_asbr=False).cycles
        rows.append(AreaRow(spec, pred.state_bits, acc.accuracy, cycles))
    # ASBR rows: auxiliary predictor sees only the unfolded branches
    sel = setup.selection(benchmark)
    for spec in ("bimodal-256-512", "bimodal-512-512"):
        pred = make_predictor(spec)
        acc = evaluate_on_trace(pred, setup.trace(benchmark),
                                skip_pcs=sel.pcs)
        unit = ASBRUnit.from_branch_infos(sel.infos,
                                          bdt_update=setup.bdt_update)
        cycles = setup.run(benchmark, spec, with_asbr=True).cycles
        rows.append(AreaRow("ASBR+" + spec,
                            pred.state_bits + unit.state_bits,
                            acc.accuracy, cycles))
    return rows


def render_area(rows: List[AreaRow], benchmark: str) -> str:
    cells = [[r.config, "{:,}".format(r.state_bits),
              "%.1f%%" % (100 * r.accuracy), "{:,}".format(r.cycles)]
             for r in rows]
    return render_table(
        ["configuration", "state bits", "accuracy", "cycles"], cells,
        "Ablation A4 (%s): area vs accuracy vs cycles" % benchmark)


# ----------------------------------------------------------------------
# A3: instruction scheduling
# ----------------------------------------------------------------------
@dataclass
class SchedulingStudy:
    benchmark: str
    distances_before: Dict[int, Optional[int]]
    distances_after: Dict[int, Optional[int]]
    cycles_before: int
    cycles_after: int
    folds_before: int
    folds_after: int
    cycles_hand: int        # the hand-scheduled production variant
    folds_hand: int


def scheduling_study(setup: Optional[ExperimentSetup] = None,
                     benchmark: str = "adpcm_enc_unsched",
                     hand_benchmark: str = "adpcm_enc") -> SchedulingStudy:
    """ASBR on naive code before/after the list scheduler, plus the
    hand-scheduled variant (the paper's "manual scheduling") as the
    upper reference point — manual/global code motion reaches branches
    whose basic blocks are too small for a local scheduler.

    The three variants are registry workloads (the list-scheduled one
    is ``adpcm_enc_listsched``, the naive ``adpcm_enc_unsched`` after
    :func:`repro.sched.schedule_program`), so each row is one spec
    through :meth:`ExperimentSetup.run`; the folds column counts
    fetch-time folds (``folded_taken + folded_not_taken``).
    """
    setup = setup if setup is not None else default_setup()
    names = {"before": benchmark, "after": "adpcm_enc_listsched",
             "hand": hand_benchmark}
    setup.prefetch((name, "bimodal-512-512", True)
                   for name in names.values())
    results = {}
    for tag, name in names.items():
        stats = setup.run(name, "bimodal-512-512", with_asbr=True)
        results[tag] = (stats.cycles,
                        stats.folded_taken + stats.folded_not_taken,
                        get_workload(name).program)

    return SchedulingStudy(
        benchmark=benchmark,
        distances_before=static_fold_distances(results["before"][2]),
        distances_after=static_fold_distances(results["after"][2]),
        cycles_before=results["before"][0],
        cycles_after=results["after"][0],
        folds_before=results["before"][1],
        folds_after=results["after"][1],
        cycles_hand=results["hand"][0],
        folds_hand=results["hand"][1])


def render_scheduling(study: SchedulingStudy) -> str:
    def _summary(distances):
        known = [d for d in distances.values() if d is not None]
        ge3 = sum(1 for d in known if d >= 3)
        return "%d zero-cond branches, %d with local distance >= 3" \
            % (len(distances), ge3)

    lines = [
        "Ablation A3 (%s): instruction scheduling for ASBR" % study.benchmark,
        "  naive code      : %s" % _summary(study.distances_before),
        "                    cycles=%s folds=%s"
        % ("{:,}".format(study.cycles_before),
           "{:,}".format(study.folds_before)),
        "  list-scheduled  : %s" % _summary(study.distances_after),
        "                    cycles=%s folds=%s"
        % ("{:,}".format(study.cycles_after),
           "{:,}".format(study.folds_after)),
        "  hand-scheduled  : cycles=%s folds=%s  (paper's manual/global "
        "scheduling)" % ("{:,}".format(study.cycles_hand),
                         "{:,}".format(study.folds_hand)),
    ]
    return "\n".join(lines)


def main(setup: Optional[ExperimentSetup] = None) -> str:
    setup = setup if setup is not None else default_setup()
    parts = [
        render_threshold(threshold_sweep("adpcm_enc", setup), "adpcm_enc"),
        render_bit_size(bit_size_sweep("g721_enc", setup=setup), "g721_enc"),
        render_area(area_table("adpcm_enc", setup), "adpcm_enc"),
        render_scheduling(scheduling_study(setup)),
    ]
    text = "\n\n".join(parts)
    print(text)
    return text


if __name__ == "__main__":
    main()
