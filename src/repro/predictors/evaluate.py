"""Replay recorded branch traces through standalone predictors.

This reproduces the *accuracy* columns of the paper's tables without
re-running the cycle simulator once per predictor: the functional
simulator records every conditional branch once
(:func:`repro.sim.functional.collect_branch_trace`), and each predictor
replays the identical stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import WEAK_TAKEN, BimodalPredictor
from repro.predictors.combining import CombiningPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.simple import AlwaysTakenPredictor, NotTakenPredictor
from repro.sim.functional import BranchRecord


@dataclass
class PredictorAccuracy:
    """Accuracy of one predictor over one branch trace."""

    predictor_name: str
    total: int = 0
    correct: int = 0
    per_pc_total: Dict[int, int] = field(default_factory=dict)
    per_pc_correct: Dict[int, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def pc_accuracy(self, pc: int) -> float:
        total = self.per_pc_total.get(pc, 0)
        return self.per_pc_correct.get(pc, 0) / total if total else 0.0

    def pc_count(self, pc: int) -> int:
        return self.per_pc_total.get(pc, 0)


def evaluate_on_trace(predictor: BranchPredictor,
                      trace: Iterable[BranchRecord],
                      skip_pcs: Optional[set] = None,
                      direction_only: bool = True) -> PredictorAccuracy:
    """Replay ``trace`` through ``predictor`` and score it.

    ``skip_pcs`` removes a set of branches from the stream *entirely*
    (they neither predict nor train) — this models ASBR having folded
    those branches out, which is what lets the auxiliary predictor see
    less destructive aliasing (paper Section 6, third bullet).

    With ``direction_only`` (the default, matching the paper's accuracy
    columns) a prediction is correct when the direction matches; with it
    off, a taken prediction additionally needs the right BTB target.

    A direction-only replay through an exact :class:`BimodalPredictor`
    (the selection baseline) steps only its 2-bit counters: the result
    and the final counter table are the per-record loop's, and the BTB,
    which direction-only scoring never reads, is left untouched.
    """
    if direction_only and type(predictor) is BimodalPredictor:
        return _bimodal_directions(predictor, trace, skip_pcs)
    acc = PredictorAccuracy(predictor.name)
    per_total = acc.per_pc_total
    per_correct = acc.per_pc_correct
    for rec in trace:
        pc = rec.pc
        if skip_pcs and pc in skip_pcs:
            continue
        pred = predictor.predict(pc)
        if direction_only:
            ok = pred.taken == rec.taken
        else:
            ok = (pred.taken == rec.taken
                  and (not rec.taken or pred.target == rec.target))
        predictor.update(pc, rec.taken, rec.target)
        acc.total += 1
        per_total[pc] = per_total.get(pc, 0) + 1
        if ok:
            acc.correct += 1
            per_correct[pc] = per_correct.get(pc, 0) + 1
    return acc


def _bimodal_directions(predictor: BimodalPredictor,
                        trace: Iterable[BranchRecord],
                        skip_pcs: Optional[set]) -> PredictorAccuracy:
    """:func:`evaluate_on_trace`'s direction-only bimodal replay: the
    counter at ``(pc >> 2) & mask`` predicts taken from 2 up, then
    saturates towards the outcome, as ``predict``/``update`` do."""
    acc = PredictorAccuracy(predictor.name)
    per_total = acc.per_pc_total
    per_correct = acc.per_pc_correct
    counters = predictor._counters
    mask = predictor._mask
    skip = skip_pcs or ()
    total = correct = 0
    for rec in trace:
        pc = rec.pc
        if pc in skip:
            continue
        i = (pc >> 2) & mask
        c = counters[i]
        taken = rec.taken
        total += 1
        per_total[pc] = per_total.get(pc, 0) + 1
        if (c >= WEAK_TAKEN) == taken:
            correct += 1
            per_correct[pc] = per_correct.get(pc, 0) + 1
        if taken:
            if c < 3:
                counters[i] = c + 1
        elif c > 0:
            counters[i] = c - 1
    acc.total = total
    acc.correct = correct
    return acc


def make_predictor(spec: str) -> BranchPredictor:
    """Build a predictor from a short spec string.

    Recognised specs::

        not-taken | always-taken
        bimodal[-N[-BTB]]      e.g. bimodal-2048, bimodal-512-512
        gshare[-N[-H[-BTB]]]   e.g. gshare-2048-11
        combining[-N]

    These are the names used throughout the experiment drivers.
    """
    parts = spec.split("-")
    if spec == "not-taken":
        return NotTakenPredictor()
    if spec == "always-taken":
        return AlwaysTakenPredictor()
    if parts[0] == "bimodal":
        entries = int(parts[1]) if len(parts) > 1 else 2048
        btb = int(parts[2]) if len(parts) > 2 else 2048
        return BimodalPredictor(entries, btb)
    if parts[0] == "gshare":
        entries = int(parts[1]) if len(parts) > 1 else 2048
        hist = int(parts[2]) if len(parts) > 2 else 11
        btb = int(parts[3]) if len(parts) > 3 else 2048
        return GSharePredictor(hist, entries, btb)
    if parts[0] == "combining":
        entries = int(parts[1]) if len(parts) > 1 else 2048
        return CombiningPredictor(entries)
    if parts[0] == "local":
        hist = int(parts[1]) if len(parts) > 1 else 8
        pht = int(parts[2]) if len(parts) > 2 else 1024
        return LocalHistoryPredictor(hist, pht_entries=pht)
    raise ValueError("unknown predictor spec %r" % spec)
