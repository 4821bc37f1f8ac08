"""Benefit-ranked branch selection for the BIT (paper Section 6).

"Frequently executed, hard-to-predict branches are especially propitious
to resolve by using ASBR."  The score used here is the expected number
of cycles ASBR saves on a branch:

    benefit = count * fold_fraction * ((1 - accuracy) * penalty + 1)

where ``accuracy`` is the baseline predictor's accuracy on this branch
(from a trace replay), ``penalty`` the misprediction penalty, and the
``+ 1`` the pipeline slot the folded branch itself no longer occupies.

Selection filters out branches ASBR hardware cannot handle (two-register
compares, control-flow replacement instructions, r0 predicates) and
branches that would rarely fold at the configured BDT update point.

:func:`profile_and_select` is the whole front half of an ASBR run —
profile, baseline replay of the profile's trace, selection — and every
caller that needs it goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.asbr.branch_info import (
    BranchInfo,
    FoldabilityError,
    extract_branch_info,
)
from repro.asm.program import Program
from repro.memory.main_memory import MainMemory
from repro.predictors import evaluate
from repro.predictors.evaluate import PredictorAccuracy
from repro.profiling import profiler
from repro.profiling.profiler import BranchProfile, BranchStats

#: the predictor whose per-branch accuracy ranks candidates (paper: the
#: 2048-entry bimodal ASBR displaces)
SELECTION_BASELINE = "bimodal-2048"


@dataclass
class SelectedBranch:
    """One branch chosen for the BIT, with its selection rationale."""

    info: BranchInfo
    stats: BranchStats
    accuracy: float          # baseline predictor accuracy on this branch
    fold_fraction: float
    benefit: float

    @property
    def pc(self) -> int:
        return self.info.pc


@dataclass
class SelectionResult:
    """Outcome of a selection pass."""

    selected: List[SelectedBranch] = field(default_factory=list)
    rejected: Dict[int, str] = field(default_factory=dict)  # pc -> reason
    bdt_update: str = "mem"

    @property
    def infos(self) -> List[BranchInfo]:
        """BIT-ready records, in rank order."""
        return [s.info for s in self.selected]

    @property
    def pcs(self) -> set:
        return {s.pc for s in self.selected}

    def describe(self, program=None) -> str:
        lines = ["selected %d branches (bdt_update=%s):"
                 % (len(self.selected), self.bdt_update)]
        for i, s in enumerate(self.selected):
            lines.append(
                "  br%-3d pc=0x%x exec=%-9d acc=%.2f fold=%.2f benefit=%.0f"
                % (i, s.pc, s.stats.count, s.accuracy, s.fold_fraction,
                   s.benefit))
        return "\n".join(lines)


def select_branches(profile: BranchProfile,
                    baseline_accuracy: Optional[PredictorAccuracy] = None,
                    bit_capacity: int = 16,
                    bdt_update: str = "mem",
                    min_fold_fraction: float = 0.5,
                    min_count: int = 16,
                    mispredict_penalty: int = 2) -> SelectionResult:
    """Pick the best ``bit_capacity`` branches for ASBR folding.

    ``baseline_accuracy`` supplies the per-branch accuracy of the
    predictor being displaced (paper: the 2048-entry bimodal); without
    it, accuracy defaults to max(taken rate, 1-taken rate), i.e. the
    branch's inherent bias.
    """
    result = SelectionResult(bdt_update=bdt_update)
    program = profile.program
    candidates: List[SelectedBranch] = []

    for stats in profile.sorted_by_count():
        pc = stats.pc
        if stats.count < min_count:
            result.rejected[pc] = "executed only %d times" % stats.count
            continue
        if not stats.is_zero_comparison:
            result.rejected[pc] = "not a zero comparison"
            continue
        fold_fraction = stats.fold_fraction(bdt_update)
        if fold_fraction < min_fold_fraction:
            result.rejected[pc] = ("fold fraction %.2f below %.2f "
                                   "(min distance %d)"
                                   % (fold_fraction, min_fold_fraction,
                                      stats.min_distance))
            continue
        try:
            info = extract_branch_info(program, pc)
        except FoldabilityError as exc:
            result.rejected[pc] = str(exc)
            continue
        if baseline_accuracy is not None \
                and baseline_accuracy.pc_count(pc) > 0:
            accuracy = baseline_accuracy.pc_accuracy(pc)
        else:
            accuracy = max(stats.taken_rate, 1.0 - stats.taken_rate)
        benefit = stats.count * fold_fraction \
            * ((1.0 - accuracy) * mispredict_penalty + 1.0)
        candidates.append(SelectedBranch(
            info=info, stats=stats, accuracy=accuracy,
            fold_fraction=fold_fraction, benefit=benefit))

    candidates.sort(key=lambda s: (-s.benefit, s.pc))
    result.selected = candidates[:bit_capacity]
    for s in candidates[bit_capacity:]:
        result.rejected[s.pc] = "beyond BIT capacity %d" % bit_capacity
    return result


class ProfiledSelection(NamedTuple):
    """What :func:`profile_and_select` computed."""

    profile: BranchProfile
    baseline: PredictorAccuracy     # the baseline predictor's replay
    selection: SelectionResult


def profile_and_select(program: Program,
                       memory: Optional[MainMemory] = None,
                       baseline: str = SELECTION_BASELINE,
                       profile: Optional[BranchProfile] = None,
                       **policy) -> ProfiledSelection:
    """Profile ``program`` on ``memory``, replay the ``baseline``
    predictor over the profile's branch trace, and select branches.

    One functional pass yields both the profile and the trace.  A
    caller that already holds the ``profile`` passes it to skip that
    pass.  ``policy`` holds :func:`select_branches`' keyword arguments.
    The three steps are looked up as module attributes at call time, so
    a wrapper installed on any of them (the end-to-end benchmark's
    spans) sees every call.
    """
    if profile is None:
        profile = profiler.BranchProfiler().profile(program, memory)
    accuracy = evaluate.evaluate_on_trace(evaluate.make_predictor(baseline),
                                          profile.trace)
    return ProfiledSelection(profile, accuracy,
                             select_branches(profile, accuracy, **policy))
