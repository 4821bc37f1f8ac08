"""Profiling and branch selection for ASBR.

The paper selects fold candidates by profiling (Section 6): branches are
ranked by expected benefit — frequently executed, hard to predict, and
*foldable* (their predicate-defining instruction is far enough ahead of
the branch for the configured BDT forwarding path).

* :class:`~repro.profiling.profiler.BranchProfiler` runs a program on
  the functional simulator and collects, per static branch: execution
  and taken counts, and the dynamic distance from the last write of the
  predicate register to the branch (with the producer's kind, since
  loads deliver their value a stage later).
* :func:`~repro.profiling.selection.select_branches` filters and ranks
  candidates and returns loaded-BIT-ready :class:`BranchInfo` records
  plus a per-branch report table (the paper's Figures 7, 9, 10).
* :func:`~repro.profiling.selection.profile_and_select` chains the two
  with the baseline predictor's replay of the profile's branch trace:
  the front half of every ASBR run.
"""

from repro.profiling.profiler import (
    BranchProfile,
    BranchProfiler,
    BranchStats,
)
from repro.profiling.selection import (
    SELECTION_BASELINE,
    ProfiledSelection,
    SelectedBranch,
    SelectionResult,
    profile_and_select,
    select_branches,
)

__all__ = [
    "SELECTION_BASELINE",
    "BranchProfile",
    "BranchProfiler",
    "BranchStats",
    "ProfiledSelection",
    "SelectedBranch",
    "SelectionResult",
    "profile_and_select",
    "select_branches",
]
