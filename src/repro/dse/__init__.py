"""Resumable design-space exploration over the ASBR mechanism.

The paper hand-picks one configuration per figure; this package turns
the mechanism's knobs — auxiliary predictor family/size, BIT capacity,
BDT forwarding path (the threshold), selection-policy strictness — into
a typed :class:`~repro.dse.space.ConfigSpace` and characterises the
whole space automatically:

* :mod:`~repro.dse.space` — design points, grids and named presets;
* :mod:`~repro.dse.search` — exhaustive, seeded-random and
  successive-halving drivers;
* :mod:`~repro.dse.engine` — the evaluator: journal → runner cache →
  worker pool, every point untraced and its objectives read off its
  stats;
* :mod:`~repro.dse.objectives` — speedup, fold coverage, table cost in
  bits, activity-based energy;
* :mod:`~repro.dse.pareto` — exact multi-objective frontiers;
* :mod:`~repro.dse.journal` — crash-safe JSONL record of every
  evaluation, making ``repro dse run --resume`` free across processes;
* :mod:`~repro.dse.report` — frontier tables, ASCII scatter plots and
  JSON/CSV export.

Entry points: ``repro dse run|frontier|report`` on the CLI and
:mod:`repro.experiments.dse_frontier` for the paper's
threshold-reduction story rendered as a frontier.
"""

from repro.dse.engine import BASELINE_POINT, EvalResult, Evaluator
from repro.dse.journal import Journal, JournalMismatch, eval_key
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    SENSES,
    ObjectiveVector,
    extract_objectives,
    fold_coverage,
    table_cost_bits,
    validate_objectives,
)
from repro.dse.pareto import dominates, pareto_front, pareto_indices
from repro.dse.report import (
    export_csv,
    export_json,
    frontier_of,
    render_frontier_plot,
    render_results_table,
)
from repro.dse.search import (
    GridSearch,
    RandomSearch,
    SuccessiveHalving,
    make_search,
)
from repro.dse.space import (
    ConfigSpace,
    DesignPoint,
    default_space,
    get_space,
    paper_space,
)

__all__ = [
    "BASELINE_POINT",
    "ConfigSpace",
    "DEFAULT_OBJECTIVES",
    "DesignPoint",
    "EvalResult",
    "Evaluator",
    "GridSearch",
    "Journal",
    "JournalMismatch",
    "ObjectiveVector",
    "RandomSearch",
    "SENSES",
    "SuccessiveHalving",
    "default_space",
    "dominates",
    "eval_key",
    "export_csv",
    "export_json",
    "extract_objectives",
    "fold_coverage",
    "frontier_of",
    "get_space",
    "make_search",
    "pareto_front",
    "pareto_indices",
    "paper_space",
    "render_frontier_plot",
    "render_results_table",
    "table_cost_bits",
    "validate_objectives",
]
