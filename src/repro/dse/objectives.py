"""Objective extraction: one evaluated run → a comparable vector.

Every evaluated design point is reduced to an :class:`ObjectiveVector`:

* ``cycles`` / ``cpi`` — straight off :class:`~repro.sim.pipeline.
  PipelineStats`;
* ``speedup`` — baseline cycles / point cycles, against the paper's
  reference core (``bimodal-2048``, no ASBR) on the same workload and
  input;
* ``fold_coverage`` — committed folds / (committed folds + committed
  unfolded branches): the fraction of dynamic conditional branches
  ASBR removed from the pipeline, read off the stats
  (``folds_committed`` / ``branches``) of either machine;
* ``table_bits`` — hardware cost of the prediction structures this
  point instantiates: predictor SRAM + BIT + BDT (paper Section 7's
  area argument);
* ``energy`` — the activity-based model of :mod:`repro.power`
  (:func:`~repro.power.estimate_energy_from_stats`, the one estimator
  E1 uses too), read exactly off the stats: they carry the caches' and
  the folding unit's own counters, so a cached result prices exactly
  as its live run did.  :func:`point_energy` sizes the structures from
  the point, with the front end's and the OoO machine's state priced
  alongside the predictor's.

``SENSES`` declares which direction is better for each objective, so
the Pareto code (:mod:`repro.dse.pareto`) never hard-codes it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.asbr.bit import BITS_PER_ENTRY
from repro.asbr.bdt import BranchDirectionTable
from repro.dse.space import DesignPoint
from repro.frontend.ftq import FTQ_ENTRY_BITS
from repro.predictors.btb import TARGET_BITS, entry_state_bits
from repro.power import estimate_energy_from_stats
from repro.predictors import make_predictor
from repro.sim.pipeline import PipelineStats

#: objective name -> "min" | "max" (direction of improvement)
SENSES: Dict[str, str] = {
    "cycles": "min",
    "cpi": "min",
    "speedup": "max",
    "fold_coverage": "max",
    "table_bits": "min",
    "energy": "min",
}

#: the frontier the paper's story is about: performance vs the two
#: costs a designer pays for it.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("speedup", "table_bits", "energy")


@dataclass(frozen=True)
class ObjectiveVector:
    """All extracted objectives for one evaluated point."""

    cycles: int
    cpi: float
    speedup: float
    fold_coverage: float
    table_bits: int
    energy: float

    def values(self, names) -> tuple:
        """The requested objectives, in order (for dominance checks)."""
        return tuple(getattr(self, n) for n in names)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveVector":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def validate_objectives(names) -> Tuple[str, ...]:
    """Check every name against :data:`SENSES`; return as a tuple."""
    names = tuple(names)
    for n in names:
        if n not in SENSES:
            raise ValueError("unknown objective %r (have: %s)"
                             % (n, ", ".join(sorted(SENSES))))
    if not names:
        raise ValueError("need at least one objective")
    return names


# ----------------------------------------------------------------------
# per-component extractors
# ----------------------------------------------------------------------
_pred_bits_memo: Dict[str, int] = {}


def table_cost_bits(point: DesignPoint) -> int:
    """Prediction-structure SRAM this point instantiates, in bits."""
    spec = point.predictor_spec
    if spec not in _pred_bits_memo:
        _pred_bits_memo[spec] = make_predictor(spec).state_bits
    bits = _pred_bits_memo[spec]
    if point.with_asbr:
        bits += point.bit_capacity * BITS_PER_ENTRY
        bits += BranchDirectionTable().state_bits
    bits += frontend_cost_bits(point)
    bits += ooo_cost_bits(point)
    return bits


def frontend_cost_bits(point: DesignPoint) -> int:
    """Decoupled-frontend SRAM (BTB levels + FTQ), zero when absent.

    Computed from the shared entry geometry rather than by
    instantiating the structures, so sweeps stay cheap; the formula is
    locked against ``DecoupledFrontend.state_bits`` by the DSE tests.
    """
    if not point.frontend:
        return 0
    entry = entry_state_bits(TARGET_BITS)
    return ((point.btb_l1_entries + point.btb_l2_entries) * entry
            + point.ftq_depth * FTQ_ENTRY_BITS)


def ooo_cost_bits(point: DesignPoint) -> int:
    """Out-of-order machine SRAM/CAM state, zero for in-order points.

    R10000-style accounting: the rename registers beyond the 32
    architectural ones, the map table and free list (physical tags),
    the active list (pc + new/old tag + flag bits per entry) and the
    issue queue (pc + dest/src tags + decoded-control bits per entry).
    A first-order area proxy — enough to price ROB/IQ/PRF depth against
    the fetch-side tables on one axis, not a layout model.
    """
    if point.backend != "ooo":
        return 0
    tag = (point.phys_regs - 1).bit_length()
    prf = (point.phys_regs - 32) * 32
    map_table = 32 * tag
    free_list = point.phys_regs * tag
    rob = point.rob_size * (30 + 2 * tag + 8)
    iq = point.iq_size * (30 + 3 * tag + 16)
    return prf + map_table + free_list + rob + iq


def fold_coverage(stats: PipelineStats) -> float:
    """Dynamic-branch coverage from run stats.  Both machines count
    ``branches`` beside their ``BRANCH`` emit and ``folds_committed``
    beside the ``COMMIT`` emit that carries a ``fold_pc``, so this
    equals the coverage of the same run's telemetry branch tables by
    construction (the out-of-order machine emits ``BRANCH`` at commit,
    so a branch on a squashed path counts in neither)."""
    total = stats.folds_committed + stats.branches
    return stats.folds_committed / total if total else 0.0


def point_energy(point: DesignPoint, stats: PipelineStats) -> float:
    """Activity-based relative energy of this run, off its stats."""
    bit_bits = point.bit_capacity * BITS_PER_ENTRY if point.with_asbr \
        else 0
    bdt_bits = BranchDirectionTable().state_bits if point.with_asbr \
        else 0
    # frontend and OoO SRAM ride in the predictor term: same
    # leakage/access cost class (machine-structure bits cycled every
    # fetch/issue)
    pred_bits = (table_cost_bits(
        DesignPoint(point.predictor_spec, with_asbr=False))
        + frontend_cost_bits(point) + ooo_cost_bits(point))
    report = estimate_energy_from_stats(
        stats, predictor_state_bits=pred_bits,
        bit_state_bits=bit_bits, bdt_state_bits=bdt_bits)
    return report.total


def extract_objectives(point: DesignPoint, stats: PipelineStats,
                       baseline_stats: PipelineStats) -> ObjectiveVector:
    """Reduce one evaluated run to its objective vector."""
    speedup = baseline_stats.cycles / stats.cycles if stats.cycles \
        else 0.0
    return ObjectiveVector(
        cycles=stats.cycles,
        cpi=stats.cpi,
        speedup=speedup,
        fold_coverage=fold_coverage(stats),
        table_bits=table_cost_bits(point),
        energy=point_energy(point, stats),
    )
