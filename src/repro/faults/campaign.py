"""Injection campaigns: classify every fault, report AVF per structure.

A campaign fixes one workload, one input, one ASBR configuration and
one protection model, then replays the run once per planned fault.
Classification is fully differential:

* the **golden model** (:meth:`Workload.golden_output`, backed by the
  functional simulator's semantics) defines architectural correctness —
  any output mismatch, simulator crash or watchdog timeout is **SDC**;
* the **fault-free reference run** defines microarchitectural
  correctness — a fault whose run is cycle-for-cycle bit-identical is
  **masked**; one whose outputs are right but whose protection hardware
  visibly intervened (folds suppressed, counters reset) is
  **detected-recovered**.

A fault that perturbs only timing without any detection (possible only
when unprotected — e.g. a predictor counter flip) is reported as masked
with detail ``timing``: architecturally invisible, but not silent in
the cycle counts.

Every injected run gets a watchdog cycle budget derived from the
reference (a wrong-target fold can send fetch into data and stall the
machine forever); the budget turns hangs into prompt ``SimulationError``
→ SDC(hang) classifications instead of multi-minute stalls.

Determinism: the plan is drawn by :func:`repro.faults.model.sample_campaign`
from ``fault_seed``; site enumeration, classification and report
serialisation are all order-stable, so the same config produces a
byte-identical JSON report on every run — the ``faults-smoke`` CI step
diffs exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.inject import FaultInjector
from repro.faults.model import (
    PROTECTIONS,
    STRUCTURES,
    FaultSpec,
    enumerate_sites,
    sample_campaign,
)

OUTCOME_MASKED = "masked"
OUTCOME_RECOVERED = "detected_recovered"
OUTCOME_SDC = "sdc"

OUTCOMES = (OUTCOME_MASKED, OUTCOME_RECOVERED, OUTCOME_SDC)

#: watchdog slack on top of 4x the reference cycle count
_WATCHDOG_SLACK = 10_000


@dataclass(frozen=True)
class CampaignConfig:
    """Identity of one campaign (everything the plan derives from)."""

    benchmark: str = "adpcm_enc"
    n_samples: int = 600
    seed: int = 20010618
    predictor_spec: str = "bimodal-512-512"
    bit_capacity: int = 16
    bdt_update: str = "execute"
    protection: str = "none"
    n_faults: int = 24
    fault_seed: int = 1
    live_only: bool = True

    def __post_init__(self) -> None:
        if self.protection not in PROTECTIONS:
            raise ValueError("unknown protection %r" % (self.protection,))

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark, "n_samples": self.n_samples,
            "seed": self.seed, "predictor_spec": self.predictor_spec,
            "bit_capacity": self.bit_capacity,
            "bdt_update": self.bdt_update, "protection": self.protection,
            "n_faults": self.n_faults, "fault_seed": self.fault_seed,
            "live_only": self.live_only,
        }


@dataclass
class InjectionResult:
    """One classified injection."""

    structure: str
    field: str
    index: int
    bit: int
    cycle: int
    outcome: str
    detail: str = ""        # wrong_output | crash | hang | timing |
    #                         suppressed | corrected | "" (bit-identical)
    detections: int = 0
    corrections: int = 0
    suppressed_folds: int = 0

    def to_dict(self) -> dict:
        return {
            "structure": self.structure, "field": self.field,
            "index": self.index, "bit": self.bit, "cycle": self.cycle,
            "outcome": self.outcome, "detail": self.detail,
            "detections": self.detections,
            "corrections": self.corrections,
            "suppressed_folds": self.suppressed_folds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InjectionResult":
        return cls(**d)


@dataclass
class CampaignReport:
    """Everything a campaign measured, JSON-serialisable and stable."""

    config: dict
    ref_cycles: int = 0
    ref_committed: int = 0
    ref_folds: int = 0
    sites_enumerated: int = 0
    injections: List[InjectionResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def count(self, outcome: str,
              structure: Optional[str] = None) -> int:
        return sum(1 for r in self.injections
                   if r.outcome == outcome
                   and (structure is None or r.structure == structure))

    def by_structure(self) -> Dict[str, Dict[str, float]]:
        """Per-structure outcome counts and the SDC-AVF estimate
        (fraction of injected faults that corrupted architecture)."""
        out: Dict[str, Dict[str, float]] = {}
        for s in STRUCTURES:
            rows = [r for r in self.injections if r.structure == s]
            if not rows:
                continue
            sdc = sum(1 for r in rows if r.outcome == OUTCOME_SDC)
            out[s] = {
                "injections": len(rows),
                "masked": sum(1 for r in rows
                              if r.outcome == OUTCOME_MASKED),
                "detected_recovered": sum(
                    1 for r in rows if r.outcome == OUTCOME_RECOVERED),
                "sdc": sdc,
                "avf": sdc / len(rows),
            }
        return out

    @property
    def sdc_total(self) -> int:
        return self.count(OUTCOME_SDC)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "ref": {"cycles": self.ref_cycles,
                    "committed": self.ref_committed,
                    "folds_committed": self.ref_folds},
            "sites_enumerated": self.sites_enumerated,
            "injections": [r.to_dict() for r in self.injections],
            "summary": self.by_structure(),
            "totals": {o: self.count(o) for o in OUTCOMES},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignReport":
        ref = d.get("ref", {})
        return cls(config=d["config"],
                   ref_cycles=ref.get("cycles", 0),
                   ref_committed=ref.get("committed", 0),
                   ref_folds=ref.get("folds_committed", 0),
                   sites_enumerated=d.get("sites_enumerated", 0),
                   injections=[InjectionResult.from_dict(r)
                               for r in d["injections"]])


# ======================================================================
# campaign execution
# ======================================================================
class _Context:
    """Shared per-benchmark state: program, input, selection, reference.

    Built once per (benchmark, input, ASBR config).  The reference run
    is the campaign's configuration as a :class:`~repro.runner.RunSpec`
    through the executor, handed the BIT's branches that its front half
    selected here, so the program is profiled once.  Every injection
    then costs one pipeline run with a fresh predictor and a fresh ASBR
    unit (tables are mutable state — a corrupted run must never leak
    into the next one), the injector's hook and the watchdog budget.
    """

    def __init__(self, cfg: CampaignConfig) -> None:
        from repro.predictors import make_predictor
        from repro.runner.pool import RunSpec, _execute, _selection
        from repro.sim.pipeline import PipelineConfig
        from repro.workloads import get_workload, speech_like

        self.cfg = cfg
        self.wl = get_workload(cfg.benchmark)
        self.pcm = speech_like(cfg.n_samples, cfg.seed)
        self.golden = self.wl.golden_output(self.pcm)
        self._make_predictor = make_predictor

        spec = RunSpec(benchmark=cfg.benchmark, n_samples=cfg.n_samples,
                       seed=cfg.seed, predictor_spec=cfg.predictor_spec,
                       with_asbr=True, bit_capacity=cfg.bit_capacity,
                       bdt_update=cfg.bdt_update)
        selection = _selection(spec, self.wl, self.pcm)
        self.infos = selection.infos
        self.ref_stats = _execute(spec, selection=selection)
        self.watchdog = PipelineConfig(
            max_cycles=self.ref_stats.cycles * 4 + _WATCHDOG_SLACK)

        self.sites = enumerate_sites(self.asbr(), self.predictor(),
                                     live_only=cfg.live_only)
        self.plan = sample_campaign(self.sites, cfg.n_faults,
                                    self.ref_stats.cycles, cfg.fault_seed)

    def predictor(self):
        return self._make_predictor(self.cfg.predictor_spec)

    def asbr(self):
        from repro.asbr import ASBRUnit
        return ASBRUnit.from_branch_infos(self.infos,
                                          capacity=self.cfg.bit_capacity,
                                          bdt_update=self.cfg.bdt_update)


def _classify(ctx: _Context, spec: FaultSpec,
              protection: str) -> InjectionResult:
    """Run one injection and classify it differentially."""
    from repro.sim.functional import SimulationError

    inj = FaultInjector(spec, protection)
    site = spec.site
    result = InjectionResult(site.structure, site.field, site.index,
                             site.bit, spec.cycle, OUTCOME_MASKED)
    try:
        run = ctx.wl.run_pipeline(ctx.pcm, predictor=ctx.predictor(),
                                  asbr=ctx.asbr(), config=ctx.watchdog,
                                  on_sim=inj.attach)
    except SimulationError:
        result.outcome, result.detail = OUTCOME_SDC, "hang"
    except Exception:
        result.outcome, result.detail = OUTCOME_SDC, "crash"
    else:
        if run.outputs != ctx.golden:
            result.outcome, result.detail = OUTCOME_SDC, "wrong_output"
        elif run.stats == ctx.ref_stats:
            result.detail = "corrected" if inj.corrections else ""
        elif inj.detections:
            result.outcome = OUTCOME_RECOVERED
            result.detail = "suppressed" if inj.suppressed_folds \
                else "reset"
        else:
            result.detail = "timing"   # unprotected, arch-invisible
    result.detections = inj.detections
    result.corrections = inj.corrections
    result.suppressed_folds = inj.suppressed_folds
    return result


def _batchable(protection: str) -> bool:
    """Whether a whole campaign collapses into one batched replay.

    Only ``ecc`` qualifies: every read observes the corrected value, so
    an ecc injection is *read-transparent* — it never mutates mid-run
    state (``none`` flips the table in place) and never alters the
    trajectory at read time (``parity`` suppresses folds / resets
    counters).  N read-transparent faults therefore compose on a single
    run without interacting, which is what lets the batch path arm the
    whole plan at once.
    """
    return protection == "ecc"


def _classify_batched(ctx: _Context, plan,
                      protection: str) -> Optional[List[InjectionResult]]:
    """Classify every planned fault from ONE reference-replay run.

    The batched sibling of :func:`_classify` for read-transparent
    protections: all injectors are armed on the same pipeline run
    (N fault sites of one program = one batch), and each classifies
    from its own counters.  Per-injector wrappers chain and pass reads
    through unchanged, so each observes exactly the detections it would
    have seen alone — the equivalence the campaign tests lock.  The
    replay must come back bit-identical to the reference (outputs *and*
    stats); if it does not, the premise is violated and the caller
    falls back to per-site runs rather than guessing.
    """
    injectors = [FaultInjector(spec, protection) for spec in plan]

    def attach_all(sim):
        for inj in injectors:
            inj.attach(sim)

    try:
        run = ctx.wl.run_pipeline(ctx.pcm, predictor=ctx.predictor(),
                                  asbr=ctx.asbr(), config=ctx.watchdog,
                                  on_sim=attach_all)
    except Exception:
        return None
    if run.outputs != ctx.golden or run.stats != ctx.ref_stats:
        return None
    results = []
    for spec, inj in zip(plan, injectors):
        site = spec.site
        result = InjectionResult(site.structure, site.field, site.index,
                                 site.bit, spec.cycle, OUTCOME_MASKED)
        # identical to _classify's bit-identical-run arm: an ecc run
        # always matches the reference, so the only question is whether
        # the corrector was exercised
        result.detail = "corrected" if inj.corrections else ""
        result.detections = inj.detections
        result.corrections = inj.corrections
        result.suppressed_folds = inj.suppressed_folds
        results.append(result)
    return results


def run_campaign(cfg: CampaignConfig,
                 context: Optional[_Context] = None) -> CampaignReport:
    """Execute a full campaign and return its report.

    When the protection model permits (:func:`_batchable`), the whole
    plan runs as one batched replay; faults that need mid-run state
    mutation the batched path cannot express (``none``/``parity``) run
    one :func:`_classify` each, as does a plan whose replay fails its
    bit-identity check.  Both paths produce identical classifications
    (asserted by ``tests/test_faults_campaign.py`` against
    :func:`_classify`, the per-site reference), so the report — and the
    byte-stable JSON the CI smoke step diffs — does not depend on the
    path.
    """
    ctx = context if context is not None else _Context(cfg)
    report = CampaignReport(config=dict(cfg.to_dict(),
                                        protection=cfg.protection),
                            ref_cycles=ctx.ref_stats.cycles,
                            ref_committed=ctx.ref_stats.committed,
                            ref_folds=ctx.ref_stats.folds_committed,
                            sites_enumerated=len(ctx.sites))
    rows = None
    if ctx.plan and _batchable(cfg.protection):
        rows = _classify_batched(ctx, ctx.plan, cfg.protection)
    if rows is None:
        rows = [_classify(ctx, spec, cfg.protection)
                for spec in ctx.plan]
    report.injections.extend(rows)
    return report


def run_protection_matrix(cfg: CampaignConfig
                          ) -> Dict[str, CampaignReport]:
    """One campaign per protection model, over the *same* plan.

    The plan derives only from (sites, reference cycles, fault_seed) —
    none of which depend on the protection — so the three reports
    classify the identical fault set and are directly comparable.
    """
    import dataclasses as _dc

    ctx = _Context(cfg)
    return {p: run_campaign(_dc.replace(cfg, protection=p), context=ctx)
            for p in PROTECTIONS}
