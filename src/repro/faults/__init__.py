"""Soft-error injection into the ASBR state (Extension E4).

The paper argues ASBR's fetch-stage tables fold branches with no
architectural risk; this package measures what happens when those
tables themselves break.  It provides:

* :mod:`repro.faults.model` — the fault space: every flippable bit of
  BDT/BIT/predictor state as a :class:`FaultSite`, and deterministic
  seeded campaign plans (:func:`sample_campaign`);
* :mod:`repro.faults.inject` — :class:`FaultInjector`, which arms one
  flip on one simulator by wrapping that instance's ``tick`` (the
  fault-free path stays zero-overhead) and models none /
  parity-detect / ECC-correct protection;
* :mod:`repro.faults.campaign` — campaign execution and differential
  classification (masked / detected-recovered / SDC) against the golden
  model and the fault-free reference, with per-structure AVF;
* :mod:`repro.faults.report` — stable JSON serialisation and text
  tables (``repro faults campaign|report``).

The campaign doubles as a chaos workload for the hardened runner
(:mod:`repro.runner`): injected runs crash, hang and time out by
design, which is exactly what the pool's timeout/retry/quarantine
machinery must absorb.
"""

from repro.faults.campaign import (
    OUTCOME_MASKED,
    OUTCOME_RECOVERED,
    OUTCOME_SDC,
    OUTCOMES,
    CampaignConfig,
    CampaignReport,
    InjectionResult,
    run_campaign,
    run_protection_matrix,
)
from repro.faults.inject import FaultInducedError, FaultInjector
from repro.faults.model import (
    BDT_CNT,
    BDT_DIR,
    BIT_FIELD,
    PRED_PHT,
    PROTECTIONS,
    STRUCTURES,
    FaultSite,
    FaultSpec,
    enumerate_sites,
    sample_campaign,
    sites_by_structure,
)
from repro.faults.report import (
    matrix_to_json,
    render_matrix,
    render_report,
    report_to_json,
    reports_from_json,
)

__all__ = [
    "BDT_CNT",
    "BDT_DIR",
    "BIT_FIELD",
    "CampaignConfig",
    "CampaignReport",
    "FaultInducedError",
    "FaultInjector",
    "FaultSite",
    "FaultSpec",
    "InjectionResult",
    "OUTCOMES",
    "OUTCOME_MASKED",
    "OUTCOME_RECOVERED",
    "OUTCOME_SDC",
    "PRED_PHT",
    "PROTECTIONS",
    "STRUCTURES",
    "enumerate_sites",
    "matrix_to_json",
    "render_matrix",
    "render_report",
    "report_to_json",
    "reports_from_json",
    "run_campaign",
    "run_protection_matrix",
    "sample_campaign",
    "sites_by_structure",
]
