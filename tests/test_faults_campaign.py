"""Campaign-level tests: classification, determinism, reports, CLI.

One small ADPCM-encode matrix (n=64 input, 9 faults) is computed once
per module and every structural claim is checked against it:

* the three protections classify the *identical* plan;
* parity shows zero SDC, ECC is fully masked/bit-identical;
* reports serialise canonically (byte-identical across runs) and
  round-trip through JSON;
* the ``repro faults campaign|report`` CLI drives the same machinery.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.faults import (
    OUTCOME_MASKED,
    OUTCOME_RECOVERED,
    OUTCOME_SDC,
    OUTCOMES,
    PROTECTIONS,
    CampaignConfig,
    CampaignReport,
    matrix_to_json,
    render_matrix,
    render_report,
    report_to_json,
    reports_from_json,
    run_campaign,
    run_protection_matrix,
)
from repro.faults.campaign import _classify, _Context

CFG = CampaignConfig(benchmark="adpcm_enc", n_samples=64, seed=11,
                     bit_capacity=8, n_faults=9, fault_seed=3)


@pytest.fixture(scope="module")
def matrix():
    return run_protection_matrix(CFG)


def plan_of(report):
    return [(r.structure, r.field, r.index, r.bit, r.cycle)
            for r in report.injections]


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_config_rejects_unknown_protection():
    with pytest.raises(ValueError):
        CampaignConfig(protection="tmr")


def test_config_to_dict_is_complete():
    d = CFG.to_dict()
    assert d["benchmark"] == "adpcm_enc" and d["n_faults"] == 9


# ----------------------------------------------------------------------
# matrix structure
# ----------------------------------------------------------------------
def test_matrix_covers_all_protections(matrix):
    assert set(matrix) == set(PROTECTIONS)
    for p, report in matrix.items():
        assert report.config["protection"] == p
        assert len(report.injections) == CFG.n_faults
        assert report.ref_cycles > 0 and report.sites_enumerated > 0


def test_matrix_classifies_identical_plan(matrix):
    plans = [plan_of(r) for r in matrix.values()]
    assert plans[0] == plans[1] == plans[2]


def test_every_outcome_is_legal(matrix):
    for report in matrix.values():
        for r in report.injections:
            assert r.outcome in OUTCOMES


def test_parity_has_zero_sdc(matrix):
    assert matrix["parity"].sdc_total == 0
    # recovered injections are visible interventions
    for r in matrix["parity"].injections:
        if r.outcome == OUTCOME_RECOVERED:
            assert r.detections > 0


def test_ecc_masks_everything(matrix):
    ecc = matrix["ecc"]
    assert ecc.sdc_total == 0
    for r in ecc.injections:
        assert r.outcome == OUTCOME_MASKED
        assert r.detail in ("", "corrected")
        assert r.suppressed_folds == 0


def test_by_structure_accounts_for_every_injection(matrix):
    for report in matrix.values():
        summary = report.by_structure()
        assert sum(int(d["injections"]) for d in summary.values()) \
            == len(report.injections)
        for d in summary.values():
            assert d["avf"] == d["sdc"] / d["injections"]


# ----------------------------------------------------------------------
# determinism and serialisation
# ----------------------------------------------------------------------
def test_campaign_rerun_is_byte_identical(matrix):
    again = run_campaign(dataclasses.replace(CFG, protection="parity"))
    assert report_to_json(again) == report_to_json(matrix["parity"])


def test_matrix_json_round_trip(matrix):
    text = matrix_to_json(matrix)
    back = reports_from_json(text)
    assert set(back) == set(PROTECTIONS)
    for p in PROTECTIONS:
        assert back[p].to_dict() == matrix[p].to_dict()
    assert matrix_to_json(back) == text


def test_single_report_round_trip(matrix):
    text = report_to_json(matrix["none"])
    back = reports_from_json(text)
    assert list(back) == ["none"]
    assert back["none"].to_dict() == matrix["none"].to_dict()


def test_render_is_stable_and_informative(matrix):
    out = render_matrix(matrix)
    assert render_matrix(matrix) == out
    for p in PROTECTIONS:
        assert p in out
    assert "avf" in out and "TOTAL" in out
    single = render_report(matrix["none"])
    assert "fault campaign" in single


def test_shared_context_matches_fresh_context(matrix):
    """A report computed through run_protection_matrix's shared context
    equals one computed from a context built from scratch."""
    ctx = _Context(dataclasses.replace(CFG, protection="ecc"))
    fresh = run_campaign(dataclasses.replace(CFG, protection="ecc"),
                         context=ctx)
    assert fresh.to_dict() == matrix["ecc"].to_dict()


# ----------------------------------------------------------------------
# batched execution: one replay, same classifications
# ----------------------------------------------------------------------
def _per_site(ctx, protection):
    """The per-site reference: one :func:`_classify` run per fault."""
    return [_classify(ctx, s, protection).to_dict() for s in ctx.plan]


def test_batched_ecc_campaign_is_byte_identical(matrix):
    """The batch path arms the whole ecc plan on one reference replay;
    its classifications must equal the per-site reference's, and its
    report the module fixture's (itself locked against fresh contexts
    above)."""
    cfg = dataclasses.replace(CFG, protection="ecc")
    ctx = _Context(cfg)
    batched = run_campaign(cfg, context=ctx)
    assert [r.to_dict() for r in batched.injections] \
        == _per_site(ctx, "ecc")
    assert report_to_json(batched) == report_to_json(matrix["ecc"])


def test_non_batchable_protections_fall_back(matrix):
    """none/parity need mid-run state mutation the batched replay can't
    express; they must still classify per-site, identically."""
    for prot in ("none", "parity"):
        cfg = dataclasses.replace(CFG, protection=prot)
        again = run_campaign(cfg)
        assert report_to_json(again) == report_to_json(matrix[prot])


def test_matrix_batch_off_matches_default(matrix):
    """Every protection's classifications in the matrix equal the
    per-site reference over the same plan."""
    ctx = _Context(CFG)
    for prot, report in matrix.items():
        assert [r.to_dict() for r in report.injections] \
            == _per_site(ctx, prot)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_campaign_and_report_round_trip(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    rc = main(["faults", "campaign", "--benchmark", "adpcm_enc",
               "--samples", "64", "--seed", "11", "--bit-size", "8",
               "--n-faults", "4", "--fault-seed", "3",
               "--protection", "all", "--json", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data) == set(PROTECTIONS)

    rc = main(["faults", "report", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "protection" in text and "avf" in text


def test_cli_single_protection_text(capsys):
    rc = main(["faults", "campaign", "--samples", "64", "--seed", "11",
               "--bit-size", "8", "--n-faults", "2", "--fault-seed", "3",
               "--protection", "ecc"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "protection=ecc" in text


def test_report_from_dict_tolerates_minimal_payload():
    rep = CampaignReport.from_dict({"config": {"protection": "none"},
                                    "injections": []})
    assert rep.sdc_total == 0
    assert rep.by_structure() == {}
