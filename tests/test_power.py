"""Unit tests for the activity-based energy model."""

import math

import pytest

from repro.asbr import ASBRUnit, extract_branch_info
from repro.asm import assemble
from repro.power import (EnergyParams, EnergyReport, compare_energy,
                         estimate_energy_from_stats)
from repro.power.model import _access_energy
from repro.predictors import BimodalPredictor, NotTakenPredictor
from repro.sim.ooo import OoOSimulator
from repro.sim.pipeline import PipelineSimulator


# ----------------------------------------------------------------------
# the oracle: the live-simulator estimator the stats-only one replaced,
# kept verbatim (it read every count off the simulator's own objects)
# ----------------------------------------------------------------------
def oracle_energy(sim, params=None) -> EnergyReport:
    """Energy report for a completed simulator run (the old
    ``estimate_energy(sim)``)."""
    params = params if params is not None else EnergyParams()
    stats = sim.stats
    predictor = sim.predictor
    icache = sim.icache
    dcache = sim.dcache
    asbr = sim.asbr
    report = EnergyReport()
    comp = report.components

    comp["pipeline"] = params.pipeline_slot * (
        stats.committed * params.stage_count
        + stats.squashed * params.stage_count * 0.5)

    e_ic = _oracle_access(icache.state_bits, params)
    e_dc = _oracle_access(dcache.state_bits, params)
    comp["icache"] = (icache.stats.accesses * e_ic
                      + icache.stats.misses * params.cache_miss_energy)
    comp["dcache"] = (dcache.stats.accesses * e_dc
                      + (dcache.stats.misses + dcache.stats.writebacks)
                      * params.cache_miss_energy)

    e_pred = _oracle_access(predictor.state_bits, params)
    comp["predictor"] = e_pred * (stats.predictor_lookups + stats.branches)

    if asbr is not None:
        e_bit = _oracle_access(asbr.bit.state_bits, params)
        e_bdt = _oracle_access(asbr.bdt.state_bits, params)
        bit_lookups = (stats.predictor_lookups
                       + asbr.stats.folded + asbr.stats.invalid_fallbacks)
        bdt_updates = stats.committed
        comp["asbr"] = (e_bit * bit_lookups + e_bdt * bdt_updates
                        + params.fold_energy * asbr.stats.folded)

    state = (icache.state_bits + dcache.state_bits + predictor.state_bits
             + (asbr.state_bits if asbr is not None else 0))
    comp["leakage"] = params.leakage_coeff * state * stats.cycles
    return report


def _oracle_access(state_bits, params):
    return params.table_access_coeff * math.sqrt(max(state_bits, 1))


def price(sim) -> EnergyReport:
    """The one estimator over ``sim``'s stats, sized like ``sim``."""
    asbr = sim.asbr
    return estimate_energy_from_stats(
        sim.stats, sim.predictor.state_bits,
        bit_state_bits=asbr.bit.state_bits if asbr is not None else 0,
        bdt_state_bits=asbr.bdt.state_bits if asbr is not None else 0,
        icache_config=sim.icache.config, dcache_config=sim.dcache.config)


@pytest.fixture()
def run_demo(fold_demo_program):
    def _run(predictor=None, asbr=None):
        sim = PipelineSimulator(fold_demo_program, predictor=predictor,
                                asbr=asbr)
        sim.run()
        return sim
    return _run


class TestModelBasics:
    def test_components_positive(self, run_demo):
        report = price(run_demo())
        assert report.total > 0
        for name in ("pipeline", "icache", "dcache", "predictor",
                     "leakage"):
            assert report.components[name] >= 0

    def test_pipeline_dominates(self, run_demo):
        """With relative constants chosen as documented, pipeline
        activity is the biggest consumer."""
        report = price(run_demo())
        assert report.fraction("pipeline") > 0.3

    def test_access_energy_scales_sublinearly(self):
        p = EnergyParams()
        small = _access_energy(1024, p)
        big = _access_energy(4096, p)
        assert big == pytest.approx(2 * small)   # sqrt scaling

    def test_render(self, run_demo):
        text = price(run_demo()).render("demo")
        assert "TOTAL" in text and "pipeline" in text

    def test_no_asbr_component_without_unit(self, run_demo):
        report = price(run_demo())
        assert "asbr" not in report.components


class TestClaims:
    def test_bigger_predictor_costs_more(self, run_demo):
        small = price(run_demo(BimodalPredictor(64, 64)))
        big = price(run_demo(BimodalPredictor(2048, 2048)))
        assert big.components["predictor"] > small.components["predictor"]
        assert big.components["leakage"] > small.components["leakage"]

    def test_asbr_reduces_energy(self, fold_demo_program, run_demo):
        """The paper's power claim on the demo loop: folding the hard
        branch cuts pipeline activity and total energy."""
        info = extract_branch_info(fold_demo_program,
                                   fold_demo_program.labels["br1"])
        unit = ASBRUnit.from_branch_infos([info], bdt_update="execute")
        base = price(run_demo(NotTakenPredictor()))
        cust = price(run_demo(NotTakenPredictor(), unit))
        assert cust.components["pipeline"] < base.components["pipeline"]
        assert compare_energy(base, cust) > 0

    def test_wrong_path_work_charged(self):
        """A mispredicting run burns more pipeline energy than a
        perfectly-predicted one of the same committed length."""
        taken_loop = assemble("""
        .text
        main:
            li r1, 30
        loop:
            addi r1, r1, -1
            bnez r1, loop
            halt
        """)
        bad = PipelineSimulator(taken_loop, predictor=NotTakenPredictor())
        bad.run()
        good = PipelineSimulator(taken_loop,
                                 predictor=BimodalPredictor(64, 64))
        good.run()
        e_bad = price(bad)
        e_good = price(good)
        assert bad.stats.squashed > good.stats.squashed
        assert e_bad.components["pipeline"] > e_good.components["pipeline"]

    def test_compare_energy_zero_baseline(self):
        assert compare_energy(EnergyReport(), EnergyReport()) == 0.0


# ----------------------------------------------------------------------
# the oracle lock: the stats-only estimator equals the live one exactly
# ----------------------------------------------------------------------
ORACLE_N, ORACLE_SEED = 96, 5
CODECS = ("adpcm_enc", "adpcm_dec", "g721_enc", "g721_dec", "huffman_dec")


def _live(name, predictor_spec, with_asbr=False, reference=True,
          n=ORACLE_N, select_update="execute", bdt_update="execute",
          ooo=None, frontend=None):
    """Run one workload and return the live simulator after its run:
    the in-order machine's reference loop, or ``run()`` when
    ``reference`` is False."""
    from repro.predictors import make_predictor
    from repro.profiling import profile_and_select
    from repro.workloads import get_workload, speech_like

    wl = get_workload(name)
    pcm = speech_like(n, seed=ORACLE_SEED)
    asbr = None
    if with_asbr:
        sel = profile_and_select(wl.program, wl.memory_image(pcm)[0],
                                 bdt_update=select_update).selection
        asbr = ASBRUnit.from_branch_infos(sel.infos, bdt_update=bdt_update)
    kw = dict(predictor=make_predictor(predictor_spec), asbr=asbr,
              frontend=frontend)
    memory, count = wl.memory_image(pcm)
    if ooo is not None:
        sim = OoOSimulator(wl.program, memory, config=ooo, **kw)
        run = sim.run
    else:
        sim = PipelineSimulator(wl.program, memory, **kw)
        run = sim.run_reference if reference else sim.run
    run()
    assert wl.read_output(sim.memory, count) == wl.golden_output(pcm)
    return sim


def _assert_oracle(sim):
    exact, oracle = price(sim), oracle_energy(sim)
    assert exact.components == oracle.components
    assert exact.total == oracle.total


@pytest.mark.parametrize("reference", [True, False],
                         ids=["interp", "superblocks"])
@pytest.mark.parametrize("core", [("bimodal-2048", False),
                                  ("bimodal-512-512", True)],
                         ids=["baseline", "asbr"])
@pytest.mark.parametrize("codec", CODECS)
def test_stats_estimator_equals_live_oracle(codec, core, reference):
    _assert_oracle(_live(codec, *core, reference=reference))


def test_oracle_ooo_two_wide():
    from repro.sim.ooo import OoOConfig
    _assert_oracle(_live("adpcm_enc", "bimodal-512-512", with_asbr=True,
                         ooo=OoOConfig(issue_width=2)))


def test_oracle_fdip_frontend():
    from repro.frontend import FrontendConfig
    _assert_oracle(_live("huffman_dec", "bimodal-512-512", with_asbr=True,
                         frontend=FrontendConfig(fdip=True)))


def test_oracle_with_bdt_busy_fallbacks():
    """A threshold-2 selection run with commit-point BDT updates: most
    fold attempts fall back, so the BIT-lookup term is exercised."""
    sim = _live("adpcm_enc", "bimodal-512-512", with_asbr=True, n=200,
                select_update="execute", bdt_update="commit")
    assert sim.stats.invalid_fallbacks == sim.asbr.stats.invalid_fallbacks
    assert sim.stats.invalid_fallbacks > 0
    _assert_oracle(sim)


class TestEnergyExperiment:
    def test_extension_e1_rows(self):
        from repro.experiments import energy
        from repro.experiments.common import ExperimentSetup
        setup = ExperimentSetup(n_samples=120)
        rows = energy.run(setup)
        assert len(rows) == 4
        for r in rows:
            assert r.saving > 0                       # the power claim
            assert r.customized_fetched < r.baseline_fetched
        text = energy.render(rows)
        assert "E1" in text
