"""Differential testing: the pipeline must match the golden model.

For randomly generated programs (see repro.testing), under every
predictor and every ASBR configuration, final registers, final memory,
and the committed-instruction ledger must agree with the functional
simulator.
"""

import pytest

from repro.asbr import ASBRUnit, FoldabilityError, extract_branch_info
from repro.memory.cache import CacheConfig
from repro.predictors import make_predictor
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineConfig, PipelineSimulator
from repro.testing import random_program

SEEDS = list(range(25))
PREDICTORS = ["not-taken", "always-taken", "bimodal-64-64",
              "gshare-64-5-64"]


def functional_result(prog):
    sim = FunctionalSimulator(prog)
    n = sim.run_reference(max_instructions=100_000)
    return sim, n


def assert_equivalent(prog, pipeline, stats, f_sim, n):
    assert pipeline.regs.snapshot() == f_sim.regs.snapshot()
    assert pipeline.memory.snapshot() == f_sim.memory.snapshot()
    assert stats.committed == n - stats.folds_committed


@pytest.mark.parametrize("seed", SEEDS)
def test_predictors_equivalent(seed):
    prog = random_program(seed)
    f_sim, n = functional_result(prog)
    for spec in PREDICTORS:
        sim = PipelineSimulator(prog, predictor=make_predictor(spec))
        stats = sim.run()
        assert_equivalent(prog, sim, stats, f_sim, n)
        assert stats.folds_committed == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("update", ["commit", "mem", "execute"])
def test_asbr_equivalent(seed, update):
    prog = random_program(seed)
    f_sim, n = functional_result(prog)
    infos = []
    for i, ins in enumerate(prog.instrs):
        if ins.is_branch:
            try:
                infos.append(extract_branch_info(prog, prog.pc_of(i)))
            except FoldabilityError:
                pass
    unit = ASBRUnit.from_branch_infos(infos[:16], bdt_update=update)
    sim = PipelineSimulator(prog, predictor=make_predictor("bimodal-64-64"),
                            asbr=unit)
    stats = sim.run()
    assert_equivalent(prog, sim, stats, f_sim, n)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_tiny_caches_equivalent(seed):
    """Pathologically small caches change timing, never results."""
    prog = random_program(seed)
    f_sim, n = functional_result(prog)
    cfg = PipelineConfig(
        icache=CacheConfig(size_bytes=64, block_bytes=16, assoc=1,
                           miss_penalty=13),
        dcache=CacheConfig(size_bytes=64, block_bytes=16, assoc=1,
                           miss_penalty=29, writeback_penalty=7))
    sim = PipelineSimulator(prog, predictor=make_predictor("bimodal-64-64"),
                            config=cfg)
    stats = sim.run()
    assert_equivalent(prog, sim, stats, f_sim, n)
    assert stats.icache_miss_stalls > 0


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_fetched_ledger(seed):
    """Every fetched instruction either commits, is squashed, or is
    still in flight when halt commits."""
    prog = random_program(seed)
    sim = PipelineSimulator(prog, predictor=make_predictor("not-taken"))
    stats = sim.run()
    in_flight = sum(s is not None for s in
                    (sim.s_if, sim.s_id, sim.s_ex, sim.s_mem, sim.s_wb))
    assert stats.fetched == stats.committed + stats.squashed + in_flight


def test_cycles_monotone_in_penalties():
    """Larger miss penalties can only slow execution down."""
    prog = random_program(3)
    cycles = []
    for pen in (0, 4, 16):
        cfg = PipelineConfig(
            icache=CacheConfig(size_bytes=256, block_bytes=32, assoc=1,
                               miss_penalty=pen),
            dcache=CacheConfig(size_bytes=256, block_bytes=32, assoc=1,
                               miss_penalty=pen))
        sim = PipelineSimulator(prog, config=cfg)
        cycles.append(sim.run().cycles)
    assert cycles == sorted(cycles)
    assert cycles[0] < cycles[2]
