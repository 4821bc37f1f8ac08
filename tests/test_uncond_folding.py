"""Tests for CRISP-style unconditional folding (related work [10])."""

import pytest

from repro.asm import assemble
from repro.memory.cache import CacheConfig
from repro.predictors import NotTakenPredictor, make_predictor
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineConfig, PipelineSimulator
from repro.testing import random_program


def perfect_caches():
    cfg = CacheConfig(miss_penalty=0, writeback_penalty=0)
    return PipelineConfig(icache=cfg, dcache=cfg)


def run(src, **kw):
    prog = assemble(".text\nmain:\n" + src)
    sim = PipelineSimulator(prog, config=perfect_caches(), **kw)
    stats = sim.run()
    return sim, stats


class TestJumpFolding:
    def test_j_costs_zero_when_folded(self):
        src = "j over\nnop\nover: nop\nhalt\n"
        _s, plain = run(src)
        _s, folded = run(src, fold_unconditional=True)
        # plain: 3 committed + 4 fill + 1 bubble; folded: jump gone
        assert plain.cycles == 3 + 4 + 1
        assert folded.cycles == 2 + 4
        assert folded.uncond_folds_committed == 1
        assert folded.committed == plain.committed - 1

    def test_b_pseudo_folds_too(self):
        src = "b over\nnop\nover: nop\nhalt\n"
        _s, folded = run(src, fold_unconditional=True,
                         predictor=NotTakenPredictor())
        assert folded.uncond_folds_committed == 1
        assert folded.branch_mispredicts == 0   # never entered the pipe

    def test_jal_not_folded(self):
        src = ("jal fn\naddi r2, r2, 1\nhalt\n"
               "fn: li r2, 10\njr ra\n")
        sim, stats = run(src, fold_unconditional=True)
        assert stats.uncond_folds_committed == 0
        assert sim.regs[2] == 11

    def test_control_target_not_folded(self):
        # jump whose target is another jump: cannot inject control
        src = "j a\nnop\na: j b\nnop\nb: halt\n"
        _s, stats = run(src, fold_unconditional=True)
        assert stats.uncond_folds_committed == 0

    def test_conditional_branches_unaffected(self):
        src = ("li r1, 1\nbeqz r1, skip\nli r2, 9\nskip: addu r2, r2, r0\n"
               "halt\n")
        sim, stats = run(src, fold_unconditional=True)
        assert stats.uncond_folds_committed == 0
        assert sim.regs[2] == 9

    def test_architectural_equivalence(self):
        src = ("li r3, 0\nli r4, 4\nloop: addu r3, r3, r4\n"
               "b dec\nnop\ndec: addi r4, r4, -1\nbnez r4, loop\nhalt\n")
        prog = assemble(".text\nmain:\n" + src)
        f = FunctionalSimulator(prog)
        n = f.run_reference()
        sim = PipelineSimulator(prog, config=perfect_caches(),
                                fold_unconditional=True)
        stats = sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert stats.committed == n - stats.uncond_folds_committed
        assert stats.uncond_folds_committed == 4   # b dec, each iteration

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_equivalent(self, seed):
        prog = random_program(seed)
        f = FunctionalSimulator(prog)
        n = f.run_reference(max_instructions=100_000)
        sim = PipelineSimulator(prog,
                                predictor=make_predictor("bimodal-64-64"),
                                fold_unconditional=True)
        stats = sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert sim.memory.snapshot() == f.memory.snapshot()
        assert stats.committed == n - stats.uncond_folds_committed


class TestCombinedWithASBR:
    def test_both_fold_mechanisms_together(self, fold_demo_program):
        from repro.asbr import ASBRUnit, extract_branch_info
        prog = fold_demo_program
        f = FunctionalSimulator(prog)
        n = f.run_reference()
        info = extract_branch_info(prog, prog.labels["br1"])
        unit = ASBRUnit.from_branch_infos([info], bdt_update="execute")
        sim = PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                asbr=unit, config=perfect_caches(),
                                fold_unconditional=True)
        stats = sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert stats.folds_committed == 10
        assert stats.committed == (n - stats.folds_committed
                                   - stats.uncond_folds_committed)

    def test_workload_with_uncond_folding(self, small_pcm):
        """The codecs' `b` pseudo-branches fold; outputs stay exact."""
        from repro.workloads import get_workload
        wl = get_workload("adpcm_enc")
        stream = wl.input_stream(small_pcm)
        sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                predictor=make_predictor("bimodal-512-512"),
                                fold_unconditional=True)
        sim.run()
        outputs = wl.read_output(sim.memory, len(stream))
        assert outputs == wl.golden_output(small_pcm)
        assert sim.stats.uncond_folds_committed > 0
