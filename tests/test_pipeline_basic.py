"""Cycle-level unit tests for the 5-stage pipeline.

Expected cycle counts are derived from the documented timing model:
an N-instruction program with no hazards finishes in N + 4 cycles
(5-stage fill); load-use adds 1; a mispredicted branch adds 2; a
j/jal adds 1; a jr/jalr adds 2; a cache miss adds its penalty.
"""

import pytest

from repro.asm import assemble
from repro.memory.cache import CacheConfig
from repro.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    NotTakenPredictor,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineConfig, PipelineSimulator


def perfect_caches():
    """Caches that never stall, isolating core pipeline timing."""
    cfg = CacheConfig(miss_penalty=0, writeback_penalty=0)
    return PipelineConfig(icache=cfg, dcache=cfg)


def run(src, predictor=None, config=None):
    prog = assemble(".text\nmain:\n" + src)
    sim = PipelineSimulator(prog, predictor=predictor,
                            config=config or perfect_caches())
    stats = sim.run()
    return sim, stats


class TestStraightLine:
    def test_fill_plus_one_per_instr(self):
        _sim, stats = run("nop\nnop\nnop\nhalt\n")
        assert stats.committed == 4
        assert stats.cycles == 4 + 4

    def test_single_halt(self):
        _sim, stats = run("halt\n")
        assert stats.cycles == 5

    def test_dependent_alu_chain_fully_forwarded(self):
        # each addi depends on the previous: forwarding absorbs it all
        src = "li r1, 0\n" + "addi r1, r1, 1\n" * 6 + "halt\n"
        _sim, stats = run(src)
        assert stats.cycles == 8 + 4
        assert stats.load_use_stalls == 0

    def test_distance_2_dependence_no_stall(self):
        _sim, stats = run("li r1, 5\nnop\naddi r2, r1, 1\nhalt\n")
        assert stats.cycles == 4 + 4


class TestLoadUse:
    def test_immediate_use_stalls_once(self):
        _sim, stats = run("lw r1, -8(sp)\naddi r2, r1, 1\nhalt\n")
        assert stats.load_use_stalls == 1
        assert stats.cycles == 3 + 4 + 1

    def test_store_after_load_also_interlocked(self):
        _sim, stats = run("lw r1, -8(sp)\nsw r1, -12(sp)\nhalt\n")
        assert stats.load_use_stalls == 1

    def test_one_gap_no_stall(self):
        _sim, stats = run("lw r1, -8(sp)\nnop\naddi r2, r1, 1\nhalt\n")
        assert stats.load_use_stalls == 0
        assert stats.cycles == 4 + 4

    def test_load_to_unrelated_no_stall(self):
        _sim, stats = run("lw r1, -8(sp)\naddi r2, r3, 1\nhalt\n")
        assert stats.load_use_stalls == 0

    def test_forwarded_value_correct(self):
        sim, _stats = run("li r1, 42\nsw r1, -8(sp)\nlw r2, -8(sp)\n"
                          "addi r3, r2, 1\nhalt\n")
        assert sim.regs[3] == 43


class TestBranchTiming:
    def test_taken_branch_not_taken_predictor_costs_2(self):
        # b skips one instruction: beq(T) + target + halt
        _sim, stats = run("b over\nnop\nover: nop\nhalt\n",
                          predictor=NotTakenPredictor())
        # 3 committed instrs (beq, over-nop, halt) + fill 4 + penalty 2
        assert stats.committed == 3
        assert stats.cycles == 3 + 4 + 2
        assert stats.branch_mispredicts == 1

    def test_not_taken_branch_is_free(self):
        _sim, stats = run("li r1, 1\nbeqz r1, over\nnop\nover: halt\n",
                          predictor=NotTakenPredictor())
        assert stats.branch_mispredicts == 0
        assert stats.cycles == 4 + 4

    def test_loop_penalties_not_taken_predictor(self, count_loop_program):
        sim = PipelineSimulator(count_loop_program,
                                predictor=NotTakenPredictor(),
                                config=perfect_caches())
        stats = sim.run()
        # 33 dynamic instrs; 9 taken bnez each cost 2; final bnez correct
        assert stats.committed == 33
        assert stats.branches == 10
        assert stats.branch_mispredicts == 9
        assert stats.cycles == 33 + 4 + 18
        assert sim.regs[5] == 55

    def test_bimodal_learns_loop(self, count_loop_program):
        sim = PipelineSimulator(count_loop_program,
                                predictor=BimodalPredictor(64, 64),
                                config=perfect_caches())
        stats = sim.run()
        # warm-up mispredictions only: much better than not-taken
        assert stats.branch_mispredicts <= 4
        assert sim.regs[5] == 55

    def test_taken_prediction_needs_btb(self):
        # always-taken with an empty BTB cannot redirect: first
        # encounter of a taken branch still pays the penalty
        _sim, stats = run("b over\nnop\nover: nop\nhalt\n",
                          predictor=AlwaysTakenPredictor())
        assert stats.branch_mispredicts == 1

    def test_squashed_instructions_counted(self):
        # one wrong-path instruction is in flight when the branch
        # resolves (the second penalty cycle is a suppressed fetch)
        _sim, stats = run("b over\nnop\nover: nop\nhalt\n",
                          predictor=NotTakenPredictor())
        assert stats.squashed == 1
        assert stats.fetched == stats.committed + stats.squashed


class TestJumpTiming:
    def test_jump_costs_one_bubble(self):
        _sim, stats = run("j over\nnop\nover: nop\nhalt\n")
        assert stats.committed == 3
        assert stats.cycles == 3 + 4 + 1
        assert stats.jump_bubbles == 1

    def test_jal_jr_roundtrip(self):
        src = ("jal fn\naddi r2, r2, 1\nhalt\n"
               "fn: li r2, 10\njr ra\n")
        sim, stats = run(src)
        assert sim.regs[2] == 11
        assert stats.jump_bubbles == 1     # the jal
        assert stats.jr_redirects == 1     # the jr
        # 5 committed, fill 4, jal 1, jr 2
        assert stats.cycles == 5 + 4 + 1 + 2


class TestCacheStalls:
    def test_icache_cold_misses_counted(self):
        prog = assemble(".text\nmain:\nnop\nnop\nhalt\n")
        sim = PipelineSimulator(prog)   # default 8KB caches, 8-cycle miss
        stats = sim.run()
        # all three instrs share one 32-byte block: one cold miss
        assert stats.icache_miss_stalls == 8
        assert stats.cycles == 3 + 4 + 8

    def test_dcache_cold_miss_stalls_mem(self):
        cfg = PipelineConfig(
            icache=CacheConfig(miss_penalty=0, writeback_penalty=0),
            dcache=CacheConfig(miss_penalty=6, writeback_penalty=0))
        _sim, stats = run("lw r1, -8(sp)\nhalt\n", config=cfg)
        assert stats.dcache_miss_stalls == 6
        assert stats.cycles == 2 + 4 + 6

    def test_dcache_hit_after_miss(self):
        cfg = PipelineConfig(
            icache=CacheConfig(miss_penalty=0, writeback_penalty=0),
            dcache=CacheConfig(miss_penalty=6, writeback_penalty=0))
        _sim, stats = run("lw r1, -8(sp)\nlw r2, -8(sp)\nhalt\n",
                          config=cfg)
        assert stats.dcache_miss_stalls == 6   # second access hits


class TestHaltSemantics:
    def test_instructions_after_halt_never_commit(self):
        sim, stats = run("halt\nli r1, 99\nsw r1, -4(sp)\n")
        assert stats.committed == 1
        assert sim.regs[1] == 0
        assert sim.memory.read_word(sim.regs[29] - 4) == 0

    def test_wrong_path_halt_does_not_stop(self):
        # predicted-taken path contains a halt; actual path continues
        src = ("li r1, 1\nbeqz r1, dead\nli r2, 7\nhalt\n"
               "dead: halt\n")
        sim, stats = run(src, predictor=AlwaysTakenPredictor())
        assert sim.regs[2] == 7


class TestArchitecturalEquivalence:
    def test_matches_functional(self, fold_demo_program):
        f = FunctionalSimulator(fold_demo_program)
        n = f.run_reference()
        p = PipelineSimulator(fold_demo_program,
                              predictor=BimodalPredictor(64, 64))
        stats = p.run()
        assert p.regs.snapshot() == f.regs.snapshot()
        assert p.memory.snapshot() == f.memory.snapshot()
        assert stats.committed == n

    def test_cpi_property(self, count_loop_program):
        sim = PipelineSimulator(count_loop_program,
                                config=perfect_caches())
        stats = sim.run()
        assert stats.cpi == pytest.approx(stats.cycles / stats.committed)

    def test_cycle_budget_enforced(self):
        prog = assemble(".text\nmain: b main\nhalt\n")
        from repro.sim.functional import SimulationError
        cfg = PipelineConfig(max_cycles=200)
        with pytest.raises(SimulationError, match="budget"):
            PipelineSimulator(prog, config=cfg).run()
