"""ASBR folding-unit tests, including the emergent threshold timing.

The paper's feasibility rule (Sections 4-5): a branch folds only when
its predicate-defining instruction is more than *threshold* instructions
ahead, where threshold is 4 (commit-time BDT update), 3 (post-MEM
forwarding) or 2 (post-EX forwarding).  In the pipeline this rule is
*emergent* — nothing checks distances explicitly; the validity counters
produce exactly this behaviour.  These tests pin it down cycle-exactly.
"""

import dataclasses

import pytest

from repro.asbr import ASBRUnit, extract_branch_info
from repro.asbr.folding import THRESHOLD_BY_UPDATE
from repro.asm import assemble
from repro.memory.cache import CacheConfig
from repro.predictors import NotTakenPredictor
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineConfig, PipelineSimulator


def perfect_caches():
    cfg = CacheConfig(miss_penalty=0, writeback_penalty=0)
    return PipelineConfig(icache=cfg, dcache=cfg)


def distance_program(distance, producer="addiu"):
    """Producer of r9, ``distance-1`` fillers, then a branch on r9.

    With an ALU producer r9 becomes 1 (branch taken); with a load
    producer the loaded value is 1 as well.
    """
    if producer == "addiu":
        produce = "addiu r9, r0, 1"
    else:
        produce = "lw r9, 0(r4)"
    fillers = "\n".join("addu r20, r20, r21" for _ in range(distance - 1))
    return assemble("""
.data
one: .word 1
.text
main:
    la   r4, one
    %s
    %s
br:
    bnez r9, taken
    addi r2, r2, 1
taken:
    addi r3, r3, 1
    halt
""" % (produce, fillers))


def run_with_fold(prog, update):
    info = extract_branch_info(prog, prog.labels["br"])
    unit = ASBRUnit.from_branch_infos([info], bdt_update=update)
    sim = PipelineSimulator(prog, predictor=NotTakenPredictor(),
                            asbr=unit, config=perfect_caches())
    stats = sim.run()
    return sim, stats, unit


class TestThresholdRule:
    @pytest.mark.parametrize("update", ["execute", "mem", "commit"])
    @pytest.mark.parametrize("distance", [1, 2, 3, 4, 5, 6])
    def test_alu_producer(self, update, distance):
        prog = distance_program(distance)
        sim, stats, unit = run_with_fold(prog, update)
        threshold = THRESHOLD_BY_UPDATE[update]
        if distance > threshold:
            assert stats.folds_committed == 1, \
                "distance %d > threshold %d must fold" % (distance,
                                                          threshold)
        else:
            assert stats.folds_committed == 0
            assert unit.stats.invalid_fallbacks >= 1
        # architecture is correct either way
        assert sim.regs[3] == 1
        assert sim.regs[2] == 0

    @pytest.mark.parametrize("distance,expect_fold", [(3, False),
                                                      (4, True)])
    def test_load_producer_needs_mem_threshold(self, distance,
                                               expect_fold):
        """Loads deliver at MEM even under the execute update point."""
        prog = distance_program(distance, producer="lw")
        _sim, stats, _unit = run_with_fold(prog, "execute")
        assert (stats.folds_committed == 1) == expect_fold

    def test_paper_figure2_example(self):
        """Three independent instructions between producer and branch
        (distance 4): foldable at thresholds 3 and 2, not at 4."""
        prog = distance_program(4)
        for update, expect in (("execute", True), ("mem", True),
                               ("commit", False)):
            _sim, stats, _ = run_with_fold(prog, update)
            assert (stats.folds_committed == 1) == expect


class TestFoldBehaviour:
    def test_taken_fold_zero_cycles(self):
        """A folded branch costs nothing: same cycles as if the branch
        were deleted and control fell straight to the target."""
        prog = distance_program(5)
        _sim_f, stats_f, _ = run_with_fold(prog, "execute")
        # without ASBR, not-taken predictor mispredicts: +2 cycles, and
        # the branch occupies a slot: +1 cycle
        sim_n = PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                  config=perfect_caches())
        stats_n = sim_n.run()
        assert stats_n.cycles - stats_f.cycles == 3
        assert stats_f.committed == stats_n.committed - 1

    def test_not_taken_fold(self):
        prog = assemble("""
.text
main:
    addiu r9, r0, 0
    nop
    nop
    nop
    nop
br:
    bnez r9, t
    addi r2, r2, 1
t:
    addi r3, r3, 1
    halt
""")
        sim, stats, unit = run_with_fold(prog, "execute")
        assert unit.stats.folded_not_taken == 1
        assert sim.regs[2] == 1      # fall-through executed
        assert sim.regs[3] == 1

    def test_fold_in_loop_every_iteration(self, fold_demo_program):
        prog = fold_demo_program
        f = FunctionalSimulator(prog)
        n = f.run_reference()
        info = extract_branch_info(prog, prog.labels["br1"])
        unit = ASBRUnit.from_branch_infos([info], bdt_update="execute")
        sim = PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                asbr=unit, config=perfect_caches())
        stats = sim.run()
        assert stats.folds_committed == 10
        assert unit.stats.folded_taken == 5
        assert unit.stats.folded_not_taken == 5
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert stats.committed == n - 10

    def test_per_pc_fold_stats(self, fold_demo_program):
        prog = fold_demo_program
        info = extract_branch_info(prog, prog.labels["br1"])
        unit = ASBRUnit.from_branch_infos([info], bdt_update="execute")
        PipelineSimulator(prog, predictor=NotTakenPredictor(), asbr=unit,
                          config=perfect_caches()).run()
        assert unit.stats.per_pc_folds[info.pc] == 10
        assert unit.stats.fold_rate == 1.0


class TestWrongPathInteraction:
    def test_squashed_producer_cancels_cleanly(self):
        """A wrong-path producer of the predicate register leaves the
        BDT clean.  The taken ``bnez r8`` resolves in EX while the
        wrong-path ``addiu r9`` sits in its first ID cycle, and EX work
        runs before ID work, so the producer is squashed before it
        acquires: the validity-counter cancel path
        (``ASBRUnit.producer_squashed``) is never called.  The compiled
        loop, which reads the BDT off the latches, ends in the
        reference loop's state."""
        prog = assemble("""
.text
main:
    addiu r9, r0, 1
    nop
    nop
    nop
    addiu r8, r0, 1
    bnez r8, good            # taken; not-taken predictor -> wrong path
    addiu r9, r0, 0          # wrong-path producer of r9 (squashed)
good:
    nop
    nop
br:
    bnez r9, t
    addi r2, r2, 1
t:
    addi r3, r3, 1
    halt
""")
        info = extract_branch_info(prog, prog.labels["br"])

        def build():
            unit = ASBRUnit.from_branch_infos([info], bdt_update="execute")
            return PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                     asbr=unit, config=perfect_caches())

        sim = build()
        unit = sim.asbr
        stats = sim.run()
        assert sim.regs[9] == 1       # wrong-path write never committed
        assert sim.regs[2] == 0
        assert sim.regs[3] == 1
        assert stats.folds_committed + unit.stats.invalid_fallbacks >= 1
        assert unit.bdt.entries[9].counter == 0

        ref = build()
        cancels = []
        cancel = ref.asbr.producer_squashed
        ref.asbr.producer_squashed = \
            lambda reg: (cancels.append(reg), cancel(reg))
        ref_stats = ref.run_reference()
        assert cancels == []
        assert dataclasses.asdict(stats) == dataclasses.asdict(ref_stats)
        assert dataclasses.asdict(unit.stats) == \
            dataclasses.asdict(ref.asbr.stats)
        assert sim.regs.snapshot() == ref.regs.snapshot()
        assert ([(e.counter, e.bits) for e in unit.bdt.entries]
                == [(e.counter, e.bits) for e in ref.asbr.bdt.entries])


#: two loops, each covered by its own BIT bank, switched by committed
#: ``ctlw`` writes (paper Section 7); see :func:`banked_unit`
BANKED_LOOPS = """
.text
main:
    ctlw 0
    li   r5, 5
    li   r9, 1
    nop
    nop
loop1:
    addi r5, r5, -1
    nop
    nop
    nop
br1:
    bnez r9, l1t
    addi r2, r2, 1
l1t:
    addu r6, r6, r5
    bnez r5, loop1
    ctlw 1
    li   r5, 5
    li   r9, 0
    nop
    nop
loop2:
    addi r5, r5, -1
    nop
    nop
    nop
br2:
    beqz r9, l2t
    addi r3, r3, 1
l2t:
    addu r7, r7, r5
    bnez r5, loop2
    halt
"""


def banked_unit(prog, update="execute"):
    """A two-bank unit for :data:`BANKED_LOOPS`: bank 0 holds ``br1``,
    bank 1 ``br2``."""
    from repro.asbr.bit import BankedBIT
    bank = BankedBIT(num_banks=2, capacity=4)
    bank.load_bank(0, [extract_branch_info(prog, prog.labels["br1"])])
    bank.load_bank(1, [extract_branch_info(prog, prog.labels["br2"])])
    return ASBRUnit(bank, bdt_update=update)


class TestBankSwitching:
    def test_ctlw_switches_banks_end_to_end(self):
        """Two loops, each covered by its own BIT bank, switched by
        committed ctlw writes (paper Section 7)."""
        prog = assemble(BANKED_LOOPS)
        unit = banked_unit(prog)
        f = FunctionalSimulator(prog)
        f.run_reference()
        sim = PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                asbr=unit, config=perfect_caches())
        stats = sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert unit.bit.switches >= 1
        # both loops' branches folded in their active-bank phases
        assert stats.folds_committed == 10


class TestUnitAPI:
    def test_bad_update_point(self):
        from repro.asbr.bit import BankedBIT
        with pytest.raises(ValueError):
            ASBRUnit(BankedBIT(), bdt_update="decode")

    def test_threshold_property(self):
        for update, thr in THRESHOLD_BY_UPDATE.items():
            unit = ASBRUnit.from_branch_infos([], bdt_update=update)
            assert unit.threshold == thr

    def test_state_bits_composition(self):
        unit = ASBRUnit.from_branch_infos([])
        assert unit.state_bits == unit.bit.state_bits + unit.bdt.state_bits

    def test_miss_returns_none_without_stats(self):
        unit = ASBRUnit.from_branch_infos([])
        assert unit.try_fold(0x400000) is None
        assert unit.stats.attempts == 0
