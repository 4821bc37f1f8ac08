"""Unit tests of the out-of-order backend's machine behaviors.

The differential sweep (``test_differential_random.py``) locks the OoO
machine's architectural behavior against the functional model; these
tests pin the *microarchitectural* contracts that equivalence alone
cannot see: configuration validation, precise exceptions (raised at
commit, suppressed on the wrong path), checkpoint-recovery accounting,
BDT-saturation fetch back-pressure, and structural occupancy bounds.
"""

import pytest

from repro.asm.assembler import assemble
from repro.asbr import ASBRUnit, FoldabilityError, extract_branch_info
from repro.memory.main_memory import MisalignedAccess
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.testing import random_program


def _asbr_for(prog, update="execute"):
    infos = []
    for i, ins in enumerate(prog.instrs):
        if ins.is_branch:
            try:
                infos.append(extract_branch_info(prog, prog.pc_of(i)))
            except FoldabilityError:
                pass
    return ASBRUnit.from_branch_infos(infos[:16], bdt_update=update)


class TestConfig:
    def test_defaults_valid(self):
        cfg = OoOConfig()
        assert cfg.issue_width == 2 and cfg.rob_size == 32

    @pytest.mark.parametrize("kw", [
        {"issue_width": 0}, {"issue_width": 9},
        {"rob_size": 2}, {"iq_size": 1}, {"phys_regs": 32},
    ])
    def test_bad_shapes_rejected(self, kw):
        with pytest.raises(ValueError):
            OoOConfig(**kw)


class TestPreciseExceptions:
    def test_fault_raised_at_commit_with_older_state_committed(self):
        # the misaligned load must fault *after* r1/r2 commit and
        # *before* r4 does — the definition of a precise exception
        prog = assemble("li r1, 3\n"
                        "li r2, 7\n"
                        "lw r3, 1(r0)\n"
                        "li r4, 9\n"
                        "halt\n")
        sim = OoOSimulator(prog)
        with pytest.raises(MisalignedAccess):
            sim.run()
        assert sim.regs[1] == 3 and sim.regs[2] == 7
        assert sim.regs[4] == 0

    def test_wrong_path_fault_squashed_silently(self):
        # the not-taken default predictor fetches the misaligned load
        # speculatively; recovery must squash it, never raise it
        prog = assemble("li r1, 1\n"
                        "bne r1, r0, skip\n"
                        "lw r3, 1(r0)\n"
                        "skip: li r4, 9\n"
                        "halt\n")
        sim = OoOSimulator(prog)
        stats = sim.run()
        assert sim.regs[4] == 9
        assert stats.branch_mispredicts == 1
        assert stats.squashed >= 1


class TestRecovery:
    def test_checkpoint_accounting(self):
        prog = random_program(3, units=14)
        sim = OoOSimulator(prog, config=OoOConfig(issue_width=2))
        stats = sim.run()
        assert stats.branch_mispredicts > 0
        assert stats.checkpoint_restores == stats.branch_mispredicts
        assert stats.squash_depth_sum >= stats.checkpoint_restores - 1
        assert stats.avg_squash_depth >= 0.0
        # fetched instructions either commit (incl. folds) or squash
        assert stats.fetched == (stats.committed + stats.folds_committed
                                 + stats.squashed)

    def test_rob_occupancy_bounded(self):
        prog = random_program(5, units=14)
        cfg = OoOConfig(issue_width=4, rob_size=16, iq_size=8,
                        phys_regs=48)
        sim = OoOSimulator(prog, config=cfg)
        stats = sim.run()
        assert 0 < stats.max_rob_occupancy <= cfg.rob_size


class TestBDTBackPressure:
    def test_saturated_counter_stalls_fetch(self):
        # nine in-flight writes to a BDT-tracked register exceed the
        # 3-bit counter; the machine must stall fetch, not overflow
        body = "".join("addi r1, r1, 1\n" for _ in range(9))
        prog = assemble("li r1, 0\n" + body +
                        "beq r1, r0, out\n"
                        "li r2, 5\n"
                        "out: halt\n")
        unit = _asbr_for(prog)
        sim = OoOSimulator(prog, asbr=unit,
                           config=OoOConfig(issue_width=4))
        stats = sim.run()
        assert stats.bdt_fetch_stalls > 0
        assert sim.regs[1] == 9 and sim.regs[2] == 5

    def test_fold_counts_in_ledger(self):
        # at width 1 the random-program sweep's ASBR unit still folds;
        # folded branches must retire through the fold counters
        for seed in range(8):
            prog = random_program(seed, units=14)
            sim = OoOSimulator(prog, asbr=_asbr_for(prog),
                               config=OoOConfig(issue_width=1))
            stats = sim.run()
            if stats.folds_committed:
                return
        pytest.fail("no seed produced a committed fold at width 1")


class TestCommitLog:
    def test_commit_log_matches_functional(self):
        from repro.sim.functional import FunctionalSimulator

        prog = random_program(11, units=14)
        pcs = []
        FunctionalSimulator(prog).run_reference(
            max_instructions=200_000,
            observer=lambda pc, instr, next_pc: pcs.append(pc))
        log = []
        OoOSimulator(prog, asbr=_asbr_for(prog), commit_log=log,
                     config=OoOConfig(issue_width=2)).run()
        assert log == pcs
