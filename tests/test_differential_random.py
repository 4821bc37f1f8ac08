"""Large-scale differential fuzzing: pipeline vs. functional simulator.

This is the safety net under the decoded-dispatch fast path *and* the
compiled loops: for ~200 seeded random programs (generated by
:mod:`repro.testing`, the same construction the existing equivalence
suite uses), the cycle-accurate pipeline must end with *exactly* the
architectural state of the functional golden model — registers, memory,
and the retired-instruction ledger.  The golden side always runs each
simulator's reference loop (``run_reference``).  Every case runs once
on the reference loops and once on the compiled loops an unobserved
``run()`` takes (the block translator, the superblocks pipeline loop),
which must be bit-identical to the reference: same architectural state
for the functional simulator, same full ``PipelineStats`` for the
pipeline.  The parametrization IDs keep the names the loops were once
selected by: ``interp`` is the reference, ``blocks`` and
``superblocks`` the compiled loop.  They also keep ``nofold``, the off
side of the unconditional-folding axis the sweep once had.

Since PR 8 the sweep is 3-way: the out-of-order backend
(:mod:`repro.sim.ooo`) must commit *the exact program-order pc stream*
the functional simulator retires — not just the final state — across
issue widths, ASBR folding and decoupled-frontend attach, which pins
rename/recovery/commit against speculation bugs that final-state
comparison alone can miss.

A small seed subset runs in tier-1 on every ``pytest`` invocation; the
full 200-program sweep is the ``-m slow`` path (see ``pyproject.toml``),
which CI runs as a step of its own.
"""

import dataclasses

import pytest

from repro.asbr import ASBRUnit, FoldabilityError, extract_branch_info
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineConfig, PipelineSimulator
from repro.testing import random_program

#: full sweep (nightly); the generator seeds its own RNG so each seed is
#: an independent program
ALL_SEEDS = list(range(200))

#: quick subset that stays in tier-1
FAST_SEEDS = ALL_SEEDS[:12]

#: the loop parametrization: the reference loops, then the compiled ones
LOOPS = [True, False]

#: the one-valued axis that keeps the ``nofold`` segment of the IDs
NOFOLD = pytest.mark.parametrize("fold", ["nofold"])

#: reference-loop state, computed once per seed and shared by both
#: loop parametrizations
_REFERENCE = {}


def _reference(seed):
    if seed not in _REFERENCE:
        prog = random_program(seed, units=14)
        fsim = FunctionalSimulator(prog)
        retired = fsim.run_reference(max_instructions=200_000)
        psim = PipelineSimulator(prog)
        pstats = dataclasses.asdict(psim.run_reference())
        _REFERENCE[seed] = (fsim.regs.snapshot(), fsim.memory.snapshot(),
                            retired, pstats)
    return _REFERENCE[seed]


def _check_one(seed, reference):
    regs, mem, retired, pstats = _reference(seed)
    prog = random_program(seed, units=14)

    fsim = FunctionalSimulator(prog)
    frun = fsim.run_reference if reference else fsim.run
    fret = frun(max_instructions=200_000)
    assert fsim.regs.snapshot() == regs, "register state diverged"
    assert fsim.memory.snapshot() == mem, "memory state diverged"
    assert fret == retired, "retired-instruction count diverged"

    sim = PipelineSimulator(prog)
    stats = sim.run_reference() if reference else sim.run()
    # timing must be bit-identical across loops, architectural state
    # identical to the golden model
    assert dataclasses.asdict(stats) == pstats, "pipeline stats diverged"
    assert sim.regs.snapshot() == regs, "register state diverged"
    assert sim.memory.snapshot() == mem, "memory state diverged"
    # every retired instruction is accounted for: a fold retires the
    # replacement instruction instead of the branch it elides
    assert stats.committed + stats.folds_committed == retired


@pytest.mark.parametrize("seed", FAST_SEEDS)
@NOFOLD
@pytest.mark.parametrize("reference", LOOPS, ids=["interp", "blocks"])
def test_differential_fast_subset(seed, fold, reference):
    _check_one(seed, reference)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
@NOFOLD
@pytest.mark.parametrize("reference", LOOPS, ids=["interp", "blocks"])
def test_differential_full_sweep(seed, fold, reference):
    _check_one(seed, reference)


# ----------------------------------------------------------------------
# ASBR-attached pipeline: the compiled fold check vs the reference loop
# ----------------------------------------------------------------------

def _check_asbr_engines(seed, update):
    """With a populated BIT/BDT the compiled loop must reproduce the
    reference pipeline's full stats bit-for-bit.  This drives the
    superblock fold check, the inlined BDT transitions and the fold
    transfer chains against random programs rather than codecs, across
    every BDT update point.  The compiled run's budget is twice the
    reference's cycles, so a wrong fold that never halts fails fast."""
    prog = random_program(seed, units=14)
    ref = PipelineSimulator(prog, asbr=_asbr_for(prog, update))
    pstats = dataclasses.asdict(ref.run_reference())
    sim = PipelineSimulator(prog, asbr=_asbr_for(prog, update),
                            config=PipelineConfig(
                                max_cycles=2 * ref.stats.cycles))
    stats = sim.run()
    assert dataclasses.asdict(stats) == pstats, "pipeline stats diverged"
    assert sim.regs.snapshot() == ref.regs.snapshot(), \
        "register state diverged"
    assert sim.memory.snapshot() == ref.memory.snapshot(), \
        "memory state diverged"


# one loop pair per case; the ``superblocks`` ID is the compiled loop's
# old selection name, kept so the tier-1 IDs stay stable
@pytest.mark.parametrize("seed", FAST_SEEDS[:6])
@pytest.mark.parametrize("update", ["execute", "commit"])
@pytest.mark.parametrize("loop", ["superblocks"])
def test_differential_asbr_engines_fast_subset(seed, update, loop):
    _check_asbr_engines(seed, update)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
@pytest.mark.parametrize("update", ["execute", "commit", "mem"])
def test_differential_asbr_engines_full_sweep(seed, update):
    _check_asbr_engines(seed, update)


# ----------------------------------------------------------------------
# decoupled front end: same architectural contract, random programs
# ----------------------------------------------------------------------
def _check_frontend(seed, fdip):
    """The frontend-attached pipeline must retire exactly the golden
    architectural state: random programs exercise the BPU's unresolved
    gate (jr/halt), FTQ squash recovery, jump steering and ASBR-less
    branch prediction far more adversarially than the codecs do."""
    from repro.frontend import FrontendConfig

    regs, mem, retired, _pstats = _reference(seed)
    prog = random_program(seed, units=14)
    sim = PipelineSimulator(prog, frontend=FrontendConfig(fdip=fdip))
    stats = sim.run()
    assert sim.regs.snapshot() == regs, "register state diverged"
    assert sim.memory.snapshot() == mem, "memory state diverged"
    assert stats.committed + stats.folds_committed == retired


@pytest.mark.parametrize("seed", FAST_SEEDS)
@NOFOLD
@pytest.mark.parametrize("fdip", [False, True], ids=["nofdip", "fdip"])
def test_differential_frontend_fast_subset(seed, fold, fdip):
    _check_frontend(seed, fdip)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
@NOFOLD
@pytest.mark.parametrize("fdip", [False, True], ids=["nofdip", "fdip"])
def test_differential_frontend_full_sweep(seed, fold, fdip):
    _check_frontend(seed, fdip)


# ----------------------------------------------------------------------
# out-of-order backend: 3-way, down to the per-commit pc stream
# ----------------------------------------------------------------------

#: functional retirement pc stream per seed (an ASBR-folded branch
#: commits as [branch pc, replacement pc] — the same stream)
_PC_STREAM = {}


def _pc_stream(seed):
    if seed not in _PC_STREAM:
        prog = random_program(seed, units=14)
        fsim = FunctionalSimulator(prog)
        pcs = []
        fsim.run_reference(max_instructions=200_000,
                           observer=lambda pc, instr, next_pc:
                           pcs.append(pc))
        _PC_STREAM[seed] = pcs
    return _PC_STREAM[seed]


def _asbr_for(prog, update="execute"):
    infos = []
    for i, ins in enumerate(prog.instrs):
        if ins.is_branch:
            try:
                infos.append(extract_branch_info(prog, prog.pc_of(i)))
            except FoldabilityError:
                pass
    return ASBRUnit.from_branch_infos(infos[:16], bdt_update=update)


def _check_ooo(seed, width, frontend_mode):
    """The OoO machine must commit exactly the functional pc stream.

    Random programs hit the hard corners: checkpoint restore under
    nested mispredicts, the program-ordered BDT release queue, wrong
    path fetch through the BPU, jr fetch blocking and BDT-saturation
    back-pressure.
    """
    regs, mem, retired, _pstats = _reference(seed)
    prog = random_program(seed, units=14)
    frontend = None
    if frontend_mode is not None:
        from repro.frontend import FrontendConfig
        frontend = FrontendConfig(fdip=(frontend_mode == "fdip"))
    commit_log = []
    sim = OoOSimulator(prog, asbr=_asbr_for(prog),
                       config=OoOConfig(issue_width=width),
                       frontend=frontend, commit_log=commit_log)
    stats = sim.run()
    assert sim.regs.snapshot() == regs, "register state diverged"
    assert sim.memory.snapshot() == mem, "memory state diverged"
    assert stats.committed + stats.folds_committed == retired
    assert commit_log == _pc_stream(seed), "commit pc stream diverged"


@pytest.mark.parametrize("seed", FAST_SEEDS)
@NOFOLD
@pytest.mark.parametrize("width", [1, 2, 4])
def test_differential_ooo_fast_subset(seed, fold, width):
    _check_ooo(seed, width, None)


@pytest.mark.parametrize("seed", FAST_SEEDS[:6])
@NOFOLD
@pytest.mark.parametrize("fe", ["fe", "fdip"])
def test_differential_ooo_frontend_fast_subset(seed, fold, fe):
    _check_ooo(seed, 2, fe)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
@NOFOLD
@pytest.mark.parametrize("width", [1, 2, 4])
def test_differential_ooo_full_sweep(seed, fold, width):
    _check_ooo(seed, width, None)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[len(FAST_SEEDS):])
@NOFOLD
@pytest.mark.parametrize("fe", ["fe", "fdip"])
def test_differential_ooo_frontend_full_sweep(seed, fold, fe):
    _check_ooo(seed, 2, fe)
