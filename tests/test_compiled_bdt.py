"""Lock: the compiled pipeline loop's BDT equals ``tick()``'s.

The compiled loop (:mod:`repro.sim.superblocks`) keeps no BDT.  A fold
check reads its predicate register's validity counter and direction
bits off the pipeline latches, and on exit the loop writes every BDT
entry and every latch's ``acquired_reg`` back by the same rule.
``run()`` enters it only while the BDT agrees with the latches
(``bdt_agrees``).  This module holds ``run()`` to ``run_reference()``,
the ``tick()`` loop, on everything either loop leaves behind: the full
``PipelineStats``, the ``FoldStats`` (``per_pc_folds`` order
included), registers, memory, every BDT entry's counter and six bits,
each latch's ``acquired_reg`` and the pending releases.  It compares
them at halt, at budget stops spread over the run, after resuming a
stopped run with a larger budget, and at a trap.  States the compiled
loop must not start from take the reference loop, so they give its
result or raise its exception.

A small grid runs in tier-1.  The full grid (five codecs × three update
points × three predictors, and the random corpus × three update
points) is ``-m slow``.
"""

import dataclasses

import pytest

from repro.asbr import ASBRUnit, extract_branch_info
from repro.asbr.bdt import BranchDirectionTable
from repro.asbr.branch_info import BranchInfo
from repro.asm import assemble
from repro.isa.conditions import Condition
from repro.predictors import NotTakenPredictor, make_predictor
from repro.profiling import BranchProfiler, select_branches
from repro.sim.pipeline import PipelineConfig, PipelineSimulator
from repro.sim.superblocks import bdt_agrees
from repro.testing import random_program
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

from tests.test_asbr_folding import (
    BANKED_LOOPS,
    banked_unit,
    distance_program,
    perfect_caches,
)
from tests.test_differential_random import ALL_SEEDS, _asbr_for

UPDATES = ["execute", "mem", "commit"]
PREDICTORS = ["not-taken", "bimodal-512-512", "gshare-2048-8"]

#: codec -> stimulus length (G.721 runs ~10x more cycles per sample)
CODECS = {"adpcm_enc": 200, "adpcm_dec": 200, "huffman_dec": 200,
          "g721_enc": 20, "g721_dec": 20}

#: budget stops as fractions of the run's cycles
FAST_STOPS = (0.3, 0.77)
ALL_STOPS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def snapshot(sim):
    """Everything a run leaves that the two loops must agree on."""
    unit = sim.asbr
    return {
        "stats": dataclasses.asdict(sim.stats),
        "fold stats": dataclasses.asdict(unit.stats),
        "per_pc_folds order": list(unit.stats.per_pc_folds),
        "registers": sim.regs.snapshot(),
        "memory": sim.memory.snapshot(),
        "bdt": [(e.counter, dict(e.bits)) for e in unit.bdt.entries],
        "acquired_reg": [None if s is None else (s.pc, s.acquired_reg)
                         for s in (sim.s_if, sim.s_id, sim.s_ex,
                                   sim.s_mem, sim.s_wb)],
        "pending releases": list(sim._pending_releases),
    }


def outcome(run):
    """None, or the exception ``run()`` raised."""
    try:
        run()
    except Exception as exc:           # compared, never swallowed
        return type(exc), str(exc)
    return None


def assert_same(ref, sim, where):
    want, got = snapshot(ref), snapshot(sim)
    for key in want:
        assert got[key] == want[key], "%s diverged %s" % (key, where)


def assert_loops_agree(build, stops):
    """``build(max_cycles)`` returns a fresh simulator.  The compiled
    loop must equal the reference at halt, at each budget stop, and
    after resuming that stop to halt; fresh simulators and both loops'
    budget stops must satisfy the precondition, so every compiled run
    here is a real one."""
    ref = build(None)
    want = outcome(ref.run_reference)
    total = ref.stats.cycles
    sim = build(2 * total)              # a diverging run may never halt
    assert bdt_agrees(sim)
    assert outcome(sim.run) == want
    assert_same(ref, sim, "at halt")
    for frac in stops:
        budget = max(1, int(total * frac))
        ref, sim = build(budget), build(budget)
        want = outcome(ref.run_reference)
        assert want is not None and outcome(sim.run) == want
        assert_same(ref, sim, "at the budget stop at cycle %d" % budget)
        assert bdt_agrees(ref) and bdt_agrees(sim)
        ref.config.max_cycles = sim.config.max_cycles = 2 * total
        assert outcome(sim.run) == outcome(ref.run_reference)
        assert_same(ref, sim, "after resuming cycle %d" % budget)


def config(max_cycles, **caches):
    if max_cycles is not None:
        caches["max_cycles"] = max_cycles
    return PipelineConfig(**caches)


# ----------------------------------------------------------------------
# the codecs
# ----------------------------------------------------------------------
def codec_builder(name, update, predictor, counter_bits=3):
    wl = get_workload(name)
    stream = wl.input_stream(speech_like(CODECS[name], seed=5))
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    infos = select_branches(profile, bit_capacity=16,
                            bdt_update=update).infos

    def build(max_cycles):
        unit = ASBRUnit.from_branch_infos(infos, capacity=16,
                                          bdt_update=update)
        unit.bdt = BranchDirectionTable(counter_bits=counter_bits)
        return PipelineSimulator(wl.program, wl.build_memory(stream),
                                 predictor=make_predictor(predictor),
                                 asbr=unit, config=config(max_cycles))
    return build


@pytest.mark.parametrize("update", UPDATES)
def test_codec_fast_subset(update):
    assert_loops_agree(codec_builder("adpcm_enc", update,
                                     "bimodal-512-512"), FAST_STOPS)


@pytest.mark.slow
@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("update", UPDATES)
@pytest.mark.parametrize("name", sorted(CODECS))
def test_codec_full_grid(name, update, predictor):
    assert_loops_agree(codec_builder(name, update, predictor), ALL_STOPS)


# ----------------------------------------------------------------------
# the differential suites' random corpus
# ----------------------------------------------------------------------
def random_builder(seed, update):
    prog = random_program(seed, units=14)

    def build(max_cycles):
        return PipelineSimulator(prog, asbr=_asbr_for(prog, update),
                                 predictor=make_predictor("bimodal-64-64"),
                                 config=config(max_cycles))
    return build


@pytest.mark.parametrize("seed", ALL_SEEDS[:4])
@pytest.mark.parametrize("update", UPDATES)
def test_random_fast_subset(seed, update):
    assert_loops_agree(random_builder(seed, update), FAST_STOPS)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS[4:])
@pytest.mark.parametrize("update", UPDATES)
def test_random_full_sweep(seed, update):
    assert_loops_agree(random_builder(seed, update), ALL_STOPS)


# ----------------------------------------------------------------------
# directed programs
# ----------------------------------------------------------------------
def program_builder(prog, unit_for, update, counter_bits=3, **caches):
    def build(max_cycles):
        unit = unit_for(prog, update)
        unit.bdt = BranchDirectionTable(counter_bits=counter_bits)
        return PipelineSimulator(prog, predictor=NotTakenPredictor(),
                                 asbr=unit,
                                 config=config(max_cycles, **caches))
    return build


def one_branch(label):
    def unit_for(prog, update):
        return ASBRUnit.from_branch_infos(
            [extract_branch_info(prog, prog.labels[label])],
            bdt_update=update)
    return unit_for


@pytest.mark.parametrize("producer", ["addiu", "lw"])
@pytest.mark.parametrize("update", UPDATES)
def test_producer_distances(update, producer):
    """A producer of the predicate 1 to 6 instructions ahead of the
    BIT branch, with perfect caches: at the fold check it sits in ID,
    EX or MEM, is committed by WB that cycle, or has left."""
    perfect = perfect_caches()
    for distance in range(1, 7):
        prog = distance_program(distance, producer)
        assert_loops_agree(
            program_builder(prog, one_branch("br"), update,
                            icache=perfect.icache, dcache=perfect.dcache),
            ALL_STOPS)


@pytest.mark.parametrize("update", UPDATES)
def test_bank_switching(update):
    """``ctlw`` swaps the compiled fold map mid-run."""
    prog = assemble(BANKED_LOOPS)
    assert_loops_agree(program_builder(prog, banked_unit, update),
                       ALL_STOPS)


#: a fold loop on r9, then a producer of r9 with a misaligned ``lw``
#: right behind it: the load traps in its MEM work in the cycle WB
#: commits the producer
TRAP_BEHIND_PRODUCER = """
.data
buf: .word 5, 6
.text
main:
    la    r4, buf
    addiu r5, r0, 3
loop:
    addiu r5, r5, -1
    nop
    nop
    nop
br:
    bnez  r9, skip
    addiu r2, r2, 1
skip:
    addu  r3, r3, r5
    bnez  r5, loop
    addiu r9, r0, 1
    lw    r10, 1(r4)
    nop
    halt
"""


@pytest.mark.parametrize("update", UPDATES)
def test_trap_behind_a_predicate_producer(update):
    """A trap raised mid-cycle leaves the BDT ``tick()`` leaves.  Under
    ``commit`` that includes the producer WB committed in the trapping
    cycle: still acquired, its old bits, its release pending."""
    prog = assemble(TRAP_BEHIND_PRODUCER)
    build = program_builder(prog, one_branch("br"), update)
    ref, sim = build(None), build(None)
    want = outcome(ref.run_reference)
    assert want is not None and want[0].__name__ == "MisalignedAccess"
    assert outcome(sim.run) == want
    assert_same(ref, sim, "at the trap")
    assert sim.asbr.stats.folded == 3
    r9 = sim.asbr.bdt.entries[9]
    if update == "commit":
        assert (r9.counter, r9.bits[Condition.EQZ]) == (1, True)
        assert sim._pending_releases == [(9, 1)]
        assert not bdt_agrees(sim)    # a resumed run takes tick()
    else:
        assert (r9.counter, r9.bits[Condition.EQZ]) == (0, False)
        assert sim._pending_releases == []


def test_r0_predicate_folds_like_tick():
    """A hand-built BIT entry on r0 (``extract_branch_info`` refuses
    one) always folds on 0, even while an instruction writes r0.  It
    tags a ``bgez r7``, and r7 stays 0, so the program is the same."""
    prog = assemble("""
.text
main:
    addiu r5, r0, 4
loop:
    addiu r5, r5, -1
    addu  r0, r5, r5
br:
    bgez  r7, t
    addiu r2, r2, 1
t:
    addiu r3, r3, 1
    bnez  r5, loop
    halt
""")
    b = extract_branch_info(prog, prog.labels["br"])

    def unit_for(prog, update):
        info = BranchInfo(pc=b.pc, cond_reg=0, condition=b.condition,
                          bta=b.bta, bti_word=b.bti_word,
                          bfi_word=b.bfi_word)
        return ASBRUnit.from_branch_infos([info], bdt_update=update)

    for update in UPDATES:
        build = program_builder(prog, unit_for, update)
        assert_loops_agree(build, FAST_STOPS)
        sim = build(None)
        sim.run()
        assert sim.asbr.stats.folded_taken == 4


# ----------------------------------------------------------------------
# fallback: states the compiled loop must not start from
# ----------------------------------------------------------------------
def assert_falls_back(prepare):
    """``prepare()`` returns a simulator the precondition refuses;
    ``run()`` must give ``run_reference()``'s result or raise its
    exception."""
    ref, sim = prepare(), prepare()
    assert not bdt_agrees(sim)
    assert outcome(sim.run) == outcome(ref.run_reference)
    assert_same(ref, sim, "after the fallback")


def test_edited_bdt_falls_back():
    """An edited counter blocks folds on its register for good, and
    edited bits fold the wrong way until the next release; both runs
    are cut at a budget in case a wrong fold never halts."""
    build = codec_builder("adpcm_enc", "execute", "bimodal-512-512")
    total = build(None).run().cycles
    reg = next(iter(build(None).asbr.bit.banks[0])).cond_reg

    def edited(edit):
        def prepare():
            sim = build(2 * total)
            edit(sim.asbr.bdt)
            return sim
        return prepare

    assert_falls_back(edited(
        lambda bdt: setattr(bdt.entries[reg], "counter", 1)))
    assert_falls_back(edited(lambda bdt: bdt.set_value(reg, 0xFFFFFFFF)))


def test_reused_unit_falls_back():
    """A unit reused after a budget stop keeps that run's counters; one
    reused after a halt agrees again and runs compiled."""
    build = codec_builder("adpcm_enc", "commit", "bimodal-512-512")

    def reused(max_cycles):
        def prepare():
            first = build(max_cycles)
            outcome(first.run)
            wl = get_workload("adpcm_enc")
            stream = wl.input_stream(speech_like(CODECS["adpcm_enc"],
                                                 seed=5))
            return PipelineSimulator(
                wl.program, wl.build_memory(stream),
                predictor=make_predictor("bimodal-512-512"),
                asbr=first.asbr)
        return prepare

    assert_falls_back(reused(1001))
    ref, sim = reused(None)(), reused(None)()
    assert bdt_agrees(sim)
    assert outcome(sim.run) == outcome(ref.run_reference)
    assert_same(ref, sim, "after reusing a halted unit")


def test_pending_release_falls_back():
    """A release ``tick()`` has not applied yet; on a fresh simulator
    it is one without an acquire, which both loops raise on."""
    build = codec_builder("adpcm_enc", "execute", "bimodal-512-512")

    def pending():
        sim = build(None)
        sim._pending_releases.append((9, 5))
        return sim

    assert_falls_back(pending)


def test_narrow_counter_falls_back():
    """Four back-to-back producers of r9 under ``commit`` are four in
    flight when the fourth decodes: a 2-bit counter overflows in
    ``tick()``, so ``run()`` raises it too; the codec does not overflow
    and gives the same result."""
    prog = assemble("""
.text
main:
    addiu r9, r0, 1
    addiu r9, r9, 1
    addiu r9, r9, 1
    addiu r9, r9, 1
br:
    bnez  r9, t
    addiu r2, r2, 1
t:
    addiu r3, r3, 1
    halt
""")
    build = program_builder(prog, one_branch("br"), "commit",
                            counter_bits=2)
    assert_falls_back(lambda: build(None))
    assert outcome(build(None).run)[0] is OverflowError
    codec = codec_builder("adpcm_enc", "commit", "bimodal-512-512",
                          counter_bits=2)
    assert_falls_back(lambda: codec(None))
