"""Unit tests for the compiled loops (repro.sim.blocks for the
functional simulator, repro.sim.superblocks for the pipeline).

The differential sweep and golden locks prove bulk bit-identity; these
tests pin down the loops' edges: budget and trap semantics, indirect
jumps into the middle of a compiled block, when ``run()`` enters each
compiled loop and the reference-loop fallbacks that preserve the
telemetry/fault invariants, the foreign-decode memo, and the
per-process artifact memo.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.sim import blocks, superblocks
from repro.sim.functional import FunctionalSimulator, SimulationError
from repro.sim.pipeline import PipelineSimulator


def _prog(src):
    return assemble(".text\nmain:\n" + src)


LOOP_FOREVER = "li r1, 0\nloop: addiu r1, r1, 1\nj loop\n"


#: the functional simulator's two loops, reference first
LOOPS = (FunctionalSimulator.run_reference, FunctionalSimulator.run)


# ----------------------------------------------------------------------
# budget and trap parity with the reference loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 1001])
def test_budget_exhaustion_bit_identical(budget):
    """Same error message, same retired count, same final pc."""
    outcomes = []
    for run in LOOPS:
        sim = FunctionalSimulator(_prog(LOOP_FOREVER))
        with pytest.raises(SimulationError) as exc:
            run(sim, max_instructions=budget)
        outcomes.append((str(exc.value), sim.instructions_retired,
                         sim.pc, sim.regs.snapshot()))
    assert outcomes[0] == outcomes[1]


def test_trap_parity_misaligned_load():
    from repro.memory.main_memory import MisalignedAccess

    src = "li r1, 2\nli r2, 7\nlw r3, -3(sp)\nhalt\n"
    outcomes = []
    for run in LOOPS:
        sim = FunctionalSimulator(_prog(src))
        with pytest.raises(MisalignedAccess) as exc:
            run(sim)
        outcomes.append((str(exc.value), sim.instructions_retired,
                         sim.pc, sim.regs.snapshot()))
    assert outcomes[0] == outcomes[1]
    # the two pre-trap instructions retired; the trap pc is the load's
    assert outcomes[0][1] == 2


def test_jr_into_middle_of_block():
    """An indirect jump targeting a non-leader pc must still execute
    correctly (the dispatcher single-steps until the next leader)."""
    src = (
        "la r9, spot\n"
        "addiu r9, r9, 8\n"       # skip the first two instrs of 'spot'
        "jr r9\n"
        "spot:\n"
        "addiu r1, r1, 100\n"
        "addiu r1, r1, 20\n"
        "addiu r1, r1, 3\n"
        "halt\n"
    )
    results = []
    for run in LOOPS:
        sim = FunctionalSimulator(_prog(src))
        retired = run(sim)
        results.append((retired, sim.regs.snapshot(), sim.pc))
    assert results[0] == results[1]
    assert results[0][1][1] == 3          # only the third addiu ran


def test_ctl_writes_identical():
    src = "ctlw 3\nli r1, 5\nctlw 1\nhalt\n"
    a = FunctionalSimulator(_prog(src))
    b = FunctionalSimulator(_prog(src))
    a.run_reference()
    b.run()
    assert a.ctl_writes == b.ctl_writes == [3, 1]


# ----------------------------------------------------------------------
# compiled-loop entry, and the fallback guards: telemetry / fault hooks
# force the reference loop
# ----------------------------------------------------------------------
def _forbid_translator(monkeypatch):
    monkeypatch.setattr(blocks, "run_functional_blocks",
                        lambda *args: pytest.fail("translator taken"))


def test_functional_default_run_enters_translator(monkeypatch):
    """A run with no observer and no tracer must take the block
    translator (and nothing else)."""
    real = blocks.run_functional_blocks
    entered = []

    def spy(sim, *args):
        entered.append(sim)
        return real(sim, *args)

    monkeypatch.setattr(blocks, "run_functional_blocks", spy)
    sim = FunctionalSimulator(_prog("li r1, 1\nhalt\n"))
    assert sim.run() == 2
    assert entered == [sim], "block translator skipped"


def test_functional_observer_falls_back_to_interp(monkeypatch):
    from repro.telemetry import RingBufferSink, Tracer
    _forbid_translator(monkeypatch)
    src = "li r1, 1\nli r2, 2\naddu r3, r1, r2\nhalt\n"
    seen = []
    sim = FunctionalSimulator(_prog(src))
    retired = sim.run(observer=lambda pc, instr, nxt: seen.append(pc))
    assert retired == 4
    assert len(seen) == 4                 # per-instruction visibility kept
    assert sim.regs[3] == 3
    sink = RingBufferSink()
    assert FunctionalSimulator(_prog(src)).run(trace=Tracer(sink)) == 4
    assert sink.emitted == 4              # one retire event each


def _forbid_compiled_loop(monkeypatch):
    monkeypatch.setattr(superblocks, "run_pipeline_superblocks",
                        lambda sim: pytest.fail("compiled loop taken"))


def test_pipeline_default_run_enters_compiled_loop(monkeypatch):
    """An unobserved run must take the compiled loop (and nothing
    else)."""
    real = superblocks.run_pipeline_superblocks
    entered = []

    def spy(sim):
        entered.append(sim)
        return real(sim)

    monkeypatch.setattr(superblocks, "run_pipeline_superblocks", spy)
    sim = PipelineSimulator(_prog("li r1, 1\nhalt\n"))
    assert sim.run().committed == 2
    assert entered == [sim], "compiled loop skipped"


def test_pipeline_trace_falls_back_to_interp(monkeypatch):
    from repro.telemetry import MetricsRegistry, Tracer
    _forbid_compiled_loop(monkeypatch)
    prog = _prog("li r1, 1\nli r2, 2\naddu r3, r1, r2\nhalt\n")
    sim = PipelineSimulator(prog, trace=Tracer(MetricsRegistry()))
    assert sim.run().committed == 4


def test_pipeline_tick_rebinding_falls_back(monkeypatch):
    """A fault injector (or anything else) that rebinds ``tick`` on the
    instance must win: the compiled loop would bypass the rebound
    method."""
    _forbid_compiled_loop(monkeypatch)
    sim = PipelineSimulator(_prog("li r1, 1\nhalt\n"))
    ticks = []
    orig = type(sim).tick

    def spy_tick():
        ticks.append(1)
        return orig(sim)

    sim.tick = spy_tick
    sim.run()
    assert ticks, "instance tick() was bypassed"


def test_pipeline_subclass_falls_back(monkeypatch):
    _forbid_compiled_loop(monkeypatch)

    class Sub(PipelineSimulator):
        pass

    assert Sub(_prog("li r1, 1\nhalt\n")).run().committed == 2


# ----------------------------------------------------------------------
# foreign-decode memo (the satellite bugfix)
# ----------------------------------------------------------------------
def test_hot_folded_branch_decodes_target_exactly_once(monkeypatch):
    from collections import Counter

    from repro.asbr import ASBRUnit
    from repro.predictors import make_predictor
    from repro.profiling import BranchProfiler, select_branches
    from repro.workloads import get_workload
    from repro.workloads.inputs import speech_like
    import repro.sim.core as core

    counts = Counter()
    real_decode = core._decode

    def counting_decode(instr, pc, *args, **kwargs):
        counts[(id(instr), pc)] += 1
        return real_decode(instr, pc, *args, **kwargs)

    monkeypatch.setattr(core, "_decode", counting_decode)

    wl = get_workload("adpcm_enc")
    pcm = speech_like(96, seed=11)
    stream = wl.input_stream(pcm)
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    sel = select_branches(profile, bit_capacity=16, bdt_update="execute")
    asbr = ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                      bdt_update="execute")
    sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                            predictor=make_predictor("bimodal-512-512"),
                            asbr=asbr)
    # the reference loop folds through the memo on every fetch; the
    # compiled loop decodes each BIT entry once up front, memo or not
    stats = sim.run_reference()
    assert stats.folds_committed > 100    # the folds were genuinely hot
    assert counts, "decode was never called"
    assert max(counts.values()) == 1, \
        "some (instr, pc) was decoded more than once"


# ----------------------------------------------------------------------
# artifact cache: the per-process memo
# ----------------------------------------------------------------------
def test_process_memo_shares_artifacts():
    prog = _prog("li r1, 1\nhalt\n")
    a = blocks.compile_blocks(prog)
    b = blocks.compile_blocks(prog)
    assert a is b


def test_program_mutation_invalidates_memo():
    prog = _prog("li r1, 1\nli r2, 2\nhalt\n")
    a = blocks.compile_blocks(prog)
    prog.replace_instr(1, prog.instrs[0])   # bumps program.version
    b = blocks.compile_blocks(prog)
    assert a is not b


def test_generated_source_is_deterministic():
    src = "li r1, 3\nloop: addiu r1, r1, -1\nbne r1, r0, loop\nhalt\n"
    assert (blocks.generate_source(_prog(src))
            == blocks.generate_source(_prog(src)))


def test_pipeline_stats_match_with_engine_stats_identity():
    """End-to-end: cache stats objects also agree across loops."""
    src = ("li r1, 40\nli r2, 0\n"
           "loop: addiu r2, r2, 3\nsw r2, -8(sp)\nlw r3, -8(sp)\n"
           "addiu r1, r1, -1\nbne r1, r0, loop\nhalt\n")
    prog = _prog(src)
    a = PipelineSimulator(_prog(src))
    b = PipelineSimulator(prog)
    sa, sb = a.run_reference(), b.run()
    assert dataclasses.asdict(sa) == dataclasses.asdict(sb)
    assert a.icache.stats == b.icache.stats
    assert a.dcache.stats == b.dcache.stats
    assert a.regs.snapshot() == b.regs.snapshot()
