"""Unit tests for the compiled engines (repro.sim.blocks for the
functional simulator, repro.sim.superblocks for the pipeline).

The differential sweep and golden locks prove bulk bit-identity; these
tests pin down the engines' edges: budget and trap semantics, indirect
jumps into the middle of a compiled block, when the pipeline enters its
compiled loop and the interp fallbacks that preserve the
telemetry/fault invariants, the foreign-decode memo, and the
per-process artifact memo.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.runner.cache import key_for_spec
from repro.runner.pool import RunSpec
from repro.sim import blocks, superblocks
from repro.sim.functional import ENGINES, FunctionalSimulator, SimulationError
from repro.sim.pipeline import PipelineSimulator


def _prog(src):
    return assemble(".text\nmain:\n" + src)


LOOP_FOREVER = "li r1, 0\nloop: addiu r1, r1, 1\nj loop\n"


# ----------------------------------------------------------------------
# engine selection and validation
# ----------------------------------------------------------------------
def test_functional_rejects_unknown_engine():
    with pytest.raises(ValueError):
        FunctionalSimulator(_prog("halt\n"), engine="jit")


def test_pipeline_rejects_unknown_engine():
    with pytest.raises(ValueError):
        PipelineSimulator(_prog("halt\n"), engine="jit")


# ----------------------------------------------------------------------
# budget and trap parity with the interpreted engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 1001])
def test_budget_exhaustion_bit_identical(budget):
    """Same error message, same retired count, same final pc."""
    outcomes = []
    for engine in ("interp", "blocks"):
        sim = FunctionalSimulator(_prog(LOOP_FOREVER), engine=engine)
        with pytest.raises(SimulationError) as exc:
            sim.run(max_instructions=budget)
        outcomes.append((str(exc.value), sim.instructions_retired,
                         sim.pc, sim.regs.snapshot()))
    assert outcomes[0] == outcomes[1]


def test_trap_parity_misaligned_load():
    from repro.memory.main_memory import MisalignedAccess

    src = "li r1, 2\nli r2, 7\nlw r3, -3(sp)\nhalt\n"
    outcomes = []
    for engine in ("interp", "blocks"):
        sim = FunctionalSimulator(_prog(src), engine=engine)
        with pytest.raises(MisalignedAccess) as exc:
            sim.run()
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
    for engine in ("interp", "blocks"):
        sim = FunctionalSimulator(_prog(src), engine=engine)
        retired = sim.run()
        results.append((retired, sim.regs.snapshot(), sim.pc))
    assert results[0] == results[1]
    assert results[0][1][1] == 3          # only the third addiu ran


def test_ctl_writes_identical():
    src = "ctlw 3\nli r1, 5\nctlw 1\nhalt\n"
    a = FunctionalSimulator(_prog(src))
    b = FunctionalSimulator(_prog(src), engine="blocks")
    a.run()
    b.run()
    assert a.ctl_writes == b.ctl_writes == [3, 1]


# ----------------------------------------------------------------------
# compiled-loop entry, and the fallback guards: telemetry / fault hooks
# force the interpreted path
# ----------------------------------------------------------------------
def test_functional_observer_falls_back_to_interp():
    src = "li r1, 1\nli r2, 2\naddu r3, r1, r2\nhalt\n"
    seen = []
    sim = FunctionalSimulator(_prog(src), engine="blocks")
    retired = sim.run(observer=lambda pc, instr, nxt: seen.append(pc))
    assert retired == 4
    assert len(seen) == 4                 # per-instruction visibility kept
    assert sim.regs[3] == 3


#: every way to ask for the compiled pipeline loop: both compiled names
#: and the default (no ``engine=`` argument)
COMPILED = [{"engine": "blocks"}, {"engine": "superblocks"}, {}]


def _forbid_compiled_loop(monkeypatch):
    monkeypatch.setattr(superblocks, "run_pipeline_superblocks",
                        lambda sim: pytest.fail("compiled loop taken"))


def test_pipeline_default_run_enters_compiled_loop(monkeypatch):
    """An unobserved run on either compiled name, or on the default,
    must take the compiled loop (and nothing else)."""
    real = superblocks.run_pipeline_superblocks
    for kwargs in COMPILED:
        entered = []

        def spy(sim, entered=entered):
            entered.append(sim)
            return real(sim)

        monkeypatch.setattr(superblocks, "run_pipeline_superblocks", spy)
        sim = PipelineSimulator(_prog("li r1, 1\nhalt\n"), **kwargs)
        assert sim.run().committed == 2
        assert entered == [sim], "compiled loop skipped for %r" % kwargs


def test_pipeline_trace_falls_back_to_interp(monkeypatch):
    from repro.telemetry import MetricsRegistry, Tracer
    _forbid_compiled_loop(monkeypatch)
    prog = _prog("li r1, 1\nli r2, 2\naddu r3, r1, r2\nhalt\n")
    for kwargs in COMPILED:
        sim = PipelineSimulator(prog, trace=Tracer(MetricsRegistry()),
                                **kwargs)
        stats = sim.run()
        assert stats.committed == 4, kwargs


def test_pipeline_tick_rebinding_falls_back(monkeypatch):
    """A fault injector (or anything else) that rebinds ``tick`` on the
    instance must win: the compiled loop would bypass the rebound
    method."""
    _forbid_compiled_loop(monkeypatch)
    prog = _prog("li r1, 1\nhalt\n")
    for kwargs in COMPILED:
        sim = PipelineSimulator(prog, **kwargs)
        ticks = []
        orig = type(sim).tick

        def spy_tick(sim=sim, ticks=ticks):
            ticks.append(1)
            return orig(sim)

        sim.tick = spy_tick
        sim.run()
        assert ticks, "instance tick() was bypassed for %r" % kwargs


def test_pipeline_subclass_falls_back(monkeypatch):
    _forbid_compiled_loop(monkeypatch)

    class Sub(PipelineSimulator):
        pass

    for kwargs in COMPILED:
        sim = Sub(_prog("li r1, 1\nhalt\n"), **kwargs)
        stats = sim.run()
        assert stats.committed == 2, kwargs


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
    import repro.sim.pipeline as pl

    counts = Counter()
    real_decode = pl._decode

    def counting_decode(instr, pc, *args, **kwargs):
        counts[(id(instr), pc)] += 1
        return real_decode(instr, pc, *args, **kwargs)

    monkeypatch.setattr(pl, "_decode", counting_decode)

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
    stats = sim.run()
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


# ----------------------------------------------------------------------
# result-cache key: engine deliberately excluded
# ----------------------------------------------------------------------
def test_engine_not_part_of_result_cache_key():
    default = key_for_spec(RunSpec("adpcm_enc", 96, 11, "not-taken"))
    for engine in ENGINES:
        spec = RunSpec("adpcm_enc", 96, 11, "not-taken", engine=engine)
        assert key_for_spec(spec) == default, engine


def test_generated_source_is_deterministic():
    src = "li r1, 3\nloop: addiu r1, r1, -1\nbne r1, r0, loop\nhalt\n"
    assert (blocks.generate_source(_prog(src))
            == blocks.generate_source(_prog(src)))


def test_pipeline_stats_match_with_engine_stats_identity():
    """End-to-end: cache stats objects also agree across engines."""
    src = ("li r1, 40\nli r2, 0\n"
           "loop: addiu r2, r2, 3\nsw r2, -8(sp)\nlw r3, -8(sp)\n"
           "addiu r1, r1, -1\nbne r1, r0, loop\nhalt\n")
    prog = _prog(src)
    a = PipelineSimulator(_prog(src), engine="interp")
    b = PipelineSimulator(prog)
    sa, sb = a.run(), b.run()
    assert dataclasses.asdict(sa) == dataclasses.asdict(sb)
    assert a.icache.stats == b.icache.stats
    assert a.dcache.stats == b.dcache.stats
    assert a.regs.snapshot() == b.regs.snapshot()
