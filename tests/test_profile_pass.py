"""Equivalence lock for the compiled profiling pass.

:func:`repro.sim.functional.collect_branch_trace` is one run on the
profiling mode of the block translator; :class:`BranchProfiler` reduces
its tallies.  The oracle here is the profiler it replaced — one
``FunctionalSimulator.execute`` per instruction, tracking every
register's last producer — plus the per-instruction plan-loop trace.
Profile (field by field, in branch order), trace and the bimodal-2048
selection baseline must all be identical: on every workload at several
input sizes and seeds, on huffman_dec with and without an explicit
symbol count, on the random-program corpus, and at the dispatcher's
edges (an indirect jump that lands off a leader, budget exhaustion, a
trap in the middle of a block).  A fast subset runs in tier-1; the full
sweep is ``-m slow``.
"""

import dataclasses
import gc
from typing import List

import pytest

from repro.asbr.folding import THRESHOLD_BY_UPDATE
from repro.asm import assemble
from repro.memory.main_memory import MisalignedAccess
from repro.predictors import evaluate_on_trace, make_predictor
from repro.profiling import BranchProfiler, BranchStats
from repro.profiling.profiler import FAR_DISTANCE, BranchProfile
from repro.sim import blocks
from repro.sim.functional import (
    BranchRecord,
    FunctionalSimulator,
    SimulationError,
    collect_branch_trace,
)
from repro.testing import random_program
from repro.workloads import get_workload, speech_like
from repro.workloads.loader import WORKLOAD_NAMES


# ----------------------------------------------------------------------
# the oracle: per-instruction profiler and plan-loop trace
# ----------------------------------------------------------------------
def reference_profile(program, memory=None,
                      max_instructions: int = 200_000_000) -> BranchProfile:
    """Profile by stepping ``FunctionalSimulator.execute`` once per
    instruction, keeping every register's last producer."""
    sim = FunctionalSimulator(program, memory)
    result = BranchProfile(program)
    branches = result.branches
    last_def_index = [-FAR_DISTANCE] * 32
    last_def_load = [False] * 32
    index = 0

    while not sim.halted:
        if index >= max_instructions:
            raise RuntimeError("profiling instruction budget exhausted")
        pc = sim.pc
        instr = sim.program.instr_at(pc)

        if instr.is_branch:
            stats = branches.get(pc)
            if stats is None:
                stats = BranchStats(pc=pc, instr=instr,
                                    target=instr.branch_target(pc),
                                    zero_cond=instr.zero_condition)
                branches[pc] = stats
            taken = sim.branch_outcome(instr)
            stats.count += 1
            if taken:
                stats.taken += 1
            zc = stats.zero_cond
            if zc is not None:
                _reg = zc[1]
                distance = index - last_def_index[_reg]
                if distance < stats.min_distance:
                    stats.min_distance = distance
                is_load = last_def_load[_reg]
                if is_load:
                    stats.load_produced += 1
                for update, threshold in THRESHOLD_BY_UPDATE.items():
                    eff = threshold
                    if is_load and update == "execute":
                        eff = THRESHOLD_BY_UPDATE["mem"]
                    if distance > eff:
                        stats.foldable[update] += 1

        dest = instr.dest_reg
        if dest is not None and dest != 0:
            last_def_index[dest] = index
            last_def_load[dest] = instr.is_load

        sim.execute(instr)
        index += 1

    result.total_instructions = index
    return result


def reference_trace(program, memory=None,
                    max_instructions: int = 200_000_000
                    ) -> List[BranchRecord]:
    """Branch trace from the interpreter's plan loop."""
    sim = FunctionalSimulator(program, memory)
    trace = []
    plans = sim._plans
    instrs = program.instrs
    base = program.text_base
    n = len(plans)
    retired = 0
    while not sim.halted:
        if retired >= max_instructions:
            raise SimulationError("instruction budget exhausted")
        pc = sim.pc
        i = (pc - base) >> 2
        if pc & 3 or not 0 <= i < n:
            program.instr_at(pc)   # raises ValueError
        instr = instrs[i]
        if instr.is_branch:
            taken = sim.branch_outcome(instr)
            trace.append(BranchRecord(pc, taken, instr.branch_target(pc)))
        sim.pc = plans[i]()
        retired += 1
    return trace


def _fields(profile: BranchProfile):
    """Every oracle field of a profile, branches in insertion order."""
    return (profile.program, profile.total_instructions,
            [(pc, [(f.name, getattr(s, f.name))
                   for f in dataclasses.fields(BranchStats)])
             for pc, s in profile.branches.items()])


def assert_equivalent(program, make_memory=lambda: None) -> BranchProfile:
    """The compiled pass reproduces profile, trace and baseline."""
    ref = reference_profile(program, make_memory())
    ref_trace = reference_trace(program, make_memory())
    got = BranchProfiler().profile(program, make_memory())
    assert _fields(got) == _fields(ref)
    assert got.trace == ref_trace
    assert collect_branch_trace(program, make_memory()) == ref_trace
    ref_acc = evaluate_on_trace(make_predictor("bimodal-2048"), ref_trace)
    got_acc = evaluate_on_trace(make_predictor("bimodal-2048"), got.trace)
    assert dataclasses.asdict(got_acc) == dataclasses.asdict(ref_acc)
    return got


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
SIZES = [50, 60, 123, 400]
SEEDS = [7, 20010618]
ALL_WORKLOAD_CASES = [(name, n, seed) for name in WORKLOAD_NAMES
                      for n in SIZES for seed in SEEDS]
FAST_WORKLOAD_CASES = [(name, 60, 7) for name in WORKLOAD_NAMES]


def _check_workload(name, n, seed, with_count=False):
    wl = get_workload(name)
    pcm = speech_like(n, seed)
    stream = wl.input_stream(pcm)
    count = wl.count_fn(pcm) if with_count else None
    return assert_equivalent(wl.program,
                             lambda: wl.build_memory(stream, count))


@pytest.mark.parametrize("name,n,seed", FAST_WORKLOAD_CASES)
def test_workload_fast_subset(name, n, seed):
    _check_workload(name, n, seed)


@pytest.mark.slow
@pytest.mark.parametrize("name,n,seed", ALL_WORKLOAD_CASES)
def test_workload_full_sweep(name, n, seed):
    _check_workload(name, n, seed)


@pytest.mark.parametrize("n", [60, 400])
def test_huffman_with_and_without_count(n):
    """The symbol count changes how far the decoder runs; both inputs
    profile identically to the oracle."""
    short = _check_workload("huffman_dec", n, 7)
    full = _check_workload("huffman_dec", n, 7, with_count=True)
    assert full.total_instructions >= short.total_instructions


# ----------------------------------------------------------------------
# random programs
# ----------------------------------------------------------------------
ALL_SEEDS = list(range(200))
FAST_SEEDS = ALL_SEEDS[:24]


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_program_fast_subset(seed):
    assert_equivalent(random_program(seed, units=14))


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_random_program_full_sweep(seed):
    assert_equivalent(random_program(seed, units=14))


# ----------------------------------------------------------------------
# dispatcher edges
# ----------------------------------------------------------------------
def _prog(src):
    return assemble(".text\nmain:\n" + src)


def test_jr_landing_off_a_leader():
    """The stretch after an indirect jump to a non-leader is
    single-stepped; its defs and branches keep the same accounts."""
    prog = _prog(
        "li r5, 3\n"
        "la r9, spot\n"
        "addiu r9, r9, 4\n"         # skip the first instruction of spot
        "loop: jr r9\n"
        "spot:\n"
        "addiu r4, r0, 9\n"
        "lw r6, -8(sp)\n"           # load-produced predicate
        "addiu r5, r5, -1\n"
        "beqz r6, next\n"
        "next: bgtz r5, loop\n"     # defined in the single-stepped stretch
        "bnez r4, out\n"            # r4 never written on this path
        "out: halt\n")
    got = assert_equivalent(prog)
    spot = prog.labels["spot"]
    assert blocks.discover_leaders(prog).isdisjoint(
        {(spot + 4 - prog.text_base) >> 2})
    far = got.branches[prog.labels["next"] + 4]
    assert far.min_distance == FAR_DISTANCE


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 1001])
def test_budget_exhaustion(budget):
    prog = _prog("li r1, 0\nloop: addiu r1, r1, 1\nbnez r1, loop\nhalt\n")
    with pytest.raises(RuntimeError, match="budget"):
        reference_profile(prog, max_instructions=budget)
    with pytest.raises(RuntimeError, match="budget"):
        BranchProfiler(max_instructions=budget).profile(prog)
    with pytest.raises(RuntimeError, match="budget"):
        collect_branch_trace(prog, max_instructions=budget)


def test_budget_exactly_enough():
    """A run that halts on its last budgeted instruction completes."""
    prog = _prog("li r1, 3\nloop: addiu r1, r1, -1\nbnez r1, loop\nhalt\n")
    n = reference_profile(prog).total_instructions
    assert BranchProfiler(max_instructions=n).profile(prog) \
        .total_instructions == n


def test_mid_block_alignment_trap():
    """Same exception, trap pc and retire count as the interpreter."""
    src = ("li r9, 0\nli r1, 2\nbeqz r9, go\ngo: li r2, 7\n"
           "lw r3, -3(sp)\nbnez r3, go\nhalt\n")
    outcomes = []
    for run in ("interp", "profile"):
        sim = FunctionalSimulator(_prog(src))
        with pytest.raises(MisalignedAccess) as exc:
            if run == "interp":
                sim.run_reference()
            else:
                blocks.profile_pass(sim, 1000)
        outcomes.append((str(exc.value), sim.pc, sim.instructions_retired))
    assert outcomes[0] == outcomes[1]
    with pytest.raises(MisalignedAccess):
        BranchProfiler().profile(_prog(src))


def test_records_are_shared_and_immutable():
    prog = _prog("li r1, 4\nloop: addiu r1, r1, -1\nbnez r1, loop\nhalt\n")
    trace = collect_branch_trace(prog)
    assert [r.taken for r in trace] == [True, True, True, False]
    assert trace[0] is trace[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace[0].taken = False


# ----------------------------------------------------------------------
# acyclic runs: a finished run is freed by reference counting alone
# ----------------------------------------------------------------------
def _garbage_after(fn) -> int:
    fn()                       # warm the per-process translation memo
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("reference", [True, False],
                         ids=["interp", "blocks"])
def test_functional_run_leaves_no_cycles(reference):
    wl = get_workload("adpcm_enc")
    stream = wl.input_stream(speech_like(50, 3))

    def run():
        sim = FunctionalSimulator(wl.program, wl.build_memory(stream))
        if reference:
            sim.run_reference()
        else:
            sim.run()

    assert _garbage_after(run) == 0


def test_profile_pass_leaves_no_cycles():
    wl = get_workload("huffman_dec")
    stream = wl.input_stream(speech_like(50, 3))
    assert _garbage_after(lambda: BranchProfiler().profile(
        wl.program, wl.build_memory(stream))) == 0


def test_asbr_execute_spec_leaves_no_cycles():
    from repro.runner import RunSpec, execute_spec

    spec = RunSpec("adpcm_enc", 50, 3, "bimodal-512-512", with_asbr=True)
    assert _garbage_after(lambda: execute_spec(spec)) == 0
