"""CI perf-smoke gate: the compiled engines must earn their keep.

A coarse anti-regression check, not a tight threshold: it first proves
compiled-vs-interpreted equivalence on a quick sweep (both simulators,
with and without ASBR/bimodal, plus the out-of-order backend against
the functional model), then races the pipeline's default compiled loop
against the interpreted ``tick()`` loop on the ADPCM workload and fails
if the compiled loop is *slower* in either configuration the default
serves:

* plain — the default not-taken predictor, no ASBR;
* ASBR — threshold-2 folding with the ``bimodal-512-512`` auxiliary
  predictor, where the compiled fold checks are on the hot path.

It also checks the front half of an ASBR run: the compiled profiling
pass must reproduce the per-instruction reference profiler, plan-loop
trace and bimodal-2048 replay (the oracle of
``tests/test_profile_pass.py``) on every workload, and the compiled
front half (one pass plus the replay) must run at least
:data:`MIN_PROFILE_SPEEDUP` times faster than the reference's (profile,
trace, replay) on ADPCM.

Run as a plain script from the repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Exit status 0 = pass.  Kept out of the pytest tiers on purpose — wall
clock assertions do not belong in the correctness suite.
"""

import dataclasses
import os
import sys
import time

from repro.asbr import ASBRUnit
from repro.predictors import evaluate_on_trace, make_predictor
from repro.profiling import BranchProfiler, select_branches
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import DEFAULT_ENGINE, PipelineSimulator
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

# the reference profiler lives with the tests that lock the pass to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.test_profile_pass import (  # noqa: E402
    assert_equivalent,
    reference_profile,
    reference_trace,
)

WORKLOAD = "adpcm_enc"
EQUIV_SAMPLES = 96
RACE_SAMPLES = 8000
PROFILE_RACE_SAMPLES = 2000
REPS = 3
#: compiled front half vs the reference's, on ADPCM (6.3x and 9.4x in
#: two runs on a 2-vCPU host)
MIN_PROFILE_SPEEDUP = 4.0


def check_equivalence() -> None:
    wl = get_workload(WORKLOAD)
    pcm = speech_like(EQUIV_SAMPLES, seed=11)
    stream = wl.input_stream(pcm)

    # functional: architectural state must match exactly
    ref = FunctionalSimulator(wl.program, wl.build_memory(stream))
    retired = ref.run()
    sim = FunctionalSimulator(wl.program, wl.build_memory(stream),
                              engine="blocks")
    assert sim.run() == retired, "retired count diverged"
    assert sim.regs.snapshot() == ref.regs.snapshot(), "registers diverged"
    assert sim.memory.snapshot() == ref.memory.snapshot(), "memory diverged"

    # pipeline: full PipelineStats must be bit-identical, across the
    # plain, predicted and ASBR-folding configurations
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    sel = select_branches(profile, bit_capacity=16, bdt_update="execute")

    def one(pred_spec, with_asbr, engine):
        asbr = (ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                           bdt_update="execute")
                if with_asbr else None)
        sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                predictor=make_predictor(pred_spec),
                                asbr=asbr, engine=engine)
        return dataclasses.asdict(sim.run())

    for pred_spec, with_asbr in (("not-taken", False),
                                 ("bimodal-512-512", False),
                                 ("bimodal-512-512", True)):
        a = one(pred_spec, with_asbr, "interp")
        b = one(pred_spec, with_asbr, DEFAULT_ENGINE)
        assert a == b, ("pipeline stats diverged under %s asbr=%s:"
                        "\n%r\n%r" % (pred_spec, with_asbr, a, b))

    # out-of-order backend: architectural state and the retirement
    # ledger must match the functional model, folding on and off
    for width, with_asbr in ((1, True), (2, True), (2, False)):
        asbr = (ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                           bdt_update="execute")
                if with_asbr else None)
        sim = OoOSimulator(wl.program, wl.build_memory(stream),
                           predictor=make_predictor("bimodal-512-512"),
                           asbr=asbr,
                           config=OoOConfig(issue_width=width))
        stats = sim.run()
        assert sim.regs.snapshot() == ref.regs.snapshot(), \
            "ooo registers diverged (w%d)" % width
        assert sim.memory.snapshot() == ref.memory.snapshot(), \
            "ooo memory diverged (w%d)" % width
        assert stats.committed + stats.folds_committed \
            + stats.uncond_folds_committed == retired, \
            "ooo retirement ledger diverged (w%d)" % width
    print("equivalence: OK (%s, %d samples, 3 pipeline configs x 2 "
          "engines + 3 ooo configs)" % (WORKLOAD, EQUIV_SAMPLES))


def race(with_asbr: bool) -> int:
    """Best-of-REPS cycles/s, compiled default vs interp, one config."""
    wl = get_workload(WORKLOAD)
    stream = wl.input_stream(speech_like(RACE_SAMPLES, seed=42))
    infos = None
    if with_asbr:
        profile = BranchProfiler().profile(wl.program,
                                           wl.build_memory(stream))
        infos = select_branches(profile, bit_capacity=16,
                                bdt_update="execute").infos

    def best_rate(engine):
        best = 0.0
        for _ in range(REPS):
            predictor = asbr = None       # None: not-taken, no ASBR
            if with_asbr:
                predictor = make_predictor("bimodal-512-512")
                asbr = ASBRUnit.from_branch_infos(infos, capacity=16,
                                                  bdt_update="execute")
            sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                    predictor=predictor, asbr=asbr,
                                    engine=engine)
            t0 = time.perf_counter()
            stats = sim.run()
            dt = time.perf_counter() - t0
            best = max(best, stats.cycles / dt)
        return best

    label = "asbr" if with_asbr else "plain"
    interp = best_rate("interp")
    compiled = best_rate(DEFAULT_ENGINE)
    print("race (%s): interp %.0f cycles/s, %s %.0f cycles/s (%.2fx)"
          % (label, interp, DEFAULT_ENGINE, compiled, compiled / interp))
    if compiled < interp:
        print("FAIL: the compiled loop is slower than interp on %s (%s)"
              % (WORKLOAD, label), file=sys.stderr)
        return 1
    return 0


def check_profile_equivalence() -> None:
    from repro.workloads.loader import WORKLOAD_NAMES

    for name in WORKLOAD_NAMES:
        wl = get_workload(name)
        stream = wl.input_stream(speech_like(EQUIV_SAMPLES, seed=11))
        assert_equivalent(wl.program, lambda: wl.build_memory(stream))
    print("profile equivalence: OK (%d workloads, %d samples: profile, "
          "trace and bimodal-2048 replay)"
          % (len(WORKLOAD_NAMES), EQUIV_SAMPLES))


def race_profile() -> int:
    """Best-of-REPS seconds of the front half, compiled vs reference."""
    wl = get_workload(WORKLOAD)
    stream = wl.input_stream(speech_like(PROFILE_RACE_SAMPLES, seed=42))

    def reference(memory, memory2):
        reference_profile(wl.program, memory)
        trace = reference_trace(wl.program, memory2)
        evaluate_on_trace(make_predictor("bimodal-2048"), trace)

    def compiled(memory, _memory2):
        profile = BranchProfiler().profile(wl.program, memory)
        evaluate_on_trace(make_predictor("bimodal-2048"), profile.trace)

    def best_time(front_half):
        best = float("inf")
        for _ in range(REPS):
            memories = wl.build_memory(stream), wl.build_memory(stream)
            t0 = time.perf_counter()
            front_half(*memories)
            best = min(best, time.perf_counter() - t0)
        return best

    ref = best_time(reference)
    fast = best_time(compiled)
    print("race (profile): reference %.1f ms, compiled %.1f ms (%.1fx)"
          % (ref * 1e3, fast * 1e3, ref / fast))
    if ref / fast < MIN_PROFILE_SPEEDUP:
        print("FAIL: the compiled front half is less than %.0fx faster "
              "than the reference on %s" % (MIN_PROFILE_SPEEDUP, WORKLOAD),
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    check_equivalence()
    check_profile_equivalence()
    return (race(with_asbr=False) or race(with_asbr=True)
            or race_profile())


if __name__ == "__main__":
    sys.exit(main())
