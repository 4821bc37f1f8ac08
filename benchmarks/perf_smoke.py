"""CI perf-smoke gate: the compiled loops must earn their keep.

A coarse anti-regression check, not a tight threshold: it first proves
compiled-vs-reference equivalence on a quick sweep (both simulators,
with and without ASBR/bimodal, plus the out-of-order backend against
the functional model), then races the pipeline's compiled loop (what
an unobserved ``run()`` takes) against the reference ``tick()`` loop
(``run_reference()``) on the ADPCM workload and fails if the compiled
loop is *slower* in either configuration it serves:

* plain — the default not-taken predictor, no ASBR;
* ASBR — threshold-2 folding with the ``bimodal-512-512`` auxiliary
  predictor, where the compiled fold checks are on the hot path.

It also checks the front half of an ASBR run: the compiled profiling
pass must reproduce the per-instruction reference profiler and
plan-loop trace (the oracle of ``tests/test_profile_pass.py``), and the
direction-only bimodal replay the per-record ``predict``/``update``
replay (the oracle of ``tests/test_baseline_replay.py``), on every
workload; and the compiled front half (one pass plus the fast
bimodal-2048 replay) must run at least :data:`MIN_PROFILE_SPEEDUP`
times faster than the reference's (profile, trace, per-record replay)
on ADPCM.

Last, the DSE: a ``GridSearch`` over the ``paper`` space, whose
points run untraced and read fold coverage off their stats, must
return the objective vectors of the traced path (the oracle of
``tests/test_dse_engine.py``) and run at least
:data:`MIN_DSE_SPEEDUP` times faster than it, both inline on ADPCM.

Every race alternates its two arms repetition by repetition and keeps
each arm's best of :data:`REPS`, so a slow spell on a shared host
slows both arms rather than one.

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
from repro.dse import Evaluator, GridSearch, paper_space
from repro.predictors import evaluate_on_trace, make_predictor
from repro.profiling import BranchProfiler, select_branches
from repro.sim.functional import FunctionalSimulator, collect_branch_trace
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

# the reference profiler, the per-record replay and the traced DSE
# path live with the tests that lock the fast paths to them
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.test_baseline_replay import (  # noqa: E402
    assert_replays_equal,
    reference_replay,
)
from tests.test_dse_engine import traced_objectives  # noqa: E402
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
#: compiled front half vs the reference's, on ADPCM (12.5x-14.0x in
#: four runs on a 2-vCPU host; 8.6x there while both arms replayed the
#: baseline per record)
MIN_PROFILE_SPEEDUP = 4.0
DSE_SAMPLES = 150
#: untraced paper-space grid vs the traced path, inline on ADPCM
#: (3.6x-4.2x in four runs on a 2-vCPU host)
MIN_DSE_SPEEDUP = 2.5


def check_equivalence() -> None:
    wl = get_workload(WORKLOAD)
    pcm = speech_like(EQUIV_SAMPLES, seed=11)
    stream = wl.input_stream(pcm)

    # functional: architectural state must match exactly
    ref = FunctionalSimulator(wl.program, wl.build_memory(stream))
    retired = ref.run_reference()
    sim = FunctionalSimulator(wl.program, wl.build_memory(stream))
    assert sim.run() == retired, "retired count diverged"
    assert sim.regs.snapshot() == ref.regs.snapshot(), "registers diverged"
    assert sim.memory.snapshot() == ref.memory.snapshot(), "memory diverged"

    # pipeline: full PipelineStats must be bit-identical, across the
    # plain, predicted and ASBR-folding configurations
    profile = BranchProfiler().profile(wl.program, wl.build_memory(stream))
    sel = select_branches(profile, bit_capacity=16, bdt_update="execute")

    def one(pred_spec, with_asbr, reference):
        asbr = (ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                           bdt_update="execute")
                if with_asbr else None)
        sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                predictor=make_predictor(pred_spec),
                                asbr=asbr)
        run = sim.run_reference if reference else sim.run
        return dataclasses.asdict(run())

    for pred_spec, with_asbr in (("not-taken", False),
                                 ("bimodal-512-512", False),
                                 ("bimodal-512-512", True)):
        a = one(pred_spec, with_asbr, True)
        b = one(pred_spec, with_asbr, False)
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
        assert stats.committed + stats.folds_committed == retired, \
            "ooo retirement ledger diverged (w%d)" % width
    print("equivalence: OK (%s, %d samples, 3 pipeline configs x 2 "
          "loops + 3 ooo configs)" % (WORKLOAD, EQUIV_SAMPLES))


def alternate(*arms):
    """Each arm's REPS results, the arms taking turns within every
    repetition (A, B, A, B, ...)."""
    results = [[] for _ in arms]
    for _ in range(REPS):
        for out, arm in zip(results, arms):
            out.append(arm())
    return results


def race(with_asbr: bool) -> int:
    """Best-of-REPS cycles/s, compiled vs reference loop, one config."""
    wl = get_workload(WORKLOAD)
    stream = wl.input_stream(speech_like(RACE_SAMPLES, seed=42))
    infos = None
    if with_asbr:
        profile = BranchProfiler().profile(wl.program,
                                           wl.build_memory(stream))
        infos = select_branches(profile, bit_capacity=16,
                                bdt_update="execute").infos

    def rate(reference):
        predictor = asbr = None           # None: not-taken, no ASBR
        if with_asbr:
            predictor = make_predictor("bimodal-512-512")
            asbr = ASBRUnit.from_branch_infos(infos, capacity=16,
                                              bdt_update="execute")
        sim = PipelineSimulator(wl.program, wl.build_memory(stream),
                                predictor=predictor, asbr=asbr)
        run = sim.run_reference if reference else sim.run
        t0 = time.perf_counter()
        stats = run()
        return stats.cycles / (time.perf_counter() - t0)

    label = "asbr" if with_asbr else "plain"
    ref, compiled = map(max, alternate(lambda: rate(True),
                                       lambda: rate(False)))
    print("race (%s): reference %.0f cycles/s, compiled %.0f cycles/s "
          "(%.2fx)" % (label, ref, compiled, compiled / ref))
    if compiled < ref:
        print("FAIL: the compiled loop is slower than the reference on "
              "%s (%s)" % (WORKLOAD, label), file=sys.stderr)
        return 1
    return 0


def check_profile_equivalence() -> None:
    from repro.workloads.loader import WORKLOAD_NAMES

    for name in WORKLOAD_NAMES:
        wl = get_workload(name)
        stream = wl.input_stream(speech_like(EQUIV_SAMPLES, seed=11))
        assert_equivalent(wl.program, lambda: wl.build_memory(stream))
        assert_replays_equal(collect_branch_trace(
            wl.program, wl.build_memory(stream)))
    print("profile equivalence: OK (%d workloads, %d samples: profile, "
          "trace, and the bimodal replay at 2048/512/16 counters with "
          "and without skipped branches)"
          % (len(WORKLOAD_NAMES), EQUIV_SAMPLES))


def race_profile() -> int:
    """Best-of-REPS seconds of the front half, compiled vs reference."""
    wl = get_workload(WORKLOAD)
    stream = wl.input_stream(speech_like(PROFILE_RACE_SAMPLES, seed=42))

    def reference(memory, memory2):
        reference_profile(wl.program, memory)
        trace = reference_trace(wl.program, memory2)
        reference_replay(make_predictor("bimodal-2048"), trace)

    def compiled(memory, _memory2):
        profile = BranchProfiler().profile(wl.program, memory)
        evaluate_on_trace(make_predictor("bimodal-2048"), profile.trace)

    def seconds(front_half):
        memories = wl.build_memory(stream), wl.build_memory(stream)
        t0 = time.perf_counter()
        front_half(*memories)
        return time.perf_counter() - t0

    ref, fast = map(min, alternate(lambda: seconds(reference),
                                   lambda: seconds(compiled)))
    print("race (profile): reference %.1f ms, compiled %.1f ms (%.1fx)"
          % (ref * 1e3, fast * 1e3, ref / fast))
    if ref / fast < MIN_PROFILE_SPEEDUP:
        print("FAIL: the compiled front half is less than %.0fx faster "
              "than the reference on %s" % (MIN_PROFILE_SPEEDUP, WORKLOAD),
              file=sys.stderr)
        return 1
    return 0


def race_dse() -> int:
    """Best-of-REPS seconds of a paper-space grid, untraced vs traced;
    every repetition must give equal objective vectors."""
    space = paper_space()
    untraced = traced = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        ev = Evaluator(WORKLOAD, DSE_SAMPLES, seed=42)
        got = [r.objectives for r in GridSearch().run(ev, space)]
        t1 = time.perf_counter()
        want = traced_objectives(space.points(), WORKLOAD, DSE_SAMPLES, 42)
        t2 = time.perf_counter()
        assert got == want, \
            "untraced DSE objectives diverged from the traced path"
        untraced = min(untraced, t1 - t0)
        traced = min(traced, t2 - t1)
    print("dse equivalence: OK (%s, %d samples, %d paper-space points)"
          % (WORKLOAD, DSE_SAMPLES, len(space.points())))
    ratio = traced / untraced
    print("race (dse grid): traced %.0f ms, untraced %.0f ms (%.1fx)"
          % (traced * 1e3, untraced * 1e3, ratio))
    if ratio < MIN_DSE_SPEEDUP:
        print("FAIL: the untraced DSE grid is less than %.1fx faster "
              "than the traced path on %s" % (MIN_DSE_SPEEDUP, WORKLOAD),
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    check_equivalence()
    check_profile_equivalence()
    return (race(with_asbr=False) or race(with_asbr=True)
            or race_profile() or race_dse())


if __name__ == "__main__":
    sys.exit(main())
