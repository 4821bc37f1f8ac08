"""Equivalence lock for the direction-only bimodal replay.

:func:`repro.predictors.evaluate.evaluate_on_trace` replays a
direction-only score through an exact :class:`BimodalPredictor` (the
selection baseline, bimodal-2048) by stepping its 2-bit counters alone.
The oracle here is the replay it replaced: one ``predict`` (a
:class:`~repro.predictors.base.Prediction` with its BTB lookup) and one
``update`` per record.  The :class:`PredictorAccuracy` (field by field,
per-PC dict order included) and the final counter table must be
identical: on every workload, on the random-program corpus, with and
without ``skip_pcs``, and at 2048, 512 and 16 counters (16 forces
aliasing).  Every other predictor, a bimodal subclass and
``direction_only=False`` must keep the per-record loop.  A fast subset
runs in tier-1; the full sweep is ``-m slow``.
"""

import copy
import dataclasses

import pytest

from repro.predictors import evaluate
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.evaluate import (
    PredictorAccuracy,
    evaluate_on_trace,
    make_predictor,
)
from repro.sim.functional import collect_branch_trace
from repro.testing import random_program
from repro.workloads import get_workload, speech_like
from repro.workloads.loader import WORKLOAD_NAMES


# ----------------------------------------------------------------------
# the oracle: the per-record Prediction replay
# ----------------------------------------------------------------------
def reference_replay(predictor, trace, skip_pcs=None,
                     direction_only=True) -> PredictorAccuracy:
    """Replay ``trace`` through ``predictor.predict``/``update``."""
    acc = PredictorAccuracy(predictor.name)
    per_total = acc.per_pc_total
    per_correct = acc.per_pc_correct
    for rec in trace:
        pc = rec.pc
        if skip_pcs and pc in skip_pcs:
            continue
        pred = predictor.predict(pc)
        if direction_only:
            ok = pred.taken == rec.taken
        else:
            ok = (pred.taken == rec.taken
                  and (not rec.taken or pred.target == rec.target))
        predictor.update(pc, rec.taken, rec.target)
        acc.total += 1
        per_total[pc] = per_total.get(pc, 0) + 1
        if ok:
            acc.correct += 1
            per_correct[pc] = per_correct.get(pc, 0) + 1
    return acc


def _fields(acc: PredictorAccuracy):
    """Every field, the per-PC dicts as ordered item lists."""
    return (dataclasses.asdict(acc), list(acc.per_pc_total.items()),
            list(acc.per_pc_correct.items()))


ENTRIES = [2048, 512, 16]


def _skip_sets(trace):
    """No skip set, and every other branch PC in first-seen order."""
    pcs = list(dict.fromkeys(rec.pc for rec in trace))
    return [None, set(pcs[::2])]


def assert_replays_equal(trace) -> None:
    """The fast replay reproduces the oracle's accuracy and counters."""
    for entries in ENTRIES:
        for skip in _skip_sets(trace):
            ref = BimodalPredictor(entries)
            want = reference_replay(ref, trace, skip)
            got_pred = BimodalPredictor(entries)
            btb_before = copy.deepcopy(vars(got_pred.btb))
            got = evaluate_on_trace(got_pred, trace, skip)
            assert _fields(got) == _fields(want), (entries, skip)
            assert got_pred._counters == ref._counters, (entries, skip)
            assert vars(got_pred.btb) == btb_before


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: the grid of tests/test_profile_pass.py
SIZES = [50, 60, 123, 400]
SEEDS = [7, 20010618]
ALL_WORKLOAD_CASES = [(name, n, seed) for name in WORKLOAD_NAMES
                      for n in SIZES for seed in SEEDS]
FAST_WORKLOAD_CASES = [(name, 60, 7) for name in WORKLOAD_NAMES]


def _workload_trace(name, n, seed):
    wl = get_workload(name)
    return collect_branch_trace(wl.program,
                                wl.memory_image(speech_like(n, seed))[0])


@pytest.mark.parametrize("name,n,seed", FAST_WORKLOAD_CASES)
def test_workload_fast_subset(name, n, seed):
    assert_replays_equal(_workload_trace(name, n, seed))


@pytest.mark.slow
@pytest.mark.parametrize("name,n,seed", ALL_WORKLOAD_CASES)
def test_workload_full_sweep(name, n, seed):
    assert_replays_equal(_workload_trace(name, n, seed))


# ----------------------------------------------------------------------
# random programs
# ----------------------------------------------------------------------
ALL_SEEDS = list(range(200))
FAST_SEEDS = ALL_SEEDS[:24]


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_program_fast_subset(seed):
    assert_replays_equal(collect_branch_trace(random_program(seed,
                                                             units=14)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_random_program_full_sweep(seed):
    assert_replays_equal(collect_branch_trace(random_program(seed,
                                                             units=14)))


def test_empty_trace():
    assert_replays_equal([])


# ----------------------------------------------------------------------
# what keeps the per-record loop
# ----------------------------------------------------------------------
class _SubBimodal(BimodalPredictor):
    pass


@pytest.mark.parametrize("make,direction_only", [
    (lambda: make_predictor("gshare-2048-11"), True),
    (lambda: make_predictor("combining-2048"), True),
    (lambda: _SubBimodal(2048), True),
    (lambda: make_predictor("bimodal-2048"), False),
], ids=["gshare", "combining", "bimodal-subclass", "bimodal-targets"])
def test_generic_loop_kept(make, direction_only, monkeypatch):
    trace = _workload_trace("adpcm_enc", 60, 7)
    want = reference_replay(make(), trace, direction_only=direction_only)

    def forbidden(*args):
        raise AssertionError("took the bimodal direction replay")

    monkeypatch.setattr(evaluate, "_bimodal_directions", forbidden)
    got = evaluate_on_trace(make(), trace, direction_only=direction_only)
    assert _fields(got) == _fields(want)
