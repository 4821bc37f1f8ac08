"""Telemetry contracts of the out-of-order backend.

Two locks mirror the in-order pipeline's telemetry tests:

* **traced ≡ plain** — attaching a :class:`Tracer` must not perturb a
  single stats field, so cached metric-less results and traced reruns
  stay interchangeable;
* the event stream must carry the OoO lifecycle (rename_alloc,
  iq_wakeup, issue, commit, checkpoint_restore, squash_depth) with
  cycles/seqs consistent enough for the ASCII pipeview to reconstruct
  out-of-order issue against in-order commit;

and the reconciliation lock: the per-branch tables a run's events
build count exactly the branches, mispredicts and folds its
:class:`OoOStats` count, so fold coverage has one definition.  Their
producer distances run to the branch's own issue, not its commit.
"""

import dataclasses
from collections import Counter

import pytest

from repro.asbr import ASBRUnit, FoldabilityError, extract_branch_info
from repro.runner.pool import RunSpec, _execute
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry import events as ev
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.timeline import lifecycle_cycles, render_pipeview
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


def _traced_run(seed, frontend=None, width=2):
    prog = random_program(seed, units=14)
    ring = RingBufferSink(capacity=1_000_000)
    sim = OoOSimulator(prog, asbr=_asbr_for(prog),
                       config=OoOConfig(issue_width=width),
                       trace=Tracer(ring), frontend=frontend)
    stats = sim.run()
    return stats, ring.events


def test_traced_equals_plain():
    for seed in range(6):
        prog = random_program(seed, units=14)
        plain = OoOSimulator(prog, asbr=_asbr_for(prog)).run()
        traced, _events = _traced_run(seed)
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain), \
            "tracing perturbed the machine (seed %d)" % seed


def test_traced_equals_plain_with_frontend():
    from repro.frontend import FrontendConfig

    prog = random_program(2, units=14)
    plain = OoOSimulator(prog, asbr=_asbr_for(prog),
                         frontend=FrontendConfig(fdip=True)).run()
    traced, events = _traced_run(2, frontend=FrontendConfig(fdip=True))
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    kinds = set(e.kind for e in events)
    assert ev.BTB_HIT in kinds or ev.BTB_MISS in kinds


def test_event_stream_carries_ooo_lifecycle():
    stats, events = _traced_run(0)
    kinds = set(e.kind for e in events)
    for want in (ev.FETCH, ev.DECODE, ev.RENAME_ALLOC, ev.ISSUE,
                 ev.IQ_WAKEUP, ev.COMMIT, ev.BRANCH, ev.SQUASH,
                 ev.CHECKPOINT_RESTORE, ev.SQUASH_DEPTH):
        assert want in kinds, "missing %s events" % want
    restores = [e for e in events if e.kind == ev.CHECKPOINT_RESTORE]
    assert len(restores) == stats.checkpoint_restores
    assert sum(e.data["depth"] for e in restores) \
        == stats.squash_depth_sum


def test_commit_in_order_issue_out_of_order():
    _stats, events = _traced_run(0, width=4)
    rows = lifecycle_cycles(events)
    commits = [(seq, c) for seq, _f, _d, i, c, _s in rows
               if c is not None]
    # commit cycles never invert in seq order (the active list is the
    # paper-facing guarantee: folding's precision argument survives)
    assert all(a[1] <= b[1] for a, b in zip(commits, commits[1:]))
    issues = [(seq, i) for seq, _f, _d, i, c, _s in rows
              if i is not None and c is not None]
    assert any(a[1] > b[1] for a, b in zip(issues, issues[1:])), \
        "4-wide machine never issued out of order"


def test_pipeview_flags_ooo_issue():
    _stats, events = _traced_run(0, width=4)
    view = render_pipeview(events, limit=200)
    assert "<ooo" in view
    # the in-order pipeline must never trip the flag
    prog = random_program(0, units=14)
    ring = RingBufferSink(capacity=1_000_000)
    PipelineSimulator(prog, trace=Tracer(ring)).run()
    assert "<ooo" not in render_pipeview(ring.events, limit=200)


# ----------------------------------------------------------------------
# the branch tables reconcile with OoOStats
# ----------------------------------------------------------------------
def assert_tables_reconcile(stats, registry, events):
    """The telemetry branch tables count what the stats count: every
    committed branch once (never one an older mispredict squashed),
    and every committed fold once, filed under the direction its
    ``fold_hit`` event folded it."""
    rows = registry.branches
    assert sum(b.executions for b in rows.values()) == stats.branches
    assert sum(b.mispredicts for b in rows.values()) \
        == stats.branch_mispredicts
    assert sum(b.fold_hits for b in rows.values()) == stats.folds_committed
    hit_taken = {e.seq: e.data["taken"] for e in events
                 if e.kind == ev.FOLD_HIT}
    taken = Counter(e.data["fold_pc"] for e in events
                    if e.kind == ev.COMMIT and "fold_pc" in e.data
                    and hit_taken[e.seq])
    assert {pc: b.fold_taken for pc, b in rows.items() if b.fold_taken} \
        == dict(taken)


@pytest.mark.parametrize("fdip", [False, True], ids=["coupled", "fdip"])
@pytest.mark.parametrize("asbr", [False, True], ids=["plain", "asbr"])
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("bench", ["huffman_dec", "adpcm_enc"])
def test_branch_tables_reconcile_with_stats(bench, width, asbr, fdip):
    spec = RunSpec(bench, 48, 7, "bimodal-512-512", with_asbr=asbr,
                   backend="ooo", issue_width=width, frontend=fdip,
                   fdip=fdip)
    registry = MetricsRegistry()
    ring = RingBufferSink(capacity=1_000_000)
    stats = _execute(spec, trace=Tracer(registry, ring))
    assert_tables_reconcile(stats, registry, ring.events)
    if asbr and width == 1:            # wider machines may fold nothing
        assert stats.folds_committed > 0


# ----------------------------------------------------------------------
# producer distances end at the branch's own issue
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench, asbr, pc, distances", [
    ("huffman_dec", True, 0x400038, {1: 319}),
    # a writer that a SQUASH kills stops counting and the writer before
    # it counts again; without that, buckets 19 and 20 read 3 and 13
    ("adpcm_enc", False, 0x4000d0,
     {17: 16, 18: 15, 19: 2, 20: 14, 21: 34, 22: 17, 23: 6, 24: 16,
      25: 18, 26: 1, 27: 2, 28: 1, 29: 3, 32: 5}),
], ids=["huffman_dec-asbr", "adpcm_enc-plain"])
def test_producer_distances_end_at_the_branch_issue(bench, asbr, pc,
                                                     distances):
    """The machine emits ``branch`` at commit: ops that issue between
    the branch's issue and its commit stay out of its distance."""
    spec = RunSpec(bench, 150, 7, "bimodal-512-512", with_asbr=asbr,
                   backend="ooo", issue_width=1)
    registry = MetricsRegistry()
    _execute(spec, trace=Tracer(registry))
    assert registry.branches[pc].distances == distances


class _WindowProbe(MetricsRegistry):
    """A registry that records the peak size of its per-op state."""

    peak = 0

    def emit(self, event):
        super().emit(event)
        self.peak = max(self.peak, len(self._at_issue),
                        len(self._writer_reg))


@pytest.mark.parametrize("width", [2, 4])
def test_distance_state_stays_in_the_window(width):
    """Per-op distance state lives only while the op is in flight, also
    for a writer that issued before an older one committed and itself
    commits or squashes later."""
    prog = random_program(0, units=14)
    cfg = OoOConfig(issue_width=width)
    probe = _WindowProbe()
    OoOSimulator(prog, asbr=_asbr_for(prog), config=cfg,
                 trace=Tracer(probe)).run()
    assert 0 < probe.peak <= cfg.rob_size + 2 * width
