"""Tests for the telemetry layer (events, sinks, metrics, renderers).

The load-bearing guarantees:

* attaching a tracer must not change simulated timing at all — the
  traced fast path is locked stat-for-stat against the plain one across
  predictor/ASBR/folding configurations;
* the event stream must be *internally consistent* (lifecycle ordering)
  and *externally consistent* (event counts reconcile exactly with
  ``PipelineStats``, fold hits with ``folds_committed``, BDT-busy
  misses with ``ASBRStats.invalid_fallbacks``);
* traces survive a JSONL round trip bit-for-bit, and bounded sinks
  truncate loudly, never silently;
* the whole traced event stream (every event's kind, order and payload,
  plus the final stats) is locked by digest on the codecs and on fault
  injected runs, so a reordered or reshaped event fails even when every
  count still reconciles.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.asbr import ASBRUnit, extract_branch_info
from repro.asm import assemble
from repro.faults import BDT_DIR, FaultInjector, FaultSite, FaultSpec
from repro.frontend import FrontendConfig
from repro.predictors import BimodalPredictor, make_predictor
from repro.profiling import profile_and_select
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.telemetry import (
    MISS_BDT_BUSY,
    MISS_NO_BIT_ENTRY,
    JsonlTraceSink,
    MetricsRegistry,
    RingBufferSink,
    TraceEvent,
    Tracer,
    lifecycle_cycles,
    make_tracer,
    merge_registries,
    read_jsonl,
    render_branch_report,
    render_counters,
    render_pipeview,
    retire_observer,
)
from repro.telemetry import events as ev
from repro.workloads import get_workload, speech_like

from tests.conftest import COUNT_LOOP, FOLD_DEMO


def _fold_demo_asbr(program, bdt_update="execute"):
    info = extract_branch_info(program, program.labels["br1"])
    return ASBRUnit.from_branch_infos([info], bdt_update=bdt_update)


def _run_pair(source, predictor_spec=None, asbr=False,
              bdt_update="execute"):
    """(plain stats, traced stats, registry, ring) for one config."""
    def build(trace):
        prog = assemble(source)
        kwargs = {}
        if predictor_spec is not None:
            kwargs["predictor"] = make_predictor(predictor_spec)
        if asbr:
            kwargs["asbr"] = _fold_demo_asbr(prog, bdt_update)
        return PipelineSimulator(prog, trace=trace, **kwargs)

    plain = build(None).run()
    registry, ring = MetricsRegistry(), RingBufferSink()
    traced = build(Tracer(registry, ring)).run()
    return plain, traced, registry, ring


CONFIGS = [
    ("count-default", COUNT_LOOP, None, False, "execute"),
    ("count-bimodal", COUNT_LOOP, "bimodal-512-512", False, "execute"),
    ("fold-default", FOLD_DEMO, None, False, "execute"),
    ("fold-gshare", FOLD_DEMO, "gshare-512-8", False, "execute"),
    ("fold-asbr-execute", FOLD_DEMO, "bimodal-512-512", True, "execute"),
    ("fold-asbr-commit", FOLD_DEMO, "bimodal-512-512", True, "commit"),
]


class TestTracedEquivalence:
    """The tracer is an observer, never a participant."""

    @pytest.mark.parametrize(
        "source,predictor,asbr,bdt_update",
        [c[1:] for c in CONFIGS], ids=[c[0] for c in CONFIGS])
    def test_stats_identical(self, source, predictor, asbr, bdt_update):
        plain, traced, _, _ = _run_pair(source, predictor, asbr, bdt_update)
        assert dataclasses.asdict(plain) == dataclasses.asdict(traced)

    def test_architectural_state_identical(self):
        p1 = PipelineSimulator(assemble(FOLD_DEMO))
        p1.run()
        p2 = PipelineSimulator(assemble(FOLD_DEMO),
                               trace=make_tracer(with_ring=True))
        p2.run()
        assert [p1.regs[i] for i in range(32)] \
            == [p2.regs[i] for i in range(32)]


class TestOrdering:
    """Lifecycle invariants of the event stream."""

    @pytest.fixture()
    def demo_events(self):
        _, _, _, ring = _run_pair(FOLD_DEMO, "bimodal-512-512")
        return ring.events

    def test_stage_cycles_monotonic(self, demo_events):
        rows = lifecycle_cycles(demo_events)
        assert rows, "no instructions traced"
        for seq, fetch, decode, issue, commit, squash in rows:
            assert fetch is not None
            if squash is not None:
                # squashed instructions never issue or commit
                assert issue is None and commit is None
                assert fetch <= squash
                continue
            assert commit is not None, "seq %d lost" % seq
            assert fetch < decode < issue < commit

    def test_seq_is_fetch_order(self, demo_events):
        rows = lifecycle_cycles(demo_events)
        seqs = [r[0] for r in rows]
        assert seqs == list(range(len(rows)))   # dense, no gaps
        fetches = [r[1] for r in rows]
        assert fetches == sorted(fetches)       # fetched in seq order

    def test_events_cycle_ordered(self, demo_events):
        cycles = [e.cycle for e in demo_events]
        assert cycles == sorted(cycles)


class TestReconciliation:
    """Event counts must reconcile exactly with PipelineStats."""

    def test_counts_match_stats(self):
        plain, traced, reg, _ = _run_pair(FOLD_DEMO, "bimodal-512-512")
        assert reg.count(ev.FETCH) == traced.fetched
        assert reg.count(ev.COMMIT) == traced.committed
        assert reg.count(ev.SQUASH) == traced.squashed
        assert reg.count(ev.BRANCH) == traced.branches
        assert reg.total_branch_executions == traced.branches
        mispredicts = sum(b.mispredicts for b in reg.branches.values())
        assert mispredicts == traced.branch_mispredicts

    def test_fold_hits_match_folds_committed(self):
        prog = assemble(FOLD_DEMO)
        asbr = _fold_demo_asbr(prog)
        reg = MetricsRegistry()
        stats = PipelineSimulator(prog, predictor=BimodalPredictor(512, 512),
                                  asbr=asbr, trace=Tracer(reg)).run()
        assert stats.folds_committed > 0
        assert reg.total_fold_hits == stats.folds_committed
        busy = sum(b.miss_bdt_busy for b in reg.branches.values())
        assert busy == asbr.stats.invalid_fallbacks
        # every fold attempt either hits or misses with a known reason
        attempts = reg.count(ev.FOLD_HIT) + reg.count(ev.FOLD_MISS)
        assert attempts == sum(
            b.fold_fetched + b.miss_no_bit + b.miss_bdt_busy
            for b in reg.branches.values())

    def test_adpcm_enc_branch_report_reconciles(self):
        """Acceptance: the per-branch table for a real workload sums
        exactly to the headline stats."""
        from repro.runner import RunSpec, execute_spec_metrics
        stats, metrics = execute_spec_metrics(
            RunSpec("adpcm_enc", 200, 1, "bimodal-2048", with_asbr=True))
        reg = MetricsRegistry.from_dict(metrics)
        assert reg.total_branch_executions == stats.branches
        assert reg.total_fold_hits == stats.folds_committed > 0
        assert reg.count(ev.COMMIT) == stats.committed
        report = render_branch_report(reg)
        assert "per-branch telemetry" in report

    def test_producer_distance_observed(self):
        _, _, reg, _ = _run_pair(FOLD_DEMO, "bimodal-512-512")
        br1 = assemble(FOLD_DEMO).labels["br1"]
        b = reg.branches[br1]
        # andi r9 ... sits 6 dynamic instructions ahead of beqz r9
        assert b.typical_distance() == 6


class TestFunctionalTrace:
    def test_retire_events(self):
        prog = assemble(COUNT_LOOP)
        reg, ring = MetricsRegistry(), RingBufferSink()
        sim = FunctionalSimulator(prog)
        n = sim.run(trace=Tracer(reg, ring))
        assert reg.count(ev.RETIRE) == n == ring.emitted
        assert ring.events[0].pc == prog.entry
        # seq mirrors retire order in the clockless model
        assert [e.seq for e in ring.events] == list(range(n))


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _, _, _, ring = _run_pair(FOLD_DEMO, "bimodal-512-512")
        with JsonlTraceSink(path) as sink:
            for e in ring.events:
                sink.emit(e)
        back = read_jsonl(path)
        assert back == ring.events          # TraceEvent defines __eq__
        assert not sink.truncated

    def test_jsonl_truncates_loudly(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path, max_bytes=200)
        for i in range(100):
            sink.emit(TraceEvent(i, ev.FETCH, 0x400000 + 4 * i, i))
        sink.close()
        assert sink.truncated and sink.dropped > 0
        events = read_jsonl(path)
        assert events[-1].kind == ev.TRUNCATED
        assert events[-1].data["dropped"] == sink.dropped
        assert len(events) - 1 == sink.written
        with pytest.raises(ValueError):
            sink.emit(TraceEvent(0, ev.FETCH))

    def test_ring_buffer_bounds(self):
        ring = RingBufferSink(capacity=4)
        for i in range(10):
            ring.emit(TraceEvent(i, ev.FETCH, seq=i))
        assert len(ring) == 4
        assert ring.emitted == 10 and ring.evicted == 6
        assert [e.cycle for e in ring] == [6, 7, 8, 9]

    def test_event_json_compact(self):
        e = TraceEvent(7, ev.FOLD_MISS, 0x400010, 3,
                       {"reason": MISS_NO_BIT_ENTRY})
        assert TraceEvent.from_json(e.to_json()) == e
        bare = TraceEvent(7, ev.BDT_UPDATE)
        assert '"p"' not in bare.to_json()   # zero fields omitted
        assert TraceEvent.from_json(bare.to_json()) == bare


class TestMetricsSerde:
    def test_round_trip_and_merge(self):
        _, _, reg, _ = _run_pair(FOLD_DEMO, "bimodal-512-512", asbr=True)
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.to_dict() == reg.to_dict()
        both = merge_registries([reg, back])
        assert both.total_branch_executions \
            == 2 * reg.total_branch_executions
        assert both.total_fold_hits == 2 * reg.total_fold_hits
        pc, b = reg.sorted_branches()[0]
        merged_b = both.branches[pc]
        assert merged_b.executions == 2 * b.executions
        for d, n in b.distances.items():
            assert merged_b.distances[d] == 2 * n

    def test_reasons_are_the_public_constants(self):
        assert MISS_NO_BIT_ENTRY == "no_bit_entry"
        assert MISS_BDT_BUSY == "bdt_busy"


GOLDEN_PIPEVIEW = """\
pipeline timeline: cycles 13..22 ('|' every 10)
 seq pc         ..+....|..
   4 0x00400010 FDXMW.....  taken MISPREDICT
   5 0x00400014 .Fx.......  squashed
   6 0x00400008 ...FDXMW..
   7 0x0040000c ....FDXMW.
   8 0x00400010 .....FDXMW  taken MISPREDICT
   9 0x00400014 ......Fx..  squashed"""


class TestRenderers:
    def test_golden_pipeview(self):
        """Locked render: one loop iteration of COUNT_LOOP under the
        default predictor, mispredict + squash and all."""
        ring = RingBufferSink()
        PipelineSimulator(assemble(COUNT_LOOP),
                          trace=Tracer(ring)).run()
        assert render_pipeview(ring.events, limit=6, skip=4) \
            == GOLDEN_PIPEVIEW

    def test_pipeview_empty(self):
        assert "no instruction events" in render_pipeview([])

    def test_branch_report_labels(self):
        prog = assemble(FOLD_DEMO)
        reg = MetricsRegistry()
        PipelineSimulator(prog, predictor=BimodalPredictor(512, 512),
                          trace=Tracer(reg)).run()
        report = render_branch_report(reg, prog)
        assert "br1" in report
        assert "total" in report

    def test_counters_render(self):
        _, _, reg, _ = _run_pair(COUNT_LOOP)
        text = render_counters(reg)
        assert "commit=" in text and "fetch=" in text


# ----------------------------------------------------------------------
# event-stream lock
# ----------------------------------------------------------------------
class _HashSink:
    """Feeds each event's JSONL line into a running sha256."""

    def __init__(self, sha) -> None:
        self.sha = sha

    def emit(self, event: TraceEvent) -> None:
        self.sha.update(event.to_json().encode() + b"\n")


def _hash_run(sha, build) -> None:
    """Run ``build(tracer)`` traced; hash its events, then its stats.

    ``to_json`` sorts keys and every payload is made of ints, bools,
    strings and lists, so the digest depends on neither the hash seed
    nor the Python version.
    """
    stats = build(Tracer(_HashSink(sha))).run()
    sha.update(json.dumps(dataclasses.asdict(stats),
                          sort_keys=True).encode() + b"\n")


def _digest(*builds) -> str:
    """First 16 hex digits of the sha256 over ``builds``' traced runs."""
    sha = hashlib.sha256()
    for build in builds:
        _hash_run(sha, build)
    return sha.hexdigest()[:16]


STREAM_CODECS = ("adpcm_enc", "adpcm_dec", "g721_enc", "g721_dec",
                 "huffman_dec")


def _codec_builds(codec, predictor, configs):
    """One simulator builder per ``(bdt_update, fdip)`` config:
    a small input, a fresh memory image per run and, with ASBR, the BIT
    selected by :func:`profile_and_select` on that input."""
    wl = get_workload(codec)
    pcm = speech_like(4 if codec.startswith("g721") else 24, seed=7)
    stream = wl.input_stream(pcm)
    count = wl.count_fn(pcm)
    builds = []
    for bdt_update, fdip in configs:
        infos = None
        if bdt_update is not None:
            infos = profile_and_select(
                wl.program, wl.build_memory(stream, count),
                bdt_update=bdt_update).selection.infos

        def build(trace, bdt_update=bdt_update, fdip=fdip, infos=infos):
            asbr = None
            if infos is not None:
                asbr = ASBRUnit.from_branch_infos(infos,
                                                  bdt_update=bdt_update)
            return PipelineSimulator(
                wl.program, wl.build_memory(stream, count),
                predictor=make_predictor(predictor), asbr=asbr, trace=trace,
                frontend=FrontendConfig(fdip=True) if fdip else None)
        builds.append(build)
    return builds


#: tier-1 grid: label -> (bdt_update, fdip)
STREAM_CONFIGS = {
    "plain": (None, False),
    "execute": ("execute", False),
    "mem-fdip": ("mem", True),
    "commit": ("commit", False),
}

#: "<codec>-<config>" -> digest of one traced bimodal-512-512 run.  The
#: digests of this section were recorded from the hand-kept traced copy
#: of tick() that the guarded emit sites replaced: equal digests mean
#: the same events, in the same order, with the same payloads.  They
#: were re-recorded when the stats record gained its cache and fold
#: counters, after hashing only the earlier 14 fields had reproduced
#: every old digest, and when it lost its CRISP unconditional-fold
#: counter, after hashing that counter back in as 0 had reproduced
#: every digest of a run without CRISP folding (here and below)
STREAM_DIGESTS = {
    "adpcm_enc-plain": "751a3b04cd3e6740",
    "adpcm_enc-execute": "c296209364b2206d",
    "adpcm_enc-mem-fdip": "d0fab724dfd8e42f",
    "adpcm_enc-commit": "4ec2fe57734b1d44",
    "adpcm_dec-plain": "eab2d2b67ed86588",
    "adpcm_dec-execute": "174ddcc223f347fa",
    "adpcm_dec-mem-fdip": "685ab590d24a5c08",
    "adpcm_dec-commit": "d6f2ef51ff6bdf88",
    "g721_enc-plain": "421950d1f532b551",
    "g721_enc-execute": "ff69166c0c0f0e1c",
    "g721_enc-mem-fdip": "00803047bab95d8c",
    "g721_enc-commit": "50fd1ae704de4cf7",
    "g721_dec-plain": "031dbb967a55b524",
    "g721_dec-execute": "d6eb1268bac6d66c",
    "g721_dec-mem-fdip": "e230a74e3d48df1d",
    "g721_dec-commit": "4b8cd6d525bd83fa",
    "huffman_dec-plain": "1d58f19bc5e242ee",
    "huffman_dec-execute": "3bbba49bec19722f",
    "huffman_dec-mem-fdip": "6feb2107ff132197",
    "huffman_dec-commit": "e04d57f6eea3c0d8",
}

#: the live BDT bit of tests/test_faults_inject.py: ``beqz r9`` reads
#: (r9, EQZ); a flip at cycle 30 is an SDC unprotected, a detection
#: under parity and a correction under ECC, and at cycle 46 likewise
#: with different timing
LIVE_DIR = FaultSite(BDT_DIR, "EQZ", 9, 0)

#: "<protection>-<cycle>" -> digest of one traced fault-injected run
FAULT_DIGESTS = {
    "none-30": "546a2ce8fa042d13",
    "none-46": "fafbe5302d8347aa",
    "parity-30": "a54ae9978fecf365",
    "parity-46": "3055444814969262",
    "ecc-30": "b025b05d4ac15fa6",
    "ecc-46": "078153ff184b4601",
}

#: slow grid: "<codec>-<predictor>" -> one digest over 8 traced runs,
#: {none, execute, mem, commit} x {coupled, FDIP}
GRID_DIGESTS = {
    "adpcm_enc-not-taken": "3e20dd9844c67cd6",
    "adpcm_enc-bimodal-512-512": "e4e75c36149c4a91",
    "adpcm_enc-gshare-512-8": "fec177cbb3358137",
    "adpcm_dec-not-taken": "173346488d9f27fc",
    "adpcm_dec-bimodal-512-512": "8adf88eae0c8722b",
    "adpcm_dec-gshare-512-8": "5b329035f392804c",
    "g721_enc-not-taken": "18d92a5393117e5c",
    "g721_enc-bimodal-512-512": "779497a535d589fe",
    "g721_enc-gshare-512-8": "d2764267983fc028",
    "g721_dec-not-taken": "cf6d81e469cc8c2b",
    "g721_dec-bimodal-512-512": "bdeea24680ca0c19",
    "g721_dec-gshare-512-8": "d80f32b05095866b",
    "huffman_dec-not-taken": "27894ca078465e44",
    "huffman_dec-bimodal-512-512": "3c10f9b0771d1616",
    "huffman_dec-gshare-512-8": "e77a614162cd3b0b",
}

GRID_CONFIGS = [(u, f) for u in (None, "execute", "mem", "commit")
                for f in (False, True)]


class TestEventStreamLock:
    """Every traced event, in order and in full, is locked by digest."""

    @pytest.mark.parametrize("codec", STREAM_CODECS)
    @pytest.mark.parametrize("config", list(STREAM_CONFIGS))
    def test_codec_stream(self, codec, config):
        build, = _codec_builds(codec, "bimodal-512-512",
                               [STREAM_CONFIGS[config]])
        key = "%s-%s" % (codec, config)
        assert _digest(build) == STREAM_DIGESTS[key]

    @pytest.mark.parametrize("cycle", [30, 46])
    @pytest.mark.parametrize("protection", ["none", "parity", "ecc"])
    def test_fault_stream(self, protection, cycle):
        prog = assemble(FOLD_DEMO)

        def build(trace):
            info = extract_branch_info(prog, prog.labels["br1"])
            sim = PipelineSimulator(
                prog, predictor=make_predictor("bimodal-64"),
                asbr=ASBRUnit.from_branch_infos([info], capacity=4,
                                                bdt_update="execute"),
                trace=trace)
            return FaultInjector(FaultSpec(LIVE_DIR, cycle),
                                 protection).attach(sim)

        key = "%s-%d" % (protection, cycle)
        assert _digest(build) == FAULT_DIGESTS[key]

    @pytest.mark.slow
    @pytest.mark.parametrize("codec", STREAM_CODECS)
    @pytest.mark.parametrize(
        "predictor", ["not-taken", "bimodal-512-512", "gshare-512-8"])
    def test_full_grid(self, codec, predictor):
        builds = _codec_builds(codec, predictor, GRID_CONFIGS)
        key = "%s-%s" % (codec, predictor)
        assert _digest(*builds) == GRID_DIGESTS[key]
