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
              bdt_update="execute", fold_unconditional=False):
    """(plain stats, traced stats, registry, ring) for one config."""
    def build(trace):
        prog = assemble(source)
        kwargs = {}
        if predictor_spec is not None:
            kwargs["predictor"] = make_predictor(predictor_spec)
        if asbr:
            kwargs["asbr"] = _fold_demo_asbr(prog, bdt_update)
        return PipelineSimulator(prog, trace=trace,
                                 fold_unconditional=fold_unconditional,
                                 **kwargs)

    plain = build(None).run()
    registry, ring = MetricsRegistry(), RingBufferSink()
    traced = build(Tracer(registry, ring)).run()
    return plain, traced, registry, ring


CONFIGS = [
    ("count-default", COUNT_LOOP, None, False, "execute", False),
    ("count-bimodal", COUNT_LOOP, "bimodal-512-512", False, "execute",
     False),
    ("fold-gshare", FOLD_DEMO, "gshare-512-8", False, "execute", False),
    ("fold-asbr-execute", FOLD_DEMO, "bimodal-512-512", True, "execute",
     False),
    ("fold-asbr-commit", FOLD_DEMO, "bimodal-512-512", True, "commit",
     False),
    ("fold-uncond", FOLD_DEMO, None, False, "execute", True),
]


class TestTracedEquivalence:
    """The tracer is an observer, never a participant."""

    @pytest.mark.parametrize(
        "source,predictor,asbr,bdt_update,uncond",
        [c[1:] for c in CONFIGS], ids=[c[0] for c in CONFIGS])
    def test_stats_identical(self, source, predictor, asbr, bdt_update,
                             uncond):
        plain, traced, _, _ = _run_pair(
            source, predictor, asbr, bdt_update, uncond)
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
    """One simulator builder per ``(bdt_update, fdip, uncond)`` config:
    a small input, a fresh memory image per run and, with ASBR, the BIT
    selected by :func:`profile_and_select` on that input."""
    wl = get_workload(codec)
    pcm = speech_like(4 if codec.startswith("g721") else 24, seed=7)
    stream = wl.input_stream(pcm)
    count = wl.count_fn(pcm)
    builds = []
    for bdt_update, fdip, uncond in configs:
        infos = None
        if bdt_update is not None:
            infos = profile_and_select(
                wl.program, wl.build_memory(stream, count),
                bdt_update=bdt_update).selection.infos

        def build(trace, bdt_update=bdt_update, fdip=fdip, uncond=uncond,
                  infos=infos):
            asbr = None
            if infos is not None:
                asbr = ASBRUnit.from_branch_infos(infos,
                                                  bdt_update=bdt_update)
            return PipelineSimulator(
                wl.program, wl.build_memory(stream, count),
                predictor=make_predictor(predictor), asbr=asbr,
                fold_unconditional=uncond, trace=trace,
                frontend=FrontendConfig(fdip=True) if fdip else None)
        builds.append(build)
    return builds


#: tier-1 grid: label -> (bdt_update, fdip, fold_unconditional)
STREAM_CONFIGS = {
    "plain": (None, False, False),
    "execute": ("execute", False, False),
    "mem-fdip": ("mem", True, False),
    "commit-uncond": ("commit", False, True),
}

#: "<codec>-<config>" -> digest of one traced bimodal-512-512 run.  The
#: digests of this section were recorded from the hand-kept traced copy
#: of tick() that the guarded emit sites replaced: equal digests mean
#: the same events, in the same order, with the same payloads.  They
#: were re-recorded once when the stats record gained its cache and
#: fold counters, after hashing only the earlier 14 fields had
#: reproduced every old digest
STREAM_DIGESTS = {
    "adpcm_enc-plain": "ad204ec1082e5410",
    "adpcm_enc-execute": "f0a0c63a41b91c6c",
    "adpcm_enc-mem-fdip": "ab99bd9d9b703d53",
    "adpcm_enc-commit-uncond": "e5c6979f81f894ed",
    "adpcm_dec-plain": "6fa7970fca9e4694",
    "adpcm_dec-execute": "17fe8c6aaf446d80",
    "adpcm_dec-mem-fdip": "bb0865051d696315",
    "adpcm_dec-commit-uncond": "7bf93e5166219fba",
    "g721_enc-plain": "758a34a863738477",
    "g721_enc-execute": "c6e3dac4dff1e1fd",
    "g721_enc-mem-fdip": "d2eef4763f389e35",
    "g721_enc-commit-uncond": "ac3bdad568977f33",
    "g721_dec-plain": "95494ac8c3e51dc1",
    "g721_dec-execute": "fd61a8eec0b3b341",
    "g721_dec-mem-fdip": "df72eb656d71dbce",
    "g721_dec-commit-uncond": "d60dff89eef6dd16",
    "huffman_dec-plain": "9385f4a966a19965",
    "huffman_dec-execute": "7f86f53f4de6c481",
    "huffman_dec-mem-fdip": "76a1391e4e4d0178",
    "huffman_dec-commit-uncond": "97a2c354cd342622",
}

#: the live BDT bit of tests/test_faults_inject.py: ``beqz r9`` reads
#: (r9, EQZ); a flip at cycle 30 is an SDC unprotected, a detection
#: under parity and a correction under ECC, and at cycle 46 likewise
#: with different timing
LIVE_DIR = FaultSite(BDT_DIR, "EQZ", 9, 0)

#: "<protection>-<cycle>" -> digest of one traced fault-injected run
FAULT_DIGESTS = {
    "none-30": "0c1f626e70d25c67",
    "none-46": "9258d54a4f1581d0",
    "parity-30": "452114c2b8481736",
    "parity-46": "c35c8665dc29926c",
    "ecc-30": "697e4cce725da533",
    "ecc-46": "c5eef7720100ea43",
}

#: slow grid: "<codec>-<predictor>" -> one digest over 16 traced runs,
#: {none, execute, mem, commit} x {coupled, FDIP} x fold_unconditional
GRID_DIGESTS = {
    "adpcm_enc-not-taken": "00f51f8c2b474d91",
    "adpcm_enc-bimodal-512-512": "f0e9654230da42c9",
    "adpcm_enc-gshare-512-8": "7c88631d0e845a0e",
    "adpcm_dec-not-taken": "a1f8dd038b8cf2e6",
    "adpcm_dec-bimodal-512-512": "30a38814110c5718",
    "adpcm_dec-gshare-512-8": "bd4c072e352a446d",
    "g721_enc-not-taken": "ca4187ad339330c5",
    "g721_enc-bimodal-512-512": "b15a079126c6cfdb",
    "g721_enc-gshare-512-8": "849252ed83d14f3c",
    "g721_dec-not-taken": "f65975b48f95e275",
    "g721_dec-bimodal-512-512": "1df42e6e9de09a74",
    "g721_dec-gshare-512-8": "7390b6490b776c3b",
    "huffman_dec-not-taken": "aa16d1f95dd9d574",
    "huffman_dec-bimodal-512-512": "3625270f21f73889",
    "huffman_dec-gshare-512-8": "12435ff8476e2c44",
}

GRID_CONFIGS = [(u, f, c) for u in (None, "execute", "mem", "commit")
                for f in (False, True) for c in (False, True)]


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
