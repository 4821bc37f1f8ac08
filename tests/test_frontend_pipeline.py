"""Integration locks for the decoupled front end in the pipeline.

Four claims, each load-bearing:

* **default-off bit-identity** — a ``frontend=None`` run reproduces the
  seed golden stats exactly, on both loops (the frontend is a pure
  opt-in; attaching the machinery must cost nothing when absent);
* **architectural correctness** — with the frontend attached (FDIP on
  and off), every workload still produces its golden output, and the
  no-FDIP frontend matches the coupled fetch's cycle count exactly
  (the decoupled BPU refills fast enough to hide itself);
* **FDIP works** — on the Huffman decoder with a small I-cache,
  fetch-directed prefetching removes a concrete fraction of demand
  misses (threshold asserted, not just "fewer");
* **observability parity** — a traced frontend run is timing-identical
  to the untraced one, and ``run()`` never enters the compiled loop
  with a front end attached.
"""

import dataclasses

import pytest

from repro.frontend import DecoupledFrontend, FrontendConfig, attach_frontend
from repro.memory.cache import CacheConfig
from repro.predictors import make_predictor
from repro.sim.pipeline import PipelineConfig, PipelineSimulator
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

from tests.test_stats_golden import GOLDEN, PCM_N, PCM_SEED

BIMODAL = "bimodal-512-512"


@pytest.fixture(scope="module")
def pcm():
    return speech_like(PCM_N, seed=PCM_SEED)


def _run(pcm, name, frontend=None, config=None, predictor_spec=BIMODAL,
         reference=True, trace=None):
    """One run on the reference loop, or on ``run()`` when
    ``reference`` is False; returns the stats and the simulator."""
    wl = get_workload(name)
    memory, count = wl.memory_image(pcm)
    sim = PipelineSimulator(wl.program, memory,
                            predictor=make_predictor(predictor_spec),
                            frontend=frontend, config=config, trace=trace)
    stats = sim.run_reference() if reference else sim.run()
    assert wl.read_output(sim.memory, count) == wl.golden_output(pcm), \
        "%s wrong output (frontend=%r)" % (name, frontend)
    return stats, sim


# ----------------------------------------------------------------------
# default-off bit-identity (the golden lock, frontend edition)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reference", [True, False],
                         ids=["interp", "blocks"])
def test_frontend_none_bit_identical_to_seed(pcm, reference):
    key = ("adpcm_enc", BIMODAL, False)
    stats, sim = _run(pcm, "adpcm_enc", frontend=None, reference=reference)
    assert sim.frontend is None
    assert dataclasses.asdict(stats) == GOLDEN[key]


# ----------------------------------------------------------------------
# architectural correctness + no-FDIP timing parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["adpcm_enc", "adpcm_dec", "huffman_dec"])
def test_frontend_no_fdip_matches_coupled_fetch(pcm, name):
    base, _ = _run(pcm, name)
    stats, sim = _run(pcm, name, frontend=FrontendConfig(fdip=False))
    assert isinstance(sim.frontend, DecoupledFrontend)
    assert stats.cycles == base.cycles, \
        "decoupled BPU failed to hide itself"
    assert stats.committed == base.committed
    assert sim.frontend.stats.btb_l1_hits > 0


@pytest.mark.parametrize("name", ["adpcm_enc", "g721_dec", "huffman_dec"])
def test_frontend_fdip_golden_outputs(pcm, name):
    stats, sim = _run(pcm, name, frontend=FrontendConfig(fdip=True))
    base, _ = _run(pcm, name)
    assert stats.committed == base.committed
    assert stats.cycles <= base.cycles, "FDIP made things slower"


def test_frontend_true_means_default_config(pcm):
    _, sim = _run(pcm, "adpcm_enc", frontend=True)
    assert sim.frontend.config == FrontendConfig()


def test_attach_rejects_garbage():
    wl = get_workload("adpcm_enc")
    sim = PipelineSimulator(wl.program)
    with pytest.raises(TypeError):
        attach_frontend(sim, {"ftq_depth": 8})


# ----------------------------------------------------------------------
# FDIP demand-miss reduction (concrete threshold)
# ----------------------------------------------------------------------
def _small_icache():
    # 512 B / 32 B blocks / 2-way: 16 blocks — the Huffman decoder's
    # text does not fit, so the loop suffers recurring capacity misses
    return PipelineConfig(icache=CacheConfig(size_bytes=512))


def test_fdip_reduces_icache_demand_misses(pcm):
    cold, _ = _run(pcm, "huffman_dec", config=_small_icache(),
                   frontend=FrontendConfig(fdip=False))
    warm, sim = _run(pcm, "huffman_dec", config=_small_icache(),
                     frontend=FrontendConfig(fdip=True))
    fe = sim.frontend.stats
    assert fe.prefetch_issued > 0
    assert fe.prefetch_useful > 0
    icache = sim.icache.stats
    assert icache.prefetch_fills > 0
    # the concrete claim: FDIP removes at least half the demand-miss
    # stall cycles the same configuration pays without prefetch
    assert cold.icache_miss_stalls > 0
    assert warm.icache_miss_stalls <= cold.icache_miss_stalls // 2, \
        ("FDIP left %d of %d demand-miss stall cycles"
         % (warm.icache_miss_stalls, cold.icache_miss_stalls))
    assert warm.cycles < cold.cycles


# ----------------------------------------------------------------------
# observability and loop parity
# ----------------------------------------------------------------------
def test_traced_frontend_run_is_timing_identical(pcm):
    from repro.telemetry import MetricsRegistry, Tracer

    plain, sim_p = _run(pcm, "huffman_dec",
                        frontend=FrontendConfig(fdip=True))
    registry = MetricsRegistry()
    traced, sim_t = _run(pcm, "huffman_dec",
                         frontend=FrontendConfig(fdip=True),
                         trace=Tracer(registry))
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert sim_t.frontend.stats.to_dict() == sim_p.frontend.stats.to_dict()
    counts = registry.counters
    assert counts.get("ftq_occupancy", 0) > 0
    assert counts.get("prefetch_issue", 0) > 0
    assert counts.get("btb_hit", 0) > 0


def test_blocks_engine_falls_back_with_frontend(pcm, monkeypatch):
    """A frontend-attached ``run()`` never enters the compiled loop: it
    takes the reference loop."""
    from repro.sim import superblocks

    ref, _ = _run(pcm, "adpcm_enc", frontend=FrontendConfig())
    monkeypatch.setattr(superblocks, "run_pipeline_superblocks",
                        lambda sim: pytest.fail("compiled loop taken"))
    stats, _ = _run(pcm, "adpcm_enc", frontend=FrontendConfig(),
                    reference=False)
    assert dataclasses.asdict(stats) == dataclasses.asdict(ref)


# ----------------------------------------------------------------------
# jump steering (needs a program whose jumps reach ID)
# ----------------------------------------------------------------------
def test_ftq_steers_resolved_jumps():
    from repro.asm import assemble

    prog = assemble("""
.text
main:
    li   r1, 40
loop:
    addi r2, r2, 1
    j    skip
    addi r2, r2, 100
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
""")
    base = PipelineSimulator(prog, predictor=make_predictor(BIMODAL))
    bstats = base.run()
    assert bstats.jump_bubbles > 0

    sim = PipelineSimulator(prog, predictor=make_predictor(BIMODAL),
                            frontend=FrontendConfig(fdip=False))
    fstats = sim.run()
    fe = sim.frontend.stats
    assert fe.jumps_steered > 0, "BTB-trained jump was not steered"
    assert fstats.jump_bubbles < bstats.jump_bubbles
    # architectural agreement with the coupled-fetch run
    assert sim.regs.snapshot() == base.regs.snapshot()


def test_frontend_stats_to_dict_has_derived_occupancy(pcm):
    _, sim = _run(pcm, "adpcm_enc", frontend=FrontendConfig())
    d = sim.frontend.stats.to_dict()
    assert d["avg_ftq_occupancy"] == pytest.approx(
        sim.frontend.stats.avg_ftq_occupancy)
    assert d["cycles"] > 0
