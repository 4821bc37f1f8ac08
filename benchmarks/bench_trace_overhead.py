"""Telemetry overhead benchmark.

Measures the pipeline simulator on adpcm_enc untraced, with telemetry
disabled (``trace=None``), with a metrics registry only, with metrics
+ an unbounded ring, and with full JSONL streaming, and records the
slowdown of each relative to the untraced run in
``benchmarks/results/trace_overhead.txt``.  Every run uses the
reference ``tick()`` loop (``run_reference()``): a traced run always
takes it, so that loop is the baseline tracing is measured against
(the compiled loop an untraced ``run()`` takes would add its own
speedup to the ratio).

Traced and untraced runs share one ``tick()``, whose emit sites are
guarded by ``if emit is not None``.  Untraced, the guards cost the
reference loop about 2% against a ``tick()`` without them; the
compiled loop has no emit sites and never enters ``tick()``.
The "untraced" and "disabled (trace=None)" rows run the same code
(``trace=None`` is the default), so the gap between them is timer
noise.  The traced configurations are honest about their cost; they
are diagnostic modes, not the default.
"""

import time

from repro.sim.pipeline import PipelineSimulator
from repro.telemetry import (JsonlTraceSink, MetricsRegistry,
                             RingBufferSink, Tracer)
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

_PCM = speech_like(200, seed=42)
_REPEATS = 5


def _best_cycles_per_sec(make_tracer):
    wl = get_workload("adpcm_enc")
    best = 0.0
    for _ in range(_REPEATS):
        tracer = make_tracer()
        sim = PipelineSimulator(wl.program, wl.build_memory(_PCM),
                                trace=tracer)
        t0 = time.perf_counter()
        stats = sim.run_reference()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
        best = max(best, stats.cycles / dt)
    return best, stats.cycles


def test_disabled_tracing_is_free(benchmark):
    """pytest-benchmark view of the disabled-telemetry run; compare
    against test_pipeline_sim_speed in bench_sim_speed.py."""
    wl = get_workload("adpcm_enc")
    mem = wl.build_memory(_PCM)

    def run():
        return PipelineSimulator(wl.program, mem.copy(),
                                 trace=None).run_reference().cycles

    assert benchmark(run) > 5000


def test_trace_overhead_summary(save_table, tmp_path):
    """Record the overhead ladder under results/.

    Also asserts that the disabled row stays within timer noise of the
    untraced one, which runs the same code, and that the traced modes
    stay usable.
    """
    from repro.experiments.common import render_table

    configs = [
        ("untraced", lambda: None),
        ("disabled (trace=None)", lambda: None),
        ("metrics registry", lambda: Tracer(MetricsRegistry())),
        ("metrics + ring", lambda: Tracer(MetricsRegistry(),
                                          RingBufferSink())),
        ("metrics + jsonl", lambda: Tracer(
            MetricsRegistry(),
            JsonlTraceSink(str(tmp_path / "bench.jsonl"),
                           max_bytes=1 << 30))),
    ]

    rows, speeds = [], {}
    for name, make in configs:
        speed, cycles = _best_cycles_per_sec(make)
        speeds[name] = speed
        rows.append([name, "{:,.0f}".format(speed),
                     "{:,}".format(cycles)])

    base = speeds["untraced"]
    for row, (name, _) in zip(rows, configs):
        row.append("%+.1f%%" % (100.0 * (base / speeds[name] - 1.0)))

    save_table("trace_overhead", render_table(
        ["configuration", "cycles/sec", "cycles", "overhead"], rows,
        "Telemetry overhead (adpcm_enc, %d samples, best of %d)"
        % (len(_PCM), _REPEATS)))

    # "disabled" and "untraced" run the same tick() with every emit
    # guard off, so they differ only by timer noise on a shared host
    assert speeds["disabled (trace=None)"] > 0.90 * base
    # traced modes may be slower, but must stay usable
    assert speeds["metrics registry"] > 0.25 * base
