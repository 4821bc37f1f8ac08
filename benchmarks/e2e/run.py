"""End-to-end benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload spec_asbr --seed 1 \\
        --seconds 15 --trace 0

Workloads are ``spec_asbr``, ``spec_plain``, ``dse_sweep`` and
``serve_mix`` (see ``scenarios.py``).  ``--seed`` fixes every input.
The run sets up several times in child processes (``setup_s`` is their
median), sets up once more in this process, measures for ``--seconds``
and checks every output.  Each timing is rescaled by the host slowdown
a calibration loop measures right before and after it, on the CPUs the
work runs on (``common.Calibrator``).  The run prints one ``env`` line (git
revision, Python, CPU count, calibration time, workload parameters),
one ``name value unit`` line per metric, and as its last line a JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
public functions of every layer in spans (``spans.py``), reports the
per-layer metrics instead, writes a Chrome trace to
``benchmarks/e2e/out/``, and checks that tracing changed no result.
``--quick`` divides every input size by eight, for the test.

The exit status is 0 only when every check passed.  The benchmark
imports ``repro`` from the checkout's ``src`` and refuses to run
without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median

from common import (OUT, ROOT, RUN_PY, SRC, child_env, env_stamp, pinned,
                    plain)

RUN_SECONDS = 15
SETUP_PROBES = 5
#: traced specs re-run with and without spans to measure the overhead
OVERHEAD_SPECS = 2
#: the instrumented phases must cover this share of traced spec time
MIN_PHASE_COVERAGE = 0.95

#: per-layer metric -> span whose self time it reports, in ms per
#: executed spec
SELF_TIME = {
    "runner.execute_ms": "runner.execute_spec",
    "runner.sweep_ms": "runner.run_sweep",
    "runner.map_ms": "runner.map_specs",
    "runner.cache_get_ms": "runner.cache_get",
    "runner.cache_put_ms": "runner.cache_put",
    "workloads.build_memory_ms": "workloads.build_memory",
    "workloads.golden_ms": "workloads.golden_output",
    "workloads.run_pipeline_ms": "workloads.run_pipeline",
    "profiling.profile_ms": "profiling.profile",
    "profiling.select_ms": "profiling.select_branches",
    "functional.trace_ms": "functional.collect_branch_trace",
    "predictors.baseline_ms": "predictors.evaluate_on_trace",
    "asbr.build_ms": "asbr.from_branch_infos",
    "pipeline.simulate_ms": "pipeline.run",
    "dse.evaluate_ms": "dse.evaluate",
    "dse.baseline_ms": "dse.baseline_stats",
    "dse.journal_write_ms": "dse.journal_write",
}


def declared_units(kind: str) -> dict:
    """Metric -> unit, as ``BENCHMARK.json`` declares the ``kind``
    (``end_to_end`` or ``per_layer``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spec_asbr", "spec_plain", "dse_sweep",
                            "serve_mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources() -> bool:
    """Import ``repro`` from this checkout, with library defaults."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(child_env()["TMPDIR"], exist_ok=True)
    os.environ["TMPDIR"] = child_env()["TMPDIR"]
    import repro
    return os.path.abspath(repro.__file__).startswith(SRC + os.sep)


def setup_probe(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % code)
    return elapsed


def fidelity(spec_spans):
    """Re-run every traced spec untraced: its stats must match.

    The first few specs then run under the span wrappers and untraced
    once more; the faster untraced pass is the reference for the
    tracing overhead, so a slow first pass does not read as negative
    overhead.  Returns (every spec matched, overhead).
    """
    import spans
    from repro.runner import RunSpec, execute_spec

    picked = [s for s in spec_spans if "stats" in s["attrs"]]
    specs = [RunSpec(**s["attrs"]["fields"]) for s in picked]
    same = bool(picked) and all(
        plain(execute_spec(spec)) == plain(span["attrs"]["stats"])
        for span, spec in zip(picked, specs))

    def timed() -> float:
        t0 = time.perf_counter()
        for spec in specs[:OVERHEAD_SPECS]:
            execute_spec(spec)
        return time.perf_counter() - t0

    untraced = timed()
    restore = spans.install(spans.Recorder())
    try:
        traced = timed()
    finally:
        restore()
    untraced = min(untraced, timed())
    overhead = traced / untraced - 1.0 if untraced else 0.0
    return same, overhead


def layer_metrics(trace, result, overhead: float) -> dict:
    import spans

    by_name = defaultdict(list)
    for s in trace:
        by_name[s["name"]].append(s)
    spec_spans = by_name[spans.SPEC_SPAN]
    n_specs = max(1, len(spec_spans))
    self_s = spans.self_times(trace)
    out = {m: self_s.get(name, 0.0) * 1e3 / n_specs
           for m, name in SELF_TIME.items()}

    inputs_of = {s["trace"]: (s["attrs"]["fields"]["benchmark"],
                              s["attrs"]["fields"]["n_samples"],
                              s["attrs"]["fields"]["seed"])
                 for s in spec_spans}
    profiled = [inputs_of.get(p["trace"]) for p in
                by_name["profiling.profile"]]
    runs = by_name["pipeline.run"]
    run_ns = sum(r["end"] - r["start"] for r in runs)
    gets = by_name["runner.cache_get"]

    # queue wait and IPC of specs a pool ran for another process
    submit = {}
    for m in by_name["runner.map_specs"]:
        for rep in m["attrs"]["specs"]:
            submit.setdefault(rep, (m["pid"], m["start"]))
    settle = {(p["pid"], p["attrs"]["spec"]): p["start"]
              for p in by_name["runner.cache_put"]}
    wait_ns = ipc_ns = 0
    for s in spec_spans:
        sub = submit.get(s["attrs"]["spec"])
        if sub is None or sub[0] == s["pid"]:
            continue
        wait_ns += s["start"] - sub[1]
        settled = settle.get((sub[0], s["attrs"]["spec"]))
        if settled is not None:
            ipc_ns += settled - s["end"]

    out.update({
        "runner.specs_executed": len(spec_spans),
        "runner.cache_hits": sum(g["attrs"]["hit"] for g in gets),
        "runner.cache_misses": sum(not g["attrs"]["hit"] for g in gets),
        "runner.queue_wait_ms": wait_ns / 1e6 / n_specs,
        "runner.ipc_ms": ipc_ns / 1e6 / n_specs,
        "profiling.profile_calls": len(profiled),
        "profiling.distinct_input_ratio":
            len(set(profiled)) / len(profiled) if profiled else 0.0,
        "functional.trace_calls":
            len(by_name["functional.collect_branch_trace"]),
        "pipeline.sim_cycles_per_s":
            sum(r["attrs"].get("cycles", 0) for r in runs) * 1e9 / run_ns
            if run_ns else 0.0,
        "pipeline.traced_calls": sum(r["attrs"]["traced"] for r in runs),
        "pipeline.sim_cycles": result.exact.get("sim_cycles", 0),
        "pipeline.fold_rate": result.exact.get("fold_rate", 0.0),
        "trace.overhead_frac": overhead,
        "trace.phase_coverage": spans.phase_coverage(trace),
    })
    out.update(result.layer)
    return out


def run(args) -> int:
    import scenarios
    import spans

    scenario = scenarios.WORKLOADS[args.workload](args.seed, args.quick)
    tmp = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.setup_probe:
            try:
                scenario.setup(tmp, traced=False)
                print("ready", flush=True)
            finally:
                scenario.teardown(None)
            return 0
        return measured_run(args, scenario, tmp, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measured_run(args, scenario, tmp, spans) -> int:
    env = env_stamp(args.workload, args.seed,
                    dict(scenario.params(), seconds=args.seconds,
                         quick=args.quick, trace=args.trace))
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    cal = scenario.calibrator()
    cal.sample()
    setup_raw = []
    setup_samples = []
    for _ in range(0 if args.trace else 1 if args.quick else SETUP_PROBES):
        with pinned(scenario.work_cpus()):
            setup_raw.append(setup_probe(args))
        setup_samples.append(setup_raw[-1] / cal.slowdown())
    recorder = None
    result = None
    try:
        t0 = time.perf_counter()
        scenario.setup(tmp, traced=bool(args.trace))
        setup_inprocess = time.perf_counter() - t0
        restore = None
        if args.trace:
            spill = os.path.join(tmp, "spans")
            os.makedirs(spill, exist_ok=True)
            recorder = spans.Recorder(spill_dir=spill)
            restore = spans.install(recorder)
        window_start = time.monotonic_ns()
        cal.sample()
        try:
            with pinned(scenario.work_cpus()):
                result = scenario.measure(args.seconds, recorder, cal)
        finally:
            if restore is not None:
                restore()
        scenario.verify(result)
    finally:
        scenario.teardown(result)

    lines = [("setup_inprocess_s", setup_inprocess, "s"),
             ("host_slowdown", median(cal.history), "ratio"),
             ("calibration_samples", len(cal.history), "count")]
    lines += result.info
    lines.append(("failed_frac", result.failed / max(1, result.attempted),
                  "ratio"))
    lines += [("exact." + k, v, "count" if k != "fold_rate" else "ratio")
              for k, v in sorted(result.exact.items())]

    if args.trace:
        trace = [s for s in recorder.merged(scenario.span_files())
                 if s["start"] >= window_start]
        spec_spans = [s for s in trace if s["name"] == spans.SPEC_SPAN]
        same, overhead = fidelity(spec_spans)
        result.check("traced stats equal untraced execute_spec", same)
        coverage = spans.phase_coverage(trace)
        result.check("instrumented phases cover %.0f%% of traced spec "
                     "time" % (100 * MIN_PHASE_COVERAGE),
                     coverage >= MIN_PHASE_COVERAGE)
        missing = set(scenario.expected_layers()) - set(spans.layers(trace))
        result.check("trace covers every layer the workload uses",
                     not missing)
        path = os.path.join(OUT, "trace-%s-s%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(spans.chrome_trace(trace, env), f)
        print("trace_file %s" % os.path.relpath(path, ROOT))
        total = sum(s["end"] - s["start"] for s in spec_spans) / 1e9
        by_layer = defaultdict(float)
        for name, secs in spans.self_times(trace).items():
            by_layer[name.split(".")[0]] += secs
        for layer, secs in sorted(by_layer.items()):
            lines.append(("self_s." + layer, secs, "s"))
        lines.append(("traced_spec_s", total, "s"))
        metrics = layer_metrics(trace, result, overhead)
        units = declared_units("per_layer")
    else:
        metrics = dict(result.e2e, setup_s=median(setup_samples),
                       peak_rss_mb=scenario.peak_rss_mb())
        lines.append(("setup_raw_s", median(setup_raw), "s"))
        lines.append(("setup_samples", len(setup_samples), "count"))
        units = declared_units("end_to_end")

    for name, value, unit in lines:
        print("%s %r %s" % (name, value, unit))
    result.check("every metric measured", set(metrics) >= set(units))
    for name in units:
        print("%s %r %s" % (name, metrics.get(name, 0.0), units[name]))
    for check, ok in result.checks.items():
        print("check %s: %s" % ("ok" if ok else "FAILED", check))
    correct = all(result.checks.values()) and result.failed == 0
    failed = result.failed + sum(not ok for ok in result.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0),
                           "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print("error: %s holds no repro sources; run from the root of a "
              "full checkout" % SRC, file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
