"""Quick self-check of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs with ``--quick`` (input sizes divided by eight) for
one second: twice untraced and once traced, with the same seed.  The
tests check that the runs emit exactly the metrics ``BENCHMARK.json``
declares, with their units; that the deterministic counts repeat bit
for bit; and that the Chrome trace parses and covers every layer the
workload uses.  About a minute on two cores.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import scenarios

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    text = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        text[parts[0]] = parts[1:]
    return result, text


@pytest.fixture(scope="module",
                params=[w["name"] for w in BENCH["workloads"]])
def runs(request):
    w = request.param
    return w, [parsed(run(w, 0)), parsed(run(w, 0)), parsed(run(w, 1))]


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCH["run_seconds"] <= 60
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for kind in ("end_to_end", "per_layer") for m in BENCH[kind])
    assert set(BENCH["workloads"][0]) == {"name", "why"}
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert {w["name"] for w in BENCH["workloads"]} == set(scenarios.WORKLOADS)


def test_end_to_end_metrics_and_units(runs):
    _w, (first, second, _traced) = runs
    for result, _text in (first, second):
        assert emitted(result) == declared("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_and_units(runs):
    _w, (_a, _b, (traced, text)) = runs
    assert emitted(traced) == declared("per_layer")
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["pipeline.sim_cycles"] == float(text["exact.sim_cycles"][0])
    assert metrics["pipeline.fold_rate"] == float(text["exact.fold_rate"][0])
    assert metrics["trace.phase_coverage"] >= 0.95


def test_exact_counts_repeat_bit_for_bit(runs):
    _w, all_runs = runs
    exact = [{k: v for k, v in text.items()
              if k.startswith("exact.") or k == "failed_frac"}
             for _result, text in all_runs]
    assert set(exact[0]) >= {"exact.sim_cycles", "exact.fold_rate",
                             "exact.cache_hits", "failed_frac"}
    assert exact[0] == exact[1] == exact[2]


def test_trace_parses_and_covers_every_layer(runs):
    w, (_a, _b, (_traced, text)) = runs
    with open(os.path.join(ROOT, text["trace_file"][0])) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    layers = {e["cat"] for e in events}
    expected = scenarios.WORKLOADS[w](SEED, True).expected_layers()
    assert set(expected) <= layers
    assert trace["otherData"]["workload"] == w


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("spec_plain", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
