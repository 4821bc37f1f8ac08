"""Simulator performance micro-benchmarks.

Not a paper table — these track the speed of the infrastructure itself
(instructions/second of each simulator, assembler throughput, predictor
and fold-unit hot paths), which bounds how large an input the
experiments can afford.
"""

from repro.asbr import ASBRUnit, extract_branch_info
from repro.asm import assemble
from repro.predictors import BimodalPredictor, GSharePredictor
from repro.sim.functional import FunctionalSimulator, collect_branch_trace
from repro.sim.ooo import OoOConfig, OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

_PCM = speech_like(200, seed=42)


def test_functional_sim_speed(benchmark):
    wl = get_workload("adpcm_enc")
    mem = wl.build_memory(_PCM)

    def run():
        sim = FunctionalSimulator(wl.program, mem.copy())
        return sim.run_reference()

    retired = benchmark(run)
    assert retired > 5000


def test_pipeline_sim_speed(benchmark):
    wl = get_workload("adpcm_enc")
    mem = wl.build_memory(_PCM)

    def run():
        sim = PipelineSimulator(wl.program, mem.copy())
        return sim.run_reference().cycles

    cycles = benchmark(run)
    assert cycles > 5000


def test_pipeline_with_asbr_speed(benchmark):
    wl = get_workload("adpcm_enc")
    prog = wl.program
    mem = wl.build_memory(_PCM)
    infos = [extract_branch_info(prog, prog.labels[n])
             for n in ("br_sign", "br_bit2", "br_bit1", "br_bit0")]

    def run():
        unit = ASBRUnit.from_branch_infos(infos, bdt_update="execute")
        sim = PipelineSimulator(prog, mem.copy(),
                                predictor=BimodalPredictor(512, 512),
                                asbr=unit)
        return sim.run_reference().cycles

    benchmark(run)


def test_assembler_speed(benchmark):
    import os
    from repro.workloads import loader
    path = os.path.join(os.path.dirname(loader.__file__), "asm",
                        "g721_enc.s")
    with open(path) as f:
        source = f.read()
    prog = benchmark(lambda: assemble(source))
    assert len(prog.instrs) > 100


def test_predictor_throughput(benchmark):
    pred = GSharePredictor(11, 2048)
    pcs = [0x400000 + 4 * i for i in range(64)]

    def run():
        for i, pc in enumerate(pcs):
            pred.predict(pc)
            pred.update(pc, bool(i & 1), pc + 64)

    benchmark(run)


def test_functional_blocks_speed(benchmark):
    wl = get_workload("adpcm_enc")
    mem = wl.build_memory(_PCM)

    def run():
        sim = FunctionalSimulator(wl.program, mem.copy())
        return sim.run()

    retired = benchmark(run)
    assert retired > 5000


def test_ooo_sim_speed(benchmark):
    wl = get_workload("adpcm_enc")
    mem = wl.build_memory(_PCM)

    def run():
        sim = OoOSimulator(wl.program, mem.copy())
        return sim.run().cycles

    cycles = benchmark(run)
    assert cycles > 2500


def test_pipeline_superblocks_speed(benchmark):
    wl = get_workload("adpcm_enc")
    prog = wl.program
    mem = wl.build_memory(_PCM)
    infos = [extract_branch_info(prog, prog.labels[n])
             for n in ("br_sign", "br_bit2", "br_bit1", "br_bit0")]

    def run():
        unit = ASBRUnit.from_branch_infos(infos, bdt_update="execute")
        sim = PipelineSimulator(prog, mem.copy(),
                                predictor=BimodalPredictor(512, 512),
                                asbr=unit)
        return sim.run().cycles

    cycles = benchmark(run)
    assert cycles > 5000


def test_sim_speed_summary(save_table):
    """Record simulator × loop throughput (ops/sec) under results/.

    Best-of-3 wall-clock on the adpcm_enc workload: a 7-way matrix —
    the functional simulator's reference plan loop (row ``interp``,
    ``run_reference()``) and block translator (row ``blocks``,
    ``run()``), and the profiling pass (``collect_branch_trace``: the
    translator with the branch trace and fold distances recorded);
    the pipeline's reference ``tick()`` loop (row ``interp``) and its
    compiled superblocks loop (row ``superblocks``, what ``run()``
    takes; both with the ASBR unit and auxiliary predictor attached,
    and their ``PipelineStats`` asserted bit-identical); and the
    out-of-order backend at 1- and 2-wide.  The row names are the
    names the loops were once selected by, kept so the trajectory
    stays comparable.  Speedups are *per backend*, against the
    baseline named in the ``baseline`` column — never across
    simulators, whose ops are different quantities.  The 2-wide OoO
    row reports raw cycles/s with no speedup: a wider machine retires
    the same program in *fewer* cycles, so a cycles/s ratio against
    the 1-wide row reads as a slowdown while wall-clock per run barely
    moves.  A machine-readable ``BENCH_sim_speed.json`` perf-trajectory
    artifact (row → ops/s + work, stamped with git rev and date) is
    written at the repository top level so cross-commit regressions
    diff directly.  A long input (not the micro-benchmarks' ``_PCM``)
    keeps per-run setup out of the measured ratio.
    """
    import dataclasses
    import json
    import os
    import subprocess
    import time

    from repro.experiments.common import render_table

    wl = get_workload("adpcm_enc")
    prog = wl.program
    pcm = speech_like(8000, seed=42)
    infos = [extract_branch_info(prog, prog.labels[n])
             for n in ("br_sign", "br_bit2", "br_bit1", "br_bit0")]
    rows = []
    engines_json = {}
    pipeline_stats = {}

    def measure(simulator, engine):
        best = work = 0
        for _ in range(3):
            if simulator == "functional" and engine == "profile":
                mem = wl.build_memory(pcm)
                t0 = time.perf_counter()
                trace = collect_branch_trace(prog, mem)
                dt = time.perf_counter() - t0
                ops, unit = trace.instructions, "instructions/s"
            elif simulator == "functional":
                sim = FunctionalSimulator(prog, wl.build_memory(pcm))
                run = sim.run_reference if engine == "interp" else sim.run
                t0 = time.perf_counter()
                run()
                dt = time.perf_counter() - t0
                ops, unit = sim.instructions_retired, "instructions/s"
            elif simulator == "ooo":
                width = int(engine[1:])            # "w1" / "w2"
                sim = OoOSimulator(prog, wl.build_memory(pcm),
                                   config=OoOConfig(issue_width=width))
                t0 = time.perf_counter()
                stats = sim.run()
                dt = time.perf_counter() - t0
                ops, unit = stats.cycles, "cycles/s"
            else:
                unit_ = ASBRUnit.from_branch_infos(infos,
                                                   bdt_update="execute")
                sim = PipelineSimulator(prog, wl.build_memory(pcm),
                                        predictor=BimodalPredictor(512,
                                                                   512),
                                        asbr=unit_)
                run = sim.run_reference if engine == "interp" else sim.run
                t0 = time.perf_counter()
                stats = run()
                dt = time.perf_counter() - t0
                ops, unit = stats.cycles, "cycles/s"
                pipeline_stats[engine] = dataclasses.asdict(stats)
            if ops / dt > best:
                best, work = ops / dt, ops
        assert best > 0
        return best, work, unit

    # (simulator, engines, baseline engine or None)
    matrix = (("functional", ("interp", "blocks", "profile"), "interp"),
              ("pipeline", ("interp", "superblocks"), "interp"),
              ("ooo", ("w1", "w2"), "w1"))
    rates = {}
    for simulator, engines, base in matrix:
        for engine in engines:
            rate, work, unit = measure(simulator, engine)
            rates[(simulator, engine)] = rate
            name = "%s/%s" % (simulator, engine)
            comparable = not (simulator == "ooo" and engine != base)
            if comparable:
                baseline = "%s/%s" % (simulator, base)
                speedup = rate / rates[(simulator, base)]
                speedup_txt = "%.2fx" % speedup
            else:
                # different work per run: wider issue retires the same
                # program in fewer cycles — a ratio would mislead
                baseline, speedup = "n/a (different work)", None
                speedup_txt = "n/a"
            rows.append([simulator, engine, unit,
                         "{:,.0f}".format(rate), "{:,}".format(work),
                         baseline, speedup_txt])
            engines_json[name] = {
                "ops_per_sec": round(rate), "unit": unit,
                "work_per_run": work, "baseline": baseline,
                "speedup_vs_baseline":
                    round(speedup, 3) if speedup is not None else None,
            }

    # both pipeline loops must be measuring the same machine
    assert pipeline_stats["superblocks"] == pipeline_stats["interp"]

    save_table("sim_speed", render_table(
        ["simulator", "engine", "unit", "ops/sec", "work per run",
         "baseline", "speedup"], rows,
        "Simulator throughput (adpcm_enc, %d samples, pipeline rows "
        "with ASBR, best of 3)" % len(pcm)))

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             cwd=os.path.dirname(__file__),
                             timeout=10).stdout.strip() or "unknown"
    except Exception:
        rev = "unknown"
    payload = {
        "schema": "bench-sim-speed/v2",
        "git_rev": rev,
        "date": time.strftime("%Y-%m-%d"),
        "workload": "adpcm_enc", "samples": len(pcm), "reps": 3,
        "engines": engines_json,
    }
    top = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_sim_speed.json")
    with open(top, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
