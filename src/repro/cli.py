"""Command-line toolchain: assemble, simulate, profile, customize.

Usage (also installed as the ``repro-asbr`` console script)::

    python -m repro.cli asm program.s --disasm
    python -m repro.cli run program.s
    python -m repro.cli sim program.s --predictor bimodal-512-512
    python -m repro.cli sim program.s --asbr --bdt-update execute
    python -m repro.cli sim program.s --trace-out t.jsonl --branch-report
    python -m repro.cli profile program.s
    python -m repro.cli workload adpcm_enc --samples 1000 --asbr --json
    python -m repro.cli trace pipeview t.jsonl --skip 100 --limit 40
    python -m repro.cli trace report t.jsonl
    python -m repro.cli experiments fig11 --samples 600
    python -m repro.cli experiments all --workers 4
    python -m repro.cli dse run --space paper --journal results/dse.jsonl
    python -m repro.cli dse run --tolerant --task-timeout 120 --retries 2
    python -m repro.cli dse frontier --journal results/dse.jsonl --csv
    python -m repro.cli dse report --journal results/dse.jsonl
    python -m repro.cli faults campaign --n-faults 24 --protection all
    python -m repro.cli faults report results/faults.json
    python -m repro.cli cache gc --cache-dir results/.runcache --max-bytes 64M
    python -m repro.cli cache verify --cache-dir results/.runcache
    python -m repro.cli serve --port 8765 --workers 4 --cache-dir results/.servecache

``sim --asbr`` performs the paper's whole methodology on the program:
profile it, select fold candidates, load the BIT, and re-simulate.
``dse`` explores the whole configuration space instead of one point
(:mod:`repro.dse`): ``run`` evaluates a space through the journal +
cache + pool, ``frontier``/``report`` re-render a journal without any
simulation.  ``faults campaign`` injects seeded soft errors into the
ASBR state and classifies every one (:mod:`repro.faults`).  ``cache
gc`` size-caps the on-disk result cache; ``cache verify`` checks every
entry's payload checksum and prunes corruption (both traverse sharded
and flat cache layouts).  ``serve`` runs the long-lived simulation
daemon (:mod:`repro.serve`): JSON/HTTP submission of single runs,
sweeps and DSE jobs with request coalescing, a sharded result cache
and streamed job progress; with ``--state-dir`` every job journals to
a write-ahead log and a restarted daemon resumes unfinished work.
``--trace-out`` / ``--branch-report`` / ``--json`` attach the telemetry
layer (:mod:`repro.telemetry`) to the run; ``trace`` renders a
previously captured JSONL event stream.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

from repro.asbr import ASBRUnit
from repro.asm import assemble
from repro.isa.registers import REG_NAMES
from repro.predictors import make_predictor
from repro.profiling import profile_and_select
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineSimulator


def _load_program(path: str):
    with open(path) as f:
        return assemble(f.read())


def _print_stats(stats, asbr_bits: Optional[int] = None) -> None:
    print("cycles              %12d" % stats.cycles)
    print("instructions        %12d   (CPI %.3f)"
          % (stats.committed, stats.cpi))
    print("fetched / squashed  %12d / %d" % (stats.fetched, stats.squashed))
    print("branches            %12d   (%d mispredicted, accuracy %.1f%%)"
          % (stats.branches, stats.branch_mispredicts,
             100 * stats.branch_accuracy))
    print("load-use stalls     %12d" % stats.load_use_stalls)
    print("icache/dcache stall %12d / %d"
          % (stats.icache_miss_stalls, stats.dcache_miss_stalls))
    if asbr_bits is not None:
        print("branches folded     %12d   (%d taken / %d not-taken, "
              "%d invalid fallbacks)"
              % (stats.folds_committed, stats.folded_taken,
                 stats.folded_not_taken, stats.invalid_fallbacks))
        print("ASBR state          %12d bits" % asbr_bits)


def _make_cli_tracer(args):
    """Tracer for ``--trace-out`` / ``--branch-report`` / ``--json``,
    or None when no telemetry flag was given (zero-overhead run)."""
    trace_out = getattr(args, "trace_out", None)
    want_metrics = getattr(args, "branch_report", False) \
        or getattr(args, "json", False)
    if trace_out is None and not want_metrics:
        return None
    from repro.telemetry import make_tracer
    return make_tracer(jsonl_path=trace_out, with_metrics=want_metrics)


def _stats_dict(stats, asbr_bits: Optional[int] = None,
                tracer=None) -> dict:
    """JSON-ready view of a run: stats, derived rates, ASBR counters
    and (when traced) the telemetry tables."""
    out = dataclasses.asdict(stats)
    out["cpi"] = stats.cpi
    out["branch_accuracy"] = stats.branch_accuracy
    if asbr_bits is not None:
        out["asbr"] = {
            "folded_taken": stats.folded_taken,
            "folded_not_taken": stats.folded_not_taken,
            "invalid_fallbacks": stats.invalid_fallbacks,
            "state_bits": asbr_bits,
        }
    if tracer is not None and tracer.metrics is not None:
        out["telemetry"] = tracer.metrics.to_dict()
    return out


def _report_run(args, stats, asbr_bits, tracer, prog=None,
                extra: Optional[dict] = None) -> None:
    """Shared tail of ``sim`` / ``workload``: close the tracer, then
    print stats (text or ``--json``) and the per-branch report.
    ``asbr_bits`` is the ASBR unit's state, None without one."""
    if tracer is not None:
        tracer.close()
    if getattr(args, "json", False):
        out = _stats_dict(stats, asbr_bits, tracer)
        if extra:
            out.update(extra)
        print(json.dumps(out, indent=1, sort_keys=True))
    else:
        _print_stats(stats, asbr_bits)
    if getattr(args, "branch_report", False) and not getattr(
            args, "json", False):
        from repro.telemetry import render_branch_report
        print()
        print(render_branch_report(tracer.metrics, prog))
    if getattr(args, "trace_out", None):
        from repro.telemetry import JsonlTraceSink
        sink = tracer.find_sink(JsonlTraceSink)
        note = " (truncated at byte bound)" if sink.truncated else ""
        print("trace: %d events -> %s%s"
              % (sink.written, args.trace_out, note), file=sys.stderr)


def cmd_asm(args) -> int:
    prog = _load_program(args.file)
    if args.disasm:
        print(prog.disassemble())
    else:
        for i, word in enumerate(prog.words):
            print("%08x: %08x" % (prog.pc_of(i), word))
    print("; %d instructions, %d data words, entry 0x%x"
          % (len(prog.instrs), len(prog.data), prog.entry), file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    prog = _load_program(args.file)
    sim = FunctionalSimulator(prog)
    n = sim.run(max_instructions=args.max_instructions)
    print("retired %d instructions" % n)
    for i in range(32):
        if sim.regs[i]:
            print("  %-4s = %10d  (0x%08x)"
                  % (REG_NAMES[i], sim.regs[i] - 0x100000000
                     if sim.regs[i] & 0x80000000 else sim.regs[i],
                     sim.regs[i]))
    return 0


def _build_asbr(prog, args) -> Optional[ASBRUnit]:
    if not args.asbr:
        return None
    selection = profile_and_select(prog, bit_capacity=args.bit_size,
                                   bdt_update=args.bdt_update).selection
    print(selection.describe(), file=sys.stderr)
    return ASBRUnit.from_branch_infos(selection.infos,
                                      capacity=args.bit_size,
                                      bdt_update=args.bdt_update)


def cmd_sim(args) -> int:
    prog = _load_program(args.file)
    asbr = _build_asbr(prog, args)
    tracer = _make_cli_tracer(args)
    sim = PipelineSimulator(prog, predictor=make_predictor(args.predictor),
                            asbr=asbr, trace=tracer)
    stats = sim.run()
    _report_run(args, stats, asbr.state_bits if asbr is not None else None,
                tracer, prog)
    return 0


def cmd_profile(args) -> int:
    prog = _load_program(args.file)
    profile, accuracy, _ = profile_and_select(prog,
                                              baseline=args.predictor)
    print("%d instructions, %d static branches, %d executions"
          % (profile.total_instructions, len(profile.branches),
             profile.total_branch_executions))
    print("%-12s %-10s %8s %6s %6s %9s %8s"
          % ("pc", "label", "exec", "taken", "acc",
             "min dist", "foldable"))
    for stats in profile.sorted_by_count():
        label = prog.label_at(stats.pc) or "-"
        dist = str(stats.min_distance) if stats.min_distance < 1 << 20 \
            else "inf"
        fold = "%.0f%%" % (100 * stats.fold_fraction(args.bdt_update)) \
            if stats.is_zero_comparison else "n/a"
        print("0x%-10x %-10s %8d %5.0f%% %5.0f%% %9s %8s"
              % (stats.pc, label, stats.count, 100 * stats.taken_rate,
                 100 * accuracy.pc_accuracy(stats.pc), dist, fold))
    return 0


def cmd_workload(args) -> int:
    """One built-in benchmark as a :class:`~repro.runner.RunSpec`
    through the executor, traced when a telemetry flag asks for it."""
    from repro.asbr.bdt import BranchDirectionTable
    from repro.asbr.bit import BITS_PER_ENTRY
    from repro.runner.pool import RunSpec, _execute, _selection
    from repro.workloads import get_workload, speech_like
    spec = RunSpec(benchmark=args.name, n_samples=args.samples,
                   seed=args.seed, predictor_spec=args.predictor,
                   with_asbr=args.asbr, bit_capacity=args.bit_size,
                   bdt_update=args.bdt_update)
    wl = get_workload(args.name)
    asbr_bits = None
    if args.asbr:
        pcm = speech_like(args.samples, seed=args.seed)
        print(_selection(spec, wl, pcm).describe(), file=sys.stderr)
        asbr_bits = (args.bit_size * BITS_PER_ENTRY
                     + BranchDirectionTable().state_bits)
    tracer = _make_cli_tracer(args)
    try:
        stats = _execute(spec, trace=tracer)
    except AssertionError as exc:         # outputs != golden model
        if tracer is not None:
            tracer.close()
        print(exc, file=sys.stderr)
        if args.json:
            print(json.dumps({"outputs_match_golden": False,
                              "workload": wl.name}, sort_keys=True))
        else:
            print("outputs match golden model: False")
        return 1
    _report_run(args, stats, asbr_bits, tracer, wl.program,
                extra={"workload": wl.name, "outputs_match_golden": True})
    if not args.json:
        print("outputs match golden model: True")
    return 0


def cmd_trace(args) -> int:
    """Render a captured JSONL event stream (``--trace-out`` output)."""
    from repro.telemetry import (MetricsRegistry, read_jsonl,
                                 render_branch_report, render_counters,
                                 render_pipeview)
    from repro.telemetry.events import TRUNCATED
    events = read_jsonl(args.file)
    truncated = bool(events) and events[-1].kind == TRUNCATED
    if args.mode == "pipeview":
        print(render_pipeview(events, limit=args.limit, skip=args.skip,
                              max_cycles=args.max_cycles))
    else:
        registry = MetricsRegistry()
        for e in events:
            registry.emit(e)
        print(render_counters(registry))
        print()
        print(render_branch_report(registry))
    if truncated:
        print("note: trace was truncated at its byte bound; renders "
              "cover the recorded prefix only", file=sys.stderr)
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import (ablations, dse_frontier, energy,
                                   fault_campaign, fig6, fig7, fig9,
                                   fig10, fig11, frontend_frontier,
                                   ooo_fold_sensitivity)
    from repro.experiments.common import ExperimentSetup
    cache_dir = None if args.no_cache else args.cache_dir
    setup = ExperimentSetup(n_samples=args.samples, workers=args.workers,
                            cache_dir=cache_dir)
    drivers = {
        "fig6": fig6.main, "fig7": fig7.main, "fig9": fig9.main,
        "fig10": fig10.main, "fig11": fig11.main,
        "ablations": ablations.main, "energy": energy.main,
        "dse_frontier": dse_frontier.main,
        "frontend_frontier": lambda s: frontend_frontier.main(
            s, quick=args.quick),
        "ooo_fold_sensitivity": lambda s: ooo_fold_sensitivity.main(
            s, quick=args.quick),
        "fault_campaign": fault_campaign.main,
    }
    names = list(drivers) if args.which == "all" else [args.which]
    for name in names:
        drivers[name](setup)
        print()
    cache = setup.result_cache()
    if cache is not None:
        print("run cache (%s): %d hits, %d misses, %d corrupt dropped"
              % (cache.root, cache.hits, cache.misses, cache.dropped),
              file=sys.stderr)
    return 0


def _dse_objectives(args):
    from repro.dse import DEFAULT_OBJECTIVES, validate_objectives
    if not getattr(args, "objectives", None):
        return DEFAULT_OBJECTIVES
    return validate_objectives(
        n.strip() for n in args.objectives.split(",") if n.strip())


def _dse_emit(args, results, objectives) -> None:
    """Shared tail of the ``dse`` subcommands: table/plot or export."""
    from repro.dse import (export_csv, export_json, frontier_of,
                           render_frontier_plot, render_results_table)
    if args.json:
        print(export_json(results, objectives))
        return
    if args.csv:
        print(export_csv(results, objectives), end="")
        return
    front = frontier_of(results, objectives)
    print(render_results_table(
        results, objectives,
        title="%d evaluated configurations, %d on the frontier"
              % (len(results), len(front))))
    print()
    print(render_frontier_plot(results, x=args.plot_x, y=args.plot_y,
                               objectives=objectives))


def cmd_dse_run(args) -> int:
    from repro.dse import Evaluator, Journal, get_space, make_search
    from repro.runner import ResultCache

    try:
        space = get_space(args.space)
    except ValueError as exc:
        print("--space: %s" % exc, file=sys.stderr)
        return 2
    journal_path = args.journal or os.path.join(
        "results", "dse", "%s-n%d-s%d.jsonl"
        % (args.benchmark, args.samples, args.seed))
    if os.path.exists(journal_path) and not args.resume:
        print("journal %s already exists; pass --resume to continue it "
              "or remove it to start over" % journal_path,
              file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    objectives = _dse_objectives(args)
    search = make_search(args.search, n_points=args.n_points,
                         seed=args.seed)
    with Journal(journal_path).open({
            "space": space.digest(), "benchmark": args.benchmark,
            "n_samples": args.samples, "seed": args.seed}) as journal:
        evaluator = Evaluator(args.benchmark, args.samples, args.seed,
                              workers=args.workers, cache=cache,
                              journal=journal,
                              task_timeout=args.task_timeout,
                              retries=args.retries,
                              tolerant=args.tolerant)
        results = search.run(evaluator, space)
    print("dse: %d points evaluated on %s (%d simulated, %d from "
          "journal) -> %s"
          % (len(results), args.benchmark, evaluator.simulated,
             evaluator.journal_hits, journal_path), file=sys.stderr)
    if evaluator.failed:
        print("dse: %d point(s) failed and were quarantined (journaled "
              "as failed; a --resume retries them)"
              % evaluator.failed, file=sys.stderr)
    _dse_emit(args, results, objectives)
    if args.expect_no_new and evaluator.simulated:
        print("--expect-no-new: %d evaluations were NOT served by the "
              "journal" % evaluator.simulated, file=sys.stderr)
        return 1
    return 0


def _load_journal_results(args):
    """Full-input EvalResults from a journal (no simulation)."""
    from repro.dse import Journal
    from repro.dse.engine import result_from_record
    journal = Journal(args.journal).load()
    if not journal.records and journal.meta is None:
        raise SystemExit("no journal at %s" % args.journal)
    n_full = journal.meta.get("n_samples") if journal.meta else None
    results = [result_from_record(rec) for rec in journal.evals(n_full)]
    return journal, results


def cmd_dse_frontier(args) -> int:
    from repro.dse import frontier_of
    objectives = _dse_objectives(args)
    _journal, results = _load_journal_results(args)
    front = frontier_of(results, objectives)
    _dse_emit(args, front, objectives)
    return 0


def cmd_dse_report(args) -> int:
    objectives = _dse_objectives(args)
    journal, results = _load_journal_results(args)
    meta = journal.meta or {}
    print("journal %s: %d evaluations (benchmark=%s, n_samples=%s, "
          "seed=%s, %d corrupt lines dropped)"
          % (args.journal, len(journal), meta.get("benchmark", "?"),
             meta.get("n_samples", "?"), meta.get("seed", "?"),
             journal.dropped))
    print()
    _dse_emit(args, results, objectives)
    return 0


def cmd_cache_gc(args) -> int:
    from repro.runner import ResultCache, parse_size
    cap = parse_size(args.max_bytes) if args.max_bytes is not None \
        else None
    result = ResultCache(args.cache_dir).gc(cap)
    print(result.render())
    return 0


def cmd_cache_verify(args) -> int:
    from repro.runner import ResultCache
    result = ResultCache(args.cache_dir).verify(prune=not args.keep)
    print(result.render())
    return 0


def cmd_serve(args) -> int:
    """Run the simulation service daemon until SIGINT/SIGTERM."""
    import asyncio
    import logging

    from repro.runner import parse_size
    from repro.serve import ServeConfig, run_server

    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    config = ServeConfig(
        host=args.host, port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        shards=args.shards,
        max_bytes=parse_size(args.max_bytes)
        if args.max_bytes is not None else None,
        workers=args.workers, task_timeout=args.task_timeout,
        retries=args.retries,
        state_dir=args.state_dir,
        max_active_jobs=args.max_active_jobs,
        max_queued_jobs=args.max_queued_jobs,
        max_inflight_runs=args.max_inflight,
        retry_after=args.retry_after)
    asyncio.run(run_server(config))
    return 0


def cmd_faults_campaign(args) -> int:
    from repro.faults import (CampaignConfig, matrix_to_json,
                              render_matrix, render_report,
                              report_to_json, run_campaign,
                              run_protection_matrix)
    cfg = CampaignConfig(benchmark=args.benchmark,
                         n_samples=args.samples, seed=args.seed,
                         predictor_spec=args.predictor,
                         bit_capacity=args.bit_size,
                         bdt_update=args.bdt_update,
                         protection=args.protection
                         if args.protection != "all" else "none",
                         n_faults=args.n_faults,
                         fault_seed=args.fault_seed,
                         live_only=not args.all_sites)
    if args.protection == "all":
        reports = run_protection_matrix(cfg)
        text = matrix_to_json(reports) if args.json \
            else render_matrix(reports)
    else:
        report = run_campaign(cfg)
        text = report_to_json(report) if args.json \
            else render_report(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_faults_report(args) -> int:
    from repro.faults import render_matrix, render_report, \
        reports_from_json
    with open(args.file) as f:
        reports = reports_from_json(f.read())
    if len(reports) == 1:
        (report,) = reports.values()
        print(render_report(report))
    else:
        print(render_matrix(reports))
    return 0


def _add_sim_options(p) -> None:
    p.add_argument("--predictor", default="bimodal-2048",
                   help="predictor spec (e.g. not-taken, bimodal-512-512, "
                        "gshare-2048-11)")
    p.add_argument("--asbr", action="store_true",
                   help="profile, select and fold branches with ASBR")
    p.add_argument("--bit-size", type=int, default=16,
                   help="BIT capacity (default 16)")
    p.add_argument("--bdt-update", default="execute",
                   choices=("commit", "mem", "execute"),
                   help="early-condition forwarding path")
    p.add_argument("--trace-out", metavar="FILE",
                   help="stream telemetry events to a bounded JSONL "
                        "trace (render with 'trace pipeview/report')")
    p.add_argument("--branch-report", action="store_true",
                   help="print the per-branch-PC telemetry table "
                        "after the run")
    p.add_argument("--json", action="store_true",
                   help="emit stats (and telemetry tables when "
                        "enabled) as JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asbr",
        description="ASBR toolchain (Petrov & Orailoglu, DAC 2001 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a program")
    p.add_argument("file")
    p.add_argument("--disasm", action="store_true",
                   help="print disassembly instead of hex words")
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("run", help="functional (golden) simulation")
    p.add_argument("file")
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sim", help="cycle-accurate pipeline simulation")
    p.add_argument("file")
    _add_sim_options(p)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("profile", help="branch profile and foldability")
    p.add_argument("file")
    p.add_argument("--predictor", default="bimodal-2048")
    p.add_argument("--bdt-update", default="execute",
                   choices=("commit", "mem", "execute"))
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("workload", help="run a built-in benchmark")
    p.add_argument("name", help="adpcm_enc, adpcm_dec, g721_enc, "
                                "g721_dec, huffman_dec, ...")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20010618)
    _add_sim_options(p)
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("trace", help="render a captured JSONL trace")
    p.add_argument("mode", choices=("pipeview", "report"),
                   help="pipeview: ASCII pipeline timeline; report: "
                        "counters + per-branch table")
    p.add_argument("file", help="JSONL trace from sim --trace-out")
    p.add_argument("--limit", type=int, default=64,
                   help="pipeview: instructions to show (default 64)")
    p.add_argument("--skip", type=int, default=0,
                   help="pipeview: instructions to skip first")
    p.add_argument("--max-cycles", type=int, default=200,
                   help="pipeview: clip the cycle axis (default 200)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("experiments", help="regenerate paper tables")
    p.add_argument("which", choices=("fig6", "fig7", "fig9", "fig10",
                                     "fig11", "ablations", "energy",
                                     "dse_frontier", "frontend_frontier",
                                     "ooo_fold_sensitivity",
                                     "fault_campaign", "all"))
    p.add_argument("--samples", type=int, default=600)
    p.add_argument("--quick", action="store_true",
                   help="frontend_frontier / ooo_fold_sensitivity: "
                        "shrink the sweep to the verdict-bearing corner "
                        "(the CI smoke mode)")
    p.add_argument("--workers", type=int,
                   default=int(os.environ.get("REPRO_WORKERS", "0")),
                   help="simulate independent configurations on N "
                        "processes (0/1 = inline; results identical)")
    p.add_argument("--cache-dir",
                   default=os.environ.get("REPRO_CACHE_DIR",
                                          "results/.runcache"),
                   help="on-disk result cache location (content-"
                        "addressed; safe to delete at any time)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result cache")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("dse", help="design-space exploration "
                                   "(repro.dse)")
    dse_sub = p.add_subparsers(dest="dse_command", required=True)

    def _add_dse_output_options(sp) -> None:
        sp.add_argument("--objectives",
                        help="comma-separated objective list (default "
                             "speedup,table_bits,energy)")
        sp.add_argument("--json", action="store_true",
                        help="emit points + frontier as JSON")
        sp.add_argument("--csv", action="store_true",
                        help="emit points + frontier as CSV")
        sp.add_argument("--plot-x", default="table_bits",
                        help="x objective of the ASCII frontier plot")
        sp.add_argument("--plot-y", default="speedup",
                        help="y objective of the ASCII frontier plot")

    sp = dse_sub.add_parser("run", help="evaluate a configuration "
                                        "space (resumable)")
    sp.add_argument("--space", default="paper",
                    help="preset name (paper, default) or a JSON "
                         "space file")
    sp.add_argument("--benchmark", default="adpcm_enc",
                    help="workload to characterise (default adpcm_enc)")
    sp.add_argument("--samples", type=int, default=600,
                    help="full input length (default 600)")
    sp.add_argument("--seed", type=int, default=20010618,
                    help="one seed for inputs AND random search — a "
                         "rerun with the same seed is bit-identical")
    sp.add_argument("--search", default="grid",
                    choices=("grid", "random", "halving"),
                    help="search driver (default grid)")
    sp.add_argument("--n-points", type=int, default=8,
                    help="random search: points to draw")
    sp.add_argument("--workers", type=int,
                    default=int(os.environ.get("REPRO_WORKERS", "0")),
                    help="parallel simulations (0/1 = inline)")
    sp.add_argument("--journal",
                    help="JSONL journal path (default results/dse/"
                         "<benchmark>-n<samples>-s<seed>.jsonl)")
    sp.add_argument("--resume", action="store_true",
                    help="continue an existing journal, skipping every "
                         "recorded evaluation")
    sp.add_argument("--expect-no-new", action="store_true",
                    help="fail if any evaluation was not served by the "
                         "journal (CI resume check)")
    sp.add_argument("--cache-dir",
                    default=os.environ.get("REPRO_CACHE_DIR",
                                           "results/.runcache"),
                    help="on-disk run-result cache location")
    sp.add_argument("--no-cache", action="store_true",
                    help="disable the on-disk run-result cache")
    sp.add_argument("--task-timeout", type=float,
                    help="seconds a pooled run may go silent before "
                         "it is retried (crash/hang detector)")
    sp.add_argument("--retries", type=int, default=0,
                    help="retries per failed/timed-out run "
                         "(exponential backoff)")
    sp.add_argument("--tolerant", action="store_true",
                    help="quarantine failing points (journaled as "
                         "failed, retried on --resume) instead of "
                         "aborting the exploration")
    _add_dse_output_options(sp)
    sp.set_defaults(fn=cmd_dse_run)

    sp = dse_sub.add_parser("frontier", help="Pareto frontier of a "
                                             "recorded journal")
    sp.add_argument("--journal", required=True)
    _add_dse_output_options(sp)
    sp.set_defaults(fn=cmd_dse_frontier)

    sp = dse_sub.add_parser("report", help="full table + plot of a "
                                           "recorded journal")
    sp.add_argument("--journal", required=True)
    _add_dse_output_options(sp)
    sp.set_defaults(fn=cmd_dse_report)

    p = sub.add_parser("faults", help="soft-error injection campaigns "
                                      "(repro.faults)")
    faults_sub = p.add_subparsers(dest="faults_command", required=True)
    sp = faults_sub.add_parser("campaign",
                               help="run a seeded injection campaign "
                                    "(deterministic: same flags -> "
                                    "byte-identical report)")
    sp.add_argument("--benchmark", default="adpcm_enc")
    sp.add_argument("--samples", type=int, default=600)
    sp.add_argument("--seed", type=int, default=20010618,
                    help="input seed (the campaign plan has its own "
                         "--fault-seed)")
    sp.add_argument("--predictor", default="bimodal-512-512")
    sp.add_argument("--bit-size", type=int, default=16)
    sp.add_argument("--bdt-update", default="execute",
                    choices=("commit", "mem", "execute"))
    sp.add_argument("--protection", default="all",
                    choices=("none", "parity", "ecc", "all"),
                    help="detection/recovery model ('all' runs the "
                         "same plan under every model)")
    sp.add_argument("--n-faults", type=int, default=24,
                    help="injections per campaign (stratified across "
                         "structures)")
    sp.add_argument("--fault-seed", type=int, default=1,
                    help="seed of the (site, cycle) plan")
    sp.add_argument("--all-sites", action="store_true",
                    help="target every enumerable bit, not just BDT "
                         "state that live BIT entries read")
    sp.add_argument("--json", action="store_true",
                    help="emit the canonical JSON report")
    sp.add_argument("--out", metavar="FILE",
                    help="write the report to FILE instead of stdout")
    sp.set_defaults(fn=cmd_faults_campaign)

    sp = faults_sub.add_parser("report", help="render a saved campaign "
                                              "JSON report")
    sp.add_argument("file", help="JSON from 'faults campaign --json'")
    sp.set_defaults(fn=cmd_faults_report)

    p = sub.add_parser("cache", help="manage the on-disk result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    sp = cache_sub.add_parser("gc", help="LRU-by-mtime garbage "
                                         "collection")
    sp.add_argument("--cache-dir",
                    default=os.environ.get("REPRO_CACHE_DIR",
                                           "results/.runcache"))
    sp.add_argument("--max-bytes",
                    help="size cap, e.g. 4096, 64M, 2G (omit to only "
                         "measure)")
    sp.set_defaults(fn=cmd_cache_gc)
    sp = cache_sub.add_parser("verify",
                              help="scan entries: parse, version and "
                                   "payload-checksum checks; prunes "
                                   "bad entries unless --keep")
    sp.add_argument("--cache-dir",
                    default=os.environ.get("REPRO_CACHE_DIR",
                                           "results/.runcache"))
    sp.add_argument("--keep", action="store_true",
                    help="report only; do not delete bad entries")
    sp.set_defaults(fn=cmd_cache_verify)

    p = sub.add_parser("serve", help="simulation-as-a-service daemon "
                                     "(repro.serve)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "logged on startup)")
    p.add_argument("--workers", type=int,
                   default=int(os.environ.get("REPRO_WORKERS", "0")),
                   help="pool size for sweep/DSE jobs (0/1 = inline)")
    p.add_argument("--cache-dir",
                   default=os.environ.get("REPRO_CACHE_DIR",
                                          "results/.servecache"),
                   help="sharded on-disk result cache location")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a disk cache (memory only)")
    p.add_argument("--shards", type=int, default=256,
                   choices=(0, 16, 256, 4096),
                   help="cache shard count (hex-prefix directories; "
                        "0 = flat legacy layout)")
    p.add_argument("--max-bytes",
                   help="cache size cap, e.g. 64M (LRU gc on write)")
    p.add_argument("--task-timeout", type=float, default=60.0,
                   help="seconds a pooled run may go silent before it "
                        "is failed/retried (crash detector)")
    p.add_argument("--retries", type=int, default=0,
                   help="retries per failed/timed-out run")
    p.add_argument("--state-dir", default=None,
                   help="job WAL directory; restart on the same dir "
                        "replays every job's journal and resumes "
                        "unfinished work (omit = in-memory jobs)")
    p.add_argument("--max-active-jobs", type=int, default=4,
                   help="sweep/DSE jobs executing concurrently")
    p.add_argument("--max-queued-jobs", type=int, default=16,
                   help="jobs waiting beyond the active bound before "
                        "submissions shed with 429")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="distinct uncached /run executions in flight "
                        "before submissions shed with 429")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint (seconds) on 429/503")
    p.set_defaults(fn=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
