"""The four benchmark workloads, each driven through repro's public API.

Every workload is a closed loop driven by this one process, runs with
library defaults (``RunSpec``, ``Evaluator`` and ``repro serve``
defaults, including ``engine``), and checks what it gets back:

* ``spec_asbr`` — one caller runs ``execute_spec`` inline, five codecs
  per round, threshold-2 ASBR with the paper's ``bimodal-512-512``
  auxiliary predictor.  Profiling, branch trace and the selection
  baseline run in every spec, so a change to that front half shows
  here.
* ``spec_plain`` — the same loop with ``with_asbr=False`` and
  ``bimodal-2048``.  It skips the front half entirely: a front-half
  change must leave it unchanged, and an engine change shows here
  alone.
* ``dse_sweep`` — ``GridSearch`` over the ``paper`` space on three
  codecs with ``Evaluator(workers=2)``, a fresh cache and journal per
  sweep, then a warm pass over the same cache.  Nine of the twelve
  points share one input, so the redundant front half repeats; the
  pool and cache writes run here, and the warm pass reads the cache.
* ``serve_mix`` — a ``repro serve --workers 1`` subprocess and two
  keep-alive connections from one asyncio client, both processes on
  one CPU.  Each step sends one
  new ASBR ``/run`` spec on both connections at once (they coalesce onto
  one execution), then repeats every spec sent so far from the hot
  cache for a quarter second.  HTTP parsing, admission, the hot LRU and
  coalescing are the critical path.

Input sizes keep the codecs' specs within a factor of two of each other
in simulated cycles, so no codec dominates a round, and small enough
that every codec is measured many times in one run.  Inputs are
``speech_like(n, seed + round)``: ``RunSpec.seed`` is that seed, so
``--seed`` fixes every input.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from collections import defaultdict
from statistics import geometric_mean, median
from typing import Dict, List, Optional, Tuple

from common import (HERE, ROOT, Calibrator, child_env, peak_rss_mb,
                    percentile, pinned, plain, usable_cpus)

ASBR_PREDICTOR = "bimodal-512-512"
PLAIN_PREDICTOR = "bimodal-2048"
SPEC_SIZES = {"adpcm_enc": 400, "adpcm_dec": 400, "huffman_dec": 400,
              "g721_enc": 60, "g721_dec": 60}
DSE_SIZES = {"adpcm_enc": 150, "huffman_dec": 150, "g721_dec": 25}
DSE_WORKERS = 2
#: calibration loops per CPU (the best counts) around each sweep
DSE_CALIBRATIONS = 2
SERVE_SIZES = {"adpcm_enc": 300, "adpcm_dec": 300, "huffman_dec": 300,
               "g721_enc": 45, "g721_dec": 45}
SERVE_CONNECTIONS = 2
#: cached load runs in windows of this length between cold specs; each
#: window gives one throughput and one mean latency
SERVE_WINDOW_S = 0.25
#: serve responses compared field by field with an inline execute_spec
SERVE_WIRE_CHECKS = 3
#: daemon /stats counters reported as per-layer deltas
SERVE_COUNTERS = ("requests", "executions", "coalesced", "hot_hits",
                  "disk_hits", "shed_requests")
WARMUP_SAMPLES = 50
#: warm-up inputs never coincide with a measured input
WARMUP_SEED_OFFSET = 100_000
QUICK_DIVISOR = 8


def scaled(sizes: Dict[str, int], quick: bool) -> Dict[str, int]:
    if not quick:
        return dict(sizes)
    return {b: max(8, n // QUICK_DIVISOR) for b, n in sizes.items()}


@dataclasses.dataclass
class Result:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    #: check name -> passed
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)
    #: end-to-end metrics other than setup_s and peak_rss_mb
    e2e: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: extra ``name value unit`` lines (sample counts, tails)
    info: List[Tuple[str, float, str]] = dataclasses.field(
        default_factory=list)
    #: deterministic for a seed: simulated cycles and fold rate of the
    #: first round, and the cache hits the workload must see
    exact: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: per-layer values counted outside the spans; every workload
    #: reports them all, 0 where the layer does not run
    layer: Dict[str, float] = dataclasses.field(
        default_factory=lambda: dict.fromkeys(
            ["dse.points_simulated", "dse.journal_hits"]
            + ["serve." + c for c in SERVE_COUNTERS]
            + ["serve.exec_per_request", "serve.loadgen_cpu_frac"], 0))

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def _exact(stats_list) -> Dict[str, float]:
    folds = sum(s.folds_committed for s in stats_list)
    branches = sum(s.branches for s in stats_list)
    return {"sim_cycles": sum(s.cycles for s in stats_list),
            "fold_rate": folds / (folds + branches) if folds + branches
            else 0.0}


def closed_loop_metrics(lat: Dict[str, List[float]],
                        cycles: Dict[str, List[int]],
                        ops_per_sample: int = 1) -> Dict[str, float]:
    """End-to-end metrics of a closed loop over several kinds of input.

    ``lat`` holds each operation's seconds, already rescaled to the
    reference host (:class:`common.Calibrator`).  Each kind contributes
    its median.  Taking the statistic per kind makes a run that stops
    part-way through a round report the same numbers as one that
    stopped at its end.
    """
    kinds = [k for k in lat if lat[k]]
    typical = [median(lat[k]) for k in kinds]
    work = [median(cycles[k]) for k in kinds]
    return {"latency_ms": geometric_mean(typical) * 1e3,
            "ops_per_s": ops_per_sample * len(kinds) / sum(typical),
            "sim_cycles_per_s": sum(work) / sum(typical)}


def pause(recorder):
    return recorder.paused() if recorder is not None \
        else contextlib.nullcontext()


class Scenario:
    """One workload: set up, measure for a time, verify, tear down."""

    name = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, tmp: str, traced: bool) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, recorder, cal) -> Result:
        """Run for about ``seconds``; ``recorder`` is a
        :class:`spans.Recorder` in traced runs, ``cal`` the
        :meth:`calibrator`, sampled once, to sample after each
        operation."""
        raise NotImplementedError

    def verify(self, result: Result) -> None:
        """Checks made after the measured window, untraced."""

    def teardown(self, result: Optional[Result]) -> None:
        """Stop whatever ``setup`` started (always called)."""

    def span_files(self) -> List[str]:
        return []

    def work_cpus(self) -> List[int]:
        """CPUs every process of the workload is pinned to: the ones
        calibrated.  One, unless the workload needs more, so the
        calibration measures the very CPU the work ran on."""
        return usable_cpus()[:1]

    def calibrator(self) -> Calibrator:
        return Calibrator(self.work_cpus())

    def peak_rss_mb(self) -> float:
        """Peak memory of the processes that simulate."""
        return peak_rss_mb()

    def expected_layers(self) -> List[str]:
        raise NotImplementedError


class SpecLoop(Scenario):
    """``execute_spec`` inline, one codec after another, round by round."""

    def __init__(self, seed: int, quick: bool, with_asbr: bool) -> None:
        super().__init__(seed, quick)
        self.with_asbr = with_asbr
        self.name = "spec_asbr" if with_asbr else "spec_plain"
        self.predictor = ASBR_PREDICTOR if with_asbr else PLAIN_PREDICTOR
        self.sizes = scaled(SPEC_SIZES, quick)

    def params(self) -> dict:
        return {"sizes": self.sizes, "predictor_spec": self.predictor,
                "with_asbr": self.with_asbr, "callers": 1,
                "loop": "closed"}

    def spec(self, benchmark: str, n: int, seed: int):
        from repro.runner import RunSpec
        return RunSpec(benchmark, n, seed, self.predictor,
                       with_asbr=self.with_asbr)

    def setup(self, tmp: str, traced: bool) -> None:
        from repro.runner import execute_spec
        for b in self.sizes:
            execute_spec(self.spec(b, WARMUP_SAMPLES,
                                   self.seed + WARMUP_SEED_OFFSET))

    def measure(self, seconds: float, recorder, cal) -> Result:
        from repro.runner import execute_spec
        res = Result()
        lat: Dict[str, List[float]] = defaultdict(list)
        cycles: Dict[str, List[int]] = defaultdict(list)
        first_round = []
        deadline = time.perf_counter() + seconds
        rnd = 0
        while rnd == 0 or time.perf_counter() < deadline:
            for b, n in self.sizes.items():
                if rnd > 0 and time.perf_counter() >= deadline:
                    break
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    stats = execute_spec(self.spec(b, n, self.seed + rnd))
                except Exception as exc:
                    stats = None
                    print("FAILED %s round %d: %s: %s"
                          % (b, rnd, type(exc).__name__, exc),
                          file=sys.stderr)
                secs = (time.perf_counter() - t0) / cal.slowdown()
                if stats is None:
                    res.failed += 1
                    continue
                lat[b].append(secs)
                cycles[b].append(stats.cycles)
                if rnd == 0:
                    first_round.append(stats)
            rnd += 1
        res.check("every spec verified against its golden output",
                  res.failed == 0)
        if not lat:
            return res
        res.e2e = closed_loop_metrics(lat, cycles)
        res.exact = _exact(first_round)
        res.exact["cache_hits"] = 0
        res.info.append(("specs", sum(len(v) for v in lat.values()),
                         "count"))
        res.info.append(("rounds", rnd, "count"))
        return res

    def expected_layers(self) -> List[str]:
        base = ["runner", "workloads", "pipeline"]
        if self.with_asbr:
            base += ["profiling", "functional", "predictors", "asbr"]
        return sorted(base)


class DseSweep(Scenario):
    """Cold ``GridSearch`` then a warm pass, per codec, round by round."""

    name = "dse_sweep"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.sizes = scaled(DSE_SIZES, quick)

    def params(self) -> dict:
        return {"sizes": self.sizes, "space": "paper", "search": "grid",
                "workers": DSE_WORKERS, "callers": 1, "loop": "closed"}

    def setup(self, tmp: str, traced: bool) -> None:
        from repro.runner import RunSpec, execute_spec_metrics
        import repro.dse  # noqa: F401  (import cost belongs to setup)
        self.tmp = tmp
        for b in self.sizes:
            execute_spec_metrics(RunSpec(b, WARMUP_SAMPLES,
                                         self.seed + WARMUP_SEED_OFFSET,
                                         ASBR_PREDICTOR, with_asbr=True))

    def measure(self, seconds: float, recorder, cal) -> Result:
        from repro.dse import paper_space
        from repro.runner import ResultCache, key_for_spec

        points = paper_space().points()
        res = Result()
        lat: Dict[str, List[float]] = defaultdict(list)
        cycles: Dict[str, List[int]] = defaultdict(list)
        first_round = []
        first_round_hits = 0
        counts = {"dse.points_simulated": 0, "dse.journal_hits": 0}
        deadline = time.perf_counter() + seconds
        rnd = 0
        while rnd == 0 or time.perf_counter() < deadline:
            for b, n in self.sizes.items():
                if rnd > 0 and time.perf_counter() >= deadline:
                    break
                seed = self.seed + rnd
                root = os.path.join(self.tmp, "dse-%d-%s" % (rnd, b))
                cache = ResultCache(os.path.join(root, "cache"))
                res.attempted += 2 * len(points)
                # the calibrator samples while the pool is down: each
                # map_specs call builds and tears down its own
                try:
                    cold_s, cold, _, _ = self._grid(root, "cold", b, n, seed,
                                                    cache, counts)
                    cold_s /= cal.slowdown()
                    _, warm, hits, misses = self._grid(root, "warm", b, n,
                                                       seed, cache, counts)
                except Exception as exc:
                    res.failed += 2 * len(points)
                    print("FAILED dse %s round %d: %s: %s"
                          % (b, rnd, type(exc).__name__, exc),
                          file=sys.stderr)
                    continue
                finally:
                    cal.sample()
                objectives = [json.dumps([r.objectives.to_dict()
                                          for r in out])
                              for out in (cold, warm)]
                warm_ok = (len(cold) == len(points) and hits == len(points)
                           and misses == 0
                           and objectives[0] == objectives[1])
                res.check("warm pass simulates nothing and returns the "
                          "cold objectives byte for byte", warm_ok)
                if not warm_ok:
                    res.failed += len(points)
                    continue
                # the benchmark's own reads stay out of the trace
                with pause(recorder):
                    stats = [cache.get(key_for_spec(p.to_spec(b, n, seed)))
                             for p in points]
                lat[b].append(cold_s)
                cycles[b].append(sum(s.cycles for s in stats))
                if rnd == 0:
                    first_round.extend(stats)
                    first_round_hits += hits
                shutil.rmtree(root, ignore_errors=True)
            rnd += 1
        res.check("every design point evaluated", res.failed == 0)
        if not lat:
            return res
        res.e2e = closed_loop_metrics(lat, cycles,
                                      ops_per_sample=len(points))
        res.exact = _exact(first_round)
        res.exact["cache_hits"] = first_round_hits
        res.layer.update(counts)
        res.info.append(("sweeps", sum(len(v) for v in lat.values()),
                         "count"))
        return res

    def work_cpus(self) -> List[int]:
        # the two pool workers run in parallel; measured on the reference
        # host, ten runs with everything on one CPU spread by 8%, on
        # two by 3%
        return usable_cpus()[:DSE_WORKERS]

    def calibrator(self) -> Calibrator:
        # measured on the reference host: rescaled by one loop per CPU,
        # 20-second windows of sweeps spread by 6%; by the best of two,
        # by 3.7%
        return Calibrator(self.work_cpus(), repeat=DSE_CALIBRATIONS)

    def _grid(self, root: str, label: str, benchmark: str, n: int,
              seed: int, cache, counts: Dict[str, int]):
        """One ``GridSearch`` over the paper space with a fresh journal;
        returns (seconds, results, cache hits, cache misses)."""
        from repro.dse import Evaluator, GridSearch, Journal, paper_space

        space = paper_space()
        meta = {"space": space.digest(), "benchmark": benchmark,
                "n_samples": n, "seed": seed}
        hits, misses = cache.hits, cache.misses
        t0 = time.perf_counter()
        with Journal(os.path.join(root, label + ".jsonl")).open(meta) \
                as journal:
            ev = Evaluator(benchmark, n, seed, workers=DSE_WORKERS,
                           cache=cache, journal=journal)
            out = GridSearch().run(ev, space)
        secs = time.perf_counter() - t0
        counts["dse.points_simulated"] += ev.simulated
        counts["dse.journal_hits"] += ev.journal_hits
        return secs, out, cache.hits - hits, cache.misses - misses

    def expected_layers(self) -> List[str]:
        return sorted(["dse", "runner", "workloads", "pipeline",
                       "profiling", "functional", "predictors", "asbr"])


# ----------------------------------------------------------------------
# serve_mix: raw HTTP/1.1 over asyncio keep-alive connections
# ----------------------------------------------------------------------

def http_payload(method: str, path: str, obj=None) -> bytes:
    body = json.dumps(obj).encode() if obj is not None else b""
    head = ("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: "
            "application/json\r\nContent-Length: %d\r\n\r\n"
            % (method, path, len(body)))
    return head.encode() + body


async def _exchange(reader, writer, payload: bytes) -> Tuple[int, bytes]:
    writer.write(payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _hammer(conn, payloads: List[bytes], offset: int,
                  deadline_ns: int, lat: List[int], verdict) -> int:
    """Repeat the payloads round-robin on one connection until the
    deadline; returns the offset to continue from."""
    reader, writer = conn
    i = offset
    while time.monotonic_ns() < deadline_ns:
        idx = i % len(payloads)
        t0 = time.monotonic_ns()
        status, body = await _exchange(reader, writer, payloads[idx])
        lat.append(time.monotonic_ns() - t0)
        verdict(idx, status, body)
        i += 1
    return i


def _stats_of(body: bytes) -> Optional[dict]:
    rec = json.loads(body)
    return rec.get("stats") if rec.get("ok") else None


class ServeMix(Scenario):
    """New and repeated ``/run`` traffic against a live daemon."""

    name = "serve_mix"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.sizes = scaled(SERVE_SIZES, quick)
        self.daemon: Optional[subprocess.Popen] = None
        self.daemon_hwm_kb: Optional[int] = None
        self.client = None
        self.span_file: Optional[str] = None

    def params(self) -> dict:
        return {"sizes": self.sizes, "predictor_spec": ASBR_PREDICTOR,
                "with_asbr": True, "daemon_workers": 1,
                "connections": SERVE_CONNECTIONS, "window_s": SERVE_WINDOW_S,
                "loop": "closed"}

    def wire(self, benchmark: str, n: int, seed: int) -> dict:
        return {"benchmark": benchmark, "n_samples": n, "seed": seed,
                "predictor_spec": ASBR_PREDICTOR, "with_asbr": True}

    def setup(self, tmp: str, traced: bool) -> None:
        from repro.serve import ServeClient

        self.tmp = tmp
        self.log_path = os.path.join(tmp, "daemon.log")
        cmd = [sys.executable]
        if traced:
            self.span_file = os.path.join(tmp, "daemon-spans.jsonl")
            cmd += [os.path.join(HERE, "daemon_shim.py"), self.span_file]
        else:
            cmd += ["-m", "repro.cli"]
        cmd += ["serve", "--port", "0", "--workers", "1",
                "--cache-dir", os.path.join(tmp, "cache"),
                "--state-dir", os.path.join(tmp, "state")]
        # the daemon shares the client's CPU: across two vCPUs every
        # request waits for a cross-CPU wake-up, which the calibration
        # loop cannot see.  Measured on the reference host, ten runs
        # each: cached req/s spread by 25% split and 4% shared.
        with open(self.log_path, "w") as log, pinned(self.work_cpus()):
            self.daemon = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
                env=child_env(), start_new_session=True)
        self.port = self._wait_for_port()
        self.client = ServeClient(port=self.port, timeout=120.0)
        deadline = time.monotonic() + 60
        while not self.client.readyz()[0]:
            if time.monotonic() > deadline:
                raise TimeoutError("daemon never became ready")
            time.sleep(0.02)
        for b in self.sizes:
            rec = self.client.run(self.wire(b, WARMUP_SAMPLES,
                                            self.seed + WARMUP_SEED_OFFSET))
            if not rec.get("ok"):
                raise RuntimeError("warm-up run failed: %r" % (rec,))

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                m = re.search(r"listening on [\d.]+:(\d+)", f.read())
            if m:
                return int(m.group(1))
            if self.daemon.poll() is not None:
                break
            time.sleep(0.02)
        with open(self.log_path) as f:
            raise RuntimeError("daemon never logged its port:\n" + f.read())

    async def _drive(self, deadline: float, cal, recorder, res: Result,
                     verdict, cold: Dict[str, List[Tuple[float, float,
                                                         int]]],
                     windows: List[Tuple[float, List[int], float]]
                     ) -> float:
        """The mixed loop.  Each step sends one new spec on every
        connection at once (they coalesce onto one execution), then
        repeats the specs run so far for one window; the calibrator
        samples after each.  Returns the client's CPU seconds inside
        the windows."""
        conns = [await asyncio.open_connection("127.0.0.1", self.port)
                 for _ in range(SERVE_CONNECTIONS)]
        codecs = list(self.sizes.items())
        offsets = [0] * SERVE_CONNECTIONS
        cpu = 0.0
        try:
            j = 0
            while j < len(codecs) or time.perf_counter() < deadline:
                b, n = codecs[j % len(codecs)]
                idx = len(self.specs)
                self.specs.append(self.wire(b, n,
                                            self.seed + j // len(codecs)))
                self.payloads.append(http_payload(
                    "POST", "/run", {"spec": self.specs[idx],
                                     "metrics": False}))
                t0 = time.monotonic_ns()
                answers = await asyncio.gather(*[
                    _exchange(reader, writer, self.payloads[idx])
                    for reader, writer in conns])
                t1 = time.monotonic_ns()
                slowdown = cal.slowdown()
                stats = [_stats_of(body) if status == 200 else None
                         for status, body in answers]
                res.attempted += len(answers)
                if stats[0] is None or any(s != stats[0] for s in stats):
                    res.failed += len(answers)
                    res.check("cold responses are 200 and agree across "
                              "connections", False)
                else:
                    self.expected[idx] = stats[0]
                    secs = (t1 - t0) / 1e9
                    cold[b].append((secs / slowdown, secs,
                                    stats[0]["cycles"]))
                if recorder is not None:
                    recorder.record("serve.request", t0, t1, spec=idx,
                                    statuses=[a[0] for a in answers])
                j += 1
                if j < len(codecs):
                    continue      # every codec runs once before caching
                lat: List[int] = []
                c0, w0 = time.process_time(), time.monotonic_ns()
                offsets = await asyncio.gather(*[
                    _hammer(conn, self.payloads, off,
                            w0 + int(SERVE_WINDOW_S * 1e9), lat, verdict)
                    for conn, off in zip(conns, offsets)])
                secs = (time.monotonic_ns() - w0) / 1e9
                cpu += time.process_time() - c0
                windows.append((secs, lat, cal.slowdown()))
        finally:
            for _reader, writer in conns:
                writer.close()
                await writer.wait_closed()
        return cpu

    def measure(self, seconds: float, recorder, cal) -> Result:
        res = Result()
        self.specs: List[dict] = []
        self.payloads: List[bytes] = []
        self.expected: Dict[int, dict] = {}
        good: Dict[int, bytes] = {}
        bad = [0]

        def verdict(idx: int, status: int, body: bytes) -> None:
            if status == 200 and good.get(idx) == body:
                return
            if status == 200 and idx in self.expected \
                    and _stats_of(body) == self.expected[idx]:
                good.setdefault(idx, body)
                return
            bad[0] += 1

        #: codec -> (rescaled seconds, seconds, simulated cycles)
        cold: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)
        #: (seconds, request latencies in ns, host slowdown)
        windows: List[Tuple[float, List[int], float]] = []
        before = self.client.stats()["counters"]
        cpu = asyncio.run(self._drive(time.perf_counter() + seconds, cal,
                                      recorder, res, verdict, cold,
                                      windows))
        after = self.client.stats()["counters"]
        every = sorted(dt for _secs, w, _f in windows for dt in w)
        res.attempted += len(every)
        res.failed += bad[0]
        res.check("cached responses are 200 with the cold stats",
                  bad[0] == 0)
        res.check("cold responses are 200 and agree across connections",
                  True)

        # each window gives a throughput and a mean latency, rescaled;
        # the run reports the median window, and the cold specs per
        # codec as closed_loop_metrics does.  Within a window the two
        # connections queue behind each other on the one CPU, so
        # latencies fall into two modes and a window's median jumps
        # between them: over twelve runs the median window's median
        # spread by 11%, its mean (connections over throughput) by 9%.
        window_s = sum(secs for secs, _w, _f in windows)
        res.e2e = {
            "latency_ms": median([sum(w) / len(w) / 1e6 / f
                                  for _secs, w, f in windows if w]),
            "ops_per_s": median([len(w) / secs * f
                                 for secs, w, f in windows]),
            "sim_cycles_per_s": closed_loop_metrics(
                {b: [t for t, _s, _c in v] for b, v in cold.items()},
                {b: [c for _t, _s, c in v] for b, v in cold.items()},
            )["sim_cycles_per_s"],
        }
        cold_lat = sorted(s for v in cold.values() for _t, s, _c in v)
        res.info += [
            ("serve_cold_p50_s", percentile(cold_lat, 50), "s"),
            ("serve_cold_specs", len(cold_lat), "count"),
            ("serve_cached_rps", len(every) / window_s, "1/s"),
            ("serve_cached_p50_ms", percentile(every, 50) / 1e6, "ms"),
            ("serve_cached_p99_ms", percentile(every, 99) / 1e6, "ms"),
            ("serve_cached_samples", len(every), "count"),
            ("serve_cached_windows", len(windows), "count"),
        ]
        first_round = [self.expected[i] for i in range(len(self.sizes))
                       if i in self.expected]
        res.exact = _exact([types.SimpleNamespace(**s) for s in first_round])
        res.exact["cache_hits"] = 0
        delta = {k: after[k] - before[k] for k in after}
        for key in SERVE_COUNTERS:
            res.layer["serve." + key] = delta[key]
        res.layer["serve.exec_per_request"] = \
            delta["executions"] / max(1, delta["requests"])
        res.layer["serve.loadgen_cpu_frac"] = cpu / window_s
        return res

    def verify(self, result: Result) -> None:
        """Wire stats of sampled specs equal an inline ``execute_spec``."""
        from repro.runner import RunSpec, execute_spec
        picks = random.Random(self.seed).sample(
            range(len(self.specs)), SERVE_WIRE_CHECKS)
        for idx in picks:
            ok = plain(execute_spec(RunSpec(**self.specs[idx]))) \
                == self.expected.get(idx)
            result.check("wire stats equal inline execute_spec", ok)
            result.attempted += 1
            result.failed += 0 if ok else 1

    def teardown(self, result: Optional[Result]) -> None:
        if self.daemon is None:
            return
        clean = False
        try:
            with open("/proc/%d/status" % self.daemon.pid) as f:
                m = re.search(r"VmHWM:\s+(\d+) kB", f.read())
            self.daemon_hwm_kb = int(m.group(1)) if m else None
        except OSError:
            pass
        try:
            if self.client is not None:
                self.client.shutdown()
            clean = self.daemon.wait(timeout=60) == 0
        except Exception as exc:
            print("daemon shutdown failed: %s: %s"
                  % (type(exc).__name__, exc), file=sys.stderr)
        finally:
            if self.daemon.poll() is None:
                os.killpg(self.daemon.pid, signal.SIGKILL)
                self.daemon.wait()
        with open(self.log_path) as f:
            log = f.read()
        if result is not None:
            result.check("daemon exits 0 with a traceback-free log",
                         clean and "Traceback" not in log)
        if "Traceback" in log:
            print(log, file=sys.stderr)

    def span_files(self) -> List[str]:
        return [self.span_file] if self.span_file else []

    def peak_rss_mb(self) -> float:
        """The daemon's peak: the load generator's memory grows with the
        number of requests it records and is not the service's cost."""
        if self.daemon_hwm_kb is None:
            return super().peak_rss_mb()
        return self.daemon_hwm_kb / 1024.0

    def expected_layers(self) -> List[str]:
        return sorted(["serve", "runner", "workloads", "pipeline",
                       "profiling", "functional", "predictors", "asbr"])


WORKLOADS = {
    "spec_asbr": lambda seed, quick: SpecLoop(seed, quick, True),
    "spec_plain": lambda seed, quick: SpecLoop(seed, quick, False),
    "dse_sweep": DseSweep,
    "serve_mix": ServeMix,
}
