"""Tests for the parallel experiment runner and its on-disk cache.

Covers the contract stated in :mod:`repro.runner`:

* cache hit / miss / invalidation by each digest component;
* corrupted or version-stale entries are dropped and recomputed;
* worker count never changes results (workers=1 vs workers=4);
* duplicate specs inside a sweep are simulated once;
* ExperimentSetup reads/writes the disk cache and bypasses it for
  non-canonical inputs.
"""

import dataclasses
import glob
import json
import os

import pytest

import repro.runner.cache
from repro.experiments.common import ExperimentSetup
from repro.runner import (
    CACHE_VERSION,
    ResultCache,
    RunSpec,
    execute_spec,
    execute_spec_metrics,
    key_for_spec,
    map_specs,
    run_sweep,
)
from repro.sim.pipeline import PipelineStats

N, SEED = 64, 11


def spec_of(predictor="not-taken", bench="adpcm_enc", asbr=False, **kw):
    return RunSpec(bench, N, SEED, predictor, with_asbr=asbr, **kw)


def as_dicts(stats_list):
    return [dataclasses.asdict(s) for s in stats_list]


def entry_files(root):
    """Every cache entry under ``root``, in its key-prefix shard."""
    return sorted(glob.glob(os.path.join(str(root), "*", "*.json")))


# ----------------------------------------------------------------------
# execute_spec
# ----------------------------------------------------------------------
def test_execute_spec_returns_verified_stats():
    stats = execute_spec(spec_of())
    assert isinstance(stats, PipelineStats)
    assert stats.cycles > stats.committed > 0


def test_execute_spec_asbr_folds():
    plain = execute_spec(spec_of("bimodal-512-512"))
    folded = execute_spec(spec_of("bimodal-512-512", asbr=True))
    assert folded.folds_committed > 0
    assert folded.cycles < plain.cycles


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_key_changes_with_each_digest_component():
    base = key_for_spec(spec_of())
    assert key_for_spec(spec_of()) == base                    # stable
    assert key_for_spec(spec_of("bimodal-2048")) != base      # config
    assert key_for_spec(spec_of(bench="adpcm_dec")) != base   # program
    assert key_for_spec(RunSpec("adpcm_enc", N, SEED + 1,
                                "not-taken")) != base         # input
    assert key_for_spec(spec_of(asbr=True)) != base
    assert key_for_spec(spec_of(asbr=True, bdt_update="commit")) \
        != key_for_spec(spec_of(asbr=True))


#: key_for_spec hex digests recorded at CACHE_VERSION 7 while the
#: config digest still listed the RunSpec fields by hand; reading them
#: off the dataclass must key every spec as before.  The lock is about
#: which fields enter the digest, so it recomputes them at version 7
LOCKED_KEYS = [
    (RunSpec("adpcm_enc", 600, 20010618, "bimodal-512-512"),
     "3860df769cebefadb56344bd792420f5f6f33e49224ed3fd6c5ed1333060e8bb"),
    (RunSpec("adpcm_enc", 600, 20010618, "bimodal-512-512",
             with_asbr=True, bdt_update="mem"),
     "51317a052c0f13f5e74613b49339265d02a9a134bf211e8e4dbebfec87d4e634"),
    (RunSpec("huffman_dec", 400, 20010618, "bimodal-512-512",
             frontend=True, fdip=True),
     "beb3bd5ea1cfa80e5fb1ddd53d07ccad5243fd836a9034d2fdbe24531efeaf35"),
    (RunSpec("huffman_dec", 400, 20010618, "bimodal-512-512",
             with_asbr=True, backend="ooo", issue_width=4),
     "1206d3364f4f8f2ad3fbacd55f0ad8fc5e8fc26617ced4a8e4080505f755173f"),
]


@pytest.mark.parametrize("spec, key", LOCKED_KEYS,
                         ids=["plain", "asbr-mem", "frontend-fdip",
                              "ooo-4wide"])
def test_cache_key_locked(spec, key, monkeypatch):
    assert CACHE_VERSION == 9
    current = key_for_spec(spec)
    monkeypatch.setattr(repro.runner.cache, "CACHE_VERSION", 7)
    assert key_for_spec(spec) == key
    assert current != key


# ----------------------------------------------------------------------
# cache hit / miss / recovery
# ----------------------------------------------------------------------
def test_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    assert cache.get(key) is None
    assert cache.misses == 1
    stats = execute_spec(spec_of())
    cache.put(key, stats)
    again = cache.get(key)
    assert cache.hits == 1
    assert dataclasses.asdict(again) == dataclasses.asdict(stats)


def test_cache_drops_corrupted_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = cache._path(key)
    with open(path, "w") as f:
        f.write("{ truncated garbage")
    assert cache.get(key) is None
    assert cache.dropped == 1
    assert not os.path.exists(path)      # recomputed entries re-land
    # and a sweep recovers transparently
    results = run_sweep([spec_of()], cache=cache)
    assert results[0].cycles > 0
    assert cache.get(key) is not None


def test_cache_drops_version_mismatch(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = cache._path(key)
    with open(path) as f:
        entry = json.load(f)
    entry["version"] = CACHE_VERSION + 1
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.get(key) is None
    assert cache.dropped == 1


def test_cache_drops_wrong_stats_fields(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    os.makedirs(os.path.dirname(cache._path(key)))
    with open(cache._path(key), "w") as f:
        json.dump({"version": CACHE_VERSION,
                   "stats": {"no_such_field": 1}}, f)
    assert cache.get(key) is None
    assert cache.dropped == 1


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
SWEEP = [
    spec_of("not-taken"),
    spec_of("bimodal-512-512"),
    spec_of("bimodal-512-512", asbr=True),
    spec_of("not-taken"),                       # duplicate of [0]
]


def test_sweep_dedupes_and_orders(tmp_path):
    cache = ResultCache(str(tmp_path))
    results = run_sweep(SWEEP, cache=cache)
    assert len(results) == len(SWEEP)
    assert results[0] is results[3]             # computed once
    assert cache.misses == 3                    # distinct specs only
    assert len(entry_files(tmp_path)) == 3


def test_sweep_warm_rerun_hits_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    cold = run_sweep(SWEEP, cache=cache)
    warm_cache = ResultCache(str(tmp_path))
    warm = run_sweep(SWEEP, cache=warm_cache)
    assert as_dicts(cold) == as_dicts(warm)
    assert warm_cache.hits == 3
    assert warm_cache.misses == 0


def test_workers_do_not_change_results():
    inline = map_specs(SWEEP[:3], workers=1)
    pooled = map_specs(SWEEP[:3], workers=4)
    assert as_dicts(inline) == as_dicts(pooled)


def test_sweep_without_cache():
    results = run_sweep(SWEEP, workers=0, cache=None)
    assert results[0] is results[3]
    assert as_dicts(results[:1]) == as_dicts([execute_spec(SWEEP[0])])


# ----------------------------------------------------------------------
# metric sweeps (telemetry riding the cache)
# ----------------------------------------------------------------------
def test_execute_spec_metrics_matches_plain():
    spec = spec_of("bimodal-512-512", asbr=True)
    plain = execute_spec(spec)
    stats, metrics = execute_spec_metrics(spec)
    assert dataclasses.asdict(stats) == dataclasses.asdict(plain)
    from repro.telemetry import MetricsRegistry
    reg = MetricsRegistry.from_dict(metrics)
    assert reg.total_branch_executions == stats.branches
    assert reg.total_fold_hits == stats.folds_committed


def test_metric_sweep_caches_and_upgrades(tmp_path):
    spec = spec_of()
    cache = ResultCache(str(tmp_path))
    # a metric-less entry serves plain lookups but misses for metrics
    run_sweep([spec], cache=cache)
    key = key_for_spec(spec)
    assert cache.get(key) is not None
    assert cache.get(key, with_metrics=True) is None
    assert os.path.exists(cache._path(key))

    # the metric sweep recomputes once, upgrading the entry in place
    (stats, metrics), = run_sweep([spec], cache=cache,
                                  collect_metrics=True)
    warm = ResultCache(str(tmp_path))
    (w_stats, w_metrics), = run_sweep([spec], cache=warm,
                                      collect_metrics=True)
    assert warm.hits == 1 and warm.misses == 0
    assert dataclasses.asdict(w_stats) == dataclasses.asdict(stats)
    assert w_metrics == metrics
    # and the upgraded entry still serves metric-less lookups
    assert warm.get(key) is not None


# ----------------------------------------------------------------------
# one front half per caller
# ----------------------------------------------------------------------
@pytest.fixture()
def profile_calls(monkeypatch):
    """Every call of the front half, ``profile_and_select``, from here on."""
    import repro.profiling

    calls = []
    real = repro.profiling.profile_and_select

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.profiling, "profile_and_select", counting)
    return calls


def test_execute_spec_profiles_once(profile_calls):
    assert execute_spec(spec_of("bimodal-512-512", asbr=True)).cycles > 0
    assert len(profile_calls) == 1


def test_workload_command_profiles_once(profile_calls, capsys):
    """``repro workload --asbr`` prints the selection it simulates."""
    from repro.cli import main

    assert main(["workload", "adpcm_enc", "--samples", str(N),
                 "--seed", str(SEED), "--asbr"]) == 0
    out = capsys.readouterr()
    assert "outputs match golden model: True" in out.out
    assert out.err.strip()
    assert len(profile_calls) == 1


def test_fault_campaign_context_profiles_once(profile_calls):
    """The campaign's reference run simulates the BIT it injects into."""
    from repro.faults.campaign import CampaignConfig, _Context

    ctx = _Context(CampaignConfig(n_samples=N, seed=SEED, bit_capacity=8,
                                  n_faults=2))
    assert ctx.infos and ctx.ref_stats.cycles > 0
    assert len(profile_calls) == 1


# ----------------------------------------------------------------------
# ExperimentSetup integration
# ----------------------------------------------------------------------
def test_setup_uses_disk_cache(tmp_path):
    first = ExperimentSetup(n_samples=N, seed=SEED,
                            cache_dir=str(tmp_path))
    s1 = first.run("adpcm_enc", "not-taken")
    assert first.result_cache().misses == 1
    assert len(entry_files(tmp_path)) == 1

    second = ExperimentSetup(n_samples=N, seed=SEED,
                             cache_dir=str(tmp_path))
    s2 = second.run("adpcm_enc", "not-taken")
    assert second.result_cache().hits == 1
    assert dataclasses.asdict(s1) == dataclasses.asdict(s2)


def test_setup_matches_runner_stats(tmp_path):
    """Inline ExperimentSetup.run == worker-path execute_spec."""
    setup = ExperimentSetup(n_samples=N, seed=SEED)
    for spec in SWEEP[:3]:
        inline = setup.run(spec.benchmark, spec.predictor_spec,
                           with_asbr=spec.with_asbr)
        assert dataclasses.asdict(inline) == \
            dataclasses.asdict(execute_spec(spec))


def test_setup_prefetch_fills_memo(tmp_path):
    setup = ExperimentSetup(n_samples=N, seed=SEED,
                            cache_dir=str(tmp_path))
    setup.prefetch([("adpcm_enc", "not-taken", False),
                    ("adpcm_enc", "bimodal-512-512", True)])
    assert len(setup._runs) == 2
    # the later .run() calls are pure memo lookups
    assert setup.run("adpcm_enc", "not-taken") \
        is setup._runs[("adpcm_enc", "not-taken", False, 16, "execute")]


def test_golden_mismatch_is_never_cached(tmp_path, monkeypatch):
    from repro.workloads.loader import Workload
    monkeypatch.setattr(Workload, "golden_output",
                        lambda self, pcm: ["wrong"])
    cache = ResultCache(str(tmp_path))
    with pytest.raises(AssertionError):
        run_sweep([spec_of()], cache=cache)
    assert os.listdir(str(tmp_path)) == []


def test_front_halves_profile_the_run_they_select_for():
    """huffman_dec's bitstream is shorter than the symbol count it
    decodes, so a profile built without the count covers only part of
    the run (at n=400, 107 of 400 symbols).  The executor's front half
    and ``ExperimentSetup.profile`` both profile the whole run."""
    from repro.profiling import BranchProfiler
    from repro.runner.pool import _selection
    from repro.workloads import get_workload, speech_like
    wl = get_workload("huffman_dec")
    pcm = speech_like(N, SEED)
    full = BranchProfiler().profile(
        wl.program, wl.build_memory(wl.input_stream(pcm), len(pcm)))
    setup = ExperimentSetup(n_samples=N, seed=SEED)
    assert setup.profile("huffman_dec").total_instructions \
        == full.total_instructions
    sel = _selection(spec_of("bimodal-512-512", "huffman_dec", asbr=True),
                     wl, pcm)
    assert sel.selected
    assert all(s.stats.count == full.branches[s.pc].count
               for s in sel.selected)


@pytest.mark.parametrize("as_json", [False, True])
def test_cli_workload_reports_golden_mismatch(monkeypatch, capsys,
                                              as_json):
    """``repro workload`` runs through the executor, which raises on a
    golden mismatch; the command still reports False and exits 1."""
    from repro.cli import main
    from repro.workloads.loader import Workload
    monkeypatch.setattr(Workload, "golden_output",
                        lambda self, pcm: ["wrong"])
    argv = ["workload", "adpcm_enc", "--samples", "40"]
    assert main(argv + (["--json"] if as_json else [])) == 1
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out)["outputs_match_golden"] is False
    else:
        assert "outputs match golden model: False" in out


# ----------------------------------------------------------------------
# payload checksums and cache verification
# ----------------------------------------------------------------------
def test_cache_entries_carry_verifiable_checksum(tmp_path):
    from repro.runner.cache import _payload_checksum
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    with open(cache._path(key)) as f:
        entry = json.load(f)
    assert entry["sha256"] == _payload_checksum(entry)
    assert cache.get(key) is not None        # and it reads back


def test_cache_drops_silently_tampered_payload(tmp_path):
    """A bit flip that keeps the JSON valid is caught by the checksum
    (the pre-checksum cache would have served it as truth)."""
    cache = ResultCache(str(tmp_path))
    key = key_for_spec(spec_of())
    cache.put(key, execute_spec(spec_of()))
    path = cache._path(key)
    with open(path) as f:
        entry = json.load(f)
    entry["stats"]["cycles"] += 1
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.get(key) is None
    assert cache.dropped == 1
    assert not os.path.exists(path)


def test_cache_verify_classifies_and_prunes(tmp_path):
    cache = ResultCache(str(tmp_path))
    good = key_for_spec(spec_of())
    cache.put(good, execute_spec(spec_of()))

    def write(name, payload):
        os.makedirs(os.path.dirname(cache._path(name)), exist_ok=True)
        with open(cache._path(name), "w") as f:
            f.write(payload)

    with open(cache._path(good)) as f:
        entry = json.load(f)
    stale = dict(entry, version=CACHE_VERSION - 1)
    write("aa" * 32, json.dumps(stale))
    tampered = dict(entry)
    tampered["stats"] = dict(entry["stats"], cycles=1)
    write("bb" * 32, json.dumps(tampered))
    write("cc" * 32, "{ not json")

    scan = ResultCache(str(tmp_path)).verify(prune=False)
    assert (scan.scanned, scan.ok) == (4, 1)
    assert (scan.stale, scan.corrupt, scan.pruned) == (1, 2, 0)
    assert "4 entries scanned" in scan.render()

    pruned = ResultCache(str(tmp_path)).verify(prune=True)
    assert pruned.pruned == 3
    assert entry_files(tmp_path) == [cache._path(good)]
    assert ResultCache(str(tmp_path)).verify().ok == 1


def test_cache_verify_empty_directory(tmp_path):
    result = ResultCache(str(tmp_path / "missing")).verify()
    assert result.scanned == 0 and result.pruned == 0
