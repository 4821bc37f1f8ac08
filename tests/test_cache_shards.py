"""One result-cache layout: every handle shards by key prefix.

Every :class:`ResultCache` handle keeps its entries under
``root/<key[:2]>/<key>.json``.  ``repro experiments``
(``ExperimentSetup``), ``repro dse run``, ``repro cache gc|verify`` and
the serve daemon all open handles on their ``--cache-dir``, whose
common default is ``REPRO_CACHE_DIR``.  These tests lock that:

* a put lands in its two-character shard, and ``shard_of`` is the one
  layout function;
* entries that the daemon, ``ExperimentSetup`` or ``repro dse run``
  record are hits for the other two, and no handle ever finds anything
  to migrate afterwards;
* flat ``root/<key>.json`` entries, the layout earlier versions wrote
  from everything but the daemon, migrate once, at a handle's first
  open, byte- and mtime-identically; every handle then reads them and
  ``gc``/``verify`` count them;
* ``gc`` and ``verify`` traverse every subdirectory, including shards
  of another width that an earlier daemon wrote.
"""

import hashlib
import json
import os
import shutil

import pytest

import repro.runner.sweep as sweep_mod
from repro.cli import main
from repro.dse import BASELINE_POINT, ConfigSpace
from repro.experiments.common import ExperimentSetup
from repro.runner import ResultCache, RunSpec, key_for_spec, run_sweep, \
    shard_of
from repro.serve import ServeConfig, Server, spec_to_wire
from repro.sim.pipeline import PipelineStats

from tests.serve_utils import ServerThread

KEYS = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(8)]


def stats(cycles=100):
    return PipelineStats(cycles=cycles, committed=80, fetched=90)


def fill(cache, keys):
    for i, key in enumerate(keys):
        cache.put(key, stats(100 + i))


def all_entry_paths(root):
    out = []
    for dirpath, _dirs, names in os.walk(root):
        out.extend(os.path.join(dirpath, n) for n in names
                   if n.endswith(".json"))
    return sorted(out)


def write_flat(root, keys):
    """Entries as earlier versions' flat handles left them: the same
    bytes ``put`` writes, at ``root/<key>.json``, with distinct
    mtimes.  Returns ``{key: (bytes, mtime_ns)}``."""
    staging = ResultCache(root + ".staging")
    fill(staging, keys)
    os.makedirs(root, exist_ok=True)
    written = {}
    for i, key in enumerate(keys):
        path = os.path.join(root, key + ".json")
        shutil.move(staging._path(key), path)
        os.utime(path, ns=(0, (1_000_000 + i) * 10 ** 9))
        written[key] = (open(path, "rb").read(),
                        os.stat(path).st_mtime_ns)
    return written


class TestShardLayout:
    def test_shard_of_is_the_key_prefix(self):
        assert shard_of("abcdef" + "0" * 58) == "ab"

    def test_put_lands_in_shard_subdirectory(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = KEYS[0]
        cache.put(key, stats())
        expect = tmp_path / shard_of(key) / (key + ".json")
        assert expect.exists()
        assert all_entry_paths(str(tmp_path)) == [str(expect)]
        assert cache.get(key).cycles == 100


# ----------------------------------------------------------------------
# one directory, three kinds of handle
# ----------------------------------------------------------------------
N, SEED, BENCH = 48, 5, "adpcm_enc"
SETUP_CONFIGS = [(BENCH, "bimodal-512-512", False),
                 (BENCH, "bimodal-512-512", True)]
SPACE = ConfigSpace(predictors=("not-taken",), asbr=(False, True),
                    bdt_updates=("mem",))


def setup_specs():
    setup = ExperimentSetup(n_samples=N, seed=SEED)
    return [setup._spec(*cfg, None, None) for cfg in SETUP_CONFIGS]


def dse_specs():
    return [p.to_spec(BENCH, N, SEED)
            for p in SPACE.points() + [BASELINE_POINT]]


@pytest.fixture
def executed(monkeypatch):
    """Every spec that ``run_sweep`` sends to the pool, whichever
    handle asked: a cache hit never gets here."""
    specs = []
    real = sweep_mod.map_specs

    def spy(todo, **kwargs):
        specs.extend(todo)
        return real(todo, **kwargs)

    monkeypatch.setattr(sweep_mod, "map_specs", spy)
    return specs


def experiments_handle(cache_dir):
    """``repro experiments``' path: prefetch, then read its handle."""
    setup = ExperimentSetup(n_samples=N, seed=SEED, workers=0,
                            cache_dir=cache_dir)
    setup.prefetch(SETUP_CONFIGS)
    return setup.result_cache()


def dse_run(tmp_path, cache_dir, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(SPACE.to_dict()))
    journal = tmp_path / "dse.jsonl"
    code = main(["dse", "run", "--space", str(space_file),
                 "--benchmark", BENCH, "--samples", str(N),
                 "--seed", str(SEED), "--workers", "0",
                 "--journal", str(journal), "--cache-dir", cache_dir])
    capsys.readouterr()
    assert code == 0


def daemon_sweep(st, specs):
    with st.client() as client:
        job = client.wait_job(
            client.sweep([spec_to_wire(s) for s in specs])["id"])
    assert job["state"] == "done", job
    return job


class TestOneDirectoryEveryHandle:
    def test_daemon_entries_hit_for_experiments_and_dse_run(
            self, tmp_path, executed, capsys):
        cache_dir = str(tmp_path / "cache")
        specs = setup_specs() + dse_specs()
        with ServerThread(ServeConfig(cache_dir=cache_dir,
                                      workers=0)) as st:
            assert daemon_sweep(st, specs)["n_cached"] == 0
        assert sorted(executed, key=repr) == sorted(specs, key=repr)
        del executed[:]

        cache = experiments_handle(cache_dir)
        assert (cache.hits, cache.misses) == (len(SETUP_CONFIGS), 0)
        dse_run(tmp_path, cache_dir, capsys)
        assert executed == []
        # nothing was written flat for a restarted daemon to move
        restarted = Server(ServeConfig(cache_dir=cache_dir))
        assert restarted.cache.migrated == 0
        assert restarted.stats()["cache"]["migrated"] == 0

    def test_experiments_and_dse_run_entries_hit_for_the_daemon(
            self, tmp_path, executed, capsys):
        cache_dir = str(tmp_path / "cache")
        assert experiments_handle(cache_dir).misses == len(SETUP_CONFIGS)
        dse_run(tmp_path, cache_dir, capsys)
        specs = setup_specs() + dse_specs()
        assert sorted(executed, key=repr) == sorted(specs, key=repr)
        del executed[:]

        with ServerThread(ServeConfig(cache_dir=cache_dir,
                                      workers=0)) as st:
            assert st.server.cache.migrated == 0
            job = daemon_sweep(st, specs)
            assert job["n_cached"] == job["n_total"] == len(specs)
        assert executed == []


# ----------------------------------------------------------------------
# flat entries from earlier versions
# ----------------------------------------------------------------------
HANDLES = {
    "result_cache": ResultCache,
    "capped": lambda root: ResultCache(root, max_bytes=1 << 30),
    "experiments": lambda root: ExperimentSetup(
        cache_dir=root).result_cache(),
    "serve": lambda root: Server(ServeConfig(cache_dir=root)).cache,
}


class TestMigration:
    def test_flat_entries_migrate_byte_identically(self, tmp_path):
        root = str(tmp_path / "cache")
        before = write_flat(root, KEYS)

        cache = ResultCache(root)
        assert cache.migrated == len(KEYS)
        # no flat entries remain; every entry sits in its shard
        assert not [n for n in os.listdir(root) if n.endswith(".json")]
        for key in KEYS:
            path = os.path.join(root, shard_of(key), key + ".json")
            assert open(path, "rb").read() == before[key][0]
            assert os.stat(path).st_mtime_ns == before[key][1]

        # reads return the same stats, through the one layout
        for i, key in enumerate(KEYS):
            assert cache.get(key).cycles == 100 + i
        assert cache.hits == len(KEYS)

    @pytest.mark.parametrize("open_handle", HANDLES.values(),
                             ids=HANDLES.keys())
    def test_every_handle_migrates_at_first_open(self, tmp_path,
                                                 open_handle):
        root = str(tmp_path / "cache")
        write_flat(root, KEYS)
        assert open_handle(root).migrated == len(KEYS)
        again = open_handle(root)
        assert again.migrated == 0
        for i, key in enumerate(KEYS):
            assert again.get(key).cycles == 100 + i
        assert (again.hits, again.misses) == (len(KEYS), 0)
        assert again.gc().scanned == len(KEYS)
        assert again.verify().ok == len(KEYS)

    def test_migration_happens_once(self, tmp_path):
        root = str(tmp_path / "cache")
        write_flat(root, KEYS)
        first = ResultCache(root)
        assert first.migrated == len(KEYS)
        again = ResultCache(root)
        assert again.migrated == 0
        assert again.get(KEYS[0]) is not None

    def test_migrated_sweep_results_identical(self, tmp_path):
        """End-to-end: a real sweep's entry moved flat, reread."""
        spec = RunSpec("adpcm_enc", 64, 11, "not-taken")
        key = key_for_spec(spec)
        (cold,) = run_sweep([spec], cache=ResultCache(str(tmp_path)))
        os.replace(os.path.join(str(tmp_path), shard_of(key),
                                key + ".json"),
                   os.path.join(str(tmp_path), key + ".json"))
        cache = ResultCache(str(tmp_path))
        assert cache.migrated == 1
        (warm,) = run_sweep([spec], cache=cache)
        assert warm == cold
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_directory_migration_is_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path / "nope"))
        assert cache.migrated == 0
        assert not (tmp_path / "nope").exists()


class TestTraversal:
    def test_gc_traverses_shards(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, KEYS)
        for i, key in enumerate(KEYS):
            os.utime(cache._path(key), (1_000_000 + i, 1_000_000 + i))
        size = os.path.getsize(cache._path(KEYS[0]))
        result = cache.gc(max_bytes=3 * size)
        assert result.scanned == len(KEYS)
        assert result.removed == len(KEYS) - 3
        survivors = {os.path.basename(p)[:-5]
                     for p in all_entry_paths(str(tmp_path))}
        assert survivors == set(KEYS[-3:])   # oldest evicted first

    def test_verify_traverses_shards_and_prunes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, KEYS[:4])
        bad = cache._path(KEYS[0])
        entry = json.load(open(bad))
        entry["stats"]["cycles"] += 1        # silent corruption
        with open(bad, "w") as f:
            json.dump(entry, f)
        result = cache.verify()
        assert result.scanned == 4
        assert result.ok == 3 and result.corrupt == 1
        assert result.pruned == 1
        assert not os.path.exists(bad)

    def test_gc_and_verify_reach_shards_of_other_widths(self, tmp_path):
        """An earlier daemon could shard by one or three characters.
        Those entries are misses now, but ``gc`` and ``verify`` still
        see them, so they age out."""
        cache = ResultCache(str(tmp_path))
        fill(cache, KEYS[:3])
        for key, width in ((KEYS[0], 1), (KEYS[1], 3)):
            dst = os.path.join(str(tmp_path), key[:width], key + ".json")
            os.makedirs(os.path.dirname(dst))
            os.replace(cache._path(key), dst)
        fresh = ResultCache(str(tmp_path))
        assert fresh.migrated == 0
        assert fresh.get(KEYS[0]) is None and fresh.get(KEYS[1]) is None
        assert fresh.verify(prune=False).ok == 3
        assert fresh.gc(max_bytes=0).removed == 3
        assert all_entry_paths(str(tmp_path)) == []

    def test_corrupt_sharded_entry_dropped_on_read(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEYS[0], stats())
        with open(cache._path(KEYS[0]), "w") as f:
            f.write("{ truncated")
        assert cache.get(KEYS[0]) is None
        assert cache.dropped == 1
        assert not os.path.exists(cache._path(KEYS[0]))
