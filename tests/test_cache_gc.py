"""Size-capped result cache: parse_size, LRU gc, read-touch, auto-gc."""

import glob
import os

import pytest

from repro.runner import GCResult, ResultCache, parse_size
from repro.sim.pipeline import PipelineStats


def stats(cycles=100):
    return PipelineStats(cycles=cycles, committed=80, fetched=90)


def fill(cache, keys, metrics=False):
    for i, key in enumerate(keys):
        cache.put(key, stats(100 + i),
                  metrics={"counters": {}} if metrics else None)


def set_ages(cache, keys, start=1_000_000):
    """Give entries strictly increasing mtimes, keys[0] oldest."""
    for i, key in enumerate(keys):
        os.utime(cache._path(key), (start + i, start + i))


def entry_names(cache):
    return {os.path.basename(p)[:-len(".json")] for p in
            glob.glob(os.path.join(cache.root, "*", "*.json"))}


class TestParseSize:
    @pytest.mark.parametrize("text,expect", [
        ("4096", 4096), ("0", 0),
        ("64k", 64 << 10), ("64K", 64 << 10),
        ("2m", 2 << 20), ("3G", 3 << 30),
        (" 10k ", 10 << 10),
    ])
    def test_accepts(self, text, expect):
        assert parse_size(text) == expect

    @pytest.mark.parametrize("text", ["", "k", "12q", "1.5M", "-1"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


class TestGC:
    def test_uncapped_gc_only_measures(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, ["a", "b", "c"])
        result = cache.gc()
        assert isinstance(result, GCResult)
        assert result.scanned == 3 and result.removed == 0
        assert result.total_bytes > 0
        assert result.remaining_bytes == result.total_bytes
        assert entry_names(cache) == {"a", "b", "c"}

    def test_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = ["a", "b", "c", "d"]
        fill(cache, keys)
        set_ages(cache, keys)
        size = os.path.getsize(cache._path("a"))
        # cap leaves room for two entries: the two oldest must go
        result = cache.gc(max_bytes=2 * size)
        assert result.removed == 2 and result.freed_bytes == 2 * size
        assert entry_names(cache) == {"c", "d"}
        assert cache.evicted == 2

    def test_read_hit_touches_and_protects(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = ["a", "b", "c", "d"]
        fill(cache, keys)
        set_ages(cache, keys)
        assert cache.get("a") is not None    # refreshes a's mtime
        size = os.path.getsize(cache._path("a"))
        cache.gc(max_bytes=2 * size)
        # b and c were the least recently *used*; a survived its age
        assert entry_names(cache) == {"a", "d"}

    def test_zero_cap_empties_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, ["a", "b"])
        result = cache.gc(max_bytes=0)
        assert result.removed == 2 and entry_names(cache) == set()
        assert result.remaining_bytes == 0

    def test_missing_directory_is_fine(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        result = cache.gc(max_bytes=10)
        assert result.scanned == 0 and result.removed == 0

    def test_render_mentions_counts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, ["a"])
        text = cache.gc().render()
        assert "1 entries" in text and "0 removed" in text


class TestAutoGC:
    def test_put_over_cap_collects(self, tmp_path):
        probe = ResultCache(str(tmp_path))
        probe.put("probe", stats())
        size = os.path.getsize(probe._path("probe"))
        os.remove(probe._path("probe"))

        cache = ResultCache(str(tmp_path), max_bytes=3 * size)
        keys = ["a", "b", "c", "d", "e"]
        for i, key in enumerate(keys):
            cache.put(key, stats(100 + i))
            set_ages(cache, [k for k in keys if k <= key
                             and k in entry_names(cache)])
        assert cache.evicted >= 2
        survivors = entry_names(cache)
        assert len(survivors) <= 3
        assert "e" in survivors and "a" not in survivors

    def test_uncapped_put_never_collects(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fill(cache, ["k%d" % i for i in range(6)])
        assert cache.evicted == 0 and len(entry_names(cache)) == 6

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_bytes=-1)

    def test_capped_cache_still_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=1 << 20)
        cache.put("k", stats(123), metrics={"counters": {"x": 1}})
        got = cache.get("k", with_metrics=True)
        assert got is not None
        st, metrics = got
        assert st.cycles == 123 and metrics == {"counters": {"x": 1}}
