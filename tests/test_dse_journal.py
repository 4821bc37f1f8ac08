"""Journal durability and resume semantics (repro.dse.journal)."""

import json
import os

import pytest

from repro.dse.journal import Journal, JournalMismatch, eval_key
from repro.dse.objectives import ObjectiveVector
from repro.dse.space import DesignPoint

META = {"space": "abc123", "benchmark": "adpcm_enc",
        "n_samples": 64, "seed": 11}


def vec(cycles=1000, speedup=1.0):
    return ObjectiveVector(cycles=cycles, cpi=1.2, speedup=speedup,
                           fold_coverage=0.4, table_bits=2416,
                           energy=1234.5)


def record_two(path):
    with Journal(path).open(META) as j:
        j.record_eval(DesignPoint(), "adpcm_enc", 64, 11, vec())
        j.record_eval(DesignPoint(bdt_update="mem"), "adpcm_enc", 64,
                      11, vec(1100, 0.9))
    return path


class TestRoundtrip:
    def test_records_survive_reload(self, tmp_path):
        path = record_two(str(tmp_path / "j.jsonl"))
        j = Journal(path).load()
        assert len(j) == 2 and j.dropped == 0
        key = eval_key(DesignPoint(), "adpcm_enc", 64, 11)
        rec = j.get(key)
        assert rec["objectives"]["cycles"] == 1000
        assert DesignPoint.from_dict(rec["point"]) == DesignPoint()
        assert ObjectiveVector.from_dict(rec["objectives"]) == vec()

    def test_meta_written_once(self, tmp_path):
        path = record_two(str(tmp_path / "j.jsonl"))
        with Journal(path).open(META) as j:
            j.record_eval(DesignPoint(bit_capacity=8), "adpcm_enc", 64,
                          11, vec())
        lines = [json.loads(l) for l in open(path)]
        assert sum(r["kind"] == "meta" for r in lines) == 1
        assert len(lines) == 4

    def test_missing_file_loads_empty(self, tmp_path):
        j = Journal(str(tmp_path / "absent.jsonl")).load()
        assert len(j) == 0 and j.meta is None

    def test_evals_filter_by_n_samples(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path).open(META) as j:
            j.record_eval(DesignPoint(), "adpcm_enc", 64, 11, vec())
            j.record_eval(DesignPoint(), "adpcm_enc", 16, 11, vec())
        j = Journal(path).load()
        assert len(list(j.evals())) == 2
        assert [r["n_samples"] for r in j.evals(64)] == [64]


class TestCrashSafety:
    def test_truncated_tail_dropped(self, tmp_path):
        """A record cut off mid-write (killed process) must not poison
        the journal — it is dropped and only that point re-evaluates."""
        path = record_two(str(tmp_path / "j.jsonl"))
        with open(path) as f:
            whole = f.read()
        with open(path, "w") as f:
            f.write(whole[:-20])          # cut into the last record
        j = Journal(path).load()
        assert len(j) == 1 and j.dropped == 1
        assert j.has(eval_key(DesignPoint(), "adpcm_enc", 64, 11))
        assert not j.has(eval_key(DesignPoint(bdt_update="mem"),
                                  "adpcm_enc", 64, 11))

    def test_garbage_line_dropped(self, tmp_path):
        path = record_two(str(tmp_path / "j.jsonl"))
        with open(path, "a") as f:
            f.write("not json at all\n")
        j = Journal(path).load()
        assert len(j) == 2 and j.dropped == 1

    def test_reopen_after_truncation_appends(self, tmp_path):
        path = record_two(str(tmp_path / "j.jsonl"))
        with open(path) as f:
            whole = f.read()
        with open(path, "w") as f:
            f.write(whole[:-20])
        with Journal(path).open(META) as j:
            j.record_eval(DesignPoint(bdt_update="mem"), "adpcm_enc",
                          64, 11, vec(1100, 0.9))
        assert len(Journal(path).load()) == 2


class TestMismatch:
    @pytest.mark.parametrize("key,value", [
        ("space", "different"), ("benchmark", "adpcm_dec"),
        ("n_samples", 128), ("seed", 12),
    ])
    def test_identity_mismatch_raises(self, tmp_path, key, value):
        path = record_two(str(tmp_path / "j.jsonl"))
        bad = dict(META, **{key: value})
        with pytest.raises(JournalMismatch):
            Journal(path).open(bad)

    def test_older_version_raises(self, tmp_path):
        """A journal recorded under version 1 (energies from the old
        approximate model) must not be replayed."""
        path = str(tmp_path / "j.jsonl")
        meta = dict(META, kind="meta", version=1)
        with open(path, "w") as f:
            f.write(json.dumps(meta, sort_keys=True) + "\n")
        with pytest.raises(JournalMismatch, match="version=1"):
            Journal(path).open(META)

    def test_matching_meta_reopens(self, tmp_path):
        path = record_two(str(tmp_path / "j.jsonl"))
        j = Journal(path).open(META)
        assert len(j) == 2
        j.close()

    def test_write_requires_open(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl")).load()
        with pytest.raises(RuntimeError):
            j.record_eval(DesignPoint(), "adpcm_enc", 64, 11, vec())


def test_eval_key_identity():
    p = DesignPoint()
    k = eval_key(p, "adpcm_enc", 64, 11)
    assert k == eval_key(DesignPoint(), "adpcm_enc", 64, 11)
    assert k != eval_key(p, "adpcm_dec", 64, 11)
    assert k != eval_key(p, "adpcm_enc", 128, 11)
    assert k != eval_key(p, "adpcm_enc", 64, 12)
    assert k != eval_key(DesignPoint(bit_capacity=8), "adpcm_enc", 64,
                         11)


class TestFailedRecords:
    def key(self):
        return eval_key(DesignPoint(), "adpcm_enc", 64, 11)

    def test_failed_point_stays_pending_but_is_never_lost(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path).open(META) as j:
            j.record_failed(DesignPoint(), "adpcm_enc", 64, 11,
                            "worker hung", kind="timeout")
        j = Journal(path).load()
        assert not j.has(self.key())        # resume will retry it
        rec = j.failures[self.key()]
        assert rec["error"] == "worker hung"
        assert rec["failure_kind"] == "timeout"
        assert DesignPoint.from_dict(rec["point"]) == DesignPoint()

    def test_eval_supersedes_failure(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path).open(META) as j:
            j.record_failed(DesignPoint(), "adpcm_enc", 64, 11, "boom")
            assert self.key() in j.failures
            j.record_eval(DesignPoint(), "adpcm_enc", 64, 11, vec())
            assert self.key() not in j.failures
        # the same resolution holds on a cold reload of both lines
        j = Journal(path).load()
        assert j.has(self.key())
        assert self.key() not in j.failures

    def test_failure_after_eval_keeps_the_eval(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path).open(META) as j:
            j.record_eval(DesignPoint(), "adpcm_enc", 64, 11, vec())
            j.record_failed(DesignPoint(), "adpcm_enc", 64, 11, "flaky")
        j = Journal(path).load()
        assert j.has(self.key())            # the result is not erased
        assert self.key() in j.failures     # but the incident is visible
