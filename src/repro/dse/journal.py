"""Append-only JSONL journal of evaluated design points.

One line per record.  The first line is a ``meta`` record pinning the
exploration's identity — space digest, benchmark, input ``(n_samples,
seed)`` — and every further line is an ``eval`` record: the design
point, the input size it was evaluated at (successive halving runs
points at several sizes), and its extracted objectives.

Crash safety is the whole point: every record is written, flushed and
fsynced before the evaluation is considered done, and a truncated final
line (killed process, full disk) is silently dropped on load.  A
resumed exploration therefore re-evaluates at most the one point whose
record was cut off — everything journaled is skipped without touching
the simulator, even across processes.  The runner's content-addressed
cache (:mod:`repro.runner.cache`) sits underneath for the raw run
results; the journal adds the *derived* objectives and the search
position, which the cache alone cannot restore.

The file-level mechanics (fsync'd append, torn-tail drop on load,
tail repair before append) live in the shared :mod:`repro.wal`
helpers, which the serve daemon's durable job store reuses — one
crash-safety argument, tested once, shared by both subsystems.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.dse.objectives import ObjectiveVector
from repro.dse.space import DesignPoint
from repro.wal import JsonlWal, load_jsonl

#: Recorded in every journal's meta line and compared on reopen like
#: any other meta key.  Bump it when the recorded objectives change
#: meaning, so a resume or an experiment's re-render cannot replay
#: values computed by an older model.  v2: energy read exactly off the
#: stats record.  v3: out-of-order fold coverage counts committed
#: branches only, read off the stats like the in-order one.
JOURNAL_VERSION = 3


class JournalMismatch(Exception):
    """The on-disk journal was produced by a different exploration."""


def eval_key(point: DesignPoint, benchmark: str, n_samples: int,
             seed: int) -> str:
    """Identity of one evaluation (point × workload × input)."""
    return "%s @%s n=%d s=%d" % (point.key(), benchmark, n_samples, seed)


class Journal:
    """Append-only journal with resume-by-key lookups."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.meta: Optional[dict] = None
        self.records: Dict[str, dict] = {}   # eval_key -> eval record
        self.failures: Dict[str, dict] = {}  # eval_key -> failed record
        self.dropped = 0                     # corrupt/truncated lines
        self._wal: Optional[JsonlWal] = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self) -> "Journal":
        """Read whatever is on disk; tolerate a truncated tail."""
        self.meta = None
        self.records = {}
        self.failures = {}
        records, self.dropped = load_jsonl(self.path)
        for rec in records:
            kind = rec.get("kind")
            if kind is None:
                self.dropped += 1
                continue
            if kind == "meta" and self.meta is None:
                self.meta = rec
            elif kind == "eval":
                self.records[rec["key"]] = rec
                # a successful re-evaluation supersedes an old failure
                self.failures.pop(rec["key"], None)
            elif kind == "failed":
                self.failures[rec["key"]] = rec
            else:
                self.dropped += 1
        return self

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def open(self, meta: dict) -> "Journal":
        """Load any existing journal, verify it matches ``meta``, and
        open for appending (writing the meta line if new).

        ``meta`` should carry the exploration identity (``space``
        digest, ``benchmark``, ``n_samples``, ``seed``); a mismatch on
        any shared key, or on :data:`JOURNAL_VERSION`, raises
        :class:`JournalMismatch` rather than silently mixing two
        explorations (or two objective models) in one frontier.
        """
        self.load()
        if self.meta is not None:
            for k, v in dict(meta, version=JOURNAL_VERSION).items():
                old = self.meta.get(k)
                if old != v:
                    raise JournalMismatch(
                        "journal %s was recorded with %s=%r, "
                        "this run wants %r — use a fresh journal"
                        % (self.path, k, old, v))
        self._wal = JsonlWal(self.path).open()
        if self.meta is None:
            self.meta = dict(meta, kind="meta", version=JOURNAL_VERSION)
            self._write(self.meta)
        return self

    def _write(self, record: dict) -> None:
        if self._wal is None:
            raise RuntimeError("journal not open for writing")
        self._wal.append(record)

    def record_eval(self, point: DesignPoint, benchmark: str,
                    n_samples: int, seed: int,
                    objectives: ObjectiveVector) -> dict:
        """Durably record one completed evaluation."""
        key = eval_key(point, benchmark, n_samples, seed)
        rec = {
            "kind": "eval",
            "key": key,
            "point": point.to_dict(),
            "benchmark": benchmark,
            "n_samples": n_samples,
            "seed": seed,
            "objectives": objectives.to_dict(),
        }
        self._write(rec)
        self.records[key] = rec
        self.failures.pop(key, None)
        return rec

    def record_failed(self, point: DesignPoint, benchmark: str,
                      n_samples: int, seed: int, error: str,
                      kind: str = "error") -> dict:
        """Durably record that a point could not be evaluated.

        The point stays *pending* — ``has()`` ignores failures, so a
        resumed exploration retries it — but the failure itself is
        never lost: reports can show which points were quarantined and
        why, even after the process that hit them is gone.
        """
        key = eval_key(point, benchmark, n_samples, seed)
        rec = {
            "kind": "failed",
            "key": key,
            "point": point.to_dict(),
            "benchmark": benchmark,
            "n_samples": n_samples,
            "seed": seed,
            "error": error,
            "failure_kind": kind,
        }
        self._write(rec)
        self.failures[key] = rec
        return rec

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        return key in self.records

    def get(self, key: str) -> Optional[dict]:
        return self.records.get(key)

    def evals(self, n_samples: Optional[int] = None) -> Iterator[dict]:
        """Recorded evaluations, optionally only those at one input
        size (the frontier is computed over full-size runs only)."""
        for rec in self.records.values():
            if n_samples is None or rec["n_samples"] == n_samples:
                yield rec

    def __len__(self) -> int:
        return len(self.records)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
