"""Content-addressed on-disk cache of pipeline-run results.

Each entry is one JSON file named by the hex digest of the run's full
identity::

    sha256( program digest | input digest | config digest )

* **program digest** — the assembled text words, data segment and entry
  point.  Editing a workload's ``.s`` source changes it, so stale
  results can never be returned for modified programs.
* **input digest** — the exact input sample values (not just
  ``(n_samples, seed)``), so a change to the synthetic-input generator
  also invalidates.
* **config digest** — every :class:`~repro.runner.pool.RunSpec` field
  plus :data:`CACHE_VERSION`.  Bump the version when simulator *timing*
  semantics change; architectural changes are already covered by the
  golden-output check at record time.

Corrupted or truncated entries (killed process, disk full, concurrent
writer) are deleted on read and treated as misses — the cache is an
accelerator, never a source of errors.  Writes go through a temp file
and ``os.replace`` so readers never observe a half-written entry.

The cache can be size-capped: ``ResultCache(root, max_bytes=...)``
garbage-collects least-recently-used entries (by mtime — read hits
touch their entry) whenever a write pushes the directory over the cap.
``repro cache gc`` exposes the same collector for unattended caches; a
design-space sweep (:mod:`repro.dse`) can write thousands of entries,
so unbounded growth is no longer hypothetical.

Every entry lives under the shard directory named by the first two hex
characters of its key, ``root/<key[:2]>/<key>.json``, so the serve
daemon's pool workers, the experiment drivers, ``repro dse run`` and
several tenants can share one directory without contending on a single
inode.  Keys are uniform sha256 hex, so the 256 shards are balanced by
construction.  There is one layout, so every handle on a directory
reads every other handle's entries.  Opening a directory that holds
flat ``root/<key>.json`` entries (the layout of earlier versions)
moves each into its shard once, with ``os.replace``: atomic, content
and mtime preserved, results byte-identical before and after.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

from repro.runner.pool import SELECTION_BASELINE, RunSpec
from repro.sim.ooo import OoOStats
from repro.sim.pipeline import PipelineStats

#: Bump when a change alters cycle-accurate timing without changing
#: program bytes or inputs (e.g. a new stall rule in the pipeline), or
#: when the entry schema changes.  v2 added the optional ``metrics``
#: block (serialised telemetry tables riding alongside the stats); v3
#: added the selection-policy knobs to the config digest; v4 added the
#: in-entry payload checksum (``sha256``), verified on every read; v5
#: added the decoupled-frontend knobs (frontend/BTB/FTQ/FDIP) to the
#: config digest; v6 added the out-of-order backend knobs
#: (backend/issue_width/rob_size/iq_size/phys_regs) and the per-entry
#: stats kind (``"pipeline"`` | ``"ooo"``); v7 added the stats' cache
#: and fold counters (the energy model's inputs); v8: out-of-order
#: ``metrics`` blocks count committed branches only and split folds by
#: direction; v9: the stats lost the CRISP unconditional-fold
#: counter, and out-of-order producer distances end at the branch's
#: own issue.
CACHE_VERSION = 9

#: Entry ``kind`` → stats dataclass.
_STATS_TYPES = {"pipeline": PipelineStats, "ooo": OoOStats}


def _stats_from_entry(entry: dict):
    """Rebuild the stats dataclass recorded in ``entry``.

    Raises ``KeyError``/``TypeError`` on an unknown kind or mismatched
    field set — both are treated as corruption by the callers.
    """
    cls = _STATS_TYPES[entry["kind"]]
    return cls(**entry["stats"])


def _stats_kind(stats) -> str:
    return "ooo" if isinstance(stats, OoOStats) else "pipeline"

_digest_memo: Dict[tuple, str] = {}

_SIZE_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(text: str) -> int:
    """``"64M"``/``"2g"``/``"4096"`` → bytes (for ``--max-bytes``)."""
    s = str(text).strip().lower()
    mult = 1
    if s and s[-1] in _SIZE_SUFFIX:
        mult = _SIZE_SUFFIX[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise ValueError("unparseable size %r (want e.g. 4096, 64M, 2G)"
                         % (text,))
    if value < 0:
        raise ValueError("size must be >= 0")
    return value * mult


def shard_of(key: str) -> str:
    """Shard subdirectory of ``key``: its first two hex characters.

    This is *the* layout function: :class:`ResultCache` and the
    wire-format property tests resolve a key's on-disk home through
    it, so they can never disagree.
    """
    return key[:2]


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _payload_checksum(entry: dict) -> str:
    """sha256 of an entry's canonical JSON (without the ``sha256`` key).

    Stored inside every entry at write time and re-derived on read: a
    torn write, a flipped byte or a hand-edited file fails the compare
    and the entry is evicted as corrupt instead of ever being served.
    """
    body = {k: v for k, v in entry.items() if k != "sha256"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def program_digest(program) -> str:
    """Digest of the assembled program (text, data, entry)."""
    return _sha("program",
                str(program.text_base),
                str(program.entry),
                ",".join("%x" % w for w in program.words),
                ",".join("%x:%x" % (a, v)
                         for a, v in sorted(program.data.items())))


def input_digest(values) -> str:
    """Digest of an input sample sequence."""
    return _sha("input", ",".join(str(v) for v in values))


#: every RunSpec field but the three the program and input digests
#: stand for, read off the dataclass so none can be left out of the key
_CONFIG_FIELDS = [f.name for f in dataclasses.fields(RunSpec)
                  if f.name not in ("benchmark", "n_samples", "seed")]


def config_digest(spec: RunSpec) -> str:
    """Digest of the run configuration (spec fields + cache version).

    Every :class:`RunSpec` field enters except ``benchmark``,
    ``n_samples`` and ``seed``, whose program and input
    :func:`key_for_spec` digests, as ``str`` in field order (a float's
    ``str`` is its ``repr``).  Which loop simulated is not a field:
    each ``run()`` picks it from what is attached, and the reference
    and compiled loops are bit-identical (locked by the golden and
    differential suites).
    """
    return _sha("config", "v%d" % CACHE_VERSION, SELECTION_BASELINE,
                *[str(getattr(spec, name)) for name in _CONFIG_FIELDS])


def key_for_spec(spec: RunSpec) -> str:
    """Full cache key of a spec, resolving its workload and input.

    The (program, input) digests are memoised per benchmark and per
    ``(n_samples, seed)`` — a sweep over many predictor configs hashes
    each program and input once.
    """
    pk = ("prog", spec.benchmark)
    if pk not in _digest_memo:
        from repro.workloads import get_workload
        _digest_memo[pk] = program_digest(get_workload(spec.benchmark)
                                          .program)
    ik = ("input", spec.n_samples, spec.seed)
    if ik not in _digest_memo:
        from repro.workloads import speech_like
        _digest_memo[ik] = input_digest(speech_like(spec.n_samples,
                                                    spec.seed))
    return _sha(_digest_memo[pk], _digest_memo[ik], config_digest(spec))


@dataclasses.dataclass
class VerifyResult:
    """Outcome of one :meth:`ResultCache.verify` scan."""

    scanned: int = 0
    ok: int = 0
    stale: int = 0        # older CACHE_VERSION (valid, but unusable)
    corrupt: int = 0      # unparseable / bad checksum / bad payload
    pruned: int = 0       # stale+corrupt entries deleted (prune=True)

    def render(self) -> str:
        return ("cache verify: %d entries scanned, %d ok, %d stale, "
                "%d corrupt, %d pruned"
                % (self.scanned, self.ok, self.stale, self.corrupt,
                   self.pruned))


@dataclasses.dataclass
class GCResult:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    scanned: int = 0            # entries present before collection
    total_bytes: int = 0        # directory size before collection
    removed: int = 0
    freed_bytes: int = 0

    @property
    def remaining_bytes(self) -> int:
        return self.total_bytes - self.freed_bytes

    def render(self) -> str:
        return ("cache gc: %d entries (%d bytes) scanned, "
                "%d removed, %d bytes freed, %d bytes remain"
                % (self.scanned, self.total_bytes, self.removed,
                   self.freed_bytes, self.remaining_bytes))


class ResultCache:
    """Directory of ``<key[:2]>/<key>.json`` entries holding stats.

    With ``max_bytes`` set, every write that grows the directory past
    the cap triggers an LRU-by-mtime collection (oldest entries deleted
    until the cap is respected again).  Reads touch the entry's mtime,
    so "least recently used" means used, not written.

    Opening a handle moves any flat ``<key>.json`` entry into its
    shard (counted in ``migrated``), so no entry is left where ``get``,
    ``gc`` or ``verify`` would not look.
    """

    def __init__(self, root: str,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.root = root
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.dropped = 0      # corrupted entries deleted on read
        self.evicted = 0      # entries removed by gc over this handle
        self._approx_bytes: Optional[int] = None   # lazy running total
        self.migrated = self._migrate_flat()   # flat entries moved

    def _path(self, key: str) -> str:
        return os.path.join(self.root, shard_of(key), key + ".json")

    def _migrate_flat(self) -> int:
        """Move flat-layout ``<key>.json`` entries into their shards.

        ``os.replace`` within one filesystem: atomic per entry, bytes
        and mtime untouched, safe against a concurrent migrator (the
        loser's replace simply overwrites with identical content).
        """
        moved = 0
        try:
            names = [de.name for de in os.scandir(self.root)
                     if de.is_file() and de.name.endswith(".json")]
        except OSError:
            return 0                  # no directory yet — nothing flat
        for name in names:
            dst = self._path(name[: -len(".json")])
            try:
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                os.replace(os.path.join(self.root, name), dst)
            except OSError:
                continue              # raced with another migrator
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # size accounting and garbage collection
    # ------------------------------------------------------------------
    def _scan(self):
        """``(mtime, size, path)`` for every entry, oldest first.

        Walks every subdirectory, so entries under a shard of another
        width (written by an earlier version's daemon) still age out
        through ``gc`` and are checked by ``verify``.
        """
        entries = []

        def add(de) -> None:
            try:
                st = de.stat()
            except OSError:
                return                    # raced with another collector
            entries.append((st.st_mtime, st.st_size, de.path))

        try:
            with os.scandir(self.root) as it:
                for de in it:
                    if de.is_dir(follow_symlinks=False):
                        try:
                            with os.scandir(de.path) as sub:
                                for se in sub:
                                    if se.name.endswith(".json"):
                                        add(se)
                        except OSError:
                            continue
        except OSError:
            return []                     # no directory yet
        entries.sort()
        return entries

    def gc(self, max_bytes: Optional[int] = None) -> GCResult:
        """Delete least-recently-used entries until the cache fits
        ``max_bytes`` (defaulting to the handle's cap; no cap → the
        pass only measures).  Safe against concurrent collectors —
        already-deleted files are skipped, never errors."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = self._scan()
        result = GCResult(scanned=len(entries),
                          total_bytes=sum(e[1] for e in entries))
        if cap is not None:
            excess = result.total_bytes - cap
            for _mtime, size, path in entries:
                if excess <= 0:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                excess -= size
                result.removed += 1
                result.freed_bytes += size
        self.evicted += result.removed
        self._approx_bytes = result.remaining_bytes
        return result

    def verify(self, prune: bool = True) -> VerifyResult:
        """Scan every entry, checking parseability, version and payload
        checksum; with ``prune`` (default) bad entries are deleted.

        ``repro cache verify`` exposes this for unattended caches; a
        killed writer, a full disk or bit rot all surface here as
        ``corrupt`` instead of as mystery misses at sweep time.
        """
        result = VerifyResult()
        for _mtime, _size, path in self._scan():
            result.scanned += 1
            bad = None
            try:
                with open(path) as f:
                    entry = json.load(f)
                if entry["version"] != CACHE_VERSION:
                    bad = "stale"       # old schema; may lack a checksum
                elif entry.get("sha256") != _payload_checksum(entry):
                    raise ValueError("payload checksum mismatch")
                else:
                    _stats_from_entry(entry)
            except (ValueError, KeyError, TypeError, OSError):
                bad = "corrupt"
            if bad is None:
                result.ok += 1
                continue
            setattr(result, bad, getattr(result, bad) + 1)
            if prune:
                try:
                    os.remove(path)
                    result.pruned += 1
                except OSError:
                    pass
        return result

    def get(self, key: str, with_metrics: bool = False):
        """Stats for ``key``, or None; drops unreadable entries.

        With ``with_metrics`` the return value is a ``(stats,
        metrics_dict)`` pair, and an otherwise-valid entry recorded
        *without* metrics is reported as a miss — but kept on disk,
        since it still serves metric-less lookups.
        """
        path = self._path(key)
        try:
            with open(path) as f:
                entry = json.load(f)
            if entry["version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            if entry.get("sha256") != _payload_checksum(entry):
                raise ValueError("payload checksum mismatch")
            stats = _stats_from_entry(entry)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # corrupted/stale entry: delete and treat as a miss
            try:
                os.remove(path)
            except OSError:
                pass
            self.dropped += 1
            self.misses += 1
            return None
        if with_metrics:
            metrics = entry.get("metrics")
            if not isinstance(metrics, dict):
                self.misses += 1
                return None
            self.hits += 1
            self._touch(path)
            return stats, metrics
        self.hits += 1
        self._touch(path)
        return stats

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh an entry's mtime so LRU gc spares recent reads."""
        try:
            os.utime(path)
        except OSError:
            pass

    def put(self, key: str, stats, describe: str = "",
            metrics: Optional[dict] = None) -> None:
        """Atomically record ``stats`` (a :class:`PipelineStats` or
        :class:`~repro.sim.ooo.OoOStats`, plus optional serialised
        telemetry ``metrics``) under ``key``."""
        dst = self._path(key)
        dst_dir = os.path.dirname(dst)
        os.makedirs(dst_dir, exist_ok=True)
        entry = {
            "version": CACHE_VERSION,
            "describe": describe,          # human breadcrumb only
            "kind": _stats_kind(stats),
            "stats": dataclasses.asdict(stats),
        }
        if metrics is not None:
            entry["metrics"] = metrics
        entry["sha256"] = _payload_checksum(entry)
        fd, tmp = tempfile.mkstemp(dir=dst_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, indent=1, sort_keys=True)
            os.replace(tmp, dst)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._account_put(key)

    def _account_put(self, key: str) -> None:
        """Track directory growth; collect once it crosses the cap.

        The running total is seeded by one scan and then maintained
        incrementally, so a long sweep pays O(entries) once, not per
        write; gc re-synchronises the estimate with the filesystem.
        """
        try:
            size = os.path.getsize(self._path(key))
        except OSError:
            size = 0
        if self._approx_bytes is None:
            self._approx_bytes = sum(e[1] for e in self._scan())
        else:
            self._approx_bytes += size
        if self._approx_bytes > self.max_bytes:
            self.gc()
