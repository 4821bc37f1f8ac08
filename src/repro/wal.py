"""Shared write-ahead-log helpers: fsync'd append-only JSONL files.

Two subsystems persist progress as one-JSON-object-per-line files with
identical durability semantics — the DSE journal
(:mod:`repro.dse.journal`, since PR 3) and the serve daemon's job
store (:mod:`repro.serve.jobs`).  This leaf module is the extraction
of the file-level mechanics they share, so the crash-safety argument
lives (and is tested) in exactly one place:

* **Append is durable.**  Every record is serialised, written, flushed
  and ``fsync``'d before :meth:`JsonlWal.append` returns.  A record
  the caller saw appended survives any subsequent crash of the
  process or the machine (modulo the disk honouring fsync).
* **A torn tail is dropped, never parsed.**  A writer killed
  mid-record leaves a final line without a trailing newline;
  :func:`load_jsonl` drops it (counting it) instead of guessing, so a
  replayed log contains only records that were completely written.
* **A torn tail is repaired before appending.**  Re-opening for
  append first truncates the file back to the last complete line
  (:func:`repair_tail`), so a new record can never concatenate onto a
  crashed writer's half-record and corrupt *two* records.

The unit of recovery is therefore exactly one record: a crash costs at
most the single record that was mid-write, and everything before it
replays verbatim.
"""

from __future__ import annotations

import json
import os
from typing import List, Tuple


def load_jsonl(path: str) -> Tuple[List[dict], int]:
    """Tolerantly read a JSONL file into ``(records, dropped)``.

    ``dropped`` counts lines that could not be decoded as a JSON
    object — including a torn final line with no trailing newline (a
    crashed writer) even when its bytes happen to parse, because a
    record is only *committed* once its newline is on disk.  A missing
    file is simply an empty log.
    """
    try:
        with open(path) as f:
            raw = f.read()
    except FileNotFoundError:
        return [], 0
    records: List[dict] = []
    dropped = 0
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    elif lines:
        # no trailing newline: the writer died mid-record
        dropped += 1
        lines.pop()
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            dropped += 1
            continue
        if not isinstance(rec, dict):
            dropped += 1
            continue
        records.append(rec)
    return records, dropped


def repair_tail(path: str) -> bool:
    """Truncate a half-written final record off ``path``.

    Returns True when bytes were chopped.  Idempotent; a missing file
    or a clean tail is a no-op.
    """
    try:
        with open(path, "rb+") as f:
            data = f.read()
            if data and not data.endswith(b"\n"):
                f.truncate(data.rfind(b"\n") + 1)
                return True
    except FileNotFoundError:
        pass
    return False


class JsonlWal:
    """One append-only fsync'd JSONL file.

    Use :func:`load_jsonl` (or :meth:`load`) to replay, :meth:`open`
    to begin appending (repairing any torn tail first), and
    :meth:`append` per record.  Callers own record *semantics* (kinds,
    keys, dedup); this class owns durability only.
    """

    def __init__(self, path: str, sort_keys: bool = True) -> None:
        self.path = path
        self.sort_keys = sort_keys
        self.dropped = 0              # torn/corrupt lines seen by load()
        self.appended = 0             # records written by this handle
        self._fh = None

    # -- reading -------------------------------------------------------
    def load(self) -> List[dict]:
        records, self.dropped = load_jsonl(self.path)
        return records

    # -- writing -------------------------------------------------------
    def open(self) -> "JsonlWal":
        """Open for appending; repairs a torn tail, creates parents."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        repair_tail(self.path)
        self._fh = open(self.path, "a")
        return self

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def append(self, record: dict) -> dict:
        """Durably append one record (write + flush + fsync)."""
        if self._fh is None:
            raise RuntimeError("WAL %s not open for writing" % self.path)
        self._fh.write(json.dumps(record, sort_keys=self.sort_keys)
                       + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
