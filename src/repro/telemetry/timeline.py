"""Konata-style ASCII pipeline timeline rendered from an event stream.

Each row is one dynamic instruction (by fetch sequence number); each
column is one clock cycle.  Stage letters::

    F  in fetch (repeated across I-cache miss stalls)
    D  in decode (repeated while interlocked, e.g. load-use)
    X  execute
    M  memory (repeated across D-cache miss stalls)
    W  write-back / commit
    x  squashed on a wrong path

Replacement (BTI/BFI) instructions injected by an ASBR fold are
annotated with the branch PC they folded out — the folded branch itself
never appears because it never enters the pipeline, which is exactly
the paper's point.

The stage spans are reconstructed from the lifecycle events alone
(fetch/decode/issue/commit/squash): an instruction is in IF from its
fetch cycle until the cycle before its decode event, in ID until the
cycle before its issue event, in EX at the issue cycle, in MEM until
the cycle before commit, and in WB at the commit cycle.  This is exact
for the 5-stage in-order pipeline because every stage latches at end of
cycle and each stage's first-cycle work fires exactly once.

The same lifecycle shape covers the out-of-order backend
(:mod:`repro.sim.ooo`): there ``decode`` is the rename cycle, ``issue``
the wakeup/select grant and the D span the instruction's wait in the
issue queue.  A row whose issue grant lands *earlier* than an older
row's is flagged ``<ooo`` — dynamic scheduling made visible against the
strictly in-order W column (commit order never inverts; the in-order
machines never trigger the flag).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.telemetry import events as ev


class _Row:
    __slots__ = ("seq", "pc", "fetch", "decode", "issue", "commit",
                 "squash", "note_bits", "fold", "branch")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.pc = 0
        self.fetch: Optional[int] = None
        self.decode: Optional[int] = None
        self.issue: Optional[int] = None
        self.commit: Optional[int] = None
        self.squash: Optional[int] = None
        self.fold: Optional[dict] = None      # fetch-event fold payload
        self.branch: Optional[dict] = None    # branch-event payload


def _collect(events: Iterable) -> Dict[int, _Row]:
    rows: Dict[int, _Row] = {}

    def row(seq: int) -> _Row:
        r = rows.get(seq)
        if r is None:
            r = rows[seq] = _Row(seq)
        return r

    for e in events:
        if e.seq < 0:
            continue
        k = e.kind
        if k == ev.FETCH:
            r = row(e.seq)
            r.fetch = e.cycle
            r.pc = e.pc
            if e.data.get("fold"):
                r.fold = e.data
        elif k == ev.DECODE:
            row(e.seq).decode = e.cycle
        elif k == ev.ISSUE:
            row(e.seq).issue = e.cycle
        elif k == ev.COMMIT:
            row(e.seq).commit = e.cycle
        elif k == ev.SQUASH:
            row(e.seq).squash = e.cycle
        elif k == ev.BRANCH:
            row(e.seq).branch = e.data
    return rows


def _stage_chars(r: _Row, c0: int, c1: int) -> str:
    """The stage letter for each cycle in [c0, c1], '.' when absent."""
    chars = []
    f, d, x, w, sq = r.fetch, r.decode, r.issue, r.commit, r.squash
    for c in range(c0, c1 + 1):
        ch = "."
        if f is None or c < f:
            chars.append(ch)
            continue
        if sq is not None and c >= sq:
            ch = "x" if c == sq else "."
        elif d is None or c < d:
            ch = "F"
        elif x is None or c < x:
            ch = "D"
        elif c == x:
            ch = "X"
        elif w is None or c < w:
            ch = "M"
        elif c == w:
            ch = "W"
        chars.append(ch)
    return "".join(chars)


def ooo_issued_seqs(rows: Iterable[_Row]) -> set:
    """Seqs whose issue grant precedes an older row's — the rows where
    the machine visibly scheduled out of program order.  Empty for any
    in-order event stream (issue cycles are monotone in seq there)."""
    out = set()
    max_issue = None
    for r in sorted(rows, key=lambda r: r.seq):
        if r.issue is None:
            continue
        if max_issue is not None and r.issue < max_issue:
            out.add(r.seq)
        if max_issue is None or r.issue > max_issue:
            max_issue = r.issue
    return out


def _note(r: _Row, ooo: bool = False) -> str:
    parts = []
    if ooo:
        parts.append("<ooo")
    if r.fold is not None:
        parts.append("folds branch 0x%x" % r.fold.get("branch_pc", 0))
    if r.branch is not None:
        parts.append("taken" if r.branch.get("taken") else "not-taken")
        if r.branch.get("misp"):
            parts.append("MISPREDICT")
    if r.squash is not None:
        parts.append("squashed")
    return " ".join(parts)


def render_pipeview(events: Iterable, limit: int = 64, skip: int = 0,
                    max_cycles: int = 200) -> str:
    """Render up to ``limit`` instructions (after skipping ``skip``)
    as an ASCII timeline; the cycle axis is clipped to ``max_cycles``
    columns starting at the first shown instruction's fetch."""
    all_rows = [r for _, r in sorted(_collect(events).items())
                if r.fetch is not None]
    # computed over the full stream so windowing never hides an
    # inversion against an older, skipped row
    ooo_seqs = ooo_issued_seqs(all_rows)
    rows = all_rows[skip:skip + limit] if limit else all_rows[skip:]
    if not rows:
        return "(no instruction events)"

    c0 = min(r.fetch for r in rows)
    ends = [c for r in rows
            for c in (r.commit, r.squash, r.issue, r.decode, r.fetch)
            if c is not None]
    c1 = min(max(ends), c0 + max_cycles - 1)

    ruler = "".join("|" if c % 10 == 0 else ("+" if c % 5 == 0 else ".")
                    for c in range(c0, c1 + 1))
    lines = ["pipeline timeline: cycles %d..%d ('|' every 10)" % (c0, c1),
             "%4s %-10s %s" % ("seq", "pc", ruler)]
    for r in rows:
        line = ("%4d 0x%08x %s  %s"
                % (r.seq, r.pc, _stage_chars(r, c0, c1),
                   _note(r, ooo=r.seq in ooo_seqs)))
        lines.append(line.rstrip())
    return "\n".join(lines)


def lifecycle_cycles(events: Iterable) -> List[tuple]:
    """(seq, fetch, decode, issue, commit, squash) per instruction —
    the raw material of the ordering-invariant tests."""
    return [(r.seq, r.fetch, r.decode, r.issue, r.commit, r.squash)
            for _, r in sorted(_collect(events).items())]
