"""Metrics registry: counters plus per-branch-PC tables.

The registry is itself an event *sink* — attach it to a
:class:`~repro.telemetry.tracer.Tracer` and it folds the event stream
into aggregates as the simulation runs:

* event-kind counters (``fetch``, ``commit``, ``squash``, ...);
* one :class:`BranchPCStats` row per static branch PC: executions,
  taken count, mispredicts, commit-level fold hits split by direction,
  fetch-level fold attempts, fold misses split by reason, and a
  producer-distance histogram (issued instructions between the
  condition-defining instruction's issue and the branch's own issue —
  the quantity the paper's threshold rule is about, Section 5.2).

Registries serialise to plain JSON-able dicts (:meth:`MetricsRegistry.
to_dict` / :meth:`from_dict`) so they can ride alongside cached run
results, and :meth:`merge` sums them across the runs of a sweep.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.asbr.folding import MISS_BDT_BUSY, MISS_NO_BIT_ENTRY
from repro.telemetry import events as ev

#: Producer distances at or above this land in one terminal bucket.
DISTANCE_CAP = 32

_BRANCH_FIELDS = ("executions", "taken", "mispredicts", "fold_taken",
                  "fold_not_taken", "fold_fetched", "miss_no_bit",
                  "miss_bdt_busy")


class BranchPCStats:
    """Aggregates for one static branch PC."""

    __slots__ = _BRANCH_FIELDS + ("distances",)

    def __init__(self) -> None:
        self.executions = 0       # resolved in EX (unfolded, right-path)
        self.taken = 0
        self.mispredicts = 0
        self.fold_taken = 0       # committed folds, by direction
        self.fold_not_taken = 0
        self.fold_fetched = 0     # fetch-level folds (incl. wrong-path)
        self.miss_no_bit = 0
        self.miss_bdt_busy = 0
        self.distances: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def fold_hits(self) -> int:
        """Committed folds (== the branch's share of folds_committed)."""
        return self.fold_taken + self.fold_not_taken

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def accuracy(self) -> float:
        if not self.executions:
            return 0.0
        return 1.0 - self.mispredicts / self.executions

    def typical_distance(self) -> Optional[int]:
        """Most frequently observed producer distance, if any."""
        if not self.distances:
            return None
        return max(self.distances.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    # ------------------------------------------------------------------
    def observe_distance(self, dist: int) -> None:
        dist = min(dist, DISTANCE_CAP)
        self.distances[dist] = self.distances.get(dist, 0) + 1

    def merge(self, other: "BranchPCStats") -> None:
        for f in _BRANCH_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        for d, n in other.distances.items():
            self.distances[d] = self.distances.get(d, 0) + n

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in _BRANCH_FIELDS}
        if self.distances:
            d["dist"] = {str(k): v for k, v in sorted(self.distances.items())}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BranchPCStats":
        s = cls()
        for f in _BRANCH_FIELDS:
            setattr(s, f, int(d.get(f, 0)))
        s.distances = {int(k): int(v) for k, v in d.get("dist", {}).items()}
        return s


class MetricsRegistry:
    """Counters + per-branch tables, fed by emitted events."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.branches: Dict[int, BranchPCStats] = {}
        # transient (not serialised) producer-distance state, bounded by
        # the in-flight window.  Distances count issued instructions
        # from the condition's producer to the branch's own issue, which
        # on the out-of-order machine comes well before its ``branch``
        # event (emitted at commit).  Per register: its writers as
        # (issue index, seq) in issue order, from the last committed
        # one on — a squashed writer leaves, and the one before it
        # counts again — and the issue index of the latest of them.
        # Per in-flight writer seq: its register.  Per in-flight
        # dest-less op (every branch is one): its issue index and the
        # latest writer indices at that issue.
        self._writers: Dict[int, List[Tuple[int, int]]] = {}
        self._latest: Dict[int, int] = {}
        self._writer_reg: Dict[int, int] = {}
        self._at_issue: Dict[int, Tuple[int, Dict[int, int]]] = {}
        self._issue_index = 0

    # ------------------------------------------------------------------
    def _branch(self, pc: int) -> BranchPCStats:
        b = self.branches.get(pc)
        if b is None:
            b = self.branches[pc] = BranchPCStats()
        return b

    def emit(self, event) -> None:
        """Sink interface: fold one event into the aggregates."""
        kind = event.kind
        self.counters[kind] = self.counters.get(kind, 0) + 1
        if kind == ev.ISSUE:
            index = self._issue_index
            self._issue_index = index + 1
            dest = event.data.get("dest")
            if dest:
                ws = self._writers.get(dest)
                if ws is None:
                    self._writers[dest] = [(index, event.seq)]
                else:
                    ws.append((index, event.seq))
                self._writer_reg[event.seq] = dest
                self._latest[dest] = index
            else:
                self._at_issue[event.seq] = (index, self._latest.copy())
        elif kind == ev.BRANCH:
            b = self._branch(event.pc)
            b.executions += 1
            data = event.data
            if data.get("taken"):
                b.taken += 1
            if data.get("misp"):
                b.mispredicts += 1
            # absent only from a trace file that lost the branch's issue
            at_issue = self._at_issue.get(event.seq)
            if at_issue is not None:
                my_index, writers = at_issue
                dist = None
                for reg in data.get("srcs", ()):
                    w = writers.get(reg)
                    if w is not None:
                        d = my_index - w
                        if dist is None or d < dist:
                            dist = d
                if dist is not None and dist > 0:
                    b.observe_distance(dist)
        elif kind == ev.COMMIT:
            seq = event.seq
            self._at_issue.pop(seq, None)
            reg = self._writer_reg.pop(seq, None)
            if reg is not None:
                # writers issued before a committed one never count
                # again, even those still in flight
                ws = self._writers[reg]
                i = 0
                while ws[i][1] != seq:
                    i += 1
                if i:
                    for _index, older in ws[:i]:
                        self._writer_reg.pop(older, None)
                    del ws[:i]
            data = event.data
            fold_pc = data.get("fold_pc")
            if fold_pc is not None:
                b = self._branch(fold_pc)
                if data.get("fold_taken"):
                    b.fold_taken += 1
                else:
                    b.fold_not_taken += 1
        elif kind == ev.SQUASH:
            self._at_issue.pop(event.seq, None)
            reg = self._writer_reg.pop(event.seq, None)
            if reg is not None:
                ws = self._writers[reg]
                ws[:] = [w for w in ws if w[1] != event.seq]
                if ws:
                    self._latest[reg] = ws[-1][0]
                else:
                    del self._writers[reg]
                    del self._latest[reg]
        elif kind == ev.FOLD_HIT:
            self._branch(event.pc).fold_fetched += 1
        elif kind == ev.FOLD_MISS:
            b = self._branch(event.pc)
            reason = event.data.get("reason")
            if reason == MISS_NO_BIT_ENTRY:
                b.miss_no_bit += 1
            elif reason == MISS_BDT_BUSY:
                b.miss_bdt_busy += 1

    def close(self) -> None:     # sink interface; nothing buffered
        pass

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    @property
    def total_branch_executions(self) -> int:
        return sum(b.executions for b in self.branches.values())

    @property
    def total_fold_hits(self) -> int:
        return sum(b.fold_hits for b in self.branches.values())

    def sorted_branches(self) -> List[tuple]:
        """(pc, stats) pairs, busiest branch first."""
        return sorted(self.branches.items(),
                      key=lambda kv: (-(kv[1].executions
                                        + kv[1].fold_hits), kv[0]))

    # ------------------------------------------------------------------
    # serialisation / merging
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "branches": {"0x%x" % pc: b.to_dict()
                         for pc, b in sorted(self.branches.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsRegistry":
        reg = cls()
        reg.counters = {str(k): int(v)
                        for k, v in d.get("counters", {}).items()}
        reg.branches = {int(pc, 16): BranchPCStats.from_dict(b)
                        for pc, b in d.get("branches", {}).items()}
        return reg

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Add ``other``'s aggregates into this registry (returns self)."""
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        for pc, b in other.branches.items():
            self._branch(pc).merge(b)
        return self


def merge_registries(registries: Iterable[MetricsRegistry]
                     ) -> MetricsRegistry:
    """Sum many registries into a fresh one."""
    merged = MetricsRegistry()
    for reg in registries:
        merged.merge(reg)
    return merged
