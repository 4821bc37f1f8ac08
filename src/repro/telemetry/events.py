"""Typed trace events emitted by the instrumented simulators.

One :class:`TraceEvent` describes one micro-architectural occurrence at
one clock cycle.  The event *kinds* map directly onto the paper's
mechanisms (see DESIGN.md "Telemetry"):

=============  =====================================================
kind           meaning / payload (``data`` keys)
=============  =====================================================
``fetch``      an instruction entered the IF stage.  For replacement
               (BTI/BFI) instructions ``data`` holds ``fold``
               ("asbr") and ``branch_pc``.
``decode``     ID-stage work ran (jump redirects, BDT acquire).
``issue``      EX-stage work ran; ``data["dest"]`` is the destination
               register when the instruction writes one.
``commit``     the instruction reached write-back.  Folded
               replacements carry ``fold_pc``/``fold_taken`` on both
               machines.
``branch``     a conditional branch resolved in EX: ``taken``,
               ``target`` (actual next PC), ``pred`` (the fetch-stage
               assumption), ``misp`` and ``srcs`` (condition regs).
               The out-of-order machine emits it when the branch
               commits, so it covers committed branches only.
``fold_hit``   the ASBR unit folded the branch at ``pc`` out of the
               fetch stream: ``taken``, ``instr_pc``, ``next_pc``.
``fold_miss``  a branch hit fetch with the ASBR unit present but was
               not folded; ``data["reason"]`` is one of
               :data:`~repro.asbr.folding.MISS_NO_BIT_ENTRY` /
               :data:`~repro.asbr.folding.MISS_BDT_BUSY`.
``bdt_update`` a producer value reached the early condition
               evaluation logic: ``reg``, ``value``.
``squash``     a wrong-path instruction was killed in IF or ID.
``redirect``   fetch was redirected; ``pc`` is the new target.
``retire``     functional-simulator retirement (the light hook).
``fault_inject``  a soft error was injected into BDT/BIT/predictor
               state (:mod:`repro.faults`); ``data`` holds ``site``
               and ``protection``.
``fault_detect``  parity caught a corrupted entry on read; the fold
               was suppressed (predictor fallback) or the counter
               reset.
``fault_correct`` ECC repaired a corrupted entry on read; the read
               observed the fault-free value.
``truncated``  sentinel appended by a size-bounded JSONL sink;
               ``data["dropped"]`` counts the lost events.
``btb_hit``    the decoupled front end (:mod:`repro.frontend`) found a
               target in the BTB hierarchy; ``data["level"]`` is 1
               (L1) or 2 (last level — the hit also promotes).
``btb_miss``   no BTB level held a target for a control instruction
               scanned by the branch-prediction unit.
``ftq_occupancy``  per-cycle fetch-target-queue depth sample:
               ``data["occ"]`` entries of ``data["depth"]``.
``prefetch_issue``  FDIP issued an I-cache prefetch for the block
               holding ``pc``.
``prefetch_useful``  a demand fetch hit a prefetched block (or merged
               with one still in flight — ``data["late"]`` true).
``prefetch_useless``  a prefetched block was evicted before any demand
               fetch used it.
``rename_alloc``  the out-of-order machine (:mod:`repro.sim.ooo`)
               renamed a destination: ``dest`` (architectural),
               ``new``/``old`` (physical registers).
``iq_wakeup``  a completing op broadcast its result: ``data["preg"]``
               turned ready, waking issue-queue dependants.
``checkpoint_restore``  misprediction recovery restored the map-table
               checkpoint of the branch at ``pc``; ``data["depth"]``
               counts the squashed ops.
``squash_depth``  companion sample to ``checkpoint_restore`` for
               recovery-depth histograms (``data["depth"]``).
``serve_recover``  the serve daemon rebuilt a job from its WAL at
               startup (:mod:`repro.serve`); ``data`` holds ``job``,
               ``settled`` (replayed results) and ``pending``
               (re-enqueued specs).  Lifecycle events use
               ``cycle == 0`` — they describe the *service*, not a
               simulated machine.
``serve_shed`` admission control rejected work (HTTP 429/503);
               ``data`` holds ``path`` and ``reason``
               ("saturated" or "draining").
``serve_deadline``  a request/job deadline expired pending work into
               journaled ``fail_kind="deadline"`` records; ``data``
               holds ``job`` (or ``path`` for single runs) and
               ``expired`` (spec count).
``serve_drain``  the daemon began draining (SIGTERM, ``POST
               /shutdown``); in-flight jobs keep journaling, new work
               is shed until exit.
=============  =====================================================

``seq`` is the dynamic fetch sequence number (the value of
``stats.fetched`` when the instruction entered the pipeline), linking
the lifecycle events of one in-flight instruction; events not tied to
an in-flight instruction use ``seq == -1``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.asbr.folding import FOLD_MISS_REASONS  # noqa: F401  (re-export)
from repro.asbr.folding import MISS_BDT_BUSY, MISS_NO_BIT_ENTRY  # noqa: F401

FETCH = "fetch"
DECODE = "decode"
ISSUE = "issue"
COMMIT = "commit"
BRANCH = "branch"
FOLD_HIT = "fold_hit"
FOLD_MISS = "fold_miss"
BDT_UPDATE = "bdt_update"
SQUASH = "squash"
REDIRECT = "redirect"
RETIRE = "retire"
FAULT_INJECT = "fault_inject"
FAULT_DETECT = "fault_detect"
FAULT_CORRECT = "fault_correct"
TRUNCATED = "truncated"
BTB_HIT = "btb_hit"
BTB_MISS = "btb_miss"
FTQ_OCCUPANCY = "ftq_occupancy"
PREFETCH_ISSUE = "prefetch_issue"
PREFETCH_USEFUL = "prefetch_useful"
PREFETCH_USELESS = "prefetch_useless"
RENAME_ALLOC = "rename_alloc"
IQ_WAKEUP = "iq_wakeup"
CHECKPOINT_RESTORE = "checkpoint_restore"
SQUASH_DEPTH = "squash_depth"
SERVE_RECOVER = "serve_recover"
SERVE_SHED = "serve_shed"
SERVE_DEADLINE = "serve_deadline"
SERVE_DRAIN = "serve_drain"

EVENT_KINDS = (FETCH, DECODE, ISSUE, COMMIT, BRANCH, FOLD_HIT, FOLD_MISS,
               BDT_UPDATE, SQUASH, REDIRECT, RETIRE, FAULT_INJECT,
               FAULT_DETECT, FAULT_CORRECT, TRUNCATED, BTB_HIT, BTB_MISS,
               FTQ_OCCUPANCY, PREFETCH_ISSUE, PREFETCH_USEFUL,
               PREFETCH_USELESS, RENAME_ALLOC, IQ_WAKEUP,
               CHECKPOINT_RESTORE, SQUASH_DEPTH, SERVE_RECOVER,
               SERVE_SHED, SERVE_DEADLINE, SERVE_DRAIN)

#: the service-level subset: emitted by the serve daemon onto its
#: ``lifecycle_sink``, never by a simulator
SERVE_EVENT_KINDS = (SERVE_RECOVER, SERVE_SHED, SERVE_DEADLINE,
                     SERVE_DRAIN)

#: Shared payload for events that carry none — emit sites pass it so the
#: hot tracing path never allocates an empty dict per event.
NO_DATA: Dict[str, Any] = {}


class TraceEvent:
    """One occurrence at one cycle (see the module table for kinds)."""

    __slots__ = ("cycle", "kind", "pc", "seq", "data")

    def __init__(self, cycle: int, kind: str, pc: int = 0,
                 seq: int = -1, data: Dict[str, Any] = NO_DATA) -> None:
        self.cycle = cycle
        self.kind = kind
        self.pc = pc
        self.seq = seq
        self.data = data

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Compact single-line JSON (the JSONL trace format)."""
        obj: Dict[str, Any] = {"c": self.cycle, "k": self.kind}
        if self.pc:
            obj["p"] = self.pc
        if self.seq >= 0:
            obj["s"] = self.seq
        if self.data:
            obj["d"] = self.data
        return json.dumps(obj, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        obj = json.loads(line)
        return cls(obj["c"], obj["k"], obj.get("p", 0), obj.get("s", -1),
                   obj.get("d", NO_DATA))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.cycle == other.cycle and self.kind == other.kind
                and self.pc == other.pc and self.seq == other.seq
                and self.data == other.data)

    def __hash__(self) -> int:            # pragma: no cover - rarely used
        return hash((self.cycle, self.kind, self.pc, self.seq))

    def __repr__(self) -> str:
        extra = " %r" % (self.data,) if self.data else ""
        return ("TraceEvent(c=%d %s pc=0x%x seq=%d%s)"
                % (self.cycle, self.kind, self.pc, self.seq, extra))


# ----------------------------------------------------------------------
# fetch-stage events: the one builder behind every fetch path (coupled
# in-order fetch, out-of-order fetch, and the decoupled front end's
# demand fetch on either machine).  Callers guard on ``emit``.
# ----------------------------------------------------------------------
def emit_fetch(emit, cycle: int, pc: int, seq: int) -> None:
    """The instruction at ``pc`` entered fetch."""
    emit(TraceEvent(cycle, FETCH, pc, seq))


def emit_fold_hit(emit, cycle: int, fold, branch_pc: int,
                  seq: int) -> None:
    """An ASBR fold of the branch at ``branch_pc``: ``fold_hit``, then
    the fetch of the replacement instruction."""
    emit(TraceEvent(cycle, FOLD_HIT, branch_pc, seq,
                    {"taken": fold.taken, "instr_pc": fold.instr_pc,
                     "next_pc": fold.next_pc}))
    emit(TraceEvent(cycle, FETCH, fold.instr_pc, seq,
                    {"fold": "asbr", "branch_pc": branch_pc}))


def emit_fold_miss(emit, cycle: int, branch_pc: int, asbr) -> None:
    """The ASBR unit did not fold the branch at ``branch_pc``."""
    emit(TraceEvent(cycle, FOLD_MISS, branch_pc,
                    data={"reason": asbr.miss_reason(branch_pc)}))
