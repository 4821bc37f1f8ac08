"""The decoupled front end: BPU + FTQ + FDIP glued onto the pipeline.

Mechanism (one simulated cycle, run by ``PipelineSimulator.tick`` just
before the fetch stage):

1. **prefetch retire** — FDIP fills whose memory latency has elapsed
   are installed into the I-cache through its prefetch port (no demand
   accounting);
2. **BPU** — the branch-prediction unit walks the static decode table
   up to :data:`BPU_WIDTH` instructions ahead of fetch, consulting the
   direction predictor and the :class:`~repro.frontend.btb.TwoLevelBTB`
   for targets, and pushes one :class:`~repro.frontend.ftq.FTQEntry`
   per instruction.  It stops at anything it cannot run past (indirect
   jumps, halt, off-text PCs) by marking the FTQ unresolved;
3. **FDIP issue** — up to :data:`FDIP_DEGREE` I-cache block prefetches are
   launched for newly-enqueued FTQ entries ("Fetch-Directed Instruction
   Prefetching Revisited", PAPERS.md).

The fetch stage then pops one entry per cycle (``_frontend_fetch``) —
the slack between BPU and fetch is the prefetch lead.  Because the BPU
runs *before* fetch within the cycle, a redirect (EX mispredict, ID
jump miss, or an ASBR fold disagreeing with the predicted direction)
refills the FTQ in time for the next cycle's fetch: redirect penalties
and the zero-cycle ASBR fold are preserved exactly.

Telemetry: the component emits typed events (``btb_hit``/``btb_miss``,
``ftq_occupancy``, ``prefetch_issue``/``useful``/``useless``) through
``self._emit``, which is None until the simulator is built with a
tracer and wires its ``emit`` in — the untraced path pays one None
check per site, only in frontend mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.frontend.btb import TwoLevelBTB
from repro.frontend.ftq import FTQ_ENTRY_BITS, FetchTargetQueue, FTQEntry
from repro.isa.opcodes import Kind
from repro.telemetry.events import (
    BTB_HIT,
    BTB_MISS,
    FTQ_OCCUPANCY,
    PREFETCH_ISSUE,
    PREFETCH_USEFUL,
    PREFETCH_USELESS,
    TraceEvent,
)

#: instructions the BPU predicts per cycle; > 1 lets it outrun the
#: single-issue fetch stage and build up FTQ slack for FDIP
BPU_WIDTH = 2
#: prefetches FDIP may issue per cycle
FDIP_DEGREE = 2


@dataclass(frozen=True)
class FrontendConfig:
    """Knobs of the decoupled front end (the DSE dimensions)."""

    btb_l1_entries: int = 64
    btb_l2_entries: int = 2048
    btb_l2_assoc: int = 4
    ftq_depth: int = 8
    fdip: bool = True

    def __post_init__(self) -> None:
        # delegate table-shape validation to the structures themselves
        TwoLevelBTB(self.btb_l1_entries, self.btb_l2_entries,
                    self.btb_l2_assoc)
        FetchTargetQueue(self.ftq_depth)


@dataclass
class FrontendStats:
    """Per-run counters of the decoupled front end."""

    cycles: int = 0               # cycles the front end was clocked
    btb_l1_hits: int = 0
    btb_l2_hits: int = 0
    btb_misses: int = 0
    ftq_pushes: int = 0
    ftq_squashes: int = 0         # redirect recoveries that drained it
    ftq_empty_cycles: int = 0     # fetch wanted an entry, queue was dry
    ftq_occupancy_sum: int = 0    # summed per-cycle depth (for the avg)
    jumps_steered: int = 0        # j/jal resolved by the FTQ, no bubble
    fold_resteers: int = 0        # ASBR fold disagreed with the BPU path
    prefetch_issued: int = 0
    prefetch_useful: int = 0      # demand hit a prefetched block
    prefetch_useless: int = 0     # prefetched block evicted before use
    prefetch_late: int = 0        # demand merged with an in-flight fill

    @property
    def avg_ftq_occupancy(self) -> float:
        return self.ftq_occupancy_sum / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["avg_ftq_occupancy"] = self.avg_ftq_occupancy
        return d


class _BTBTrainingPredictor:
    """Predictor proxy installed in frontend mode: ``predict`` passes
    through, ``update`` additionally trains the BTB hierarchy with
    resolved taken targets (the EX-stage handlers keep calling
    ``sim.predictor.update`` unchanged)."""

    __slots__ = ("inner", "btb")

    def __init__(self, inner, btb: TwoLevelBTB) -> None:
        self.inner = inner
        self.btb = btb

    def predict(self, pc: int):
        return self.inner.predict(pc)

    def update(self, pc: int, taken: bool, target: Optional[int]) -> None:
        self.inner.update(pc, taken, target)
        if taken and target is not None:
            self.btb.insert(pc, target)

    def __getattr__(self, name):          # state_bits, reset, repr hooks
        return getattr(self.inner, name)


class DecoupledFrontend:
    """Runtime state of the decoupled front end, bound to one simulator."""

    def __init__(self, sim, config: Optional[FrontendConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else FrontendConfig()
        cfg = self.config
        self.btb = TwoLevelBTB(cfg.btb_l1_entries, cfg.btb_l2_entries,
                               cfg.btb_l2_assoc)
        self.ftq = FetchTargetQueue(cfg.ftq_depth)
        self.stats = FrontendStats()
        self.bpu_pc = sim.fetch_pc
        self._emit = None                 # set by telemetry attach
        self._icache = sim.icache
        self._block_shift = sim.icache._block_shift
        # FDIP state: candidate blocks, fills in flight, fills landed
        self._pending: "deque[int]" = deque()
        self._last_noted = -1
        self._inflight: Dict[int, int] = {}    # block -> ready cycle
        self._prefetched: Dict[int, bool] = {} # block -> unused-so-far

    # ==================================================================
    # per-cycle work (called by tick before the fetch stage)
    # ==================================================================
    def begin_cycle(self) -> None:
        if self._inflight:
            self._fdip_retire()
        self._bpu_step()
        if self._pending:
            self._fdip_issue()
        st = self.stats
        st.cycles += 1
        st.ftq_occupancy_sum += len(self.ftq)
        if self._emit is not None:
            self._emit(TraceEvent(self.sim.stats.cycles, FTQ_OCCUPANCY,
                                  data={"occ": len(self.ftq),
                                        "depth": self.ftq.depth}))

    def _bpu_step(self) -> None:
        """Predict up to :data:`BPU_WIDTH` instructions ahead of fetch."""
        ftq = self.ftq
        if ftq.unresolved:
            return
        sim = self.sim
        dec = sim._dec
        base = sim._text_base
        end = sim._text_end
        stats = self.stats
        for _ in range(BPU_WIDTH):
            if ftq.full:
                return
            pc = self.bpu_pc
            if pc & 3 or not base <= pc < end:
                # ran off the text segment (wrong path): wait for the
                # redirect rather than fabricating fetches
                ftq.mark_unresolved()
                return
            d = dec[(pc - base) >> 2]

            nxt = d.pc4
            if d.is_branch:
                pred = sim.predictor.predict(pc)
                sim.stats.predictor_lookups += 1
                target = self._btb_lookup(pc)
                if pred.taken and target is not None:
                    nxt = target
            elif d.is_jump:              # j/jal: target only via the BTB
                target = self._btb_lookup(pc)
                if target is not None:
                    nxt = target
            ftq.push(FTQEntry(pc, nxt))
            stats.ftq_pushes += 1
            self._fdip_note(pc)
            k = d.instr.spec.kind
            if d.is_halt or k is Kind.JR or k is Kind.JALR:
                # the entry itself must still reach the pipeline; the
                # BPU just cannot predict what follows it
                ftq.mark_unresolved()
                return
            self.bpu_pc = nxt

    def _btb_lookup(self, pc: int) -> Optional[int]:
        target, level = self.btb.lookup(pc)
        stats = self.stats
        if level == 1:
            stats.btb_l1_hits += 1
        elif level == 2:
            stats.btb_l2_hits += 1
        else:
            stats.btb_misses += 1
        if self._emit is not None:
            if level:
                self._emit(TraceEvent(self.sim.stats.cycles, BTB_HIT, pc,
                                      data={"level": level}))
            else:
                self._emit(TraceEvent(self.sim.stats.cycles, BTB_MISS, pc))
        return target

    # ==================================================================
    # FDIP: fetch-directed instruction prefetch
    # ==================================================================
    def _fdip_note(self, addr: int) -> None:
        """Nominate the I-cache block of a just-enqueued fetch."""
        if not self.config.fdip:
            return
        block = addr >> self._block_shift
        if block != self._last_noted:
            self._last_noted = block
            self._pending.append(block)

    def _fdip_issue(self) -> None:
        cache = self._icache
        cycle = self.sim.stats.cycles
        penalty = cache.config.miss_penalty
        pending = self._pending
        issued = 0
        while pending and issued < FDIP_DEGREE:
            block = pending.popleft()
            addr = block << self._block_shift
            if block in self._inflight or cache.contains(addr):
                continue
            self._inflight[block] = cycle + penalty
            self.stats.prefetch_issued += 1
            issued += 1
            if self._emit is not None:
                self._emit(TraceEvent(cycle, PREFETCH_ISSUE, addr))

    def _fdip_retire(self) -> None:
        cycle = self.sim.stats.cycles
        ready = [b for b, r in self._inflight.items() if r <= cycle]
        for block in ready:
            del self._inflight[block]
            self._icache.prefetch(block << self._block_shift)
            self._prefetched[block] = True

    def demand_access(self, addr: int) -> int:
        """Fetch-stage I-cache access; returns extra stall cycles.

        Demand hits/misses keep their normal accounting.  A demand
        landing on an in-flight prefetch *merges*: the block fills now,
        the access counts as a demand hit, and only the fill's
        remaining latency is paid.
        """
        cache = self._icache
        block = addr >> self._block_shift
        inflight = self._inflight
        if block in inflight:
            ready = inflight.pop(block)
            cache.prefetch(addr)
            cache.access(addr)           # demand hit on the merged fill
            st = self.stats
            st.prefetch_useful += 1
            st.prefetch_late += 1
            if self._emit is not None:
                self._emit(TraceEvent(self.sim.stats.cycles,
                                      PREFETCH_USEFUL, addr,
                                      data={"late": True}))
            remaining = ready - self.sim.stats.cycles
            return remaining if remaining > 0 else 0
        if block in self._prefetched:
            del self._prefetched[block]
            extra = cache.access(addr)
            if extra == 0:
                self.stats.prefetch_useful += 1
                kind = PREFETCH_USEFUL
            else:                        # evicted before first use
                self.stats.prefetch_useless += 1
                kind = PREFETCH_USELESS
            if self._emit is not None:
                self._emit(TraceEvent(self.sim.stats.cycles, kind, addr))
            return extra
        return cache.access(addr)

    # ==================================================================
    # pipeline-facing control
    # ==================================================================
    def fetch_entry(self) -> Optional[FTQEntry]:
        entry = self.ftq.pop()
        if entry is None:
            self.stats.ftq_empty_cycles += 1
        return entry

    def redirect(self, new_pc: int) -> None:
        """Recovery: drain the FTQ and re-steer the BPU.

        Called for EX redirects (mispredicts, jr/jalr), unsteered ID
        jumps and disagreeing ASBR folds.  The BPU refills from
        ``new_pc`` on the very next :meth:`begin_cycle`, which runs
        before the fetch stage — redirect penalties match the coupled
        front end exactly.
        """
        self.stats.ftq_squashes += 1
        self.ftq.squash()
        self._pending.clear()
        self._last_noted = -1
        self.bpu_pc = new_pc

    def jump_resolved(self, pc: int, target: int) -> None:
        """ID found a j/jal the FTQ did not steer: train and re-steer."""
        self.btb.insert(pc, target)
        self.redirect(target)

    def fold_consumed(self, fold) -> None:
        """Align the FTQ with an ASBR fold taken at demand fetch.

        The fold swallowed the instruction at ``fold.instr_pc``.  When
        the BPU predicted the same direction, the FTQ head *is* that
        instruction — drop it and keep the (still correct, already
        prefetched) queue.  Otherwise re-steer to ``fold.next_pc``; the
        BPU refills before next cycle's fetch, so the fold still costs
        zero cycles.
        """
        head = self.ftq.head()
        if (head is not None and head.pc == fold.instr_pc
                and head.pred_next_pc == fold.next_pc):
            self.ftq.pop()
            return
        if (self.ftq.empty and not self.ftq.unresolved
                and self.bpu_pc == fold.instr_pc):
            self.bpu_pc = fold.next_pc   # BPU had not emitted it yet
            return
        self.stats.fold_resteers += 1
        self.redirect(fold.next_pc)

    @property
    def state_bits(self) -> int:
        """SRAM of the new structures: BTB hierarchy + FTQ payload."""
        return self.btb.state_bits + self.ftq.depth * FTQ_ENTRY_BITS


def attach_frontend(sim, config) -> DecoupledFrontend:
    """Build a :class:`DecoupledFrontend` onto ``sim`` (pipeline ctor).

    ``config`` may be a :class:`FrontendConfig` or ``True`` (defaults).
    Installs the BTB-training predictor proxy so EX-stage resolution
    trains the hierarchy without touching the resolve handlers.
    """
    if config is True:
        config = FrontendConfig()
    if not isinstance(config, FrontendConfig):
        raise TypeError("frontend= expects a FrontendConfig or True, "
                        "got %r" % (config,))
    fe = DecoupledFrontend(sim, config)
    sim.frontend = fe
    sim.predictor = _BTBTrainingPredictor(sim.predictor, fe.btb)
    return fe
