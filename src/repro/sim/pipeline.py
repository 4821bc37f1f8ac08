"""Cycle-accurate 5-stage in-order pipeline simulator.

Models the paper's evaluation platform (Section 8): a single-issue,
in-order, 5-stage (IF/ID/EX/MEM/WB) embedded core with 8KB instruction
and data caches, a pluggable branch predictor, and — optionally — the
ASBR folding unit in the fetch stage.

Timing model
------------
* Full ALU forwarding (EX/MEM -> EX and write-before-read register
  file), one-cycle load-use interlock.
* Conditional branches and ``jr``/``jalr`` resolve in EX; a misprediction
  squashes the two younger instructions and redirects fetch (2-cycle
  penalty).  ``j``/``jal`` redirect in ID (1-cycle penalty).  A correct
  taken prediction redirects fetch through the BTB with no penalty.
* Cache misses stall fetch (I-cache) or the MEM stage (D-cache) for the
  miss penalty.
* An ASBR fold consumes the branch in the fetch stage: the replacement
  instruction (BTI/BFI) occupies the branch's fetch slot with its own
  architectural PC, and fetch continues past it — the folded branch
  costs zero cycles and never enters the pipeline.

BDT timing (the *threshold*, Section 5.2) is emergent: values reach the
early-condition logic at the end of EX, MEM or WB depending on the
configured forwarding path, and a fetch-stage fold can only observe them
on the following cycle.  This reproduces exactly the paper's
distance-vs-threshold feasibility rule.

Fast path
---------
Every static instruction is decoded once at simulator construction into
a :class:`_Decoded` record: the EX-stage handler is a pre-bound
function, operand register indices, ALU callables, load widths and
sign-fixups are pre-resolved, and — because each text slot's PC is fixed
— branch and jump targets are absolute constants.  ``tick()`` therefore
never re-branches on the opcode; the per-cycle work is a handful of
attribute reads and one indirect call per occupied stage.  Cycle counts
are *bit-identical* to the original re-dispatching implementation
(``tests/test_stats_golden.py`` locks them;
``tests/test_differential_random.py`` locks architectural state).

Compiled loop
-------------
``run()`` executes :func:`~repro.sim.superblocks.run_pipeline_superblocks`,
a monolithic transcription of ``tick()`` with the ASBR fold checks
compiled in, unless something observes or replaces per-cycle work; then
it runs :meth:`PipelineSimulator.run_reference`, the ``tick()`` loop
(see :meth:`PipelineSimulator.run`).  The reference loop is also what
the equivalence locks call by name.

Telemetry
---------
Passing ``trace=Tracer(...)`` sets ``self._emit`` to the tracer's
``emit`` (it is None otherwise), and every emit site in ``tick()`` and
its helpers is guarded by ``if emit is not None`` — the pattern the
out-of-order backend and the decoupled front end share.  The events
are typed and per-cycle: fetch/decode/issue/commit, branch resolution
(emitted by the EX handlers in :mod:`repro.sim.core`), fold attempts,
BDT updates, squashes and redirects.  The compiled loop has no emit
sites; a traced run takes the ``tick()`` loop (see
:meth:`PipelineSimulator.run`).

Architectural behaviour is defined by
:class:`~repro.sim.functional.FunctionalSimulator`; equality of final
register/memory state under every configuration is enforced by the
integration test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.asbr.folding import ASBRUnit
from repro.asm.program import Program
from repro.isa.alu import MASK32
from repro.isa.instruction import Instruction
from repro.memory.cache import CacheConfig
from repro.memory.main_memory import MainMemory
from repro.predictors.base import BranchPredictor
from repro.sim.core import (
    PipelineStats,
    _Decoded,
    foreign_decode,
    init_core_state,
    record_counts,
    run_ticks,
)
from repro.telemetry.events import (
    BDT_UPDATE,
    COMMIT,
    DECODE,
    ISSUE,
    NO_DATA,
    REDIRECT,
    SQUASH,
    TraceEvent,
    emit_fetch,
    emit_fold_hit,
    emit_fold_miss,
)


@dataclass
class PipelineConfig:
    """Pipeline and memory-hierarchy parameters."""

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    max_cycles: int = 2_000_000_000

    def __post_init__(self) -> None:
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")


class _Slot:
    """One in-flight instruction (the content of a pipeline latch)."""

    __slots__ = ("d", "pc", "folded", "pred_next_pc", "result",
                 "mem_addr", "store_val", "mem_wait", "mem_done",
                 "ex_done", "id_done", "acquired_reg",
                 # telemetry-only fields: the fetch paths write them
                 # only where events read them (coupled fetch when a
                 # tracer is attached, the decoupled front end always),
                 # so they are deliberately NOT initialised here
                 "seq", "fold_pc", "fold_taken")

    def __init__(self, d: _Decoded, pc: int) -> None:
        self.d = d
        self.pc = pc
        self.folded = False            # fold paths set it after
                                       # construction (kwargs are slow)
        self.pred_next_pc = 0          # what fetch assumed comes next
        self.result = 0
        self.mem_addr = 0
        self.store_val = 0
        self.mem_wait = 0
        self.mem_done = False
        self.ex_done = False
        self.id_done = False
        self.acquired_reg: Optional[int] = None

    @property
    def instr(self) -> Instruction:
        return self.d.instr


class PipelineSimulator:
    """Runs one program to completion and collects cycle statistics."""

    def __init__(self, program: Program,
                 memory: Optional[MainMemory] = None,
                 predictor: Optional[BranchPredictor] = None,
                 asbr: Optional[ASBRUnit] = None,
                 config: Optional[PipelineConfig] = None,
                 trace=None, frontend=None) -> None:
        """``trace`` attaches a :class:`repro.telemetry.Tracer`: its
        ``emit`` becomes ``self._emit`` (and the front end's), which
        the guarded emit sites of ``tick()`` and its helpers call.
        Untraced, each site costs one None check, and the compiled
        loop has none: a traced run takes the ``tick()`` loop.  Traced
        runs produce bit-identical statistics and architectural state.

        ``frontend`` attaches the decoupled front end
        (:mod:`repro.frontend`): pass a
        :class:`~repro.frontend.FrontendConfig` (or ``True`` for the
        defaults) to replace the coupled fetch stage with a BPU+FTQ
        running ahead of fetch and — when configured — FDIP I-cache
        prefetching.  Default None keeps the seed fetch path untouched
        (bit-identical stats, golden-locked); like telemetry, an
        attached frontend makes ``run`` take the ``tick()`` loop."""
        self.config = config if config is not None else PipelineConfig()
        # shared architectural state, decode table, front end and
        # tracer hook — see repro.sim.core
        init_core_state(self, program, memory, predictor, asbr,
                        self.config, frontend, trace)
        self.stats = PipelineStats()

        # pipeline latches: the slot currently occupying each stage
        self.s_if: Optional[_Slot] = None     # being fetched (I$ wait)
        self.if_wait = 0
        self.s_id: Optional[_Slot] = None
        self.s_ex: Optional[_Slot] = None
        self.s_mem: Optional[_Slot] = None
        self.s_wb: Optional[_Slot] = None
        self._suppress_fetch = False
        self._fetch_halted = False            # halt decoded on current path
        self._pending_releases = []           # (reg, value) applied at EOT

    _foreign_decode = foreign_decode

    # ==================================================================
    # public API
    # ==================================================================
    def run(self) -> PipelineStats:
        """Simulate until the program's ``halt`` commits.

        Runs the compiled loop (:mod:`repro.sim.superblocks`) unless
        something observes or replaces per-cycle work, which the
        compiled loop has no hook for: a tracer, a decoupled front end,
        a subclass or a ``tick`` wrapped on the instance (fault
        injection).  The compiled loop reads the BDT off the latches,
        so it also needs a BDT that agrees with them
        (:func:`~repro.sim.superblocks.bdt_agrees`: a reused unit, a
        hand-edited BDT or a resumed trap may not).  Other runs take
        :meth:`run_reference`.  Both loops give bit-identical
        statistics, BDT and architectural state.
        """
        from repro.sim.superblocks import bdt_agrees, run_pipeline_superblocks
        if (self.trace is None and self.frontend is None
                and type(self) is PipelineSimulator
                and "tick" not in self.__dict__ and bdt_agrees(self)):
            try:
                return run_pipeline_superblocks(self)
            finally:
                # after the compiled loop's own finally has written its
                # cache and fold counters back
                record_counts(self)
        return self.run_reference()

    #: the reference loop, :meth:`tick` until ``halt`` commits; the
    #: compiled loop is checked against it, and tests and benchmarks
    #: call it by name
    run_reference = run_ticks

    # ==================================================================
    # one clock cycle
    # ==================================================================
    def tick(self) -> None:
        """Advance one clock: stage work upstream-last, then the latch
        moves downstream-first (the end-of-cycle "advance" is inlined
        here — the latch state is already in locals)."""
        stats = self.stats
        stats.cycles += 1
        self._suppress_fetch = False
        asbr = self.asbr
        pending = self._pending_releases   # list identity is stable
        emit = self._emit

        # ---- WB: commit -------------------------------------------------
        wb = self.s_wb
        if wb is not None:
            d = wb.d
            dest = d.dest
            if dest is not None and dest != 0:
                self._reglist[dest] = wb.result & MASK32
                if wb.acquired_reg is not None and self._bdt_commit:
                    # commit-point BDT update (no forwarding configured)
                    pending.append((dest, wb.result))
            if wb.folded:
                stats.folds_committed += 1
            stats.committed += 1
            if emit is not None:
                if wb.folded:
                    emit(TraceEvent(stats.cycles, COMMIT, wb.pc, wb.seq,
                                    {"fold_pc": wb.fold_pc,
                                     "fold_taken": wb.fold_taken}))
                else:
                    emit(TraceEvent(stats.cycles, COMMIT, wb.pc, wb.seq))
            self.s_wb = None
            if d.is_halt:
                # nothing younger may have architectural effect
                self.halted = True
                return
            if d.is_ctl and asbr is not None:
                asbr.control_write(d.imm)

        # ---- MEM: first-cycle work --------------------------------------
        mem = self.s_mem
        if mem is not None and not mem.mem_done:
            self._mem_work(mem)

        # ---- EX: first-cycle work (may squash and redirect) -------------
        ex = self.s_ex
        if ex is not None and not ex.ex_done:
            ex.ex_done = True
            d = ex.d
            if emit is not None:
                emit(TraceEvent(stats.cycles, ISSUE, ex.pc, ex.seq,
                                {"dest": d.dest} if d.dest else NO_DATA))
            d.ex(self, ex, d)     # a branch emits its own BRANCH event

        # ---- ID: first-cycle work (jump redirect, BDT acquire) ----------
        # re-read: an EX redirect squashes the slot that was in ID
        did = self.s_id
        if did is not None and not did.id_done:
            did.id_done = True
            d = did.d
            if emit is not None:
                emit(TraceEvent(stats.cycles, DECODE, did.pc, did.seq))
            if asbr is not None:
                dest = d.dest
                if dest is not None and dest != 0:
                    asbr.producer_decoded(dest)
                    did.acquired_reg = dest
            if d.is_halt:
                # stop fetching down this path; an EX redirect re-enables
                self._fetch_halted = True
            elif d.is_jump:
                fe = self.frontend
                if fe is not None and did.pred_next_pc == d.jump_target:
                    # the FTQ already steered fetch through the target
                    fe.stats.jumps_steered += 1
                else:
                    # target known after decode: redirect next cycle
                    self._squash(self.s_if)
                    self.s_if = None
                    self.if_wait = 0
                    self.fetch_pc = d.jump_target
                    self._suppress_fetch = True
                    stats.jump_bubbles += 1
                    if fe is not None:
                        fe.jump_resolved(did.pc, d.jump_target)
                    if emit is not None:
                        emit(TraceEvent(stats.cycles, REDIRECT,
                                        d.jump_target, data={"why": "jump"}))

        # ---- IF: start a new fetch --------------------------------------
        fe = self.frontend
        if fe is not None:
            fe.begin_cycle()
            if (self.s_if is None and not self._suppress_fetch
                    and not self._fetch_halted):
                self._frontend_fetch(fe)
        elif (self.s_if is None and not self._suppress_fetch
                and not self._fetch_halted):
            self._start_fetch()

        # ---- end of cycle: advance latches downstream-first -------------
        # MEM -> WB
        if mem is not None and mem.mem_done:
            if mem.mem_wait > 0:
                mem.mem_wait -= 1
            else:
                if (mem.acquired_reg is not None
                        and (self._rel_mem
                             or (self._rel_ex and mem.d.is_load))):
                    pending.append((mem.acquired_reg, mem.result))
                    mem.acquired_reg = None
                self.s_wb = mem
                self.s_mem = None

        # EX -> MEM
        if ex is not None and ex.ex_done and self.s_mem is None:
            if (self._rel_ex and ex.acquired_reg is not None
                    and not ex.d.is_load):
                pending.append((ex.acquired_reg, ex.result))
                ex.acquired_reg = None
            self.s_mem = ex
            self.s_ex = None

        # ID -> EX (load-use interlock against the instruction that was
        # in EX this cycle — ex, whether or not it just advanced; note
        # did is still current: nothing below EX work touches s_id)
        if did is not None and did.id_done and self.s_ex is None:
            if ex is not None and ex.d.is_load:
                ex_dest = ex.d.dest
                if (ex_dest is not None and ex_dest != 0
                        and ex_dest in did.d.srcs):
                    stats.load_use_stalls += 1
                else:
                    self.s_ex = did
                    self.s_id = None
            else:
                self.s_ex = did
                self.s_id = None

        # IF -> ID
        fslot = self.s_if
        if fslot is not None:
            if self.if_wait > 0:
                self.if_wait -= 1
            elif self.s_id is None:
                self.s_id = fslot
                self.s_if = None

        # ---- apply deferred BDT releases (visible from next cycle) ------
        if pending:
            for reg, value in pending:
                asbr.producer_value(reg, value)
                if emit is not None:
                    emit(TraceEvent(stats.cycles, BDT_UPDATE,
                                    data={"reg": reg, "value": value}))
            pending.clear()

    # ==================================================================
    # stage work
    # ==================================================================
    def _mem_work(self, slot: _Slot) -> None:
        d = slot.d
        slot.mem_done = True
        if d.is_load:
            slot.result = d.load_fix(self._mem_read(slot.mem_addr, d.size))
            extra = self._dcache_access(slot.mem_addr, False)
            slot.mem_wait = extra
            self.stats.dcache_miss_stalls += extra
        elif d.is_store:
            self._mem_write(slot.mem_addr, slot.store_val, d.size)
            extra = self._dcache_access(slot.mem_addr, True)
            slot.mem_wait = extra
            self.stats.dcache_miss_stalls += extra

    def _operand(self, reg: int) -> int:
        """EX-stage operand read with EX/MEM forwarding.

        Loads in the MEM stage have already performed their access (MEM
        work runs earlier in the same cycle), so their result is
        forwardable too; the load-use interlock guarantees a dependent
        instruction is never in EX during the load's first MEM cycle, so
        this never shortens the architectural load-use latency.
        """
        if reg == 0:
            return 0
        fwd = self.s_mem
        if fwd is not None and fwd.d.dest == reg:
            return fwd.result
        return self._reglist[reg]

    def _redirect(self, new_pc: int) -> None:
        """EX-stage control redirect: squash the two younger stages."""
        self._squash(self.s_id)
        self.s_id = None
        self._squash(self.s_if)
        self.s_if = None
        self.if_wait = 0
        self.fetch_pc = new_pc
        self._suppress_fetch = True
        self._fetch_halted = False   # any halt seen downstream was wrong-path
        if self.frontend is not None:
            self.frontend.redirect(new_pc)
        if self._emit is not None:
            self._emit(TraceEvent(self.stats.cycles, REDIRECT, new_pc,
                                  data={"why": "ex"}))

    def _squash(self, slot: Optional[_Slot]) -> None:
        """Drop a wrong-path slot.  It holds no BDT claim: a slot
        acquires in its ID work, and both squashes (an ID-stage jump
        squashing IF, an EX redirect squashing ID and IF) run before
        that cycle's ID work."""
        if slot is None:
            return
        self.stats.squashed += 1
        if self._emit is not None:
            self._emit(TraceEvent(self.stats.cycles, SQUASH, slot.pc,
                                  slot.seq))

    # ==================================================================
    # fetch
    # ==================================================================
    def _start_fetch(self) -> None:
        pc = self.fetch_pc
        if pc & 3 or not self._text_base <= pc < self._text_end:
            return  # ran off the text segment (wrong path) — fetch nothing
        d = self._dec[(pc - self._text_base) >> 2]
        stats = self.stats
        emit = self._emit
        extra = self._icache_access(pc)
        self.if_wait = extra
        if extra:
            stats.icache_miss_stalls += extra

        if d.is_branch:
            if self.asbr is not None:
                fold = self.asbr.try_fold(pc)
                if fold is not None:
                    fd = self._foreign_decode(fold.instr, fold.instr_pc)
                    slot = _Slot(fd, fold.instr_pc)
                    slot.folded = True
                    self.s_if = slot
                    stats.fetched += 1
                    if emit is not None:
                        slot.fold_pc = pc
                        slot.fold_taken = fold.taken
                        slot.seq = stats.fetched - 1
                        emit_fold_hit(emit, stats.cycles, fold, pc,
                                      slot.seq)
                    self.fetch_pc = fold.next_pc
                    return
                if emit is not None:
                    emit_fold_miss(emit, stats.cycles, pc, self.asbr)
            pred = self.predictor.predict(pc)
            stats.predictor_lookups += 1
            slot = _Slot(d, pc)
            if pred.taken and pred.target is not None:
                slot.pred_next_pc = pred.target
            else:
                slot.pred_next_pc = d.pc4
            self.s_if = slot
            stats.fetched += 1
            if emit is not None:
                slot.seq = stats.fetched - 1
                emit_fetch(emit, stats.cycles, pc, slot.seq)
            self.fetch_pc = slot.pred_next_pc
            return

        slot = _Slot(d, pc)
        self.s_if = slot
        stats.fetched += 1
        if emit is not None:
            slot.seq = stats.fetched - 1
            emit_fetch(emit, stats.cycles, pc, slot.seq)
        self.fetch_pc = d.pc4

    def _frontend_fetch(self, fe) -> None:
        """Fetch-stage work in frontend mode: pop one FTQ entry.

        The BPU already did direction prediction and BTB target lookup
        at push time; here the entry is turned into a pipeline slot.
        ASBR folding still happens *now* — the BDT is a timed structure,
        so the fold decision cannot be taken ahead of fetch — and the
        FTQ is realigned (or re-steered) around the consumed
        instruction via ``fe.fold_consumed``.  An empty queue is a
        fetch bubble (counted in ``fe.stats.ftq_empty_cycles``).

        Entry PCs are in-text by construction: the BPU refuses to run
        past the text segment (it marks the FTQ unresolved instead).
        """
        entry = fe.fetch_entry()
        if entry is None:
            return
        stats = self.stats
        emit = self._emit
        extra = fe.demand_access(entry.pc)
        self.if_wait = extra
        if extra:
            stats.icache_miss_stalls += extra
        d = self._dec[(entry.pc - self._text_base) >> 2]

        if d.is_branch and self.asbr is not None:
            fold = self.asbr.try_fold(entry.pc)
            if fold is not None:
                fd = self._foreign_decode(fold.instr, fold.instr_pc)
                slot = _Slot(fd, fold.instr_pc)
                slot.folded = True
                slot.fold_pc = entry.pc
                slot.fold_taken = fold.taken
                self.s_if = slot
                stats.fetched += 1
                slot.seq = stats.fetched - 1
                if emit is not None:
                    emit_fold_hit(emit, stats.cycles, fold, entry.pc,
                                  slot.seq)
                self.fetch_pc = fold.next_pc
                fe.fold_consumed(fold)
                return
            if emit is not None:
                emit_fold_miss(emit, stats.cycles, entry.pc, self.asbr)

        slot = _Slot(d, entry.pc)
        slot.pred_next_pc = entry.pred_next_pc
        self.s_if = slot
        stats.fetched += 1
        slot.seq = stats.fetched - 1
        if emit is not None:
            emit_fetch(emit, stats.cycles, entry.pc, slot.seq)
        self.fetch_pc = entry.pred_next_pc

