"""R10000-style out-of-order pipeline simulator.

The third timing machine: an out-of-order backend organized after the
classic MIPS R10000 (Yeager 1996) so the paper's fetch-stage ASBR
folding can be measured on a core that already hides branch latency
behind dynamic scheduling (ROADMAP item 4).  Structures:

* **in-order front end** — up to ``issue_width`` instructions fetched
  and decoded per cycle into a small fetch buffer (the shared decode
  table of :mod:`repro.sim.core`); the decoupled BTB/FTQ/FDIP front end
  (:mod:`repro.frontend`) attaches unchanged through the same surface
  the in-order pipeline exposes;
* **register rename** — a 32-entry map table (architectural → physical)
  backed by ``phys_regs`` physical registers and a free list; r0 is
  pinned to physical 0 and never renamed;
* **map-table checkpointing** — every renamed conditional branch copies
  the map table; misprediction recovery restores the checkpoint and
  selectively squashes younger entries (their physical registers are
  reclaimed by walking the active list tail, which also undoes frees
  the checkpoint cannot know about);
* **integer issue queue** — single unified queue with broadcast wakeup
  (a completing op sets its physical register ready) and oldest-first
  select of up to ``issue_width`` ready ops per cycle;
* **active list (ROB)** — ``rob_size`` entries retiring up to
  ``issue_width`` per cycle in program order; stores write memory at
  commit, loads issue only when no older store is uncommitted (total
  store→load order, no speculative disambiguation), and exceptions are
  recorded in the entry and raised only when it reaches the head —
  precise by construction.

ASBR folding in an out-of-order machine
---------------------------------------
Folds happen at fetch exactly as on the in-order core — the BIT/BDT
semantics are untouched — and the replacement instruction retires as a
zero-latency op in the active list (the ledger invariant ``committed +
folds_committed + uncond_folds_committed == retired`` still holds).
Two hazards unique to dynamic scheduling are closed here, both required
for the "folds are non-speculative" guarantee to survive:

* **acquire at fetch** — with a multi-entry fetch buffer a producer
  could sit between fetch and rename unacquired while a younger branch
  folds on its *stale* direction bits; the in-order machine never
  exposes that window (one instruction in IF, ID-acquire runs before
  the next fetch), so the OoO front end acquires the BDT counter the
  cycle an instruction is fetched;
* **in-order, non-speculative release** — completions are out of
  order and may be wrong-path.  A wrong-path release would poison the
  direction bits, and even right-path releases applied out of program
  order would leave an *older* producer's value behind a zero counter.
  Releases therefore drain through a single program-ordered queue and
  the head releases only once no older conditional branch is still
  unresolved; ``bdt_update="mem"`` adds one cycle after completion and
  ``"commit"`` releases at retirement, mirroring the in-order
  forwarding points.  Squashed producers cancel (counter decrement,
  bits untouched) immediately — cancel order cannot corrupt the bits.

A saturated BDT validity counter (the paper's counter is 3 bits) now
back-pressures *fetch* instead of overflowing: an out-of-order window
can legitimately hold more in-flight producers of one register than the
counter can count, so the machine stalls fetch until it drains
(``bdt_fetch_stalls``) — the honest hardware integration.

Architectural behaviour is locked against the functional golden model
instruction-for-instruction: the commit stream (with each fold expanded
to the branch it elided plus its replacement) must equal the functional
retirement stream on the seeded ~200-program differential sweep
(``tests/test_differential_random.py``).

Telemetry uses the guarded-emit pattern of :mod:`repro.frontend`
(``self._emit`` is None until a tracer attaches): rename/issue/wakeup/
commit/recovery events with bit-identical stats traced or not.
``branch`` is emitted when the branch commits, beside ``stats.branches
+= 1``, and a fold's ``commit`` carries ``fold_taken``, so the
telemetry branch tables count exactly what :class:`OoOStats` counts:
a branch resolved on a path that an older mispredict later squashes
emits nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.asbr.folding import ASBRUnit
from repro.asm.program import Program
from repro.isa.alu import MASK32
from repro.isa.instruction import Instruction
from repro.memory.cache import CacheConfig
from repro.memory.main_memory import MainMemory
from repro.predictors.base import BranchPredictor
from repro.sim.core import (
    EXK_ALU_RRI,
    EXK_ALU_RRR,
    EXK_BRANCH_CMP,
    EXK_BRANCH_Z,
    EXK_CONST,
    EXK_JAL,
    EXK_JALR,
    EXK_JR,
    EXK_LOAD,
    EXK_NONE,
    EXK_SHIFT_I,
    EXK_STORE,
    CoreStatsMixin,
    _decode,
    _Decoded,
    _interned_dec_table,
    init_core_state,
    record_counts,
)
from repro.sim.functional import SimulationError
from repro.telemetry.events import (
    BRANCH,
    CHECKPOINT_RESTORE,
    COMMIT,
    DECODE,
    IQ_WAKEUP,
    ISSUE,
    RENAME_ALLOC,
    SQUASH,
    SQUASH_DEPTH,
    NO_DATA,
    TraceEvent,
    emit_fetch,
    emit_fold_hit,
    emit_fold_miss,
    emit_uncond_fold,
)

#: seq sentinel larger than any real sequence number
_NO_BRANCH = 1 << 62


@dataclass
class OoOConfig:
    """Out-of-order machine and memory-hierarchy parameters."""

    issue_width: int = 2          # fetch/rename/issue/commit width
    rob_size: int = 32            # active list entries
    iq_size: int = 16             # integer issue queue entries
    phys_regs: int = 64           # physical register file (> 32)
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    max_cycles: int = 2_000_000_000

    def __post_init__(self) -> None:
        if not 1 <= self.issue_width <= 8:
            raise ValueError("issue_width must be in 1..8")
        if self.rob_size < 4:
            raise ValueError("rob_size must be at least 4")
        if self.iq_size < 2:
            raise ValueError("iq_size must be at least 2")
        if self.phys_regs <= 32:
            raise ValueError(
                "phys_regs must exceed the 32 architectural registers")
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")


@dataclass
class OoOStats(CoreStatsMixin):
    """Counters of the out-of-order machine.

    The first block mirrors :class:`~repro.sim.core.PipelineStats`
    field-for-field so every stats consumer (objectives, metrics,
    reports) reads either machine; ``load_use_stalls`` is always 0 here
    (the issue queue schedules around load latency) and
    ``jump_bubbles`` counts only unsteered jumps in frontend mode (the
    merged fetch/decode resolves direct jumps at fetch).
    """

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    squashed: int = 0
    branches: int = 0                # conditional branches committed
    branch_mispredicts: int = 0      # committed branches that recovered
    folds_committed: int = 0
    uncond_folds_committed: int = 0
    predictor_lookups: int = 0
    jump_bubbles: int = 0
    jr_redirects: int = 0
    load_use_stalls: int = 0
    icache_miss_stalls: int = 0
    dcache_miss_stalls: int = 0
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    dcache_writebacks: int = 0
    folded_taken: int = 0
    folded_not_taken: int = 0
    invalid_fallbacks: int = 0
    # ---- out-of-order structures ------------------------------------
    renamed: int = 0                 # ops allocated a ROB entry
    rename_stalls: int = 0           # cycles rename blocked (ROB/IQ/free)
    iq_wakeups: int = 0              # completion broadcasts
    checkpoints_taken: int = 0       # map-table copies (renamed branches)
    checkpoint_restores: int = 0     # misprediction recoveries
    squash_depth_sum: int = 0        # ROB entries killed across recoveries
    bdt_fetch_stalls: int = 0        # fetch held by a saturated BDT counter
    max_rob_occupancy: int = 0

    @property
    def avg_squash_depth(self) -> float:
        if not self.checkpoint_restores:
            return 0.0
        return self.squash_depth_sum / self.checkpoint_restores


class _Op:
    """One active-list entry (and its issue-queue view)."""

    __slots__ = ("seq", "d", "pc", "folded", "uncond_folded", "fold_pc",
                 "pred_next_pc", "new_phys", "old_phys", "src_phys",
                 "rs_phys", "rt_phys", "issued", "completed", "result",
                 "mem_addr", "store_val", "exception", "acquired_reg",
                 "released", "squashed", "checkpoint", "is_br",
                 "mispredicted", "taken", "bdt_ready", "ready_cycle")

    def __init__(self, d: _Decoded, pc: int, seq: int) -> None:
        self.seq = seq
        self.d = d
        self.pc = pc
        self.folded = False
        self.uncond_folded = False
        self.fold_pc = 0
        self.pred_next_pc = 0
        self.new_phys = -1
        self.old_phys = -1
        self.src_phys = ()
        self.rs_phys = 0
        self.rt_phys = 0
        self.issued = False
        self.completed = False
        self.result = 0
        self.mem_addr = 0
        self.store_val = 0
        self.exception: Optional[BaseException] = None
        self.acquired_reg: Optional[int] = None
        self.released = False
        self.squashed = False
        self.checkpoint: Optional[List[int]] = None
        self.is_br = False
        self.mispredicted = False
        self.taken = False          # a fold's: the folded branch's direction
        self.bdt_ready: Optional[int] = None   # cycle the release may apply
        self.ready_cycle = 0                   # rename may consume from here

    @property
    def instr(self) -> Instruction:
        return self.d.instr


class OoOSimulator:
    """Runs one program to completion on the out-of-order machine."""

    def __init__(self, program: Program,
                 memory: Optional[MainMemory] = None,
                 predictor: Optional[BranchPredictor] = None,
                 asbr: Optional[ASBRUnit] = None,
                 config: Optional[OoOConfig] = None,
                 fold_unconditional: bool = False,
                 trace=None, frontend=None,
                 commit_log: Optional[list] = None) -> None:
        """Same construction surface as the in-order simulator (shared
        via :func:`repro.sim.core.init_core_state`), plus:

        ``config`` — an :class:`OoOConfig` (width/ROB/IQ/physical-reg
        knobs on top of the cache hierarchy).

        ``commit_log`` — optional list; every commit appends the retired
        architectural PCs in order (a fold appends the elided branch PC
        then the replacement's PC), giving the differential suite the
        exact functional retirement stream to compare against.

        ``trace`` — a :class:`repro.telemetry.Tracer`; the machine uses
        guarded emission (one None check per site), as the in-order
        machine's ``tick()`` does, so traced and plain runs are the
        same code path with bit-identical stats.
        """
        self.config = config if config is not None else OoOConfig()
        self.fold_unconditional = fold_unconditional
        init_core_state(self, program, memory, predictor, asbr,
                        self.config.icache, self.config.dcache)
        self.stats = OoOStats()
        self.commit_log = commit_log
        self._dec = _interned_dec_table(program, fold_unconditional)
        self._foreign: Dict[tuple, _Decoded] = {}
        self._foreign_pin: List[Instruction] = []

        cfg = self.config
        self.width = cfg.issue_width
        # rename state: map table, physical regfile, ready bits, free list
        self.map: List[int] = list(range(32))
        self.preg: List[int] = [0] * cfg.phys_regs
        for r in range(32):
            self.preg[r] = self.regs.raw[r]
        self.pready: List[bool] = [True] * 32 + \
            [False] * (cfg.phys_regs - 32)
        self.free: List[int] = list(range(32, cfg.phys_regs))

        # machine state
        self.rob: "deque[_Op]" = deque()
        self.iq: List[_Op] = []
        self.fetch_buf: "deque[_Op]" = deque()
        self._exec: List[_Op] = []            # issued, completing later
        self._exec_done: List[int] = []       # completion cycles (paired)
        self._store_seqs: "deque[int]" = deque()
        self._unresolved_br: Dict[int, _Op] = {}
        self._bdt_queue: "deque[_Op]" = deque()
        self._fetch_wait = 0                  # I-cache miss / jump bubble
        self._fetch_block: Optional[_Op] = None   # jr/jalr awaiting target
        self._fetch_halted = False
        self._commit_wait = 0                 # store D-cache miss at commit
        self._seq = 0

        self.frontend = None
        if frontend is not None:
            from repro.frontend import attach_frontend
            attach_frontend(self, frontend)

        self.trace = None
        self._emit = None
        if trace is not None:
            self.trace = trace
            self._emit = trace.emit
            if self.frontend is not None:
                self.frontend._emit = trace.emit

    # ------------------------------------------------------------------
    def _foreign_decode(self, instr: Instruction, pc: int) -> _Decoded:
        """Memoized decode of an injected (BTI/BFI) instruction; same
        pin discipline as the in-order simulator."""
        key = (id(instr), pc)
        d = self._foreign.get(key)
        if d is None:
            d = _decode(instr, pc)
            self._foreign[key] = d
            self._foreign_pin.append(instr)
        return d

    # ==================================================================
    # public API
    # ==================================================================
    def run(self) -> OoOStats:
        """Simulate until the program's ``halt`` commits."""
        max_cycles = self.config.max_cycles
        stats = self.stats
        tick = self.tick
        try:
            while not self.halted:
                if stats.cycles >= max_cycles:
                    raise SimulationError(
                        "cycle budget (%d) exhausted; fetch_pc=0x%x"
                        % (max_cycles, self.fetch_pc))
                tick()
            return stats
        finally:
            record_counts(self)

    # ==================================================================
    # one clock cycle
    # ==================================================================
    def tick(self) -> None:
        """Advance one clock.  Phase order inside the cycle: complete
        (wakeup + branch resolution), commit, select/issue, rename,
        fetch, then the end-of-cycle BDT release drain — so a value
        computed this cycle wakes dependants for next cycle's select
        and a release becomes fold-visible one cycle later, matching
        the in-order machine's end-of-tick release point."""
        stats = self.stats
        stats.cycles += 1
        cycle = stats.cycles

        if self._exec:
            self._complete(cycle)
        self._commit()
        if self.halted:
            return
        if self.iq:
            self._select_issue(cycle)
        if self.fetch_buf:
            self._rename(cycle)
        fe = self.frontend
        if fe is not None:
            fe.begin_cycle()
        if self._fetch_wait > 0:
            self._fetch_wait -= 1
        elif (self._fetch_block is None and not self._fetch_halted):
            if fe is not None:
                self._frontend_fetch(fe, cycle)
            else:
                self._fetch(cycle)
        if self._bdt_queue:
            self._drain_bdt_queue(cycle)

    # ==================================================================
    # complete: writeback, wakeup, branch resolution
    # ==================================================================
    def _complete(self, cycle: int) -> None:
        ex = self._exec
        done = self._exec_done
        stats = self.stats
        emit = self._emit
        i = 0
        resolved = []
        while i < len(ex):
            if done[i] > cycle:
                i += 1
                continue
            op = ex.pop(i)
            done.pop(i)
            op.completed = True
            if op.new_phys >= 0:
                self.preg[op.new_phys] = op.result
                self.pready[op.new_phys] = True
                stats.iq_wakeups += 1
                if emit is not None:
                    emit(TraceEvent(cycle, IQ_WAKEUP, op.pc, op.seq,
                                    {"preg": op.new_phys}))
            if op.acquired_reg is not None and not self._bdt_commit:
                # release point reached (execute: now; mem: +1 cycle);
                # the drain applies it in program order, unspeculated
                op.bdt_ready = cycle + 1 if self._rel_mem else cycle
            d = op.d
            exk = d.exk
            if exk == EXK_BRANCH_CMP or exk == EXK_BRANCH_Z:
                resolved.append(op)
            elif exk == EXK_JR or exk == EXK_JALR:
                stats.jr_redirects += 1
                if self._fetch_block is op:
                    self._fetch_block = None
                    self.fetch_pc = op.result if exk == EXK_JR \
                        else op.mem_addr
                    if self.frontend is not None:
                        self.frontend.redirect(self.fetch_pc)
        # resolve branches oldest-first: a younger mispredict must not
        # shadow an older one resolving the same cycle
        if resolved:
            resolved.sort(key=lambda o: o.seq)
            for op in resolved:
                self._resolve_branch(op, cycle)

    def _resolve_branch(self, op: _Op, cycle: int) -> None:
        if op.squashed:
            return                     # killed by an older branch just now
        d = op.d
        actual = d.br_target if op.taken else d.pc4
        self.predictor.update(op.pc, op.taken, d.br_target)
        self._unresolved_br.pop(op.seq, None)
        if actual != op.pred_next_pc:
            op.mispredicted = True
            self._recover(op, actual, cycle)

    # ==================================================================
    # misprediction recovery: checkpoint restore + selective squash
    # ==================================================================
    def _recover(self, br: _Op, actual: int, cycle: int) -> None:
        stats = self.stats
        stats.checkpoint_restores += 1
        # map table straight from the branch's checkpoint (commit never
        # touches the map, so the copy is exact regardless of how many
        # older ops retired since it was taken) ...
        self.map = list(br.checkpoint)
        # ... and the free list by walking the active-list tail: the
        # checkpoint cannot know about physical registers freed by
        # commits after it was taken, so frees are undone per squashed op
        depth = 0
        rob = self.rob
        while rob and rob[-1].seq > br.seq:
            op = rob.pop()
            self._squash_op(op)
            if op.new_phys >= 0:
                self.free.append(op.new_phys)
            if op.d.is_store:
                if self._store_seqs and self._store_seqs[-1] == op.seq:
                    self._store_seqs.pop()
            self._unresolved_br.pop(op.seq, None)
            depth += 1
        # younger ops still in the fetch buffer never renamed: no
        # physical registers to reclaim, but acquired BDT counters must
        # cancel
        while self.fetch_buf:
            self._squash_op(self.fetch_buf.pop())
            depth += 1
        seq = br.seq
        self.iq = [o for o in self.iq if o.seq <= seq]
        keep_ex = [i for i, o in enumerate(self._exec) if o.seq <= seq]
        self._exec = [self._exec[i] for i in keep_ex]
        self._exec_done = [self._exec_done[i] for i in keep_ex]
        if self._fetch_block is not None and self._fetch_block.seq > seq:
            self._fetch_block = None
        stats.squash_depth_sum += depth
        self.fetch_pc = actual
        self._fetch_wait = 0
        self._fetch_halted = False
        if self.frontend is not None:
            self.frontend.redirect(actual)
        if self._emit is not None:
            self._emit(TraceEvent(cycle, CHECKPOINT_RESTORE, br.pc, br.seq,
                                  {"depth": depth}))
            self._emit(TraceEvent(cycle, SQUASH_DEPTH, br.pc, br.seq,
                                  {"depth": depth}))

    def _squash_op(self, op: _Op) -> None:
        op.squashed = True
        self.stats.squashed += 1
        if op.acquired_reg is not None and not op.released:
            self.asbr.producer_squashed(op.acquired_reg)
            op.released = True
        if self._emit is not None:
            self._emit(TraceEvent(self.stats.cycles, SQUASH, op.pc,
                                  op.seq))

    # ==================================================================
    # commit: in-order retirement from the active-list head
    # ==================================================================
    def _commit(self) -> None:
        if self._commit_wait > 0:
            self._commit_wait -= 1
            return
        stats = self.stats
        rob = self.rob
        log = self.commit_log
        emit = self._emit
        asbr = self.asbr
        for _ in range(self.width):
            if not rob or not rob[0].completed:
                return
            op = rob.popleft()
            if op.exception is not None:
                # precise: every older op has retired, nothing younger
                # had architectural effect
                raise op.exception
            d = op.d
            dest = d.dest
            if op.new_phys >= 0:
                self._reglist[dest] = self.preg[op.new_phys]
                self.free.append(op.old_phys)
            if d.is_store:
                self._mem_write(op.mem_addr, op.store_val, d.size)
                extra = self._dcache_access(op.mem_addr, True)
                if extra:
                    stats.dcache_miss_stalls += extra
                    self._commit_wait = extra
                self._store_seqs.popleft()
            if op.folded:
                stats.folds_committed += 1
            if op.uncond_folded:
                stats.uncond_folds_committed += 1
            if op.is_br:
                stats.branches += 1
                if op.mispredicted:
                    stats.branch_mispredicts += 1
                if emit is not None:
                    # emitted at commit, not at resolution: a branch
                    # that an older mispredict squashes never commits
                    emit(TraceEvent(stats.cycles, BRANCH, op.pc, op.seq,
                                    {"taken": op.taken,
                                     "target": d.br_target if op.taken
                                     else d.pc4,
                                     "pred": op.pred_next_pc,
                                     "misp": op.mispredicted,
                                     "srcs": list(d.srcs)}))
            stats.committed += 1
            if op.acquired_reg is not None and self._bdt_commit:
                op.bdt_ready = stats.cycles
            if log is not None:
                if op.folded or op.uncond_folded:
                    log.append(op.fold_pc)
                log.append(op.pc)
            if emit is not None:
                data = NO_DATA
                if op.folded:
                    data = {"fold_pc": op.fold_pc, "fold_taken": op.taken}
                elif op.uncond_folded:
                    data = {"uncond_fold": True}
                emit(TraceEvent(stats.cycles, COMMIT, op.pc, op.seq,
                                data))
            if d.is_halt:
                self.halted = True
                return
            if d.is_ctl and asbr is not None:
                asbr.control_write(d.imm)
            if self._commit_wait:
                return                 # store miss blocks younger commits

    # ==================================================================
    # select / issue
    # ==================================================================
    def _select_issue(self, cycle: int) -> None:
        iq = self.iq
        pready = self.pready
        stores = self._store_seqs
        issued = 0
        emit = self._emit
        i = 0
        while i < len(iq) and issued < self.width:
            op = iq[i]
            d = op.d
            ready = True
            for p in op.src_phys:
                if not pready[p]:
                    ready = False
                    break
            if ready and d.is_load and stores and stores[0] < op.seq:
                ready = False          # an older store is uncommitted
            if not ready:
                i += 1
                continue
            iq.pop(i)
            issued += 1
            op.issued = True
            if emit is not None:
                emit(TraceEvent(cycle, ISSUE, op.pc, op.seq,
                                {"dest": d.dest} if d.dest is not None
                                else {}))
            self._execute(op, cycle)

    def _execute(self, op: _Op, cycle: int) -> None:
        """Compute the op's result now (operands are final: every
        producer has completed) and schedule its completion."""
        d = op.d
        exk = d.exk
        preg = self.preg
        latency = 1
        if exk == EXK_ALU_RRR:
            op.result = d.alu(preg[op.rs_phys], preg[op.rt_phys]) & MASK32
        elif exk == EXK_ALU_RRI:
            op.result = d.alu(preg[op.rs_phys], d.imm) & MASK32
        elif exk == EXK_SHIFT_I:
            op.result = d.alu(preg[op.rs_phys], d.shamt) & MASK32
        elif exk == EXK_CONST:
            op.result = d.result_const
        elif exk == EXK_LOAD:
            addr = (preg[op.rs_phys] + d.imm) & MASK32
            op.mem_addr = addr
            try:
                op.result = d.load_fix(self._mem_read(addr, d.size))
            except Exception as exc:   # raised at commit, precise
                op.exception = exc
                op.result = 0
            extra = self._dcache_access(addr, False)
            if extra:
                self.stats.dcache_miss_stalls += extra
                latency += extra
        elif exk == EXK_STORE:
            op.mem_addr = (preg[op.rs_phys] + d.imm) & MASK32
            op.store_val = preg[op.rt_phys]
        elif exk == EXK_BRANCH_CMP:
            op.taken = (preg[op.rs_phys] == preg[op.rt_phys]) == d.eq_sense
        elif exk == EXK_BRANCH_Z:
            op.taken = d.cond(preg[op.rs_phys])
        elif exk == EXK_JAL:
            op.result = d.pc4
        elif exk == EXK_JR:
            op.result = preg[op.rs_phys]       # the redirect target
        elif exk == EXK_JALR:
            op.result = d.pc4
            op.mem_addr = preg[op.rs_phys]     # target rides along
        self._exec.append(op)
        self._exec_done.append(cycle + latency)

    # ==================================================================
    # rename / dispatch
    # ==================================================================
    def _rename(self, cycle: int) -> None:
        stats = self.stats
        buf = self.fetch_buf
        rob = self.rob
        iq = self.iq
        rob_size = self.config.rob_size
        iq_size = self.config.iq_size
        free = self.free
        mapt = self.map
        emit = self._emit
        renamed = 0
        while buf and renamed < self.width:
            op = buf[0]
            if op.ready_cycle > cycle:
                break                  # I-cache fill still in flight
            d = op.d
            exk = d.exk
            needs_iq = exk != EXK_NONE
            if (len(rob) >= rob_size
                    or (needs_iq and len(iq) >= iq_size)
                    or (d.dest is not None and d.dest != 0 and not free)):
                stats.rename_stalls += 1
                break
            buf.popleft()
            renamed += 1
            # operand physical registers before any same-group dest
            # rename of this op
            op.rs_phys = mapt[d.rs] if d.rs is not None else 0
            op.rt_phys = mapt[d.rt] if d.rt is not None else 0
            op.src_phys = tuple(mapt[s] for s in d.srcs)
            dest = d.dest
            if dest is not None and dest != 0:
                op.old_phys = mapt[dest]
                op.new_phys = free.pop()
                mapt[dest] = op.new_phys
                self.pready[op.new_phys] = False
            if op.is_br:
                op.checkpoint = list(mapt)
                self._unresolved_br[op.seq] = op
                stats.checkpoints_taken += 1
            if d.is_store:
                self._store_seqs.append(op.seq)
            rob.append(op)
            stats.renamed += 1
            if needs_iq:
                iq.append(op)
            else:
                op.completed = True    # j / halt / ctl: nothing to execute
            if emit is not None:
                emit(TraceEvent(cycle, DECODE, op.pc, op.seq))
                if op.new_phys >= 0:
                    emit(TraceEvent(cycle, RENAME_ALLOC, op.pc, op.seq,
                                    {"dest": dest, "new": op.new_phys,
                                     "old": op.old_phys}))
        if len(rob) > stats.max_rob_occupancy:
            stats.max_rob_occupancy = len(rob)

    # ==================================================================
    # fetch (coupled mode): up to `width` per cycle, folds at fetch
    # ==================================================================
    def _acquire(self, op: _Op) -> bool:
        """BDT acquire at fetch; False when the validity counter is
        saturated (fetch must stall until it drains)."""
        asbr = self.asbr
        if asbr is None:
            return True
        dest = op.d.dest
        if dest is None or dest == 0:
            return True
        entry = asbr.bdt.entries[dest]
        if entry.counter >= asbr.bdt.counter_max:
            self.stats.bdt_fetch_stalls += 1
            return False
        asbr.producer_decoded(dest)
        op.acquired_reg = dest
        self._bdt_queue.append(op)
        return True

    def _new_op(self, d: _Decoded, pc: int) -> _Op:
        stats = self.stats
        op = _Op(d, pc, self._seq)
        self._seq += 1
        stats.fetched += 1
        op.ready_cycle = stats.cycles + 1
        return op

    def _fetch(self, cycle: int) -> None:
        stats = self.stats
        buf = self.fetch_buf
        cap = 2 * self.width
        dec = self._dec
        base = self._text_base
        end = self._text_end
        emit = self._emit
        fetched = 0
        while fetched < self.width and len(buf) < cap:
            pc = self.fetch_pc
            if pc & 3 or not base <= pc < end:
                return        # off the text segment (wrong path): wait
            d = dec[(pc - base) >> 2]

            uf = d.uncond_fold
            if uf is not None:
                td, tpc, next_pc = uf
                op = self._new_op(td, tpc)
                op.uncond_folded = True
                op.fold_pc = pc
                if not self._acquire(op):
                    self._unfetch(op)
                    return
                buf.append(op)
                fetched += 1
                extra = self._icache_access(pc)
                if emit is not None:
                    emit_uncond_fold(emit, cycle, tpc, op.seq, pc)
                self.fetch_pc = next_pc
                if self._miss(op, extra) or next_pc != pc + 4:
                    return             # fill in flight / group ends
                continue

            if d.is_branch:
                if self.asbr is not None:
                    fold = self.asbr.try_fold(pc)
                    if fold is not None:
                        fd = self._foreign_decode(fold.instr, fold.instr_pc)
                        op = self._new_op(fd, fold.instr_pc)
                        op.folded = True
                        op.fold_pc = pc
                        op.taken = fold.taken
                        if not self._acquire(op):
                            self._unfetch(op)
                            return
                        buf.append(op)
                        fetched += 1
                        extra = self._icache_access(pc)
                        if emit is not None:
                            emit_fold_hit(emit, cycle, fold, pc, op.seq)
                        self.fetch_pc = fold.next_pc
                        if self._miss(op, extra) or fold.next_pc != pc + 4:
                            return
                        continue
                    elif emit is not None:
                        emit_fold_miss(emit, cycle, pc, self.asbr)
                pred = self.predictor.predict(pc)
                stats.predictor_lookups += 1
                op = self._new_op(d, pc)
                op.is_br = True
                if pred.taken and pred.target is not None:
                    op.pred_next_pc = pred.target
                else:
                    op.pred_next_pc = d.pc4
                buf.append(op)         # branches produce nothing: no acquire
                fetched += 1
                extra = self._icache_access(pc)
                if emit is not None:
                    emit_fetch(emit, cycle, pc, op.seq)
                self.fetch_pc = op.pred_next_pc
                if self._miss(op, extra) or op.pred_next_pc != d.pc4:
                    return             # fill in flight / predicted taken
                continue

            op = self._new_op(d, pc)
            if not self._acquire(op):
                self._unfetch(op)
                return
            buf.append(op)
            fetched += 1
            extra = self._icache_access(pc)
            if emit is not None:
                emit_fetch(emit, cycle, pc, op.seq)
            exk = d.exk
            if d.is_jump:
                # merged fetch/decode resolves direct jumps immediately
                self.fetch_pc = d.jump_target
                self._miss(op, extra)
                return
            if exk == EXK_JR or exk == EXK_JALR:
                self._fetch_block = op   # target unknown until execute
                self._miss(op, extra)
                return
            if d.is_halt:
                self._fetch_halted = True
                self._miss(op, extra)
                return
            self.fetch_pc = d.pc4
            if self._miss(op, extra):
                return

    def _unfetch(self, op: _Op) -> None:
        """Undo a speculative _new_op when the BDT counter stalls the
        fetch: the op never entered the machine."""
        self.stats.fetched -= 1
        self._seq -= 1

    def _miss(self, op: _Op, extra: int) -> bool:
        """Account an I-cache miss: the fetched op's rename is delayed
        and fetch pauses for the fill; a miss ends the fetch group."""
        if not extra:
            return False
        self.stats.icache_miss_stalls += extra
        op.ready_cycle += extra
        self._fetch_wait = extra
        return True

    # ==================================================================
    # fetch (decoupled front-end mode): pop FTQ entries
    # ==================================================================
    def _frontend_fetch(self, fe, cycle: int) -> None:
        stats = self.stats
        buf = self.fetch_buf
        cap = 2 * self.width
        dec = self._dec
        base = self._text_base
        emit = self._emit
        fetched = 0
        while fetched < self.width and len(buf) < cap:
            entry = fe.fetch_entry()
            if entry is None:
                return
            d = dec[(entry.pc - base) >> 2]

            if entry.uncond_fold:
                op = self._new_op(d, entry.pc)
                op.uncond_folded = True
                op.fold_pc = entry.fetch_addr
                op.pred_next_pc = entry.pred_next_pc
                if not self._acquire(op):
                    self._unfetch(op)
                    fe.redirect(entry.fetch_addr)   # re-pushed after drain
                    return
                buf.append(op)
                fetched += 1
                if emit is not None:
                    emit_uncond_fold(emit, cycle, entry.pc, op.seq,
                                     entry.fetch_addr)
                extra = fe.demand_access(entry.fetch_addr)
                self.fetch_pc = entry.pred_next_pc
                if self._miss(op, extra):
                    return
                continue

            if d.is_branch and self.asbr is not None:
                fold = self.asbr.try_fold(entry.pc)
                if fold is not None:
                    fd = self._foreign_decode(fold.instr, fold.instr_pc)
                    op = self._new_op(fd, fold.instr_pc)
                    op.folded = True
                    op.fold_pc = entry.pc
                    op.taken = fold.taken
                    if not self._acquire(op):
                        self._unfetch(op)
                        fe.redirect(entry.pc)
                        return
                    buf.append(op)
                    fetched += 1
                    if emit is not None:
                        emit_fold_hit(emit, cycle, fold, entry.pc, op.seq)
                    extra = fe.demand_access(entry.fetch_addr)
                    self.fetch_pc = fold.next_pc
                    fe.fold_consumed(fold)
                    if self._miss(op, extra):
                        return
                    continue           # FTQ realigned; keep fetching
                if emit is not None:
                    emit_fold_miss(emit, cycle, entry.pc, self.asbr)

            if d.is_branch:
                op = self._new_op(d, entry.pc)
                op.is_br = True
                op.pred_next_pc = entry.pred_next_pc
                buf.append(op)
                fetched += 1
                if emit is not None:
                    emit_fetch(emit, cycle, entry.pc, op.seq)
                extra = fe.demand_access(entry.fetch_addr)
                self.fetch_pc = entry.pred_next_pc
                if self._miss(op, extra) or entry.pred_next_pc != d.pc4:
                    return             # fill in flight / predicted taken
                continue

            op = self._new_op(d, entry.pc)
            op.pred_next_pc = entry.pred_next_pc
            if not self._acquire(op):
                self._unfetch(op)
                fe.redirect(entry.pc)
                return
            buf.append(op)
            fetched += 1
            if emit is not None:
                emit_fetch(emit, cycle, entry.pc, op.seq)
            extra = fe.demand_access(entry.fetch_addr)
            miss = self._miss(op, extra)
            exk = op.d.exk
            if d.is_jump:
                self.fetch_pc = d.jump_target
                if entry.pred_next_pc == d.jump_target:
                    fe.stats.jumps_steered += 1
                    return             # taken transfer ends the group
                stats.jump_bubbles += 1
                if self._fetch_wait < 1:
                    self._fetch_wait = 1   # unsteered: one dead cycle
                fe.jump_resolved(entry.pc, d.jump_target)
                return
            if exk == EXK_JR or exk == EXK_JALR:
                self._fetch_block = op
                return
            if d.is_halt:
                self._fetch_halted = True
                return
            self.fetch_pc = entry.pred_next_pc
            if miss:
                return

    # ==================================================================
    # BDT release drain: program order, never speculative
    # ==================================================================
    def _drain_bdt_queue(self, cycle: int) -> None:
        q = self._bdt_queue
        unresolved = self._unresolved_br
        asbr = self.asbr
        while q:
            op = q[0]
            if op.released:            # squashed (cancelled) earlier
                q.popleft()
                continue
            if op.bdt_ready is None or op.bdt_ready > cycle:
                return
            if unresolved:
                oldest = min(unresolved)
                if oldest < op.seq:
                    return             # still speculative: hold the value
            asbr.producer_value(op.acquired_reg,
                                self.preg[op.new_phys]
                                if op.new_phys >= 0 else op.result)
            op.released = True
            q.popleft()
