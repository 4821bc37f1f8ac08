"""Shared scaffolding for the cycle-accurate simulators.

Both timing simulators — the 5-stage in-order pipeline
(:mod:`repro.sim.pipeline`) and the R10000-style out-of-order backend
(:mod:`repro.sim.ooo`) — fetch, decode and retire the same ISA against
the same memory hierarchy, attach the same decoupled front end
(:mod:`repro.frontend`) and the same ASBR folding unit, and report the
same core statistics.  This module holds everything that is *machine
independent* so the simulators share it instead of forking it:

* the construction-time decode machinery (:class:`_Decoded`,
  :func:`_decode`, the interned-table memo and :func:`foreign_decode`,
  the per-simulator memo of injected BTI/BFI instructions) together
  with the EX dispatch handlers and the integer kind codes the compiled
  pipeline loop inlines on;
* :class:`PipelineStats`, the statistics record every experiment,
  cache entry, objective extractor and the energy model consumes (the
  out-of-order machine extends it via :class:`CoreStatsMixin`), and
  :func:`record_counts`, which fills its cache and fold counters;
* :func:`init_core_state`, the shared constructor of architectural
  state, decode table, front end and tracer hook.  It establishes the
  *frontend attach surface* (``fetch_pc`` / ``predictor`` / ``icache``
  / ``_text_base`` / ``_text_end`` / ``_dec``) before it attaches the
  BPU+FTQ+FDIP front end, so the front end attaches to either machine
  unchanged;
* :func:`run_ticks`, the budgeted ``tick()`` loop both machines run
  (the in-order machine as its reference loop).

The two conditional-branch EX handlers also emit the in-order
machine's ``BRANCH`` event when a tracer is attached (``sim._emit`` is
not None), right where the stats count the branch and its mispredict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.asm.program import Program, STACK_TOP
from repro.isa.alu import (
    LOAD_FIX,
    LOAD_SIZE,
    MASK32,
    STORE_SIZE,
    ZERO_TESTS_U,
    alu_fn,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind
from repro.isa.registers import RegisterFile
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory
from repro.predictors.simple import NotTakenPredictor
from repro.sim.functional import SimulationError
from repro.telemetry.events import BRANCH, TraceEvent


class CoreStatsMixin:
    """Derived metrics shared by every timing simulator's stats record."""

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else 0.0

    @property
    def branch_accuracy(self) -> float:
        """Direction+target accuracy of the (auxiliary) predictor."""
        if not self.branches:
            return 0.0
        return 1.0 - self.branch_mispredicts / self.branches


@dataclass
class PipelineStats(CoreStatsMixin):
    """Everything the experiments report."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0             # instructions that entered the pipeline
    squashed: int = 0            # wrong-path instructions killed
    branches: int = 0            # conditional branches committed (unfolded)
    branch_mispredicts: int = 0
    folds_committed: int = 0     # committed replacement (BTI/BFI) instrs;
                                 # each stands for one right-path fold
    predictor_lookups: int = 0   # fetch-stage direction predictions made
    jump_bubbles: int = 0        # ID-redirect bubbles from j/jal
    jr_redirects: int = 0        # EX redirects from jr/jalr
    load_use_stalls: int = 0
    icache_miss_stalls: int = 0
    dcache_miss_stalls: int = 0
    # the caches' and the folding unit's own counters, copied in by
    # record_counts() when run() returns or raises
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    dcache_writebacks: int = 0
    folded_taken: int = 0        # fetch-time folds, wrong-path ones too
    folded_not_taken: int = 0
    invalid_fallbacks: int = 0   # BIT hits the busy BDT could not fold


def record_counts(sim) -> None:
    """Copy ``sim``'s cache and folding-unit counters into its stats.

    Every simulator's ``run()`` calls this when it returns or raises,
    so a stats record alone carries every count the energy model
    (:mod:`repro.power`) reads.  The counters are copied, not added:
    a second ``run()`` of a halted simulator leaves them unchanged.
    """
    stats = sim.stats
    ic = sim.icache.stats
    dc = sim.dcache.stats
    stats.icache_accesses = ic.accesses
    stats.icache_misses = ic.misses
    stats.dcache_accesses = dc.accesses
    stats.dcache_misses = dc.misses
    stats.dcache_writebacks = dc.writebacks
    if sim.asbr is not None:
        fs = sim.asbr.stats
        stats.folded_taken = fs.folded_taken
        stats.folded_not_taken = fs.folded_not_taken
        stats.invalid_fallbacks = fs.invalid_fallbacks


# ======================================================================
# construction-time decode
# ======================================================================
class _Decoded:
    """One statically-decoded instruction at a fixed text address."""

    __slots__ = ("instr", "pc", "pc4", "ex", "exk", "dest", "srcs",
                 "src_mask", "dest_mask", "aluk", "condk", "lfk",
                 "is_load", "is_store", "is_branch", "is_halt", "is_ctl",
                 "is_jump", "rs", "rt", "imm", "shamt", "alu",
                 "result_const", "size", "load_fix",
                 "br_target", "cond", "eq_sense", "jump_target")


#: integer EX-dispatch codes mirroring the ``_ex_*`` handlers below; the
#: compiled pipeline loop (repro.sim.superblocks) branches on these — an
#: if/elif on a small int beats an indirect call per stage
EXK_NONE = 0        # JUMP / HALT / CTL: nothing to compute
EXK_ALU_RRR = 1
EXK_SHIFT_I = 2
EXK_ALU_RRI = 3
EXK_CONST = 4       # LUI
EXK_LOAD = 5
EXK_STORE = 6
EXK_BRANCH_CMP = 7
EXK_BRANCH_Z = 8
EXK_JAL = 9
EXK_JR = 10
EXK_JALR = 11

#: sub-dispatch codes letting the compiled loop inline the hot ALU
#: operations, zero-tests and load fixups as plain expressions instead
#: of indirect calls; 0 always means "call the generic callable"
_ALU_CODE = {"add": 1, "addu": 1, "sub": 2, "subu": 2, "and": 3,
             "or": 4, "xor": 5, "slt": 6, "sltu": 7, "sll": 8, "srl": 9}
_COND_CODE = {"==0": 1, "!=0": 2, "<0": 3, "<=0": 4, ">0": 5, ">=0": 6}
_LOAD_CODE = {"lw": 1, "lbu": 2, "lhu": 3, "lb": 4, "lh": 5}


def _ex_alu_rrr(sim, slot, d):
    slot.result = d.alu(sim._operand(d.rs), sim._operand(d.rt))


def _ex_shift_i(sim, slot, d):
    slot.result = d.alu(sim._operand(d.rs), d.shamt)


def _ex_alu_rri(sim, slot, d):
    slot.result = d.alu(sim._operand(d.rs), d.imm)


def _ex_const(sim, slot, d):            # LUI
    slot.result = d.result_const


def _ex_load(sim, slot, d):
    slot.mem_addr = (sim._operand(d.rs) + d.imm) & MASK32


def _ex_store(sim, slot, d):
    slot.mem_addr = (sim._operand(d.rs) + d.imm) & MASK32
    slot.store_val = sim._operand(d.rt)


def _ex_branch_cmp(sim, slot, d):
    taken = (sim._operand(d.rs) == sim._operand(d.rt)) == d.eq_sense
    target = d.br_target
    actual = target if taken else d.pc4
    stats = sim.stats
    stats.branches += 1
    sim.predictor.update(slot.pc, taken, target)
    misp = actual != slot.pred_next_pc
    if misp:
        stats.branch_mispredicts += 1
        sim._redirect(actual)
    if sim._emit is not None:     # after the redirect's squash events
        sim._emit(TraceEvent(stats.cycles, BRANCH, slot.pc, slot.seq,
                             {"taken": taken, "target": actual,
                              "pred": slot.pred_next_pc, "misp": misp,
                              "srcs": list(d.srcs)}))


def _ex_branch_z(sim, slot, d):
    taken = d.cond(sim._operand(d.rs))
    target = d.br_target
    actual = target if taken else d.pc4
    stats = sim.stats
    stats.branches += 1
    sim.predictor.update(slot.pc, taken, target)
    misp = actual != slot.pred_next_pc
    if misp:
        stats.branch_mispredicts += 1
        sim._redirect(actual)
    if sim._emit is not None:     # after the redirect's squash events
        sim._emit(TraceEvent(stats.cycles, BRANCH, slot.pc, slot.seq,
                             {"taken": taken, "target": actual,
                              "pred": slot.pred_next_pc, "misp": misp,
                              "srcs": list(d.srcs)}))


def _ex_jal(sim, slot, d):
    slot.result = d.pc4


def _ex_jr(sim, slot, d):
    sim._redirect(sim._operand(d.rs))
    sim.stats.jr_redirects += 1


def _ex_jalr(sim, slot, d):
    slot.result = d.pc4
    sim._redirect(sim._operand(d.rs))
    sim.stats.jr_redirects += 1


def _ex_none(sim, slot, d):             # JUMP/HALT/CTL: nothing to compute
    pass


def _decode(instr: Instruction, pc: int) -> _Decoded:
    """Build the decoded record for ``instr`` at address ``pc``."""
    d = _Decoded()
    spec = instr.spec
    k = spec.kind
    d.instr = instr
    d.pc = pc
    d.pc4 = (pc + 4) & MASK32
    d.dest = instr.dest_reg
    d.srcs = tuple(instr.src_regs)
    # register bitmasks: the compiled loop's hazard check is one AND
    # (`dest_mask & src_mask`), equivalent to `dest in srcs` with the
    # dest None/r0 guards folded in (r0 never sets a dest bit)
    d.dest_mask = 1 << d.dest if d.dest is not None and d.dest != 0 else 0
    mask = 0
    for s in d.srcs:
        mask |= 1 << s
    d.src_mask = mask
    d.aluk = 0
    d.condk = 0
    d.lfk = 0
    d.is_load = k is Kind.LOAD
    d.is_store = k is Kind.STORE
    d.is_branch = instr.is_branch
    d.is_halt = k is Kind.HALT
    d.is_ctl = k is Kind.CTL
    d.is_jump = k is Kind.JUMP or k is Kind.JAL
    d.rs = instr.rs
    d.rt = instr.rt
    d.imm = instr.imm
    d.shamt = instr.shamt
    d.alu = None
    d.result_const = 0
    d.size = 0
    d.load_fix = None
    d.br_target = 0
    d.cond = None
    d.eq_sense = True
    d.jump_target = 0

    if k is Kind.ALU_RRR:
        d.alu = alu_fn(spec.alu_op)
        d.aluk = _ALU_CODE.get(spec.alu_op, 0)
        d.ex = _ex_alu_rrr
        d.exk = EXK_ALU_RRR
    elif k is Kind.SHIFT_I:
        d.alu = alu_fn(spec.alu_op)
        d.aluk = _ALU_CODE.get(spec.alu_op, 0)
        d.ex = _ex_shift_i
        d.exk = EXK_SHIFT_I
    elif k is Kind.ALU_RRI:
        d.alu = alu_fn(spec.alu_op)
        d.aluk = _ALU_CODE.get(spec.alu_op, 0)
        d.ex = _ex_alu_rri
        d.exk = EXK_ALU_RRI
    elif k is Kind.LUI:
        d.result_const = (instr.imm << 16) & MASK32
        d.ex = _ex_const
        d.exk = EXK_CONST
    elif k is Kind.LOAD:
        d.size = LOAD_SIZE[instr.op]
        d.load_fix = LOAD_FIX[instr.op]
        d.lfk = _LOAD_CODE.get(instr.op, 0)
        d.ex = _ex_load
        d.exk = EXK_LOAD
    elif k is Kind.STORE:
        d.size = STORE_SIZE[instr.op]
        d.ex = _ex_store
        d.exk = EXK_STORE
    elif k is Kind.BRANCH_CMP:
        d.eq_sense = instr.op == "beq"
        d.br_target = instr.branch_target(pc)
        d.ex = _ex_branch_cmp
        d.exk = EXK_BRANCH_CMP
    elif k is Kind.BRANCH_Z:
        d.cond = ZERO_TESTS_U[spec.condition.value]
        d.condk = _COND_CODE.get(spec.condition.value, 0)
        d.br_target = instr.branch_target(pc)
        d.ex = _ex_branch_z
        d.exk = EXK_BRANCH_Z
    elif k is Kind.JUMP:
        d.jump_target = instr.jump_target(pc)
        d.ex = _ex_none
        d.exk = EXK_NONE
    elif k is Kind.JAL:
        d.jump_target = instr.jump_target(pc)
        d.ex = _ex_jal
        d.exk = EXK_JAL
    elif k is Kind.JR:
        d.ex = _ex_jr
        d.exk = EXK_JR
    elif k is Kind.JALR:
        d.ex = _ex_jalr
        d.exk = EXK_JALR
    else:                               # HALT, CTL
        d.ex = _ex_none
        d.exk = EXK_NONE
    return d


#: interned decode tables for every timing simulator: _Decoded records
#: are immutable after construction (no simulator, frontend or tracer
#: writes them), so simulators over the same program share one table
#: instead of re-deriving it per RunSpec.
#: Keyed on object identity plus the program's mutation ``version``
#: (``replace_instr`` bumps it); the table's records hold the program's
#: instructions, and the key tuple below pins the program itself, so a
#: live entry's id can never be recycled by a different program.
_DEC_MEMO: Dict[tuple, tuple] = {}
_DEC_MEMO_CAP = 64


def _interned_dec_table(program: Program) -> List[_Decoded]:
    """The decoded record of every text slot, shared per program."""
    key = (id(program), getattr(program, "version", 0))
    hit = _DEC_MEMO.get(key)
    if hit is not None and hit[0] is program:
        return hit[1]
    dec = [_decode(instr, program.pc_of(i))
           for i, instr in enumerate(program.instrs)]
    if len(_DEC_MEMO) >= _DEC_MEMO_CAP:
        _DEC_MEMO.clear()
    _DEC_MEMO[key] = (program, dec)
    return dec


def foreign_decode(sim, instr: Instruction, pc: int) -> _Decoded:
    """Decoded record for an injected (non-program) instruction,
    memoized per ``(instr, pc)`` for the life of the simulator; both
    machines bind it as ``_foreign_decode``.

    BIT entries pre-decode their own BTI/BFI objects, so a hot folded
    branch decodes its target exactly once.  The key includes the
    identity *and* the injection PC, and the memoized instruction is
    pinned: a ``ctlw`` reconfiguration may evict a BIT entry and free
    its BTI/BFI, and without the pin a later allocation could recycle
    the id and silently inherit a stale decode."""
    key = (id(instr), pc)
    d = sim._foreign.get(key)
    if d is None:
        d = _decode(instr, pc)
        sim._foreign[key] = d
        sim._foreign_pin.append(instr)
    return d


# ======================================================================
# shared architectural-state construction (the frontend attach surface)
# ======================================================================
def init_core_state(sim, program: Program, memory, predictor, asbr,
                    config, frontend, trace) -> None:
    """Construct the machine-independent half of a timing simulator.

    After this returns, ``sim`` holds ``program`` / ``memory`` (data
    segment + text image loaded), ``predictor`` (defaulted), ``asbr``
    (BDT seeded against the initial register file), ``icache`` /
    ``dcache`` (shaped by ``config.icache`` / ``config.dcache``),
    ``regs`` (with the stack pointer), ``fetch_pc`` / ``halted``, the
    text-bounds and memory/cache fast-path aliases, the three BDT
    forwarding-point flags, the interned decode table ``_dec``, the
    empty :func:`foreign_decode` memo, ``frontend`` (the decoupled
    front end built from ``frontend``, or None) and ``trace`` /
    ``_emit`` (``trace.emit``, or None untraced; the front end gets
    the same ``_emit``).  The caller still owns ``stats`` (it is
    machine-specific).
    """
    sim.program = program
    if memory is None:
        # data-segment initialisation is the caller's job when a
        # pre-built memory is supplied (see FunctionalSimulator)
        memory = MainMemory()
        for addr, word in program.data.items():
            memory.write_word(addr, word)
    sim.memory = memory
    for i, word in enumerate(program.words):
        sim.memory.write_word(program.pc_of(i), word)
    sim.predictor = predictor if predictor is not None \
        else NotTakenPredictor()
    sim.asbr = asbr
    sim.icache = Cache(config.icache, "icache")
    sim.dcache = Cache(config.dcache, "dcache")
    sim.regs = RegisterFile()
    sim.regs.write(29, STACK_TOP)
    if asbr is not None:
        # the BDT must agree with the initial register file, exactly
        # as loading it at program-upload time would (Section 7)
        for r in range(1, 32):
            asbr.bdt.set_value(r, sim.regs[r])

    sim.fetch_pc = program.entry if program.entry is not None \
        else program.text_base
    sim.halted = False

    # ---- fast-path aliases ------------------------------------------
    sim._reglist = sim.regs.raw
    sim._mem_read = sim.memory.read
    sim._mem_write = sim.memory.write
    sim._icache_access = sim.icache.access
    sim._dcache_access = sim.dcache.access
    sim._text_base = program.text_base
    sim._text_end = program.text_end
    sim._bdt_commit = asbr is not None and asbr.bdt_update == "commit"
    sim._rel_mem = asbr is not None and asbr.bdt_update == "mem"
    sim._rel_ex = asbr is not None and asbr.bdt_update == "execute"

    sim._dec = _interned_dec_table(program)
    # injected (BTI/BFI) instructions, decoded on first use
    sim._foreign = {}
    sim._foreign_pin = []

    sim.frontend = None
    if frontend is not None:
        from repro.frontend import attach_frontend
        attach_frontend(sim, frontend)

    # telemetry: every emit site checks `emit is not None`
    sim.trace = trace
    sim._emit = None
    if trace is not None:
        sim._emit = trace.emit
        if sim.frontend is not None:
            sim.frontend._emit = trace.emit


def run_ticks(sim):
    """Simulate until the program's ``halt`` commits: ``sim.tick()``
    per cycle within ``sim.config.max_cycles``.

    ``tick`` is looked up on the instance, so a wrapper installed there
    (fault injection) runs.  The cache and fold counters are copied
    into the stats however the loop ends."""
    try:
        max_cycles = sim.config.max_cycles
        stats = sim.stats
        tick = sim.tick
        while not sim.halted:
            if stats.cycles >= max_cycles:
                raise SimulationError(
                    "cycle budget (%d) exhausted; fetch_pc=0x%x"
                    % (max_cycles, sim.fetch_pc))
            tick()
        return stats
    finally:
        record_counts(sim)
