"""Shared scaffolding for the cycle-accurate simulators.

Both timing simulators — the 5-stage in-order pipeline
(:mod:`repro.sim.pipeline`) and the R10000-style out-of-order backend
(:mod:`repro.sim.ooo`) — fetch, decode and retire the same ISA against
the same memory hierarchy, attach the same decoupled front end
(:mod:`repro.frontend`) and the same ASBR folding unit, and report the
same core statistics.  This module holds everything that is *machine
independent* so the simulators share it instead of forking it:

* the construction-time decode machinery (:class:`_Decoded`,
  :func:`_decode`, :func:`_build_dec_table`, the interned-table memo)
  together with the EX dispatch handlers and the integer kind codes the
  compiled pipeline loop inlines on;
* :class:`PipelineStats`, the statistics record every experiment,
  cache entry and objective extractor consumes (the out-of-order
  machine extends it via :class:`CoreStatsMixin`);
* :func:`init_core_state`, the shared architectural-state constructor
  that establishes the *frontend attach surface*: after it runs, a
  simulator exposes ``fetch_pc`` / ``predictor`` / ``icache`` /
  ``stats`` / ``_text_base`` / ``_text_end`` / ``_dec`` exactly as
  :func:`repro.frontend.attach_frontend` and
  :class:`repro.frontend.DecoupledFrontend` expect, so the BPU+FTQ+FDIP
  front end attaches to either machine unchanged.

The in-order simulator re-exports every moved name, so existing imports
(``repro.telemetry.traced``, the test-suite) keep resolving;
``tests/test_stats_golden.py`` locks that the extraction left the
in-order cycle counts bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.asm.program import Program, STACK_TOP
from repro.isa.alu import LOAD_FIX, MASK32, ZERO_TESTS_U, alu_fn
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind
from repro.isa.registers import RegisterFile
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory
from repro.predictors.simple import NotTakenPredictor

_LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4}


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
    uncond_folds_committed: int = 0  # CRISP-style unconditional folds
    predictor_lookups: int = 0   # fetch-stage direction predictions made
    jump_bubbles: int = 0        # ID-redirect bubbles from j/jal
    jr_redirects: int = 0        # EX redirects from jr/jalr
    load_use_stalls: int = 0
    icache_miss_stalls: int = 0
    dcache_miss_stalls: int = 0


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
                 "br_target", "cond", "eq_sense", "jump_target",
                 "uncond_fold")


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
    if actual != slot.pred_next_pc:
        stats.branch_mispredicts += 1
        sim._redirect(actual)


def _ex_branch_z(sim, slot, d):
    taken = d.cond(sim._operand(d.rs))
    target = d.br_target
    actual = target if taken else d.pc4
    stats = sim.stats
    stats.branches += 1
    sim.predictor.update(slot.pc, taken, target)
    if actual != slot.pred_next_pc:
        stats.branch_mispredicts += 1
        sim._redirect(actual)


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
    d.uncond_fold = None

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
        d.size = _LOAD_SIZE[instr.op]
        d.load_fix = LOAD_FIX[instr.op]
        d.lfk = _LOAD_CODE.get(instr.op, 0)
        d.ex = _ex_load
        d.exk = EXK_LOAD
    elif k is Kind.STORE:
        d.size = _STORE_SIZE[instr.op]
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


def _build_dec_table(program: Program,
                     fold_unconditional: bool) -> List[_Decoded]:
    """Decode every text slot and resolve unconditional fold targets.

    ``d.uncond_fold`` is ``(target_record, target_pc, next_fetch_pc)``
    when a statically-unconditional transfer (``j`` / ``beq r0, r0``)
    can be folded at fetch, else None — see
    ``PipelineSimulator.fold_unconditional``.
    """
    dec = [_decode(instr, program.pc_of(i))
           for i, instr in enumerate(program.instrs)]
    if not fold_unconditional:
        return dec
    base, end = program.text_base, program.text_end
    for d in dec:
        k = d.instr.spec.kind
        if k is Kind.JUMP:
            target = d.jump_target
        elif (k is Kind.BRANCH_CMP and d.instr.op == "beq"
                and d.rs == 0 and d.rt == 0):
            target = d.br_target
        else:
            continue
        if target & 3 or not base <= target < end:
            continue
        td = dec[(target - base) >> 2]
        if td.instr.is_control or td.is_halt:
            continue
        d.uncond_fold = (td, target, (target + 4) & MASK32)
    return dec


#: interned decode tables for every timing simulator: _Decoded records
#: are immutable after construction (no simulator, frontend or tracer
#: writes them), so simulators over the same (program, fold flag)
#: share one table instead of re-deriving it per RunSpec.
#: Keyed on object identity plus the program's mutation ``version``
#: (``replace_instr`` bumps it); the table's records hold the program's
#: instructions, and the key tuple below pins the program itself, so a
#: live entry's id can never be recycled by a different program.
_DEC_MEMO: Dict[tuple, tuple] = {}
_DEC_MEMO_CAP = 64


def _interned_dec_table(program: Program,
                        fold_unconditional: bool) -> List[_Decoded]:
    key = (id(program), getattr(program, "version", 0),
           fold_unconditional)
    hit = _DEC_MEMO.get(key)
    if hit is not None and hit[0] is program:
        return hit[1]
    dec = _build_dec_table(program, fold_unconditional)
    if len(_DEC_MEMO) >= _DEC_MEMO_CAP:
        _DEC_MEMO.clear()
    _DEC_MEMO[key] = (program, dec)
    return dec


# ======================================================================
# shared architectural-state construction (the frontend attach surface)
# ======================================================================
def init_core_state(sim, program: Program, memory, predictor, asbr,
                    icache_cfg, dcache_cfg) -> None:
    """Construct the machine-independent half of a timing simulator.

    After this returns, ``sim`` exposes the full attach surface that
    :func:`repro.frontend.attach_frontend` and the ASBR unit rely on:
    ``program`` / ``memory`` (data segment + text image loaded),
    ``predictor`` (defaulted), ``asbr`` (BDT seeded against the initial
    register file), ``icache`` / ``dcache``, ``regs`` (with the stack
    pointer), ``fetch_pc`` / ``halted``, the text-bounds and
    memory/cache fast-path aliases, and the three BDT forwarding-point
    flags.  The caller still owns ``stats``, ``config`` and ``_dec``
    (they are machine-specific).
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
    sim.icache = Cache(icache_cfg, "icache")
    sim.dcache = Cache(dcache_cfg, "dcache")
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
