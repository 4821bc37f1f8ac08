"""Instruction-accurate functional simulator (the golden model).

Executes one instruction per step with no timing.  Its committed
architectural state defines correctness for the pipelined simulator: for
any program and any pipeline configuration (predictor, ASBR on/off), the
final registers and memory must match this model exactly.

``run`` accepts an *observer* that is called on every retired
instruction (telemetry rides it).  Profiling does not: the branch
profiler in :mod:`repro.profiling` gets its outcome trace and its
definition-to-branch distances from :func:`collect_branch_trace`, one
run on the profiling mode of the block translator
(:mod:`repro.sim.blocks`).

Fast path
---------
At construction the simulator compiles every static instruction into a
small closure (an *execution plan*) with the opcode dispatch, ALU
callable, operand register indices and control-flow targets all resolved
ahead of time — the PC of each text slot is fixed, so even branch and
jump targets are absolute constants.  :meth:`FunctionalSimulator.run`
runs the block translator (:mod:`repro.sim.blocks`) when nothing
observes retirement, and :meth:`FunctionalSimulator.run_reference`, the
plan loop, otherwise.  :meth:`FunctionalSimulator.execute` remains the
reference (re-dispatching) implementation and defines the architectural
semantics the plans must reproduce (see
``tests/test_differential_random.py``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm.program import Program, STACK_TOP
from repro.isa.alu import (
    LOAD_FIX,
    LOAD_SIZE,
    MASK32,
    STORE_SIZE,
    ZERO_TESTS_U,
    alu_execute,
    alu_fn,
    load_value,
    to_signed,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind
from repro.isa.registers import RegisterFile
from repro.memory.main_memory import MainMemory


class SimulationError(RuntimeError):
    """A program did something architecturally illegal."""


#: Definition-to-branch distances from this far up count as "far"
#: (always foldable); a predicate never written, or r0, sits here.
FAR_DISTANCE = 1 << 30


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic conditional-branch execution.

    Immutable: a trace holds one shared record per (branch, outcome).
    """

    pc: int
    taken: bool
    target: int          # taken-target address


@dataclass
class BranchTally:
    """One static conditional branch's totals over a run."""

    count: int = 0
    taken: int = 0
    #: ``(distance, from_load) -> executions`` for zero-comparison
    #: branches: dynamic instructions from the last write of the
    #: predicate register to the branch (capped at FAR_DISTANCE), and
    #: whether that write was a load.  Empty for two-register compares.
    distances: Dict[Tuple[int, bool], int] = field(default_factory=dict)


class BranchTrace(list):
    """The :class:`BranchRecord` list of one run, in execution order.

    ``tallies`` maps each executed branch's pc to its
    :class:`BranchTally`, in first-execution order; ``instructions`` is
    the run's retired-instruction count.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tallies: Dict[int, BranchTally] = {}
        self.instructions = 0


class FunctionalSimulator:
    """Executes a :class:`~repro.asm.program.Program` one instruction at
    a time.

    Parameters
    ----------
    program:
        The assembled program.  Text and data are loaded into ``memory``.
    memory:
        Optional pre-built memory (e.g. with workload input arrays
        already written).  When supplied, the caller owns data-segment
        initialisation — typically ``MainMemory(program.data)`` with
        the inputs written over it, as :mod:`repro.workloads.loader`
        does.  When omitted, the image is ``MainMemory(program.data)``:
        one C-level copy of the data segment, which the program's own
        dict never sees a write through.  Either way the text image is
        then written into it.  A supplied memory is used as is, not
        copied; pass ``memory.copy()`` to keep the original.
    """

    def __init__(self, program: Program,
                 memory: Optional[MainMemory] = None) -> None:
        self.program = program
        if memory is None:
            memory = MainMemory(program.data)
        self.memory = memory
        for i, word in enumerate(program.words):
            self.memory.write_word(program.pc_of(i), word)
        self.regs = RegisterFile()
        self.regs.write(29, STACK_TOP)  # sp
        self.pc = program.entry if program.entry is not None \
            else program.text_base
        self.halted = False
        self.instructions_retired = 0
        self.ctl_writes: List[int] = []   # values written via ctlw
        # the plans are also the block translator's precise
        # single-step path for budget tails and indirect-jump misses
        self._plans: List[Callable[[], int]] = [
            self._compile(instr, program.pc_of(i))
            for i, instr in enumerate(program.instrs)
        ]

    # ------------------------------------------------------------------
    # plan compilation (construction-time decode)
    # ------------------------------------------------------------------
    def _compile(self, instr: Instruction, pc: int) -> Callable[[], int]:
        """An argument-free closure executing ``instr`` at its fixed
        ``pc``; returns the next PC.  Must behave exactly like
        :meth:`execute` (the differential suite enforces this)."""
        regs = self.regs.raw
        spec = instr.spec
        k = spec.kind
        op = instr.op
        pc4 = (pc + 4) & MASK32

        if k is Kind.ALU_RRR:
            rd = instr.rd
            if rd == 0:     # write discarded; ALU ops cannot trap
                return lambda: pc4
            def plan(regs=regs, fn=alu_fn(spec.alu_op), rd=rd,
                     rs=instr.rs, rt=instr.rt, pc4=pc4):
                regs[rd] = fn(regs[rs], regs[rt])
                return pc4
            return plan
        if k is Kind.SHIFT_I:
            rd = instr.rd
            if rd == 0:
                return lambda: pc4
            def plan(regs=regs, fn=alu_fn(spec.alu_op), rd=rd,
                     rs=instr.rs, b=instr.shamt, pc4=pc4):
                regs[rd] = fn(regs[rs], b)
                return pc4
            return plan
        if k is Kind.ALU_RRI:
            rt = instr.rt
            if rt == 0:
                return lambda: pc4
            def plan(regs=regs, fn=alu_fn(spec.alu_op), rt=rt,
                     rs=instr.rs, b=instr.imm, pc4=pc4):
                regs[rt] = fn(regs[rs], b)
                return pc4
            return plan
        if k is Kind.LUI:
            rt = instr.rt
            value = (instr.imm << 16) & MASK32
            if rt == 0:
                return lambda: pc4
            def plan(regs=regs, rt=rt, value=value, pc4=pc4):
                regs[rt] = value
                return pc4
            return plan
        if k is Kind.LOAD:
            rt = instr.rt
            if rt == 0:
                # the access (and any alignment trap) still happens
                def plan(regs=regs, read=self.memory.read, rs=instr.rs,
                         imm=instr.imm, size=LOAD_SIZE[op], pc4=pc4):
                    read((regs[rs] + imm) & MASK32, size)
                    return pc4
                return plan
            def plan(regs=regs, read=self.memory.read, rt=rt, rs=instr.rs,
                     imm=instr.imm, size=LOAD_SIZE[op], fix=LOAD_FIX[op],
                     pc4=pc4):
                regs[rt] = fix(read((regs[rs] + imm) & MASK32, size))
                return pc4
            return plan
        if k is Kind.STORE:
            def plan(regs=regs, write=self.memory.write, rt=instr.rt,
                     rs=instr.rs, imm=instr.imm, size=STORE_SIZE[op],
                     pc4=pc4):
                write((regs[rs] + imm) & MASK32, regs[rt], size)
                return pc4
            return plan
        if k is Kind.BRANCH_CMP:
            target = instr.branch_target(pc)
            if op == "beq":
                def plan(regs=regs, rs=instr.rs, rt=instr.rt,
                         target=target, pc4=pc4):
                    return target if regs[rs] == regs[rt] else pc4
            else:
                def plan(regs=regs, rs=instr.rs, rt=instr.rt,
                         target=target, pc4=pc4):
                    return target if regs[rs] != regs[rt] else pc4
            return plan
        if k is Kind.BRANCH_Z:
            def plan(regs=regs, rs=instr.rs,
                     test=ZERO_TESTS_U[spec.condition.value],
                     target=instr.branch_target(pc), pc4=pc4):
                return target if test(regs[rs]) else pc4
            return plan
        if k is Kind.JUMP:
            target = instr.jump_target(pc)
            return lambda: target
        if k is Kind.JAL:
            def plan(regs=regs, target=instr.jump_target(pc), pc4=pc4):
                regs[31] = pc4
                return target
            return plan
        if k is Kind.JR:
            def plan(regs=regs, rs=instr.rs):
                return regs[rs]
            return plan
        if k is Kind.JALR:
            # write before read: jalr rX, rX returns to PC+4
            def plan(regs=regs, rd=instr.rd, rs=instr.rs, pc4=pc4):
                if rd:
                    regs[rd] = pc4
                return regs[rs]
            return plan
        if k is Kind.HALT:
            # a weak reference: the simulator owns its plans, so a
            # strong one would make every simulator a reference cycle
            def plan(sim=weakref.ref(self), pc4=pc4):
                sim().halted = True
                return pc4
            return plan
        if k is Kind.CTL:
            def plan(append=self.ctl_writes.append, imm=instr.imm, pc4=pc4):
                append(imm)
                return pc4
            return plan
        raise SimulationError("unhandled kind %s" % k)  # pragma: no cover

    def _plan_index(self, pc: int) -> int:
        """Text index of ``pc``; raises the canonical out-of-text error."""
        i = (pc - self.program.text_base) >> 2
        if pc & 3 or not 0 <= i < len(self._plans):
            self.program.instr_at(pc)   # raises ValueError
        return i

    # ------------------------------------------------------------------
    def step(self) -> Instruction:
        """Execute one instruction; returns the instruction executed."""
        if self.halted:
            raise SimulationError("step() after halt")
        i = self._plan_index(self.pc)
        self.pc = self._plans[i]()
        self.instructions_retired += 1
        return self.program.instrs[i]

    def execute(self, instr: Instruction) -> None:
        """Execute ``instr`` at the current PC and advance the PC.

        This is the reference (re-dispatching) semantics;
        :meth:`run_reference`, ``step`` and the block translator use the
        pre-compiled plans, which must match it.
        """
        pc = self.pc
        next_pc = (pc + 4) & 0xFFFFFFFF
        regs = self.regs
        k = instr.spec.kind

        if k is Kind.ALU_RRR:
            regs.write(instr.rd, alu_execute(
                instr.spec.alu_op, regs[instr.rs], regs[instr.rt]))
        elif k is Kind.SHIFT_I:
            regs.write(instr.rd, alu_execute(
                instr.spec.alu_op, regs[instr.rs], instr.shamt))
        elif k is Kind.ALU_RRI:
            regs.write(instr.rt, alu_execute(
                instr.spec.alu_op, regs[instr.rs], instr.imm))
        elif k is Kind.LUI:
            regs.write(instr.rt, (instr.imm << 16) & 0xFFFFFFFF)
        elif k is Kind.LOAD:
            addr = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            raw = self.memory.read(addr, LOAD_SIZE[instr.op])
            regs.write(instr.rt, load_value(instr.op, raw))
        elif k is Kind.STORE:
            addr = (regs[instr.rs] + instr.imm) & 0xFFFFFFFF
            self.memory.write(addr, regs[instr.rt], STORE_SIZE[instr.op])
        elif k is Kind.BRANCH_CMP:
            taken = (regs[instr.rs] == regs[instr.rt]) \
                if instr.op == "beq" else (regs[instr.rs] != regs[instr.rt])
            if taken:
                next_pc = instr.branch_target(pc)
        elif k is Kind.BRANCH_Z:
            value = to_signed(regs[instr.rs])
            cond = instr.spec.condition
            taken = _eval_zero(cond.value, value)
            if taken:
                next_pc = instr.branch_target(pc)
        elif k is Kind.JUMP:
            next_pc = instr.jump_target(pc)
        elif k is Kind.JAL:
            regs.write(31, next_pc)
            next_pc = instr.jump_target(pc)
        elif k is Kind.JR:
            next_pc = regs[instr.rs]
        elif k is Kind.JALR:
            regs.write(instr.rd, next_pc)
            next_pc = regs[instr.rs]
        elif k is Kind.HALT:
            self.halted = True
        elif k is Kind.CTL:
            self.ctl_writes.append(instr.imm)
        else:  # pragma: no cover - table is closed
            raise SimulationError("unhandled kind %s" % k)

        self.pc = next_pc
        self.instructions_retired += 1

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 200_000_000,
            observer: Optional[Callable[[int, Instruction, int], None]]
            = None, trace=None) -> int:
        """Run to ``halt``; returns the number of instructions retired.

        ``observer(pc, instr, next_pc)`` is invoked after each retired
        instruction when supplied.  ``trace`` (a
        :class:`repro.telemetry.Tracer`) is the light telemetry hook:
        it rides the same observer slot, emitting one ``retire`` event
        per instruction, and composes with an explicit observer.  With
        neither attached the run takes the block translator
        (:mod:`repro.sim.blocks`); with either it takes
        :meth:`run_reference`, which calls back per instruction.  Both
        give bit-identical architectural state, retire counts and
        errors.  Raises :class:`SimulationError` if the instruction
        budget is exhausted (runaway program).
        """
        if trace is not None:
            from repro.telemetry.tracer import retire_observer
            observer = retire_observer(trace, observer)
        if observer is None:
            from repro.sim.blocks import run_functional_blocks
            return run_functional_blocks(self, max_instructions)
        return self.run_reference(max_instructions, observer)

    def run_reference(self, max_instructions: int = 200_000_000,
                      observer: Optional[Callable[[int, Instruction, int],
                                                  None]] = None) -> int:
        """The reference loop: one execution plan per instruction.

        Same contract as :meth:`run`, minus ``trace``; the block
        translator is checked against this loop, and the equivalence
        locks call it by name."""
        plans = self._plans
        instrs = self.program.instrs
        base = self.program.text_base
        n = len(plans)
        retired = 0
        try:
            while not self.halted:
                if retired >= max_instructions:
                    raise SimulationError(
                        "instruction budget (%d) exhausted at pc=0x%x"
                        % (max_instructions, self.pc))
                pc = self.pc
                i = (pc - base) >> 2
                if pc & 3 or not 0 <= i < n:
                    self.program.instr_at(pc)   # raises ValueError
                next_pc = plans[i]()
                self.pc = next_pc
                retired += 1
                if observer is not None:
                    observer(pc, instrs[i], next_pc)
        finally:
            self.instructions_retired += retired
        return retired

    # ------------------------------------------------------------------
    def branch_outcome(self, instr: Instruction) -> bool:
        """Would this conditional branch be taken in the current state?

        Does not modify any state — used by predictor evaluation.
        """
        k = instr.spec.kind
        if k is Kind.BRANCH_CMP:
            eq = self.regs[instr.rs] == self.regs[instr.rt]
            return eq if instr.op == "beq" else not eq
        if k is Kind.BRANCH_Z:
            return _eval_zero(instr.spec.condition.value,
                              to_signed(self.regs[instr.rs]))
        raise ValueError("not a conditional branch: %s" % instr)


def _eval_zero(cond_sym: str, value: int) -> bool:
    """Evaluate a zero-comparison on a signed value (hot helper)."""
    if cond_sym == "==0":
        return value == 0
    if cond_sym == "!=0":
        return value != 0
    if cond_sym == "<0":
        return value < 0
    if cond_sym == "<=0":
        return value <= 0
    if cond_sym == ">0":
        return value > 0
    return value >= 0


def collect_branch_trace(program: Program,
                         memory: Optional[MainMemory] = None,
                         max_instructions: int = 200_000_000
                         ) -> BranchTrace:
    """Run a program functionally and record every conditional branch.

    The resulting trace can replay against any number of standalone
    branch predictors far faster than re-running the full simulation,
    which is how the per-branch accuracy tables (paper Figures 7, 9, 10)
    are produced.  The same run tallies, per branch, its outcomes and
    the definition-to-branch distances :mod:`repro.profiling` reduces
    to a :class:`~repro.profiling.BranchProfile`.  It is one run on the
    profiling mode of the block translator; raises
    :class:`SimulationError` when ``max_instructions`` run out first.
    """
    from repro.sim.blocks import profile_pass
    return profile_pass(FunctionalSimulator(program, memory),
                        max_instructions)
