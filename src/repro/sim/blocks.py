"""Block-compiled functional engine (a basic-block translation cache).

The functional simulator's plan loop still pays one Python-level
indirect call per retired instruction.  This module removes that floor
the way dynamic binary translators do: straight-line regions are
compiled *once per program* into specialized Python functions, so the
per-instruction work collapses into consecutive statements inside one
frame.  (The pipeline's compiled loop is :mod:`repro.sim.superblocks`.)

:func:`discover_leaders` finds basic-block leaders (program entry,
branch targets, branch/``jal`` fall-throughs).  For each leader,
:func:`generate_source` emits one function containing the whole
*superblock*: straight-line code is inlined through unconditional
``j``/``jal`` transfers and across fall-through leader boundaries up to
:data:`CHAIN_CAP` instructions.  Dispatch is *threaded*: every generated
function returns the next block's function object directly (the
functions are siblings in one ``bind()`` scope, so the references are
closure cells — no table lookup between blocks), and the dispatcher
loop is three lines.  Exits that cannot be threaded (indirect jumps to
unknown targets, halt, running off text) are reported through a small
shared list ``S``:

``S[0]``
    progress index *within* the current block, written before every
    memory access — the only statements that can raise — so a trap
    handler can reconstruct the exact architectural PC and retire count.
``S[1]``/``S[3]``
    exit reason (1 = halt retired, 2 = leave the fast path) and exit PC.
``S[2]``
    cumulative retired-instruction count; each block adds its length
    right before its terminator.

Bit-identity with the interpreted loop — including mid-block traps,
``max_instructions`` exhaustion and out-of-text errors — is the whole
point: the generated statements replicate the execution plans of
:class:`~repro.sim.functional.FunctionalSimulator` expression by
expression, and a *budget margin* keeps the fast loop from ever running
past the instruction budget (the precise tail is single-stepped on the
always-present plans).  ``tests/test_differential_random.py`` and
``tests/test_blocks_engine.py`` enforce the equivalence.

Generated sources are memoized per process, keyed on the program object
(``id`` + mutation ``version``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.isa.alu import MASK32, _op_div, _op_rem, _sra, to_signed
from repro.isa.opcodes import Kind
from repro.sim.functional import SimulationError

#: superblock length cap: chains inline through unconditional transfers
#: and fall-through leaders until they hit control flow or this many
#: instructions.  Also the budget margin of the functional dispatcher.
CHAIN_CAP = 32

_LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4}

# condition-expression templates; same unsigned tests as
# repro.isa.alu.ZERO_TESTS_U (bit 31 set <=> negative)
_ZTEST_FMT = {
    "==0": "%s == 0",
    "!=0": "%s != 0",
    "<0": "%s >= 2147483648",
    "<=0": "%s == 0 or %s >= 2147483648",
    ">0": "0 < %s < 2147483648",
    ">=0": "%s < 2147483648",
}


def _r(reg: int) -> str:
    """Operand expression for a register read (r0 is hardwired zero)."""
    return "0" if reg == 0 else "r[%d]" % reg


def _alu_expr(op: str, a: str, b: str) -> str:
    """Expression computing ALU ``op`` on operand expressions ``a``/``b``.

    Must be value-equivalent to ``repro.isa.alu._ALU_OPS[op](a, b)`` —
    the differential suite compares final register files bit for bit.
    """
    if op in ("add", "addu"):
        return "(%s + %s) & 4294967295" % (a, b)
    if op in ("sub", "subu"):
        return "(%s - %s) & 4294967295" % (a, b)
    if op == "and":
        return "%s & %s" % (a, b)
    if op == "or":
        return "%s | %s" % (a, b)
    if op == "xor":
        return "%s ^ %s" % (a, b)
    if op == "nor":
        return "~(%s | %s) & 4294967295" % (a, b)
    if op == "slt":
        # xor-with-bias maps signed order onto unsigned order, avoiding
        # two to_signed() calls; equivalent to to_signed(a) < to_signed(b)
        return ("1 if ((%s & 4294967295) ^ 2147483648)"
                " < ((%s & 4294967295) ^ 2147483648) else 0" % (a, b))
    if op == "sltu":
        return "1 if (%s & 4294967295) < (%s & 4294967295) else 0" % (a, b)
    if op == "sll":
        return "((%s) << (%s & 31)) & 4294967295" % (a, b)
    if op == "srl":
        return "((%s) & 4294967295) >> (%s & 31)" % (a, b)
    if op == "sra":
        return "_sra(%s, %s & 31)" % (a, b)
    if op == "mul":
        return "(_sgn(%s) * _sgn(%s)) & 4294967295" % (a, b)
    if op == "div":
        return "_div(%s, %s)" % (a, b)
    if op == "rem":
        return "_rem(%s, %s)" % (a, b)
    raise SimulationError("unhandled ALU op %r" % op)  # pragma: no cover


def discover_leaders(program) -> Set[int]:
    """Text indices that start a basic block.

    Leaders: index 0, the entry point, every in-text branch/jump target,
    and the fall-through successor of each conditional branch and each
    ``jal`` (the return point).  Indirect-jump targets are unknown
    statically; the dispatcher single-steps until it rejoins a leader.
    """
    instrs = program.instrs
    n = len(instrs)
    base = program.text_base
    leaders: Set[int] = set()
    if n == 0:
        return leaders
    leaders.add(0)
    if program.entry is not None:
        i = (program.entry - base) >> 2
        if program.entry % 4 == 0 and 0 <= i < n:
            leaders.add(i)

    def add_target(t: int) -> None:
        ti = (t - base) >> 2
        if t % 4 == 0 and 0 <= ti < n:
            leaders.add(ti)

    for i, instr in enumerate(instrs):
        k = instr.spec.kind
        pc = base + 4 * i
        if k is Kind.BRANCH_CMP or k is Kind.BRANCH_Z:
            add_target(instr.branch_target(pc))
            if i + 1 < n:
                leaders.add(i + 1)
        elif k is Kind.JUMP:
            add_target(instr.jump_target(pc))
        elif k is Kind.JAL:
            add_target(instr.jump_target(pc))
            if i + 1 < n:
                leaders.add(i + 1)
    return leaders


def _emit_straight(body: List[str], instr, pc: int, j: int) -> None:
    """Statements for one non-control instruction (plan-equivalent)."""
    spec = instr.spec
    k = spec.kind
    op = instr.op
    if k is Kind.ALU_RRR:
        rd = instr.rd
        if rd:      # rd == 0: write discarded; ALU ops cannot trap
            body.append("r[%d] = %s" % (
                rd, _alu_expr(spec.alu_op, _r(instr.rs), _r(instr.rt))))
        return
    if k is Kind.SHIFT_I:
        rd = instr.rd
        if rd:
            body.append("r[%d] = %s" % (
                rd, _alu_expr(spec.alu_op, _r(instr.rs), repr(instr.shamt))))
        return
    if k is Kind.ALU_RRI:
        rt = instr.rt
        if rt:
            body.append("r[%d] = %s" % (
                rt, _alu_expr(spec.alu_op, _r(instr.rs), repr(instr.imm))))
        return
    if k is Kind.LUI:
        rt = instr.rt
        if rt:
            body.append("r[%d] = %d" % (rt, (instr.imm << 16) & MASK32))
        return
    if k is Kind.LOAD:
        rs, rt = instr.rs, instr.rt
        size = _LOAD_SIZE[op]
        addr = ("%d" % (instr.imm & MASK32) if rs == 0
                else "(r[%d] + %d) & 4294967295" % (rs, instr.imm))
        body.append("S[0] = %d" % j)    # trap point: j instrs completed
        if rt == 0:
            # the access (and any alignment trap) still happens
            body.append("read(%s, %d)" % (addr, size))
        elif op == "lw":
            body.append("r[%d] = read(%s, 4) & 4294967295" % (rt, addr))
        elif op == "lbu":
            body.append("r[%d] = read(%s, 1) & 255" % (rt, addr))
        elif op == "lhu":
            body.append("r[%d] = read(%s, 2) & 65535" % (rt, addr))
        elif op == "lb":
            body.append("v = read(%s, 1) & 255" % addr)
            body.append("r[%d] = (v - 256) & 4294967295 if v & 128 else v"
                        % rt)
        else:   # lh
            body.append("v = read(%s, 2) & 65535" % addr)
            body.append("r[%d] = (v - 65536) & 4294967295 if v & 32768"
                        " else v" % rt)
        return
    if k is Kind.STORE:
        rs = instr.rs
        addr = ("%d" % (instr.imm & MASK32) if rs == 0
                else "(r[%d] + %d) & 4294967295" % (rs, instr.imm))
        body.append("S[0] = %d" % j)
        body.append("write(%s, %s, %d)" % (addr, _r(instr.rt),
                                           _STORE_SIZE[op]))
        return
    if k is Kind.CTL:
        body.append("ctl(%d)" % instr.imm)
        return
    raise SimulationError("unhandled kind %s" % k)  # pragma: no cover


def _compile_block(program, leaders: Set[int], L: int
                   ) -> Tuple[List[str], Tuple[int, ...]]:
    """Body lines + per-slot PCs for the superblock starting at ``L``."""
    instrs = program.instrs
    n = len(instrs)
    base = program.text_base

    def goto(pc: int) -> List[str]:
        """Thread to the block at ``pc``, or leave the fast path."""
        if pc % 4 == 0:
            i = (pc - base) >> 2
            if 0 <= i < n and i in leaders:
                return ["return b%d" % i]
        return ["S[1] = 2", "S[3] = %d" % pc, "return None"]

    body: List[str] = []
    pcs: List[int] = []
    idx = L
    while True:
        if idx >= n:
            # fell off the end of text: the dispatcher reproduces the
            # interpreter's canonical out-of-text error
            term = ["S[1] = 2", "S[3] = %d" % (base + 4 * idx),
                    "return None"]
            break
        pc = base + 4 * idx
        if pcs and len(pcs) >= CHAIN_CAP:
            term = goto(pc)
            break
        instr = instrs[idx]
        k = instr.spec.kind
        pc4 = (pc + 4) & MASK32

        if k is Kind.BRANCH_CMP or k is Kind.BRANCH_Z:
            pcs.append(pc)
            if k is Kind.BRANCH_CMP:
                cmp_op = "==" if instr.op == "beq" else "!="
                cond = "%s %s %s" % (_r(instr.rs), cmp_op, _r(instr.rt))
            else:
                fmt = _ZTEST_FMT[instr.spec.condition.value]
                a = _r(instr.rs)
                cond = fmt % ((a,) * fmt.count("%s"))
            taken = goto(instr.branch_target(pc))
            fall = goto(pc4)
            if len(taken) == 1 and len(fall) == 1:
                # both arms thread: fold into one conditional return
                term = ["%s if %s else %s"
                        % (taken[0], cond, fall[0].replace("return ", ""))]
            else:
                term = ["if %s:" % cond] \
                    + ["    " + ln for ln in taken] + fall
            break
        if k is Kind.JUMP or k is Kind.JAL:
            pcs.append(pc)
            if k is Kind.JAL:
                body.append("r[31] = %d" % pc4)
            t = instr.jump_target(pc)
            ti = (t - base) >> 2
            if t % 4 == 0 and 0 <= ti < n and len(pcs) < CHAIN_CAP:
                idx = ti        # inline straight through the transfer
                continue
            term = goto(t)
            break
        if k is Kind.JR or k is Kind.JALR:
            pcs.append(pc)
            if k is Kind.JALR and instr.rd:
                # write before read: jalr rX, rX returns to PC+4
                body.append("r[%d] = %d" % (instr.rd, pc4))
            rs = instr.rs
            if rs == 0:
                term = ["S[1] = 2", "S[3] = 0", "return None"]
            else:
                term = ["f = D.get(r[%d])" % rs,
                        "if f is None:",
                        "    S[1] = 2",
                        "    S[3] = r[%d]" % rs,
                        "    return None",
                        "return f"]
            break
        if k is Kind.HALT:
            pcs.append(pc)
            term = ["S[1] = 1", "S[3] = %d" % pc4, "return None"]
            break

        pcs.append(pc)
        _emit_straight(body, instr, pc, len(pcs) - 1)
        idx += 1

    body.append("S[2] += %d" % len(pcs))
    body.extend(term)
    return body, tuple(pcs)


def generate_source(program) -> str:
    """The complete generated module source for ``program``.

    Layout: one ``bind(r, read, write, ctl, S, D)`` function whose body
    defines one sibling function per leader (so inter-block references
    are closure cells shared through ``bind``'s scope) and finally fills
    the pc -> function dispatch dict ``D``; plus a ``META`` literal
    mapping each leader index to ``(block_length, per_slot_pcs)``.
    """
    base = program.text_base
    leaders = discover_leaders(program)
    order = sorted(leaders)
    meta: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    out: List[str] = [
        "# generated by repro.sim.blocks -- do not edit",
        "def bind(r, read, write, ctl, S, D):",
    ]
    for L in order:
        body, pcs = _compile_block(program, leaders, L)
        meta[L] = (len(pcs), pcs)
        out.append("    def b%d():" % L)
        for line in body:
            out.append("        " + line)
    out.append("    D.update({")
    for L in order:
        out.append("        %d: b%d," % (base + 4 * L, L))
    out.append("    })")
    out.append("    return D")
    out.append("META = %r" % (meta,))
    return "\n".join(out) + "\n"


# ======================================================================
# compiled artifacts and their process memo
# ======================================================================
class BoundBlocks:
    """One program's compiled blocks bound to one simulator's state."""

    __slots__ = ("D", "pc_of", "pcs_of", "S", "max_len")

    def __init__(self, D, pc_of, pcs_of, S, max_len):
        self.D = D              # pc -> block function
        self.pc_of = pc_of      # block function -> entry pc
        self.pcs_of = pcs_of    # block function -> per-slot pcs
        self.S = S              # the shared exit/progress list
        self.max_len = max_len  # longest block (the budget margin)


class CompiledBlocks:
    """The exec'd translation of one program (shareable, stateless)."""

    __slots__ = ("source", "namespace", "max_len", "program")

    def __init__(self, source: str, program) -> None:
        self.source = source
        self.program = program   # strong ref keeps id(program) stable
        g = {"_sra": _sra, "_div": _op_div, "_rem": _op_rem,
             "_sgn": to_signed}
        exec(compile(source, "<repro.sim.blocks>", "exec"), g)
        self.namespace = g
        self.max_len = max(
            (m[0] for m in g["META"].values()), default=1) or 1

    def bind(self, regs, read, write, ctl) -> BoundBlocks:
        """Instantiate the blocks against one simulator's state."""
        S = [0, 0, 0, 0]
        D: Dict[int, object] = {}
        self.namespace["bind"](regs, read, write, ctl, S, D)
        base = self.program.text_base
        pc_of = {}
        pcs_of = {}
        for idx, (_length, pcs) in self.namespace["META"].items():
            fn = D[base + 4 * idx]
            pc_of[fn] = base + 4 * idx
            pcs_of[fn] = pcs
        return BoundBlocks(D, pc_of, pcs_of, S, self.max_len)


#: per-process translation memo: (id(program), mutation version) ->
#: CompiledBlocks.  The artifact holds a strong program reference, so a
#: live entry's id can never be reused by a different program.
_MEMO: Dict[Tuple[int, int], CompiledBlocks] = {}
_MEMO_CAP = 128


def compile_blocks(program) -> CompiledBlocks:
    """Translate ``program``, consulting the process memo.

    Mutating a program through ``replace_instr`` bumps its ``version``
    and so invalidates the memo entry.
    """
    key = (id(program), getattr(program, "version", 0))
    hit = _MEMO.get(key)
    if hit is not None and hit.program is program:
        return hit
    art = CompiledBlocks(generate_source(program), program)
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = art
    return art


def bind_functional(sim) -> BoundBlocks:
    """Compile ``sim.program`` and bind it to ``sim``'s live state."""
    art = compile_blocks(sim.program)
    return art.bind(sim.regs.raw, sim.memory.read, sim.memory.write,
                    sim.ctl_writes.append)


# ======================================================================
# functional dispatcher
# ======================================================================
def run_functional_blocks(sim, max_instructions: int) -> int:
    """Block-dispatch twin of ``FunctionalSimulator.run`` (no observer).

    The fast loop only runs a block while at least ``max_len`` budget
    remains, so a block can never overrun ``max_instructions``; the
    precise tail (and any stretch between an indirect jump and the next
    leader) single-steps on the interpreter's execution plans, which
    keeps trap PCs, retire counts and error messages bit-identical.
    """
    b = sim._blocks
    D_get = b.D.get
    pc_of = b.pc_of
    pcs_of = b.pcs_of
    S = b.S
    S[1] = 0
    S[2] = 0
    margin = max_instructions - b.max_len
    plans = sim._plans
    program = sim.program
    base = program.text_base
    n = len(plans)
    pc = sim.pc
    try:
        while not sim.halted:
            fn = D_get(pc)
            if fn is not None and S[2] <= margin:
                try:
                    while True:
                        nxt = fn()
                        if nxt is None:
                            break
                        fn = nxt
                        if S[2] > margin:
                            break
                except BaseException:
                    # only memory accesses raise, and each is preceded
                    # by an S[0] progress write: S[0] slots of the
                    # faulting block retired before pcs[S[0]] trapped
                    S[2] += S[0]
                    sim.pc = pcs_of[fn][S[0]]
                    raise
                if nxt is None:
                    if S[1] == 1:          # halt retired inside a block
                        sim.halted = True
                        sim.pc = S[3]
                        break
                    pc = S[3]              # left the fast path
                    continue
                pc = pc_of[fn]             # budget margin reached
                continue
            # -- precise path: one interpreted step on the plans --
            sim.pc = pc
            if S[2] >= max_instructions:
                raise SimulationError(
                    "instruction budget (%d) exhausted at pc=0x%x"
                    % (max_instructions, pc))
            i = (pc - base) >> 2
            if pc & 3 or not 0 <= i < n:
                program.instr_at(pc)       # raises the canonical error
            pc = plans[i]()
            S[2] += 1
            sim.pc = pc
    finally:
        sim.instructions_retired += S[2]
    return S[2]
