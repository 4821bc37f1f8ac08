"""The functional simulator's block translator (a basic-block
translation cache): what ``FunctionalSimulator.run`` executes when
nothing observes retirement.

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

Bit-identity with the reference loop
(:meth:`~repro.sim.functional.FunctionalSimulator.run_reference`),
including mid-block traps, ``max_instructions`` exhaustion and
out-of-text errors, is the whole point: the generated statements
replicate the execution plans of
:class:`~repro.sim.functional.FunctionalSimulator` expression by
expression, and a *budget margin* keeps the fast loop from ever running
past the instruction budget (the precise tail is single-stepped on the
always-present plans).  ``tests/test_differential_random.py`` and
``tests/test_blocks_engine.py`` enforce the equivalence.

Profiling mode
--------------
``generate_source(program, profile=True)`` emits the same blocks with
the branch profiler's accounting compiled in; it backs
:func:`repro.sim.functional.collect_branch_trace`, the one functional
pass that yields the branch trace and the per-branch
definition-to-branch distances of :mod:`repro.profiling`.  Every
conditional-branch terminator appends one interned
:class:`~repro.sim.functional.BranchRecord` per outcome (``A``), and
every zero-comparison branch appends one *distance code* per execution
to its own list (``x<i>``): ``distance``, plus :data:`LOAD_BIAS` when
the predicate's last producer was a load.  The distance is a
compile-time constant when the superblock itself writes the predicate
register; otherwise it is ``S[2] - W[reg]``, where ``W`` holds, for
the registers zero-comparison branches test (the *watched* set), the
retire count right after their last write.  Each block refreshes ``W``
for the watched registers it writes, once, after its ``S[2]``
increment, and the dispatcher's single-step path keeps the same
accounts (:class:`ProfilePass`).  DESIGN.md gives the argument that the
result equals a per-instruction profiler's.

Generated sources are memoized per process, keyed on the program object
(``id`` + mutation ``version``) and the mode.  A bound translation is
made per run and unbound when the run ends (its sibling cells and
dispatch dict are cleared), so a finished run holds no reference cycle
and its memory image is freed as soon as the simulator is.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.alu import (
    LOAD_SIZE,
    MASK32,
    STORE_SIZE,
    _op_div,
    _op_rem,
    _sra,
    to_signed,
)
from repro.isa.opcodes import Kind
from repro.sim.functional import (
    FAR_DISTANCE,
    BranchRecord,
    BranchTally,
    BranchTrace,
    SimulationError,
)

#: superblock length cap: chains inline through unconditional transfers
#: and fall-through leaders until they hit control flow or this many
#: instructions.  Also the budget margin of the functional dispatcher.
CHAIN_CAP = 32

#: added to a profiling distance code when the predicate's producer was
#: a load; far above any distance a run can reach (FAR_DISTANCE and the
#: instruction budget both sit below it)
LOAD_BIAS = 1 << 40

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
        size = LOAD_SIZE[op]
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
                                           STORE_SIZE[op]))
        return
    if k is Kind.CTL:
        body.append("ctl(%d)" % instr.imm)
        return
    raise SimulationError("unhandled kind %s" % k)  # pragma: no cover


def _zero_regs(program) -> Dict[int, int]:
    """Text index -> predicate register of every zero-comparison branch.

    Those registers, less r0 (its writes are discarded), are the
    *watched* set whose last write profiling keeps in ``W``.
    """
    return {i: instr.zero_condition[1]
            for i, instr in enumerate(program.instrs)
            if instr.zero_condition is not None}


def _profile_lines(program, pcs: List[int],
                   watched: Set[int]) -> List[str]:
    """Profiling accounting for one superblock, emitted after its
    ``S[2]`` increment (so ``S[2]`` is the retire count after its last
    slot): refresh ``W`` for the watched registers the block writes,
    then append the terminating zero-comparison branch's distance code.
    """
    instrs = program.instrs
    base = program.text_base
    slots = [instrs[(pc - base) >> 2] for pc in pcs]
    last = len(slots) - 1
    last_def: Dict[int, int] = {}
    for q, instr in enumerate(slots):
        dest = instr.dest_reg
        if dest:
            last_def[dest] = q

    def code(reg: int) -> int:
        """Slots from ``reg``'s last write to the last slot, plus
        LOAD_BIAS when a load wrote it."""
        q = last_def[reg]
        return last - q + (LOAD_BIAS if slots[q].is_load else 0)

    lines = []
    for reg in sorted(last_def):
        if reg in watched:
            back = code(reg)
            lines.append("W[%d] = S[2] - %d" % (reg, back) if back
                         else "W[%d] = S[2]" % reg)
    zc = slots[last].zero_condition
    if zc is not None:
        i = (pcs[last] - base) >> 2
        reg = zc[1]
        if reg in last_def:        # producer inside the block: constant
            lines.append("x%d(%d)" % (i, code(reg)))
        else:
            lines.append("x%d(S[2] - W[%d])" % (i, reg))
    return lines


def _compile_block(program, leaders: Set[int], L: int,
                   watched: Optional[Set[int]] = None
                   ) -> Tuple[List[str], Tuple[int, ...]]:
    """Body lines + per-slot PCs for the superblock starting at ``L``.

    ``watched`` (profiling mode only) is the watched register set.
    """
    profile = watched is not None
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
            if profile:
                # record the outcome (interned records, see bind)
                term = ["if %s:" % cond, "    A(_T%d)" % idx] \
                    + ["    " + ln for ln in taken] \
                    + ["A(_N%d)" % idx] + fall
            elif len(taken) == 1 and len(fall) == 1:
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
    if profile:
        body.extend(_profile_lines(program, pcs, watched))
    body.extend(term)
    return body, tuple(pcs)


def generate_source(program, profile: bool = False) -> str:
    """The complete generated module source for ``program``.

    Layout: one ``bind(r, read, write, ctl, S, D)`` function whose body
    defines one sibling function per leader (so inter-block references
    are closure cells shared through ``bind``'s scope), fills the pc ->
    function dispatch dict ``D`` and returns ``unbind``, which empties
    the sibling cells and ``D`` again; plus a ``META`` literal mapping
    each leader index to ``(block_length, per_slot_pcs)``.  With
    ``profile``, ``bind`` also takes the trace append ``A``, the
    last-def index ``W`` and the per-branch distance-code lists ``X``
    (see the module docstring).
    """
    base = program.text_base
    leaders = discover_leaders(program)
    order = sorted(leaders)
    zero_regs = _zero_regs(program) if profile else {}
    watched = {r for r in zero_regs.values() if r} if profile else None
    meta: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    out: List[str] = [
        "# generated by repro.sim.blocks -- do not edit",
        "def bind(r, read, write, ctl, S, D%s):"
        % (", A, W, X" if profile else ""),
    ]
    for i in zero_regs:
        out.append("    x%d = X[%d].append" % (i, i))
    for L in order:
        body, pcs = _compile_block(program, leaders, L, watched)
        meta[L] = (len(pcs), pcs)
        out.append("    def b%d():" % L)
        for line in body:
            out.append("        " + line)
    out.append("    D.update({")
    for L in order:
        out.append("        %d: b%d," % (base + 4 * L, L))
    out.append("    })")
    out.append("    def unbind():")
    if order:
        names = ["b%d" % L for L in order]
        out.append("        nonlocal %s" % ", ".join(names))
        out.append("        %s = None" % " = ".join(names))
    out.append("        D.clear()")
    out.append("    return unbind")
    out.append("META = %r" % (meta,))
    return "\n".join(out) + "\n"


# ======================================================================
# compiled artifacts and their process memo
# ======================================================================
class BoundBlocks:
    """One program's compiled blocks bound to one run's state."""

    __slots__ = ("D", "pc_of", "pcs_of", "S", "max_len", "unbind")

    def __init__(self, D, pc_of, pcs_of, S, max_len, unbind):
        self.D = D              # pc -> block function
        self.pc_of = pc_of      # block function -> entry pc
        self.pcs_of = pcs_of    # block function -> per-slot pcs
        self.S = S              # the shared exit/progress list
        self.max_len = max_len  # longest block (the budget margin)
        self.unbind = unbind    # breaks the sibling/dispatch cycles


class CompiledBlocks:
    """The exec'd translation of one program (shareable, stateless).

    In profiling mode it also owns the interned branch records — one
    per (conditional branch, outcome), immutable, shared by every trace
    of the program — and the tables the single-step accounting reads.
    """

    __slots__ = ("source", "namespace", "max_len", "program", "records",
                 "zero_regs", "watched")

    def __init__(self, source: str, program, profile: bool = False) -> None:
        self.source = source
        self.program = program   # strong ref keeps id(program) stable
        g = {"_sra": _sra, "_div": _op_div, "_rem": _op_rem,
             "_sgn": to_signed}
        #: text index -> (not-taken record, taken record)
        self.records: Dict[int, Tuple[BranchRecord, BranchRecord]] = {}
        #: text index -> predicate register, zero-comparison branches
        self.zero_regs: Dict[int, int] = {}
        self.watched: Set[int] = set()
        if profile:
            for i, instr in enumerate(program.instrs):
                if not instr.is_branch:
                    continue
                pc = program.pc_of(i)
                target = instr.branch_target(pc)
                pair = (BranchRecord(pc, False, target),
                        BranchRecord(pc, True, target))
                self.records[i] = pair
                g["_N%d" % i], g["_T%d" % i] = pair
            self.zero_regs = _zero_regs(program)
            self.watched = {r for r in self.zero_regs.values() if r}
        exec(compile(source, "<repro.sim.blocks>", "exec"), g)
        self.namespace = g
        self.max_len = max(
            (m[0] for m in g["META"].values()), default=1) or 1

    def bind(self, sim, prof: Optional["ProfilePass"] = None
             ) -> BoundBlocks:
        """Instantiate the blocks against one simulator's state (and,
        in profiling mode, one pass's accounts)."""
        S = [0, 0, 0, 0]
        D: Dict[int, object] = {}
        extra = () if prof is None else (prof.trace.append, prof.W,
                                         prof.codes)
        unbind = self.namespace["bind"](
            sim.regs.raw, sim.memory.read, sim.memory.write,
            sim.ctl_writes.append, S, D, *extra)
        base = self.program.text_base
        pc_of = {}
        pcs_of = {}
        for idx, (_length, pcs) in self.namespace["META"].items():
            fn = D[base + 4 * idx]
            pc_of[fn] = base + 4 * idx
            pcs_of[fn] = pcs
        return BoundBlocks(D, pc_of, pcs_of, S, self.max_len, unbind)


#: per-process translation memo: (id(program), mutation version,
#: profiling mode) -> CompiledBlocks.  The artifact holds a strong
#: program reference, so a live entry's id can never be reused by a
#: different program.
_MEMO: Dict[Tuple[int, int, bool], CompiledBlocks] = {}
_MEMO_CAP = 128


def compile_blocks(program, profile: bool = False) -> CompiledBlocks:
    """Translate ``program``, consulting the process memo.

    Mutating a program through ``replace_instr`` bumps its ``version``
    and so invalidates the memo entry.
    """
    key = (id(program), getattr(program, "version", 0), profile)
    hit = _MEMO.get(key)
    if hit is not None and hit.program is program:
        return hit
    art = CompiledBlocks(generate_source(program, profile), program,
                         profile)
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = art
    return art


# ======================================================================
# profiling pass
# ======================================================================
class ProfilePass:
    """The accounts of one profiling run: the trace, the last-def index
    ``W`` and each zero-comparison branch's distance codes."""

    def __init__(self, art: CompiledBlocks) -> None:
        self.art = art
        self.trace = BranchTrace()
        # never-written registers read as FAR_DISTANCE or more away
        self.W = [-FAR_DISTANCE] * 32
        self.codes: Dict[int, List[int]] = {i: [] for i in art.zero_regs}

    def step(self, sim, i: int, retired: int) -> None:
        """Account instruction ``i``, about to be single-stepped as the
        ``retired + 1``-th instruction of the run: what its compiled
        block would have recorded for it."""
        art = self.art
        instr = sim.program.instrs[i]
        if instr.is_branch:
            self.trace.append(art.records[i][sim.branch_outcome(instr)])
            reg = art.zero_regs.get(i)
            if reg is not None:
                self.codes[i].append(retired + 1 - self.W[reg])
        dest = instr.dest_reg
        if dest in art.watched:
            self.W[dest] = retired + 1 - (LOAD_BIAS if instr.is_load
                                          else 0)

    def result(self, retired: int) -> BranchTrace:
        """Reduce the accounts to the trace's per-branch tallies."""
        art = self.art
        trace = self.trace
        by_id = {id(rec): rec for pair in art.records.values()
                 for rec in pair}
        tallies: Dict[int, BranchTally] = {}
        # Counter keeps first-seen order: tallies follow first execution
        for rid, n in Counter(map(id, trace)).items():
            rec = by_id[rid]
            tally = tallies.get(rec.pc)
            if tally is None:
                tally = tallies[rec.pc] = BranchTally()
            tally.count += n
            if rec.taken:
                tally.taken += n
        pc_of = art.program.pc_of
        for i, codes in self.codes.items():
            if not codes:
                continue
            dist = tallies[pc_of(i)].distances
            for code, n in Counter(codes).items():
                load = code >= LOAD_BIAS
                key = (min(code - LOAD_BIAS if load else code,
                           FAR_DISTANCE), load)
                dist[key] = dist.get(key, 0) + n
        trace.tallies = tallies
        trace.instructions = retired
        return trace


def profile_pass(sim, max_instructions: int) -> BranchTrace:
    """Run ``sim`` to halt on the profiling translation; returns its
    branch trace with the per-branch tallies."""
    prof = ProfilePass(compile_blocks(sim.program, profile=True))
    return prof.result(run_functional_blocks(sim, max_instructions, prof))


# ======================================================================
# functional dispatcher
# ======================================================================
def run_functional_blocks(sim, max_instructions: int,
                          prof: Optional[ProfilePass] = None) -> int:
    """Block-dispatch twin of ``FunctionalSimulator.run_reference``
    (no observer): what ``FunctionalSimulator.run`` executes.

    The fast loop only runs a block while at least ``max_len`` budget
    remains, so a block can never overrun ``max_instructions``; the
    precise tail (and any stretch between an indirect jump and the next
    leader) single-steps on the interpreter's execution plans, which
    keeps trap PCs, retire counts and error messages bit-identical.
    With ``prof`` the run uses the profiling translation and the single
    steps keep its accounts.  The translation is bound for this run
    only and unbound when it ends.
    """
    art = prof.art if prof is not None else compile_blocks(sim.program)
    b = art.bind(sim, prof)
    D_get = b.D.get
    pc_of = b.pc_of
    pcs_of = b.pcs_of
    S = b.S
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
            if prof is not None:
                prof.step(sim, i, S[2])
            pc = plans[i]()
            S[2] += 1
            sim.pc = pc
    finally:
        b.unbind()
        sim.instructions_retired += S[2]
    return S[2]
