"""Pure 32-bit integer ALU semantics shared by both simulators.

Keeping value computation in one place guarantees that the functional
(golden) simulator and the pipelined simulator can never disagree on what
an instruction *computes* — only on how many cycles it takes.
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def to_unsigned(value: int) -> int:
    """Truncate an integer to its 32-bit pattern."""
    return value & MASK32


def _sra(value: int, shamt: int) -> int:
    return to_unsigned(to_signed(value) >> shamt)


def _div_trunc(a: int, b: int) -> int:
    """Signed division truncating toward zero (C semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem_trunc(a: int, b: int) -> int:
    """Signed remainder with C semantics: sign follows the dividend."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _op_div(a: int, b: int) -> int:
    if to_signed(b) == 0:
        return 0  # embedded cores commonly define div-by-zero as 0
    return to_unsigned(_div_trunc(to_signed(a), to_signed(b)))


def _op_rem(a: int, b: int) -> int:
    if to_signed(b) == 0:
        return 0
    return to_unsigned(_rem_trunc(to_signed(a), to_signed(b)))


#: op name -> implementation; dict dispatch keeps the simulators' hot
#: path a single lookup instead of a string-compare chain
_ALU_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "addu": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "subu": lambda a, b: (a - b) & MASK32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: (~(a | b)) & MASK32,
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sltu": lambda a, b: 1 if (a & MASK32) < (b & MASK32) else 0,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "srl": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": lambda a, b: _sra(a, b & 31),
    "mul": lambda a, b: (to_signed(a) * to_signed(b)) & MASK32,
    "div": _op_div,
    "rem": _op_rem,
    "lui": lambda a, b: (b << 16) & MASK32,
}


def alu_fn(op: str):
    """The raw callable behind :func:`alu_execute` for ``op``.

    The simulators' decoded-dispatch tables resolve the operation once
    at construction and then call the returned function directly, so the
    per-cycle cost is a plain call instead of a dict probe.
    """
    try:
        return _ALU_OPS[op]
    except KeyError:
        raise ValueError("unknown ALU op %r" % op) from None


#: condition symbol -> test on an *unsigned* 32-bit pattern; equivalent
#: to the signed comparisons in ``repro.sim.functional._eval_zero``
#: (bit 31 set <=> negative), but with no sign conversion per call.
ZERO_TESTS_U = {
    "==0": lambda v: v == 0,
    "!=0": lambda v: v != 0,
    "<0": lambda v: v >= 0x80000000,
    "<=0": lambda v: v == 0 or v >= 0x80000000,
    ">0": lambda v: 0 < v < 0x80000000,
    ">=0": lambda v: v < 0x80000000,
}


def _fix_lb(v: int) -> int:
    v &= 0xFF
    return (v - 0x100) & MASK32 if v & 0x80 else v


def _fix_lh(v: int) -> int:
    v &= 0xFFFF
    return (v - 0x10000) & MASK32 if v & 0x8000 else v


#: load/store mnemonic -> access width in bytes
LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4}

#: load mnemonic -> width-correction callable (same results as
#: :func:`load_value`, pre-resolved so the hot loop skips the string
#: comparisons).
LOAD_FIX = {
    "lb": _fix_lb,
    "lbu": lambda v: v & 0xFF,
    "lh": _fix_lh,
    "lhu": lambda v: v & 0xFFFF,
    "lw": lambda v: v & MASK32,
}


def alu_execute(op: str, a: int, b: int) -> int:
    """Execute an ALU operation on two 32-bit operands.

    ``a``/``b`` are unsigned 32-bit patterns; the result is an unsigned
    32-bit pattern.  ``op`` is the base operation name (shift variants and
    immediate forms are normalised by the caller — e.g. ``addi`` executes
    as ``add`` with ``b`` = sign-extended immediate).
    """
    fn = _ALU_OPS.get(op)
    if fn is None:
        raise ValueError("unknown ALU op %r" % op)
    return fn(a, b)


def sign_extend_16(imm: int) -> int:
    """Sign-extend a 16-bit immediate to a 32-bit pattern."""
    imm &= 0xFFFF
    return imm - 0x10000 if imm & 0x8000 else imm


def load_value(op: str, word_or_bytes: int) -> int:
    """Finalize a loaded value according to the load width/signedness.

    ``word_or_bytes`` is the raw (zero-extended) value read from memory at
    the access width; sign extension is applied here for ``lb``/``lh``.
    """
    if op == "lb":
        v = word_or_bytes & 0xFF
        return to_unsigned(v - 0x100 if v & 0x80 else v)
    if op == "lbu":
        return word_or_bytes & 0xFF
    if op == "lh":
        v = word_or_bytes & 0xFFFF
        return to_unsigned(v - 0x10000 if v & 0x8000 else v)
    if op == "lhu":
        return word_or_bytes & 0xFFFF
    if op == "lw":
        return word_or_bytes & MASK32
    raise ValueError("not a load op: %r" % op)
