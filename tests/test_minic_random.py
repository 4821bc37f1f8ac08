"""Differential fuzzing of the minic compiler against a Python
reference evaluator with C semantics (32-bit wrap, truncating division,
arithmetic right shift, short-circuit logic)."""

import random

import pytest

from repro.isa.alu import to_signed, to_unsigned
from repro.minic import compile_to_program
from repro.sim.functional import FunctionalSimulator

_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
            "<", "<=", ">", ">=", "==", "!=", "&&", "||"]
_UN_OPS = ["-", "~", "!"]


def _c_eval(op, a, b):
    """C semantics on 32-bit ints."""
    if op == "+":
        return to_signed(to_unsigned(a + b))
    if op == "-":
        return to_signed(to_unsigned(a - b))
    if op == "*":
        return to_signed(to_unsigned(a * b))
    if op == "/":
        if b == 0:
            return 0        # target-defined
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    if op == "%":
        if b == 0:
            return 0
        r = abs(a) % abs(b)
        return -r if a < 0 else r
    if op == "&":
        return to_signed(to_unsigned(a) & to_unsigned(b))
    if op == "|":
        return to_signed(to_unsigned(a) | to_unsigned(b))
    if op == "^":
        return to_signed(to_unsigned(a) ^ to_unsigned(b))
    if op == "<<":
        return to_signed(to_unsigned(a << (b & 31)))
    if op == ">>":
        return a >> (b & 31)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise AssertionError(op)


def _gen_expr(rng, depth):
    """Returns (source_text, value) with C semantics."""
    if depth == 0 or rng.random() < 0.3:
        value = rng.randint(-100, 100)
        if value < 0:
            return "(-%d)" % -value, value
        return str(value), value
    if rng.random() < 0.2:
        op = rng.choice(_UN_OPS)
        text, value = _gen_expr(rng, depth - 1)
        if op == "-":
            return "(-%s)" % text, to_signed(to_unsigned(-value))
        if op == "~":
            return "(~%s)" % text, to_signed(~to_unsigned(value)
                                             & 0xFFFFFFFF)
        return "(!%s)" % text, int(not value)
    op = rng.choice(_BIN_OPS)
    lt, lv = _gen_expr(rng, depth - 1)
    rt, rv = _gen_expr(rng, depth - 1)
    if op in ("<<", ">>"):
        # keep shift amounts in range and left operands modest
        rt, rv = str(abs(rv) % 12), abs(rv) % 12
    return "(%s %s %s)" % (lt, op, rt), _c_eval(op, lv, rv)


@pytest.mark.parametrize("seed", range(30))
def test_random_expressions_match_c_semantics(seed):
    rng = random.Random(seed)
    exprs = []
    total = 0
    for _ in range(6):
        text, value = _gen_expr(rng, 4)
        exprs.append((text, value))
        total = to_signed(to_unsigned(total + value))
    body = "".join("int v%d = %s;\n" % (i, t)
                   for i, (t, _v) in enumerate(exprs))
    body += "return %s;" % " + ".join("v%d" % i for i in range(len(exprs)))
    prog = compile_to_program("int main() {\n%s\n}" % body)
    sim = FunctionalSimulator(prog)
    sim.run(max_instructions=1_000_000)
    assert to_signed(sim.regs[2]) == total


@pytest.mark.parametrize("seed", range(10))
def test_random_expression_on_pipeline_matches_functional(seed):
    rng = random.Random(1000 + seed)
    text, value = _gen_expr(rng, 5)
    prog = compile_to_program("int main() { return %s; }" % text)
    f = FunctionalSimulator(prog)
    f.run_reference(max_instructions=1_000_000)
    from repro.sim.pipeline import PipelineSimulator
    p = PipelineSimulator(prog)
    p.run()
    assert p.regs.snapshot() == f.regs.snapshot()
    assert to_signed(f.regs[2]) == value
