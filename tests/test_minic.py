"""Tests for the minic compiler: lexer, parser, codegen, execution."""

import pytest

from repro.minic import (
    CodegenError,
    LexerError,
    ParseError,
    compile_source,
    compile_to_program,
    parse,
    tokenize,
)
from repro.sim.functional import FunctionalSimulator


def run_main(body_or_src, is_full=False):
    """Compile and run; returns (v0, simulator)."""
    src = body_or_src if is_full else \
        "int main() { %s }" % body_or_src
    prog = compile_to_program(src)
    sim = FunctionalSimulator(prog)
    sim.run(max_instructions=2_000_000)
    return sim.regs[2], sim


def returns(expr: str) -> int:
    value, _ = run_main("return %s;" % expr)
    return value - 0x100000000 if value & 0x80000000 else value


class TestLexer:
    def test_tokens(self):
        kinds = [t.kind for t in tokenize("int x = 42;")]
        assert kinds == ["kw", "ident", "=", "int", ";", "eof"]

    def test_hex_literals(self):
        toks = tokenize("0xFF")
        assert toks[0].value == "0xFF"

    def test_comments_stripped(self):
        toks = tokenize("a // line\n/* block\nblock */ b")
        assert [t.value for t in toks[:-1]] == ["a", "b"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_two_char_operators(self):
        kinds = [t.kind for t in tokenize("a <= b << c && d")]
        assert "<=" in kinds and "<<" in kinds and "&&" in kinds

    def test_unterminated_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* oops")

    def test_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")


class TestParser:
    def test_precedence(self):
        unit = parse("int main() { return 1 + 2 * 3; }")
        ret = unit.functions[0].body[0]
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_left_associativity(self):
        unit = parse("int main() { return 10 - 3 - 2; }")
        expr = unit.functions[0].body[0].value
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_parens_override(self):
        unit = parse("int main() { return (1 + 2) * 3; }")
        assert unit.functions[0].body[0].value.op == "*"

    def test_global_array_with_init(self):
        unit = parse("int t[4] = {1, 2, 3};\nint main() { return 0; }")
        g = unit.globals[0]
        assert g.size == 4 and g.init == [1, 2, 3]

    def test_too_many_params(self):
        with pytest.raises(ParseError):
            parse("int f(int a, int b, int c, int d, int e) { return 0; }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { return 1 }")

    def test_too_many_initialisers(self):
        with pytest.raises(ParseError):
            parse("int t[2] = {1,2,3};\nint main(){return 0;}")


class TestExpressions:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + 2", 3),
        ("10 - 4", 6),
        ("6 * 7", 42),
        ("17 / 5", 3),
        ("-17 / 5", -3),            # C truncation
        ("17 % 5", 2),
        ("-17 % 5", -2),            # sign follows dividend
        ("1 << 10", 1024),
        ("-8 >> 1", -4),            # arithmetic shift
        ("12 & 10", 8),
        ("12 | 10", 14),
        ("12 ^ 10", 6),
        ("~0", -1),
        ("-(5)", -5),
        ("!0", 1),
        ("!7", 0),
        ("3 < 4", 1),
        ("4 < 3", 0),
        ("3 <= 3", 1),
        ("4 > 3", 1),
        ("3 >= 4", 0),
        ("5 == 5", 1),
        ("5 != 5", 0),
        ("1 && 2", 1),
        ("1 && 0", 0),
        ("0 || 3", 1),
        ("0 || 0", 0),
        ("2 + 3 * 4", 14),
        ("(2 + 3) * 4", 20),
        ("100 - 10 - 5", 85),
        ("1 + 2 == 3 && 4 < 5", 1),
    ])
    def test_value(self, expr, expected):
        assert returns(expr) == expected

    def test_short_circuit_and(self):
        src = """
        int g = 0;
        int touch() { g = 99; return 1; }
        int main() {
            int r = 0 && touch();
            return g + r;
        }
        """
        value, _sim = run_main(src, is_full=True)
        assert value == 0

    def test_short_circuit_or(self):
        src = """
        int g = 0;
        int touch() { g = 99; return 1; }
        int main() {
            int r = 1 || touch();
            return g * 10 + r;
        }
        """
        value, _sim = run_main(src, is_full=True)
        assert value == 1


class TestStatements:
    def test_locals_and_assignment(self):
        value, _ = run_main("int a = 3; int b; b = a * 4; return b - 2;")
        assert value == 10

    def test_if_else(self):
        value, _ = run_main(
            "int x = 5; if (x > 3) { return 1; } else { return 2; }")
        assert value == 1

    def test_nested_if(self):
        value, _ = run_main("""
            int x = 5;
            if (x > 0) { if (x > 10) { return 1; } else { return 2; } }
            return 3;
        """)
        assert value == 2

    def test_while_loop(self):
        value, _ = run_main(
            "int i = 0; int s = 0;"
            "while (i < 10) { s = s + i; i = i + 1; } return s;")
        assert value == 45

    def test_for_loop(self):
        value, _ = run_main(
            "int s = 0; for (int i = 1; i <= 5; i = i + 1)"
            "{ s = s + i * i; } return s;")
        assert value == 55

    def test_break(self):
        value, _ = run_main(
            "int i = 0; while (1) { if (i == 7) { break; }"
            "i = i + 1; } return i;")
        assert value == 7

    def test_continue(self):
        value, _ = run_main(
            "int s = 0; for (int i = 0; i < 10; i = i + 1) {"
            "if (i % 2) { continue; } s = s + i; } return s;")
        assert value == 20

    def test_return_without_value(self):
        value, _ = run_main("return;")
        assert value == 0

    def test_fallthrough_returns_zero(self):
        value, _ = run_main("int x = 3;")
        assert value == 0


class TestFunctionsAndGlobals:
    def test_arguments_and_return(self):
        src = """
        int add3(int a, int b, int c) { return a + b + c; }
        int main() { return add3(1, 2, 3); }
        """
        assert run_main(src, is_full=True)[0] == 6

    def test_recursion(self):
        src = """
        int fact(int n) { if (n <= 1) { return 1; }
                          return n * fact(n - 1); }
        int main() { return fact(6); }
        """
        assert run_main(src, is_full=True)[0] == 720

    def test_mutual_recursion(self):
        src = """
        int is_even(int n) { if (n == 0) { return 1; }
                             return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; }
                            return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        assert run_main(src, is_full=True)[0] == 11

    def test_global_scalar(self):
        src = """
        int counter = 5;
        int bump() { counter = counter + 1; return counter; }
        int main() { bump(); bump(); return counter; }
        """
        assert run_main(src, is_full=True)[0] == 7

    def test_global_array_readwrite(self):
        src = """
        int table[8];
        int main() {
            for (int i = 0; i < 8; i = i + 1) { table[i] = i * i; }
            int s = 0;
            for (int i = 0; i < 8; i = i + 1) { s = s + table[i]; }
            return s;
        }
        """
        assert run_main(src, is_full=True)[0] == 140

    def test_array_initialiser(self):
        src = """
        int t[4] = {10, 20, 30};
        int main() { return t[0] + t[1] + t[2] + t[3]; }
        """
        assert run_main(src, is_full=True)[0] == 60

    def test_locals_shadow_globals(self):
        src = """
        int x = 100;
        int main() { int x = 1; return x; }
        """
        assert run_main(src, is_full=True)[0] == 1

    def test_params_preserved_across_calls(self):
        src = """
        int id(int v) { return v; }
        int f(int a, int b) { return id(a) * 10 + id(b); }
        int main() { return f(3, 4); }
        """
        assert run_main(src, is_full=True)[0] == 34


class TestErrors:
    def test_undefined_variable(self):
        with pytest.raises(CodegenError, match="undefined variable"):
            compile_source("int main() { return nope; }")

    def test_undefined_function(self):
        with pytest.raises(CodegenError, match="undefined function"):
            compile_source("int main() { return nope(); }")

    def test_arity_mismatch(self):
        with pytest.raises(CodegenError, match="arguments"):
            compile_source("int f(int a) { return a; }"
                           "int main() { return f(1, 2); }")

    def test_no_main(self):
        with pytest.raises(CodegenError, match="main"):
            compile_source("int f() { return 1; }")

    def test_main_with_params(self):
        with pytest.raises(CodegenError, match="main"):
            compile_source("int main(int argc) { return 0; }")

    def test_array_without_index(self):
        with pytest.raises(CodegenError, match="without index"):
            compile_source("int t[4];\nint main() { return t; }")

    def test_index_of_scalar(self):
        with pytest.raises(CodegenError, match="not a global array"):
            compile_source("int s;\nint main() { return s[0]; }")

    def test_break_outside_loop(self):
        with pytest.raises(CodegenError, match="break"):
            compile_source("int main() { break; return 0; }")

    def test_duplicate_function(self):
        with pytest.raises(CodegenError, match="duplicate"):
            compile_source("int f() { return 1; }"
                           "int f() { return 2; }"
                           "int main() { return 0; }")


class TestPipelineIntegration:
    def test_compiled_code_runs_on_pipeline(self):
        """Compiled code matches the golden model on the cycle-accurate
        pipeline, and its branches profile/fold like hand-written code."""
        from repro.predictors import make_predictor
        from repro.sim.pipeline import PipelineSimulator
        src = """
        int data[16] = {5, -3, 8, -1, 9, -7, 2, -4,
                        6, -2, 7, -9, 1, -8, 3, -6};
        int main() {
            int pos = 0;
            for (int i = 0; i < 16; i = i + 1) {
                if (data[i] > 0) { pos = pos + data[i]; }
            }
            return pos;
        }
        """
        prog = compile_to_program(src)
        f = FunctionalSimulator(prog)
        n = f.run_reference()
        sim = PipelineSimulator(prog,
                                predictor=make_predictor("bimodal-64-64"))
        stats = sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()
        assert stats.committed == n
        assert sim.regs[2] == 5 + 8 + 9 + 2 + 6 + 7 + 1 + 3

    def test_scheduler_preserves_compiled_semantics(self):
        from repro.sched import schedule_program
        src = """
        int acc = 0;
        int main() {
            for (int i = 0; i < 20; i = i + 1) {
                if (i % 3 == 0) { acc = acc + i; }
            }
            return acc;
        }
        """
        prog = compile_to_program(src)
        sched = schedule_program(prog)
        a = FunctionalSimulator(prog)
        a.run()
        b = FunctionalSimulator(sched)
        b.run()
        assert a.regs[2] == b.regs[2] == 0 + 3 + 6 + 9 + 12 + 15 + 18
