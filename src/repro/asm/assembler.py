"""Two-pass assembler for the repro ISA.

Supported syntax (a practical subset of classic MIPS assembler syntax):

* Comments: ``#`` or ``;`` to end of line.
* Labels: ``name:`` (may share a line with an instruction or directive).
* Sections: ``.text`` and ``.data`` (``.text`` is the default).
* Data directives: ``.word``, ``.half``, ``.byte``, ``.space N``,
  ``.align N``, ``.asciiz "str"``.  ``.word`` accepts label references.
* Pseudo-instructions: ``nop``, ``move``, ``li``, ``la``, ``b``, ``not``,
  ``neg``, ``subi``, ``blt``, ``bgt``, ``ble``, ``bge``.

Pass 1 parses, expands pseudo-instructions (with deterministic sizes so
label addresses are known), and assigns addresses.  Pass 2 resolves label
operands and encodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asm.program import DATA_BASE, Program, SourceLoc, TEXT_BASE
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind, SPECS
from repro.isa.registers import reg_num


class AssemblerError(ValueError):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


_INT_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|0b[01]+|\d+)$")
_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_RE = re.compile(r"^(.*)\((.+)\)$")


def _parse_int(tok: str, line_no: int) -> int:
    tok = tok.strip()
    if not _INT_RE.match(tok):
        raise AssemblerError("expected integer, got %r" % tok, line_no)
    return int(tok, 0)


@dataclass
class _PendingInstr:
    """An instruction awaiting label resolution in pass 2."""

    mnemonic: str
    operands: List[str]
    line_no: int
    text: str
    index: int  # text-segment instruction index


class Assembler:
    """Assembles one source text into a :class:`Program`."""

    def __init__(self, text_base: int = TEXT_BASE,
                 data_base: int = DATA_BASE) -> None:
        # every memory image starts as a plain copy of Program.data
        # (MainMemory), so its keys must be word-aligned 32-bit
        # addresses by construction
        if data_base & 3 or not 0 <= data_base <= 0xFFFFFFFF:
            raise AssemblerError("data_base 0x%x is not a word-aligned "
                                 "32-bit address" % data_base)
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    def assemble(self, source: str) -> Program:
        self._fixups: List[Tuple[int, str, int]] = []
        prog = Program(text_base=self.text_base, data_base=self.data_base)
        pending: List[_PendingInstr] = []
        data_bytes = bytearray()
        section = "text"

        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            # peel off leading labels
            while True:
                m = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$", line)
                if not m:
                    break
                name = m.group(1)
                if name in prog.labels:
                    raise AssemblerError("duplicate label %r" % name, line_no)
                if section == "text":
                    prog.labels[name] = self.text_base + 4 * len(pending)
                else:
                    prog.labels[name] = self.data_base + len(data_bytes)
                line = m.group(2).strip()
            if not line:
                continue

            if line.startswith("."):
                section = self._directive(line, line_no, section,
                                          data_bytes, prog, pending)
                continue

            if section != "text":
                raise AssemblerError(
                    "instruction outside .text: %r" % line, line_no)
            self._instruction(line, line_no, pending)

        # pass 2: resolve operands and encode
        for p in pending:
            instr = self._resolve(p, prog)
            prog.instrs.append(instr)
        prog.words = [encode(i) for i in prog.instrs]
        for p in pending:
            prog.source_map[prog.pc_of(p.index)] = SourceLoc(p.line_no, p.text)

        self._pack_data(data_bytes, prog)
        prog.entry = prog.labels.get("main", prog.text_base)
        return prog

    # ------------------------------------------------------------------
    # pass 1 helpers
    # ------------------------------------------------------------------
    def _directive(self, line: str, line_no: int, section: str,
                   data_bytes: bytearray, prog: Program,
                   pending: List[_PendingInstr]) -> str:
        parts = line.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            return "text"
        if name == ".data":
            return "data"
        if name == ".globl":
            return section  # accepted and ignored
        if section != "data":
            raise AssemblerError("%s only allowed in .data" % name, line_no)
        if name == ".word":
            for tok in self._split_operands(arg):
                # label refs resolved in a mini pass-2 via placeholder
                if _INT_RE.match(tok):
                    val = _parse_int(tok, line_no)
                else:
                    # record a fixup: store token, patch in _pack_data
                    self._word_fixups.append(
                        (len(data_bytes), tok, line_no))
                    val = 0
                data_bytes += (val & 0xFFFFFFFF).to_bytes(4, "little")
        elif name == ".half":
            for tok in self._split_operands(arg):
                val = _parse_int(tok, line_no)
                data_bytes += (val & 0xFFFF).to_bytes(2, "little")
        elif name == ".byte":
            for tok in self._split_operands(arg):
                val = _parse_int(tok, line_no)
                data_bytes += bytes([val & 0xFF])
        elif name == ".space":
            data_bytes += bytes(_parse_int(arg, line_no))
        elif name == ".align":
            n = 1 << _parse_int(arg, line_no)
            while len(data_bytes) % n:
                data_bytes += b"\x00"
        elif name == ".asciiz":
            m = re.match(r'^"(.*)"$', arg)
            if not m:
                raise AssemblerError(".asciiz needs a quoted string", line_no)
            data_bytes += m.group(1).encode("utf-8").decode(
                "unicode_escape").encode("latin-1") + b"\x00"
        else:
            raise AssemblerError("unknown directive %r" % name, line_no)
        return section

    @staticmethod
    def _split_operands(arg: str) -> List[str]:
        return [t.strip() for t in arg.split(",")] if arg else []

    def _instruction(self, line: str, line_no: int,
                     pending: List[_PendingInstr]) -> None:
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        ops = self._split_operands(parts[1]) if len(parts) > 1 else []
        for expanded_mnem, expanded_ops in self._expand(mnem, ops, line_no):
            pending.append(_PendingInstr(expanded_mnem, expanded_ops,
                                         line_no, line, len(pending)))

    # pseudo-instruction expansion; sizes must not depend on label values
    def _expand(self, mnem: str, ops: List[str],
                line_no: int) -> List[Tuple[str, List[str]]]:
        if mnem in SPECS:
            return [(mnem, ops)]
        if mnem == "nop":
            return [("sll", ["r0", "r0", "0"])]
        if mnem == "move":
            self._arity(mnem, ops, 2, line_no)
            return [("addu", [ops[0], ops[1], "r0"])]
        if mnem == "not":
            self._arity(mnem, ops, 2, line_no)
            return [("nor", [ops[0], ops[1], "r0"])]
        if mnem == "neg":
            self._arity(mnem, ops, 2, line_no)
            return [("subu", [ops[0], "r0", ops[1]])]
        if mnem == "subi":
            self._arity(mnem, ops, 3, line_no)
            return [("addi", [ops[0], ops[1],
                              str(-_parse_int(ops[2], line_no))])]
        if mnem == "b":
            self._arity(mnem, ops, 1, line_no)
            return [("beq", ["r0", "r0", ops[0]])]
        if mnem == "li":
            self._arity(mnem, ops, 2, line_no)
            val = _parse_int(ops[1], line_no) & 0xFFFFFFFF
            sval = val - 0x100000000 if val & 0x80000000 else val
            if -32768 <= sval <= 32767:
                return [("addiu", [ops[0], "r0", str(sval)])]
            if 0 <= val <= 0xFFFF:
                return [("ori", [ops[0], "r0", str(val)])]
            hi, lo = val >> 16, val & 0xFFFF
            out = [("lui", [ops[0], str(hi)])]
            if lo:
                out.append(("ori", [ops[0], ops[0], str(lo)]))
            else:
                out.append(("sll", [ops[0], ops[0], "0"]))  # keep size fixed
            return out
        if mnem == "la":
            self._arity(mnem, ops, 2, line_no)
            # always two instructions so label addresses stay fixed
            return [("lui", [ops[0], "%%hi(%s)" % ops[1]]),
                    ("ori", [ops[0], ops[0], "%%lo(%s)" % ops[1]])]
        if mnem in ("blt", "bgt", "ble", "bge"):
            self._arity(mnem, ops, 3, line_no)
            rs, rt, label = ops
            if mnem == "blt":   # rs < rt
                return [("slt", ["at", rs, rt]), ("bnez", ["at", label])]
            if mnem == "bgt":   # rs > rt  <=>  rt < rs
                return [("slt", ["at", rt, rs]), ("bnez", ["at", label])]
            if mnem == "ble":   # rs <= rt <=> !(rt < rs)
                return [("slt", ["at", rt, rs]), ("beqz", ["at", label])]
            return [("slt", ["at", rs, rt]), ("beqz", ["at", label])]
        raise AssemblerError("unknown mnemonic %r" % mnem, line_no)

    @staticmethod
    def _arity(mnem: str, ops: List[str], n: int, line_no: int) -> None:
        if len(ops) != n:
            raise AssemblerError("%s expects %d operands, got %d"
                                 % (mnem, n, len(ops)), line_no)

    # ------------------------------------------------------------------
    # pass 2: operand resolution
    # ------------------------------------------------------------------
    def _resolve(self, p: _PendingInstr, prog: Program) -> Instruction:
        spec = SPECS[p.mnemonic]
        syntax = [t.strip() for t in spec.syntax.split(",")] if spec.syntax \
            else []
        if len(p.operands) != len(syntax):
            raise AssemblerError(
                "%s expects %d operands (%s), got %d"
                % (p.mnemonic, len(syntax), spec.syntax, len(p.operands)),
                p.line_no)
        fields = {"op": p.mnemonic}
        pc = prog.pc_of(p.index)
        for pattern, tok in zip(syntax, p.operands):
            if pattern in ("rd", "rs", "rt"):
                fields[pattern] = self._reg(tok, p.line_no)
            elif pattern == "shamt":
                fields["shamt"] = _parse_int(tok, p.line_no)
            elif pattern == "imm":
                fields["imm"] = self._imm(tok, prog, p.line_no)
            elif pattern == "imm(rs)":
                m = _MEM_RE.match(tok)
                if not m:
                    raise AssemblerError(
                        "expected imm(reg), got %r" % tok, p.line_no)
                off = m.group(1).strip()
                fields["imm"] = self._imm(off, prog, p.line_no) if off else 0
                fields["rs"] = self._reg(m.group(2), p.line_no)
            elif pattern == "label":
                addr = self._label_addr(tok, prog, p.line_no)
                if spec.kind in (Kind.JUMP, Kind.JAL):
                    fields["target"] = (addr >> 2) & 0x03FFFFFF
                else:
                    off = (addr - (pc + 4)) >> 2
                    if not -32768 <= off <= 32767:
                        raise AssemblerError(
                            "branch to %r out of range" % tok, p.line_no)
                    fields["imm"] = off
            else:  # pragma: no cover
                raise AssertionError(pattern)
        return Instruction(**fields)

    def _reg(self, tok: str, line_no: int) -> int:
        try:
            return reg_num(tok)
        except KeyError as exc:
            raise AssemblerError(str(exc), line_no) from None

    def _imm(self, tok: str, prog: Program, line_no: int) -> int:
        m = re.match(r"^%(hi|lo)\((.+)\)$", tok)
        if m:
            name = m.group(2).strip()
            addr = self._label_addr(name, prog, line_no)
            if name in prog.labels:
                prog.address_taken.add(name)
            return (addr >> 16) & 0xFFFF if m.group(1) == "hi" \
                else addr & 0xFFFF
        return _parse_int(tok, line_no)

    def _label_addr(self, tok: str, prog: Program, line_no: int) -> int:
        m = re.match(r"^(.+?)\s*([+-])\s*(\d+|0x[0-9a-fA-F]+)$", tok)
        offset = 0
        name = tok
        if m and not _INT_RE.match(tok):
            name = m.group(1).strip()
            offset = int(m.group(3), 0)
            if m.group(2) == "-":
                offset = -offset
        if _INT_RE.match(name):
            return int(name, 0) + offset
        if not _LABEL_RE.match(name):
            raise AssemblerError("bad label %r" % tok, line_no)
        if name not in prog.labels:
            raise AssemblerError("undefined label %r" % name, line_no)
        return prog.labels[name] + offset

    # ------------------------------------------------------------------
    def _pack_data(self, data_bytes: bytearray, prog: Program) -> None:
        for off, tok, line_no in self._word_fixups:
            addr = self._label_addr(tok, prog, line_no)
            base = tok.split("+")[0].split("-")[0].strip()
            if base in prog.labels:
                prog.address_taken.add(base)
            data_bytes[off:off + 4] = (addr & 0xFFFFFFFF).to_bytes(4, "little")
        while len(data_bytes) % 4:
            data_bytes += b"\x00"
        if self.data_base + len(data_bytes) > 1 << 32:
            raise AssemblerError("data segment runs past 0xffffffff")
        for i in range(0, len(data_bytes), 4):
            word = int.from_bytes(data_bytes[i:i + 4], "little")
            prog.data[self.data_base + i] = word

    # fixups are reset at the top of each assemble() call
    @property
    def _word_fixups(self) -> List[Tuple[int, str, int]]:
        return self._fixups


def assemble(source: str, text_base: int = TEXT_BASE,
             data_base: int = DATA_BASE) -> Program:
    """Assemble ``source`` into a :class:`Program` (convenience wrapper)."""
    return Assembler(text_base=text_base, data_base=data_base) \
        .assemble(source)
