"""Flat word-granular main memory.

Storage is a sparse ``dict`` keyed by word address, so multi-hundred-MB
address spaces cost nothing until touched.  Sub-word accesses (bytes and
halfwords) are implemented by masking inside the containing word;
accesses must be naturally aligned, as on real MIPS-style cores.
Byte order is little-endian.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.isa.alu import MASK32


class MisalignedAccess(ValueError):
    """Raised for an unaligned memory access."""


class MainMemory:
    """Sparse 32-bit word-addressable memory.

    ``words`` seeds the image with a copy of a ``word_addr -> value``
    map taken at C level, without per-word checks: every key must be a
    word-aligned 32-bit address and every value a 32-bit word.  A
    program's data segment is one (the assembler packs it so), and
    every simulator image starts as ``MainMemory(program.data)``.
    """

    __slots__ = ("_words",)

    def __init__(self, words: Optional[Mapping[int, int]] = None) -> None:
        self._words: Dict[int, int] = {} if words is None else dict(words)

    # ------------------------------------------------------------------
    # word access (hot path)
    # ------------------------------------------------------------------
    def read_word(self, addr: int) -> int:
        if addr & 3:
            raise MisalignedAccess("lw at 0x%x" % addr)
        return self._words.get(addr & ~3 & MASK32, 0)

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MisalignedAccess("sw at 0x%x" % addr)
        self._words[addr & MASK32] = value & MASK32

    # ------------------------------------------------------------------
    # sized access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes (1, 2 or 4), zero-extended to an int."""
        addr &= MASK32
        if size == 4:
            return self.read_word(addr)
        if size == 2:
            if addr & 1:
                raise MisalignedAccess("halfword read at 0x%x" % addr)
            word = self._words.get(addr & ~3, 0)
            return (word >> (8 * (addr & 3))) & 0xFFFF
        if size == 1:
            word = self._words.get(addr & ~3, 0)
            return (word >> (8 * (addr & 3))) & 0xFF
        raise ValueError("bad access size %d" % size)

    def write(self, addr: int, value: int, size: int) -> None:
        """Write the low ``size`` bytes of ``value``."""
        addr &= MASK32
        if size == 4:
            self.write_word(addr, value)
            return
        if size == 2:
            if addr & 1:
                raise MisalignedAccess("halfword write at 0x%x" % addr)
            shift = 8 * (addr & 3)
            base = addr & ~3
            word = self._words.get(base, 0)
            word = (word & ~(0xFFFF << shift)) | ((value & 0xFFFF) << shift)
            self._words[base] = word & MASK32
            return
        if size == 1:
            shift = 8 * (addr & 3)
            base = addr & ~3
            word = self._words.get(base, 0)
            word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
            self._words[base] = word & MASK32
            return
        raise ValueError("bad access size %d" % size)

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    def load_words(self, items: Iterable[Tuple[int, int]]) -> None:
        """Bulk-load ``(word_addr, value)`` pairs (program/data upload)."""
        for addr, value in items:
            self.write_word(addr, value)

    def read_block(self, addr: int, nwords: int) -> list:
        """Read ``nwords`` consecutive words starting at ``addr``."""
        return [self.read_word(addr + 4 * i) for i in range(nwords)]

    def snapshot(self) -> Dict[int, int]:
        """Copy of all touched words (for differential testing)."""
        return dict(self._words)

    def copy(self) -> "MainMemory":
        """Deep copy (each simulator run gets its own memory)."""
        return MainMemory(self._words)

    def __len__(self) -> int:
        return len(self._words)
