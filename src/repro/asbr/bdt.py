"""Branch Direction Table (BDT) with validity counters.

One entry per architectural register.  Each entry holds the six
pre-computed zero-comparison *direction bits* for the register's last
produced value, plus a counter of in-flight producers (paper Section 4,
Figure 8).  A predicate is only usable when its counter is zero —
otherwise an instruction still in the pipeline is about to redefine the
register and the stored bits may be stale.

Protocol (driven by the pipeline):

* ``acquire(reg)`` — a producer of ``reg`` was decoded.
* ``release(reg, value)`` — that producer's value arrived at the early
  condition evaluation logic (at commit, after MEM, or after EX,
  depending on the configured forwarding path, Section 5.2); the
  direction bits are refreshed and the counter decremented.
* ``cancel(reg)`` — the producer was squashed on a wrong path; the
  counter is decremented without touching the bits.  Only the
  out-of-order machine cancels: the in-order pipeline squashes every
  wrong-path producer before it acquires.
* ``lookup(reg, cond)`` — fetch-stage predicate read; returns None when
  the counter is non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.alu import to_signed
from repro.isa.conditions import Condition
from repro.isa.registers import NUM_REGS


def _bits_for_zero() -> Dict[Condition, bool]:
    """Direction bits matching the architectural reset value (0).

    Registers power on at zero, so the BDT must power on agreeing with
    them — otherwise a branch whose condition register is never written
    (or not yet written) would fold in the wrong direction.
    """
    return {
        Condition.EQZ: True,
        Condition.NEZ: False,
        Condition.LTZ: False,
        Condition.LEZ: True,
        Condition.GTZ: False,
        Condition.GEZ: True,
    }


@dataclass
class BDTEntry:
    """Direction bits + validity counter for one register."""

    bits: Dict[Condition, bool] = field(default_factory=_bits_for_zero)
    counter: int = 0

    def update_bits(self, value: int) -> None:
        s = to_signed(value)
        b = self.bits
        b[Condition.EQZ] = s == 0
        b[Condition.NEZ] = s != 0
        b[Condition.LTZ] = s < 0
        b[Condition.LEZ] = s <= 0
        b[Condition.GTZ] = s > 0
        b[Condition.GEZ] = s >= 0

    @property
    def valid(self) -> bool:
        return self.counter == 0


class BranchDirectionTable:
    """The full BDT: one :class:`BDTEntry` per register.

    ``counter_bits`` bounds the validity counter as real hardware would
    (the paper's counter is small); the simulator raises if the bound is
    exceeded, which flags a configuration that real hardware could not
    support.
    """

    def __init__(self, num_regs: int = NUM_REGS,
                 counter_bits: int = 3) -> None:
        self.num_regs = num_regs
        self.counter_bits = counter_bits
        self.counter_max = (1 << counter_bits) - 1
        self.entries: List[BDTEntry] = [BDTEntry() for _ in range(num_regs)]

    # ------------------------------------------------------------------
    def acquire(self, reg: int) -> None:
        """A producer of ``reg`` entered the pipeline (decode stage)."""
        e = self.entries[reg]
        if e.counter >= self.counter_max:
            raise OverflowError(
                "BDT validity counter overflow on r%d "
                "(more than %d in-flight producers)" % (reg, self.counter_max))
        e.counter += 1

    def release(self, reg: int, value: int) -> None:
        """A producer's value reached the early-evaluation logic."""
        e = self.entries[reg]
        if e.counter <= 0:
            raise RuntimeError("BDT release without acquire on r%d" % reg)
        e.counter -= 1
        e.update_bits(value)

    def cancel(self, reg: int) -> None:
        """A producer was squashed before producing a value."""
        e = self.entries[reg]
        if e.counter <= 0:
            raise RuntimeError("BDT cancel without acquire on r%d" % reg)
        e.counter -= 1

    def lookup(self, reg: int, cond: Condition) -> Optional[bool]:
        """Predicate value for ``reg cond 0``; None while invalid."""
        e = self.entries[reg]
        if e.counter:
            return None
        return e.bits[cond]

    # ------------------------------------------------------------------
    def set_value(self, reg: int, value: int) -> None:
        """Directly seed the bits for ``reg`` (initialisation/tests)."""
        self.entries[reg].update_bits(value)

    def reset(self) -> None:
        self.entries = [BDTEntry() for _ in range(self.num_regs)]

    @property
    def state_bits(self) -> int:
        """Hardware state: 6 direction bits + counter, per register."""
        return self.num_regs * (len(Condition) + self.counter_bits)

    def __repr__(self) -> str:
        busy = [i for i, e in enumerate(self.entries) if e.counter]
        return "BranchDirectionTable(%d regs, busy=%r)" % (self.num_regs,
                                                           busy)
