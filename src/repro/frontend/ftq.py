"""Fetch target queue: the decoupling buffer between BPU and fetch.

The branch-prediction unit (BPU) runs ahead of the fetch stage and
pushes one :class:`FTQEntry` per predicted instruction; the fetch stage
pops one per cycle.  The slack between the two is what FDIP prefetches
against ("Fetch-Directed Instruction Prefetching Revisited", PAPERS.md).

Two safety properties (locked by ``tests/test_frontend_ftq.py``):

* the queue never runs past an *unresolved redirect* — once the BPU
  marks one (an indirect jump, a halt, a PC outside the text segment),
  pushes are refused until a squash resolves it;
* a squash drains the queue completely and clears the unresolved mark
  (the pipeline then re-steers the BPU to the recovery PC).
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class FTQEntry:
    """One predicted fetch: where to fetch, and where fetch goes next."""

    __slots__ = ("pc", "pred_next_pc")

    def __init__(self, pc: int, pred_next_pc: int) -> None:
        self.pc = pc                      # PC fetched from the I-cache
        self.pred_next_pc = pred_next_pc  # BPU's next-fetch assumption

    def __repr__(self) -> str:
        return "FTQEntry(pc=0x%x, next=0x%x)" % (self.pc, self.pred_next_pc)


#: SRAM price of one entry, in the front end's ``state_bits`` and the
#: DSE cost: two word-aligned PCs plus two flag bits that the entry no
#: longer holds (dropping them would move every front-end point's cost)
FTQ_ENTRY_BITS = 30 + 30 + 2


class FetchTargetQueue:
    """Bounded FIFO of :class:`FTQEntry` with an unresolved-redirect gate."""

    def __init__(self, depth: int = 8) -> None:
        if depth <= 0:
            raise ValueError("FTQ depth must be positive")
        self.depth = depth
        self._q: "deque[FTQEntry]" = deque()
        self._unresolved = False

    # ------------------------------------------------------------------
    @property
    def full(self) -> bool:
        return len(self._q) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._q

    @property
    def occupancy(self) -> int:
        return len(self._q)

    @property
    def unresolved(self) -> bool:
        """True while the BPU waits on a redirect it cannot predict."""
        return self._unresolved

    def __len__(self) -> int:
        return len(self._q)

    # ------------------------------------------------------------------
    def push(self, entry: FTQEntry) -> bool:
        """Append a predicted fetch; refused (False) when the queue is
        full or an unresolved redirect is pending."""
        if self._unresolved or len(self._q) >= self.depth:
            return False
        self._q.append(entry)
        return True

    def mark_unresolved(self) -> None:
        """The BPU hit something it cannot run past (jr/halt/off-text)."""
        self._unresolved = True

    def pop(self) -> Optional[FTQEntry]:
        """Oldest entry, or None when fetch must bubble."""
        return self._q.popleft() if self._q else None

    def head(self) -> Optional[FTQEntry]:
        return self._q[0] if self._q else None

    def squash(self) -> int:
        """Drain everything (redirect recovery); returns entries killed.

        Also clears the unresolved mark — the redirect that squashes is
        by definition the resolution the BPU was waiting for.
        """
        n = len(self._q)
        self._q.clear()
        self._unresolved = False
        return n
