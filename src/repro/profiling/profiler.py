"""Branch profiler: execution counts, taken rates and fold distances.

Runs the program once on the functional simulator and records, at every
conditional branch, its outcome and its *definition-to-branch distance*
— the number of dynamic instructions between the predicate-defining
instruction and the branch — which, compared against the pipeline
*threshold* (paper Section 5), decides whether an ASBR fold would
succeed on that execution.  The run is
:func:`repro.sim.functional.collect_branch_trace`, so the profile keeps
the branch trace the selection baseline replays.

Load-produced predicates are tracked separately: a load delivers its
value at the memory stage, so under the aggressive ``execute`` BDT
update it still behaves like the ``mem`` one (threshold 3 instead of 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.asbr.folding import THRESHOLD_BY_UPDATE
from repro.asm.program import Program
from repro.isa.conditions import Condition
from repro.isa.instruction import Instruction
from repro.memory.main_memory import MainMemory
from repro.sim import functional
from repro.sim.functional import FAR_DISTANCE, BranchRecord


@dataclass
class BranchStats:
    """Dynamic statistics for one static conditional branch."""

    pc: int
    instr: Instruction
    count: int = 0
    taken: int = 0
    target: int = 0
    zero_cond: Optional[tuple] = None       # (Condition, reg) or None
    min_distance: int = FAR_DISTANCE
    # executions whose fold would succeed, per BDT update point
    foldable: Dict[str, int] = field(default_factory=lambda: {
        "commit": 0, "mem": 0, "execute": 0})
    load_produced: int = 0                  # predicate came from a load

    @property
    def taken_rate(self) -> float:
        return self.taken / self.count if self.count else 0.0

    def fold_fraction(self, bdt_update: str) -> float:
        """Fraction of executions ASBR would fold at this update point."""
        if not self.count:
            return 0.0
        return self.foldable[bdt_update] / self.count

    @property
    def is_zero_comparison(self) -> bool:
        return self.zero_cond is not None


@dataclass
class BranchProfile:
    """Profile of all conditional branches in one program run."""

    program: Program
    branches: Dict[int, BranchStats] = field(default_factory=dict)
    total_instructions: int = 0
    #: the run's branch outcomes, in order (the selection baseline
    #: replays it)
    trace: List[BranchRecord] = field(default_factory=list, repr=False)

    @property
    def total_branch_executions(self) -> int:
        return sum(b.count for b in self.branches.values())

    def sorted_by_count(self):
        """Branches ordered by execution count, descending."""
        return sorted(self.branches.values(),
                      key=lambda b: (-b.count, b.pc))


class BranchProfiler:
    """Collects a :class:`BranchProfile` from one functional run."""

    def __init__(self, max_instructions: int = 200_000_000) -> None:
        self.max_instructions = max_instructions

    def profile(self, program: Program,
                memory: Optional[MainMemory] = None) -> BranchProfile:
        # looked up on the module, so a wrapper installed there (the
        # end-to-end benchmark's spans) sees the call
        trace = functional.collect_branch_trace(program, memory,
                                                self.max_instructions)
        result = BranchProfile(program,
                               total_instructions=trace.instructions,
                               trace=trace)
        mem_threshold = THRESHOLD_BY_UPDATE["mem"]
        for pc, tally in trace.tallies.items():
            instr = program.instr_at(pc)
            stats = BranchStats(pc=pc, instr=instr, count=tally.count,
                                taken=tally.taken,
                                target=instr.branch_target(pc),
                                zero_cond=instr.zero_condition)
            for (distance, is_load), n in tally.distances.items():
                if distance < stats.min_distance:
                    stats.min_distance = distance
                if is_load:
                    stats.load_produced += n
                for update, threshold in THRESHOLD_BY_UPDATE.items():
                    if is_load and update == "execute":
                        threshold = mem_threshold
                    if distance > threshold:
                        stats.foldable[update] += n
            result.branches[pc] = stats
        return result
