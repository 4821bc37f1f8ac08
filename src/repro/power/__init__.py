"""Activity-based energy model (the paper's power claims, quantified).

The paper claims two power benefits for ASBR (Sections 1, 6):

1. *fewer instructions pass through the pipeline* — folded branches
   never occupy a slot and wrong-path work shrinks with mispredictions;
2. *smaller tables* — a quarter-size auxiliary predictor plus the tiny
   BIT/BDT replaces a large PHT+BTB.

The paper asserts these qualitatively; this package quantifies them
with a standard activity-based model: every pipeline slot occupied,
memory access, predictor lookup/update and fold consumes energy
proportional to the structure's state size, plus static leakage
proportional to total state.  Constants are relative units calibrated
to the usual CACTI-style scaling (energy per access grows with the
square root of capacity); absolute joules are out of scope — the claim
under test is *relative* energy between configurations.

One estimator, :func:`estimate_energy_from_stats`, prices every run
from its stats record alone: the simulators copy their caches' and
folding unit's counters into the stats when a run ends, so no caller
needs a live simulator to report an energy.
"""

from repro.power.model import (
    EnergyParams,
    EnergyReport,
    estimate_energy_from_stats,
    compare_energy,
)

__all__ = [
    "EnergyParams",
    "EnergyReport",
    "estimate_energy_from_stats",
    "compare_energy",
]
