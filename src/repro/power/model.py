"""Relative energy estimation for one pipeline run.

Dynamic energy: every activation of a structure costs an energy that
scales with the square root of its state (small-SRAM CACTI-like
scaling).  Static energy: leakage proportional to total state times
cycles.  Units are arbitrary but consistent, so ratios between
configurations are meaningful.

:func:`estimate_energy_from_stats` is the one estimator: it reads
every count off a run's stats record, so an experiment, a DSE point
and a cached result are all priced the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.pipeline import PipelineStats


@dataclass(frozen=True)
class EnergyParams:
    """Model coefficients (relative units)."""

    pipeline_slot: float = 10.0      # one instruction through one stage
    stage_count: int = 5
    table_access_coeff: float = 0.02   # x sqrt(state_bits) per access
    cache_miss_energy: float = 200.0   # line fill from next level
    leakage_coeff: float = 2e-7        # x state_bits per cycle
    fold_energy: float = 1.0           # BIT hit + replacement mux


@dataclass
class EnergyReport:
    """Energy breakdown for one simulation."""

    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fraction(self, name: str) -> float:
        return self.components.get(name, 0.0) / self.total if self.total \
            else 0.0

    def render(self, title: str = "energy breakdown") -> str:
        lines = [title]
        for name in sorted(self.components,
                           key=lambda n: -self.components[n]):
            value = self.components[name]
            lines.append("  %-18s %12.1f  (%4.1f%%)"
                         % (name, value, 100 * value / self.total))
        lines.append("  %-18s %12.1f" % ("TOTAL", self.total))
        return "\n".join(lines)


def _access_energy(state_bits: int, params: EnergyParams) -> float:
    return params.table_access_coeff * math.sqrt(max(state_bits, 1))


def estimate_energy_from_stats(stats: PipelineStats,
                               predictor_state_bits: int,
                               bit_state_bits: int = 0,
                               bdt_state_bits: int = 0,
                               icache_config=None,
                               dcache_config=None,
                               params: Optional[EnergyParams] = None
                               ) -> EnergyReport:
    """Energy report for one run, read exactly off its stats record.

    Every activity count comes straight off the stats: the pipeline's
    committed and squashed instructions, predictor lookups and branch
    resolutions, and the counters the simulators copy in from their
    caches and folding unit when ``run()`` ends (I-cache and D-cache
    accesses, misses and writebacks, fetch-time folds and BDT-busy
    fallbacks).  A cached result therefore prices exactly as the live
    run did, on either backend.

    Structures are sized from the configuration, not from live
    objects: the predictor's bits (plus whatever machine state the
    caller prices with it), the BIT's and BDT's (both 0 without ASBR)
    and the caches' from their configs (default: the paper's 8KB).
    """
    from repro.memory.cache import Cache, CacheConfig

    params = params if params is not None else EnergyParams()
    icc = icache_config if icache_config is not None else CacheConfig()
    dcc = dcache_config if dcache_config is not None else CacheConfig()
    ic_bits = Cache(icc).state_bits
    dc_bits = Cache(dcc).state_bits
    report = EnergyReport()
    comp = report.components

    # pipeline activity: every fetched instruction occupies slots;
    # committed ones walk all stages, squashed ones roughly half
    comp["pipeline"] = params.pipeline_slot * (
        stats.committed * params.stage_count
        + stats.squashed * params.stage_count * 0.5)

    comp["icache"] = (stats.icache_accesses * _access_energy(ic_bits, params)
                      + stats.icache_misses * params.cache_miss_energy)
    comp["dcache"] = (stats.dcache_accesses * _access_energy(dc_bits, params)
                      + (stats.dcache_misses + stats.dcache_writebacks)
                      * params.cache_miss_energy)

    # predictor: a lookup per fetched branch, an update per resolution
    comp["predictor"] = _access_energy(predictor_state_bits, params) \
        * (stats.predictor_lookups + stats.branches)

    # ASBR structures: a BIT lookup per fetched branch, a BDT update per
    # committed instruction (one per produced register, ~)
    asbr_bits = bit_state_bits + bdt_state_bits
    if asbr_bits:
        folded = stats.folded_taken + stats.folded_not_taken
        bit_lookups = (stats.predictor_lookups + folded
                       + stats.invalid_fallbacks)
        comp["asbr"] = (
            _access_energy(bit_state_bits, params) * bit_lookups
            + _access_energy(bdt_state_bits, params) * stats.committed
            + params.fold_energy * folded)

    # leakage over the whole run
    state = ic_bits + dc_bits + predictor_state_bits + asbr_bits
    comp["leakage"] = params.leakage_coeff * state * stats.cycles
    return report


def compare_energy(baseline: EnergyReport,
                   customized: EnergyReport) -> float:
    """Relative energy saving of ``customized`` vs ``baseline``."""
    if not baseline.total:
        return 0.0
    return 1.0 - customized.total / baseline.total
