"""Architectural simulators.

* :class:`~repro.sim.functional.FunctionalSimulator` — instruction-accurate
  golden model; also drives profiling and branch-trace collection.
* :class:`~repro.sim.pipeline.PipelineSimulator` — cycle-accurate 5-stage
  in-order single-issue pipeline with caches, a pluggable branch
  predictor, and optional ASBR branch folding; the measurement vehicle
  for every experiment in the paper.
* :class:`~repro.sim.ooo.OoOSimulator` — cycle-accurate R10000-style
  out-of-order backend (rename, issue queue, active list, checkpoint
  recovery) sharing the in-order machine's fetch-side mechanisms
  (ASBR folding, decoupled front end) and architectural semantics.

The functional and pipeline simulators each have two engines,
``interp`` and one compiled engine, bit-identical to each other
(:data:`ENGINES` lists the accepted names):

* :mod:`~repro.sim.superblocks` — the pipeline's compiled loop, its
  default (:data:`~repro.sim.pipeline.DEFAULT_ENGINE`): the ASBR fold
  check, BDT update points and predictor updates are compiled into the
  loop body.  ``engine="blocks"`` names the same loop.
* :mod:`~repro.sim.blocks` — the functional simulator's compiled
  engine (``engine="blocks"``, or its alias ``"superblocks"``): basic
  blocks are compiled to specialized Python functions, memoised per
  process.  The functional default stays ``interp``; the translator's
  profiling mode is :func:`collect_branch_trace`, the one functional
  pass behind branch profiling.
"""

from repro.sim.blocks import CompiledBlocks, compile_blocks
from repro.sim.functional import (
    ENGINES,
    FunctionalSimulator,
    SimulationError,
    BranchRecord,
    BranchTrace,
    collect_branch_trace,
)
from repro.sim.ooo import OoOConfig, OoOSimulator, OoOStats
from repro.sim.pipeline import (
    DEFAULT_ENGINE,
    PipelineConfig,
    PipelineSimulator,
    PipelineStats,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "FunctionalSimulator",
    "SimulationError",
    "BranchRecord",
    "BranchTrace",
    "collect_branch_trace",
    "PipelineConfig",
    "PipelineSimulator",
    "PipelineStats",
    "OoOConfig",
    "OoOSimulator",
    "OoOStats",
    "CompiledBlocks",
    "compile_blocks",
]
