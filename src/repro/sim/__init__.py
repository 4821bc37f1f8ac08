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

The functional and pipeline simulators each have two loops, a
reference loop and a compiled one, bit-identical to each other.
``run()`` picks the compiled loop whenever nothing observes per-step
work, and the reference loop, which ``run_reference()`` also runs by
name, otherwise:

* :mod:`~repro.sim.superblocks` — the pipeline's compiled loop: the
  ASBR fold check, BDT update points and predictor updates are
  compiled into the loop body.  A tracer, a decoupled front end, a
  subclass or a ``tick`` wrapped on the instance (fault injection)
  makes ``PipelineSimulator.run`` take the ``tick()`` loop.
* :mod:`~repro.sim.blocks` — the functional simulator's block
  translator: basic blocks are compiled to specialized Python
  functions, memoised per process.  An observer or a tracer makes
  ``FunctionalSimulator.run`` take the per-instruction plan loop.  The
  translator's profiling mode is :func:`collect_branch_trace`, the one
  functional pass behind branch profiling.
"""

from repro.sim.blocks import CompiledBlocks, compile_blocks
from repro.sim.functional import (
    FunctionalSimulator,
    SimulationError,
    BranchRecord,
    BranchTrace,
    collect_branch_trace,
)
from repro.sim.ooo import OoOConfig, OoOSimulator, OoOStats
from repro.sim.pipeline import (
    PipelineConfig,
    PipelineSimulator,
    PipelineStats,
)

__all__ = [
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
