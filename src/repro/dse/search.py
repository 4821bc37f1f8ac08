"""Search drivers: how a space is walked.

Every driver has the same contract — ``run(evaluator, space)`` returns
the full-input :class:`~repro.dse.engine.EvalResult` list it produced —
and all of them are resumable for free, because every evaluation goes
through the evaluator's journal.

* :class:`GridSearch` — exhaustive: every point of the space at the
  full input size.  The right tool at paper scale (tens of points).
* :class:`RandomSearch` — ``n_points`` drawn without replacement from
  the grid, reproducible from one seed (which the journal records, so
  a resumed run draws the identical subset).
* :class:`SuccessiveHalving` — the budgeted driver: evaluate everything
  on a cheap short input, rank by the primary objective, promote the
  best ``1/eta`` to a ``growth``-times longer input, repeat until the
  survivors run at full size.  Short-input rungs are journaled at their
  own ``n_samples``, so they never pollute the full-input frontier but
  still resume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.dse.engine import EvalResult, Evaluator
from repro.dse.objectives import SENSES
from repro.dse.space import ConfigSpace, DesignPoint


@dataclass(frozen=True)
class GridSearch:
    """Exhaustive evaluation of every point at full input size."""

    name = "grid"

    def run(self, evaluator: Evaluator,
            space: ConfigSpace) -> List[EvalResult]:
        return evaluator.evaluate(space.points())


@dataclass(frozen=True)
class RandomSearch:
    """Seeded sample of the grid, evaluated at full input size."""

    n_points: int = 8
    seed: int = 0

    name = "random"

    def __post_init__(self) -> None:
        if self.n_points <= 0:
            raise ValueError("n_points must be positive")

    def run(self, evaluator: Evaluator,
            space: ConfigSpace) -> List[EvalResult]:
        return evaluator.evaluate(space.sample(self.n_points, self.seed))


@dataclass(frozen=True)
class SuccessiveHalving:
    """Promote short-input survivors toward the full input size.

    ``rung0_samples`` is the cheapest rung; each promotion keeps the
    top ``ceil(len/eta)`` points by ``objective`` and multiplies the
    input length by ``growth`` (capped at the evaluator's full size).
    The final rung always runs at full size, so its results are
    directly comparable with the other drivers'.
    """

    eta: int = 2
    rung0_samples: int = 128
    growth: int = 4
    objective: str = "speedup"

    name = "halving"

    def __post_init__(self) -> None:
        if self.eta < 2:
            raise ValueError("eta must be >= 2")
        if self.rung0_samples <= 0 or self.growth < 2:
            raise ValueError("bad rung geometry")
        if self.objective not in SENSES:
            raise ValueError("unknown objective %r" % (self.objective,))

    def _rank_key(self, result: EvalResult):
        value = getattr(result.objectives, self.objective)
        return -value if SENSES[self.objective] == "max" else value

    def rung_sizes(self, full: int) -> List[int]:
        """Every input size this search will visit, cheapest first."""
        sizes = [min(self.rung0_samples, full)]
        while sizes[-1] < full:
            sizes.append(min(full, sizes[-1] * self.growth))
        return sizes

    def run(self, evaluator: Evaluator,
            space: ConfigSpace) -> List[EvalResult]:
        survivors: List[DesignPoint] = space.points()
        full = evaluator.n_samples
        for n in self.rung_sizes(full):
            results = evaluator.evaluate(survivors, n_samples=n)
            if n >= full:
                return results
            ranked = sorted(results, key=self._rank_key)
            keep = max(1, math.ceil(len(ranked) / self.eta))
            survivors = [r.point for r in ranked[:keep]]
        return results


def make_search(name: str, n_points: int = 8, seed: int = 0,
                rung0_samples: Optional[int] = None):
    """CLI factory: ``grid`` | ``random`` | ``halving``."""
    if name == "grid":
        return GridSearch()
    if name == "random":
        return RandomSearch(n_points=n_points, seed=seed)
    if name == "halving":
        kw = {}
        if rung0_samples is not None:
            kw["rung0_samples"] = rung0_samples
        return SuccessiveHalving(**kw)
    raise ValueError("unknown search driver %r "
                     "(grid, random, halving)" % (name,))
