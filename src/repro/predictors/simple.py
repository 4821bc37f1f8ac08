"""Trivial and profile-based predictors."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.predictors.base import NOT_TAKEN, BranchPredictor, Prediction
from repro.predictors.btb import BranchTargetBuffer


class NotTakenPredictor(BranchPredictor):
    """Always predicts not-taken.

    "This is the default in many embedded processors that lack branch
    predictors" (paper, Section 8) — fetch simply falls through and every
    taken branch pays the full misprediction penalty.
    """

    name = "not-taken"

    def predict(self, pc: int) -> Prediction:
        return NOT_TAKEN

    def update(self, pc: int, taken: bool, target: int) -> None:
        pass

    @property
    def state_bits(self) -> int:
        return 0


class AlwaysTakenPredictor(BranchPredictor):
    """Always predicts taken, with a BTB for the target (extension)."""

    name = "always-taken"

    def __init__(self, btb_entries: int = 2048) -> None:
        self.btb = BranchTargetBuffer(btb_entries)

    def predict(self, pc: int) -> Prediction:
        return Prediction(True, self.btb.lookup(pc))

    def update(self, pc: int, taken: bool, target: int) -> None:
        if taken:
            self.btb.insert(pc, target)

    def reset(self) -> None:
        self.btb.reset()

    @property
    def state_bits(self) -> int:
        return self.btb.state_bits


class StaticPredictor(BranchPredictor):
    """Profile-driven static prediction (cf. related work [2]).

    The compiler profiles a training run and fixes each branch's
    predicted direction to its majority outcome; targets are static so no
    BTB state is charged (the direction bit travels with the
    instruction).  Branches absent from the profile default to not-taken.
    """

    name = "static"

    def __init__(self, directions: Mapping[int, bool],
                 targets: Mapping[int, int]) -> None:
        self._directions: Dict[int, bool] = dict(directions)
        self._targets: Dict[int, int] = dict(targets)

    def predict(self, pc: int) -> Prediction:
        if self._directions.get(pc, False):
            return Prediction(True, self._targets.get(pc))
        return NOT_TAKEN

    def update(self, pc: int, taken: bool, target: int) -> None:
        pass

    @property
    def state_bits(self) -> int:
        return 0  # encoded in the instruction stream, not predictor SRAM
