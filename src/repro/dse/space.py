"""Typed ASBR design space: points, grids, and named presets.

A :class:`DesignPoint` is one *hardware configuration* of the paper's
mechanism — auxiliary predictor (family and size, as a
``make_predictor`` spec), whether the ASBR unit is present, its BIT
capacity, the BDT forwarding path (= the threshold: commit→4, mem→3,
execute→2, Section 5.2), and the profile-driven selection policy's
knobs (:func:`repro.profiling.select_branches`).  Points are frozen,
hashable and canonical — a non-ASBR point always carries the default
ASBR knobs, so two ways of writing "just a bimodal-512" are one point,
one journal key and one cache entry.

A :class:`ConfigSpace` is the cross product of per-dimension value
lists, deduplicated the same way.  It is what search drivers
(:mod:`repro.dse.search`) enumerate or sample, and its :meth:`digest`
pins a journal to the space it was produced from.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, fields
from typing import List, Tuple

from repro.asbr.folding import THRESHOLD_BY_UPDATE
from repro.runner.pool import (BACKENDS, BDT_UPDATES, RunSpec,
                               check_choices, config_from)
from repro.schema import SchemaError, decode

#: the knobs meaningless without the ASBR unit.  Like the fields a
#: point shares with FrontendConfig or OoOConfig when that part is off,
#: they are reset to their defaults: one configuration is one point,
#: one journal key and one cache entry.
_ASBR_KNOBS = ("bit_capacity", "bdt_update", "min_fold_fraction",
               "min_count")


@dataclass(frozen=True)
class DesignPoint:
    """One hardware configuration in the ASBR design space."""

    predictor_spec: str = "bimodal-512-512"
    with_asbr: bool = True
    bit_capacity: int = 16
    bdt_update: str = "execute"
    min_fold_fraction: float = 0.5
    min_count: int = 16
    frontend: bool = False
    btb_l1_entries: int = 64
    btb_l2_entries: int = 2048
    btb_l2_assoc: int = 4
    ftq_depth: int = 8
    fdip: bool = False
    backend: str = "inorder"
    issue_width: int = 2
    rob_size: int = 32
    iq_size: int = 16
    phys_regs: int = 64

    def __post_init__(self) -> None:
        # machine-shape validation lives with each machine; importing
        # them lazily keeps repro.dse importable on its own
        from repro.frontend import FrontendConfig
        from repro.sim.ooo import OoOConfig

        check_choices(self)
        if self.bit_capacity <= 0:
            raise ValueError("bit_capacity must be positive")
        if not 0.0 <= self.min_fold_fraction <= 1.0:
            raise ValueError("min_fold_fraction must be in [0, 1]")
        if self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        off = set() if self.with_asbr else set(_ASBR_KNOBS)
        for on, config in ((self.frontend, FrontendConfig),
                           (self.backend == "ooo", OoOConfig)):
            if on:
                config_from(config, self)
            else:
                off.update(f.name for f in fields(config))
        for f in fields(self):
            if f.name in off:
                object.__setattr__(self, f.name, f.default)

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> int:
        """The paper's pipeline threshold for this forwarding path."""
        return THRESHOLD_BY_UPDATE[self.bdt_update]

    def key(self) -> str:
        """Stable identity string (journal keys, dedup, display)."""
        if not self.with_asbr:
            base = "pred=%s" % self.predictor_spec
        else:
            base = ("pred=%s asbr bit=%d upd=%s ff=%.3f mc=%d"
                    % (self.predictor_spec, self.bit_capacity,
                       self.bdt_update, self.min_fold_fraction,
                       self.min_count))
        if self.frontend:
            base += (" fe btb=%d/%dx%d ftq=%d fdip=%d"
                     % (self.btb_l1_entries, self.btb_l2_entries,
                        self.btb_l2_assoc, self.ftq_depth,
                        int(self.fdip)))
        if self.backend == "ooo":
            base += (" ooo w=%d rob=%d iq=%d preg=%d"
                     % (self.issue_width, self.rob_size,
                        self.iq_size, self.phys_regs))
        return base

    def label(self) -> str:
        """Short human form for tables and plots."""
        if not self.with_asbr:
            base = self.predictor_spec
        else:
            base = "%s+asbr(bit%d,t%d)" % (self.predictor_spec,
                                           self.bit_capacity,
                                           self.threshold)
        if self.frontend:
            base += "+fe(btb%d/%d,ftq%d%s)" % (
                self.btb_l1_entries, self.btb_l2_entries,
                self.ftq_depth, ",fdip" if self.fdip else "")
        if self.backend == "ooo":
            base += "+ooo(w%d,rob%d)" % (self.issue_width,
                                         self.rob_size)
        return base

    def to_spec(self, benchmark: str, n_samples: int,
                seed: int) -> RunSpec:
        """The :class:`RunSpec` evaluating this point on one workload."""
        return RunSpec(benchmark, n_samples, seed, **self.to_dict())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "DesignPoint":
        """Strictly decode a journal's point (:mod:`repro.schema`).  A
        missing key takes its field default: journals written before
        the front-end and backend dimensions existed lack them."""
        return decode(cls, d)


@dataclass(frozen=True)
class ConfigSpace:
    """Cross product of per-dimension value lists."""

    predictors: Tuple[str, ...] = ("bimodal-512-512",)
    asbr: Tuple[bool, ...] = (False, True)
    bit_capacities: Tuple[int, ...] = (16,)
    bdt_updates: Tuple[str, ...] = BDT_UPDATES
    min_fold_fractions: Tuple[float, ...] = (0.5,)
    min_counts: Tuple[int, ...] = (16,)
    frontends: Tuple[bool, ...] = (False,)
    btb_l1_entries: Tuple[int, ...] = (64,)
    btb_l2_entries: Tuple[int, ...] = (2048,)
    btb_l2_assocs: Tuple[int, ...] = (4,)
    ftq_depths: Tuple[int, ...] = (8,)
    fdip: Tuple[bool, ...] = (False,)
    backends: Tuple[str, ...] = ("inorder",)
    issue_widths: Tuple[int, ...] = (2,)
    rob_sizes: Tuple[int, ...] = (32,)
    iq_sizes: Tuple[int, ...] = (16,)
    phys_regs: Tuple[int, ...] = (64,)

    def __post_init__(self) -> None:
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            if not values:
                raise SchemaError("needs at least one value", f.name)
            object.__setattr__(self, f.name, values)
        for name, known in (("bdt_updates", BDT_UPDATES),
                            ("backends", BACKENDS)):
            for i, value in enumerate(getattr(self, name)):
                if value not in known:
                    raise SchemaError("unknown value %r (one of: %s)"
                                      % (value, ", ".join(known)),
                                      "%s[%d]" % (name, i))

    # ------------------------------------------------------------------
    def points(self) -> List[DesignPoint]:
        """Every distinct point, in deterministic order.

        Dimension ``i`` feeds :class:`DesignPoint` field ``i`` (both
        dataclasses list them in the same order), and the grid is the
        product of the dimensions in that order.  A point canonicalises
        the knobs its ASBR, front-end and backend fields switch off, so
        their variants collapse onto one point, kept where it first
        occurs: the grid never multiplies meaningless variants.
        """
        names = [f.name for f in fields(DesignPoint)]
        grid = itertools.product(*(getattr(self, f.name)
                                   for f in fields(self)))
        return list(dict.fromkeys(DesignPoint(**dict(zip(names, values)))
                                  for values in grid))

    @property
    def size(self) -> int:
        return len(self.points())

    def sample(self, k: int, seed: int) -> List[DesignPoint]:
        """``k`` distinct points, reproducible from ``seed``."""
        pts = self.points()
        if k >= len(pts):
            return pts
        return random.Random(seed).sample(pts, k)

    def to_dict(self) -> dict:
        return {f.name: list(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigSpace":
        """Strictly decode a space dict (:mod:`repro.schema`).  A
        missing dimension keeps its default: space files written before
        the front-end and backend dimensions existed lack them."""
        return decode(cls, d)

    def digest(self) -> str:
        """Content hash pinning a journal to this exact space."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# named presets
# ----------------------------------------------------------------------
def paper_space() -> ConfigSpace:
    """The paper's threshold-reduction story as a space (fig. 9-11):
    the ASBR core with its quarter-size auxiliary bimodal at every
    forwarding path (thresholds 4/3/2), against the reference
    predictors it displaces."""
    return ConfigSpace(
        predictors=("not-taken", "bimodal-512-512", "bimodal-2048"),
        asbr=(False, True),
        bit_capacities=(16,),
        bdt_updates=BDT_UPDATES,
    )


def default_space() -> ConfigSpace:
    """A broader exploration grid: predictor families and sizes ×
    BIT capacities × forwarding paths × selection strictness."""
    return ConfigSpace(
        predictors=("not-taken", "bimodal-512-512", "bimodal-2048",
                    "gshare-2048-8"),
        asbr=(False, True),
        bit_capacities=(4, 8, 16),
        bdt_updates=BDT_UPDATES,
        min_fold_fractions=(0.3, 0.5),
    )


SPACES = {"paper": paper_space, "default": default_space}


def get_space(name_or_path: str) -> ConfigSpace:
    """Resolve a preset name or a JSON file to a :class:`ConfigSpace`
    (``ValueError`` naming the problem, or the key, otherwise)."""
    if name_or_path in SPACES:
        return SPACES[name_or_path]()
    try:
        with open(name_or_path) as f:
            return ConfigSpace.from_dict(json.load(f))
    except OSError as exc:
        raise ValueError("unknown space %r: not a preset (%s) and not "
                         "a readable file (%s)"
                         % (name_or_path, ", ".join(sorted(SPACES)),
                            exc.strerror or exc))
