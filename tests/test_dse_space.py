"""Unit tests for the typed design space (repro.dse.space)."""

import dataclasses
import json
import re

import pytest

from repro.dse.space import (
    ConfigSpace,
    DesignPoint,
    default_space,
    get_space,
    paper_space,
)
from repro.runner import RunSpec


class TestDesignPoint:
    def test_defaults_are_the_paper_config(self):
        p = DesignPoint()
        assert p.predictor_spec == "bimodal-512-512"
        assert p.with_asbr and p.bit_capacity == 16
        assert p.bdt_update == "execute" and p.threshold == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignPoint(bdt_update="id")
        with pytest.raises(ValueError):
            DesignPoint(bit_capacity=0)
        with pytest.raises(ValueError):
            DesignPoint(min_fold_fraction=1.5)
        with pytest.raises(ValueError):
            DesignPoint(min_count=-1)

    def test_non_asbr_points_are_canonical(self):
        """ASBR knobs collapse when the unit is absent: one config,
        one hash, one journal key, one cache entry."""
        a = DesignPoint("bimodal-2048", with_asbr=False, bit_capacity=4,
                        bdt_update="commit", min_fold_fraction=0.9)
        b = DesignPoint("bimodal-2048", with_asbr=False)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()

    def test_key_distinguishes_every_asbr_knob(self):
        base = DesignPoint()
        variants = [DesignPoint(bit_capacity=8),
                    DesignPoint(bdt_update="mem"),
                    DesignPoint(min_fold_fraction=0.3),
                    DesignPoint(min_count=4),
                    DesignPoint(predictor_spec="not-taken")]
        keys = {p.key() for p in variants} | {base.key()}
        assert len(keys) == len(variants) + 1

    def test_fields_are_the_spec_minus_its_input(self):
        """A point is a RunSpec without (benchmark, n_samples, seed):
        ``to_spec`` and the journal's point dicts rely on it."""
        spec = [f.name for f in dataclasses.fields(RunSpec)]
        assert [f.name for f in dataclasses.fields(DesignPoint)] == \
            [n for n in spec if n not in ("benchmark", "n_samples", "seed")]

    def test_to_spec_carries_everything(self):
        p = DesignPoint(bit_capacity=8, bdt_update="mem",
                        min_fold_fraction=0.3, min_count=4)
        spec = p.to_spec("adpcm_enc", 64, 11)
        assert spec.benchmark == "adpcm_enc"
        assert (spec.n_samples, spec.seed) == (64, 11)
        assert spec.with_asbr and spec.bit_capacity == 8
        assert spec.bdt_update == "mem"
        assert spec.min_fold_fraction == 0.3 and spec.min_count == 4

    def test_dict_roundtrip(self):
        p = DesignPoint(bit_capacity=4, bdt_update="commit")
        assert DesignPoint.from_dict(p.to_dict()) == p


class TestConfigSpace:
    def test_grid_dedupes_non_asbr_points(self):
        space = ConfigSpace(predictors=("not-taken",),
                            asbr=(False, True),
                            bit_capacities=(4, 8),
                            bdt_updates=("mem", "execute"))
        pts = space.points()
        # 1 non-ASBR point + 2x2 ASBR grid, no duplicates
        assert len(pts) == len(set(pts)) == 5
        assert sum(not p.with_asbr for p in pts) == 1

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace(predictors=())

    def test_bad_update_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace(bdt_updates=("id",))

    def test_sample_is_seed_reproducible(self):
        space = default_space()
        a = space.sample(5, seed=42)
        b = space.sample(5, seed=42)
        c = space.sample(5, seed=43)
        assert a == b
        assert len(a) == 5 and len(set(a)) == 5
        assert a != c                     # astronomically unlikely tie

    def test_sample_larger_than_space_returns_all(self):
        space = paper_space()
        assert space.sample(10_000, seed=1) == space.points()

    def test_digest_pins_the_space(self):
        assert paper_space().digest() == paper_space().digest()
        assert paper_space().digest() != default_space().digest()

    def test_dimensions_line_up_with_point_fields(self):
        """``points`` feeds dimension i to DesignPoint field i: each
        dimension's default values hold that field's default."""
        dims = dataclasses.fields(ConfigSpace)
        point = dataclasses.fields(DesignPoint)
        assert len(dims) == len(point)
        for dim, f in zip(dims, point):
            assert f.default in dim.default, (dim.name, f.name)

    def test_dict_roundtrip(self):
        space = default_space()
        again = ConfigSpace.from_dict(space.to_dict())
        assert again == space and again.digest() == space.digest()

    def test_from_dict_tolerates_pre_frontend_space_files(self):
        d = paper_space().to_dict()
        for name in ("frontends", "btb_l1_entries", "btb_l2_entries",
                     "btb_l2_assocs", "ftq_depths", "fdip", "backends",
                     "issue_widths", "rob_sizes", "iq_sizes", "phys_regs"):
            del d[name]
        again = ConfigSpace.from_dict(json.loads(json.dumps(d)))
        assert again == paper_space()
        assert again.digest() == paper_space().digest()

    @pytest.mark.parametrize("d, key", [
        # field names for dimension names once ran without a front end
        ({"frontend": [True], "fdip": [True]}, "frontend"),
        ({"predictor": ["gshare-512-8"], "bit_capacity": [4]},
         "predictor"),
        # "no" once switched ASBR on, a bare string became characters
        ({"asbr": ["no"]}, "asbr[0]"),
        ({"predictors": "not-taken"}, "predictors"),
        ({"bit_capacities": [4.0]}, "bit_capacities[0]"),
        ({"min_fold_fractions": [0.5, float("nan")]},
         "min_fold_fractions[1]"),
        ({"bdt_updates": ["fetch"]}, "bdt_updates[0]"),
        ({"predictors": []}, "predictors"),
    ])
    def test_from_dict_rejects_naming_the_key(self, d, key):
        with pytest.raises(ValueError, match=r"^%s: " % re.escape(key)):
            ConfigSpace.from_dict(json.loads(json.dumps(d)))


class TestGetSpace:
    def test_presets(self):
        assert get_space("paper") == paper_space()
        assert get_space("default") == default_space()

    def test_json_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(paper_space().to_dict()))
        assert get_space(str(path)) == paper_space()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown space"):
            get_space("nope")


class TestFrontendDimensions:
    """The decoupled-frontend knobs as design-space dimensions."""

    def test_non_frontend_point_canonicalises_knobs(self):
        a = DesignPoint(frontend=False, fdip=True, ftq_depth=4,
                        btb_l1_entries=16)
        b = DesignPoint(frontend=False)
        assert a == b, "frontend knobs leaked into a frontend-less point"

    def test_frontend_knobs_distinguish_points(self):
        base = DesignPoint(frontend=True)
        assert DesignPoint(frontend=True, fdip=True) != base
        assert DesignPoint(frontend=True, ftq_depth=4) != base
        assert DesignPoint(frontend=True, btb_l1_entries=16) != base
        assert base.key() != DesignPoint().key()

    def test_frontend_point_validated_at_construction(self):
        with pytest.raises(ValueError):
            DesignPoint(frontend=True, btb_l2_assoc=3)
        with pytest.raises(ValueError):
            DesignPoint(frontend=True, ftq_depth=0)

    def test_grid_collapses_frontend_dims_when_off(self):
        space = ConfigSpace(predictors=("bimodal-512-512",),
                            asbr=(False,), frontends=(False,),
                            ftq_depths=(4, 8), fdip=(False, True))
        assert len(space.points()) == 1

    def test_grid_expands_frontend_dims_when_on(self):
        space = ConfigSpace(predictors=("bimodal-512-512",),
                            asbr=(False,), frontends=(False, True),
                            ftq_depths=(4, 8), fdip=(False, True))
        # 1 frontend-less + 2 depths x 2 fdip
        assert len(space.points()) == 5

    def test_to_spec_carries_frontend_knobs(self):
        p = DesignPoint(frontend=True, fdip=True, ftq_depth=4)
        spec = p.to_spec("adpcm_enc", 64, 1)
        assert (spec.frontend, spec.fdip, spec.ftq_depth) == (True, True, 4)

    def test_from_dict_tolerates_pre_frontend_journals(self):
        d = DesignPoint().to_dict()
        for name in ("frontend", "btb_l1_entries", "btb_l2_entries",
                     "btb_l2_assoc", "ftq_depth", "fdip"):
            del d[name]
        assert DesignPoint.from_dict(d) == DesignPoint()

    def test_cost_formula_matches_structures(self):
        from repro.dse.objectives import (FTQ_ENTRY_BITS,
                                          frontend_cost_bits)
        from repro.frontend import FetchTargetQueue, TwoLevelBTB

        p = DesignPoint(frontend=True, btb_l1_entries=16,
                        btb_l2_entries=512, btb_l2_assoc=2, ftq_depth=4)
        btb = TwoLevelBTB(p.btb_l1_entries, p.btb_l2_entries,
                          p.btb_l2_assoc)
        assert frontend_cost_bits(p) == (btb.state_bits
                                         + p.ftq_depth * FTQ_ENTRY_BITS)
        assert frontend_cost_bits(DesignPoint(frontend=False)) == 0
