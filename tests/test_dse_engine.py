"""Integration tests: evaluator, search drivers, resume, DSE CLI.

These run real (tiny-input) simulations, so they share one module-scoped
journal/cache where possible.  The contract under test is the ISSUE's
acceptance criterion: a frontier containing the paper's threshold-2
configuration as a non-dominated point, and a resumed run that performs
zero new simulator executions yet reproduces the identical frontier.
"""

import dataclasses
import json
import os

import pytest

from repro.dse import (
    BASELINE_POINT,
    ConfigSpace,
    DesignPoint,
    Evaluator,
    GridSearch,
    Journal,
    RandomSearch,
    SuccessiveHalving,
    extract_objectives,
    frontier_of,
    make_search,
    paper_space,
)
from repro.runner import ResultCache, execute_spec_metrics, run_sweep
from repro.telemetry import MetricsRegistry

BENCH, N, SEED = "adpcm_enc", 64, 11

#: a small but meaningful slice of the paper space: the customized
#: core at every threshold, plus the displaced reference predictor.
SPACE = ConfigSpace(predictors=("bimodal-512-512", "bimodal-2048"),
                    asbr=(False, True),
                    bit_capacities=(16,),
                    bdt_updates=("commit", "mem", "execute"))

META = {"space": SPACE.digest(), "benchmark": BENCH,
        "n_samples": N, "seed": SEED}


def make_evaluator(tmp, journal=None, cache=True):
    c = ResultCache(os.path.join(str(tmp), "cache")) if cache else None
    return Evaluator(BENCH, N, SEED, workers=0, cache=c,
                     journal=journal)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """One full grid evaluation, kept for the whole module."""
    tmp = tmp_path_factory.mktemp("dse")
    path = os.path.join(str(tmp), "journal.jsonl")
    with Journal(path).open(META) as journal:
        ev = make_evaluator(tmp, journal)
        results = GridSearch().run(ev, SPACE)
    return tmp, path, results, ev


class TestEvaluator:
    def test_baseline_speedup_is_one(self, first_run):
        _tmp, _path, results, _ev = first_run
        by_point = {r.point: r for r in results}
        assert by_point[BASELINE_POINT].objectives.speedup == \
            pytest.approx(1.0)

    def test_objectives_are_sane(self, first_run):
        _tmp, _path, results, _ev = first_run
        for r in results:
            o = r.objectives
            assert o.cycles > 0 and o.cpi > 0 and o.speedup > 0
            assert 0.0 <= o.fold_coverage <= 1.0
            assert o.table_bits >= 0 and o.energy > 0
            if not r.point.with_asbr:
                assert o.fold_coverage == 0.0

    def test_asbr_threshold2_beats_baseline(self, first_run):
        _tmp, _path, results, _ev = first_run
        by_point = {r.point: r for r in results}
        t2 = by_point[DesignPoint(predictor_spec="bimodal-512-512")]
        assert t2.objectives.speedup > 1.0
        assert t2.objectives.fold_coverage > 0.0

    def test_acceptance_threshold2_on_frontier(self, first_run):
        """The paper's chosen configuration is Pareto-optimal."""
        _tmp, _path, results, _ev = first_run
        front = frontier_of(results)
        assert DesignPoint(predictor_spec="bimodal-512-512") in \
            [r.point for r in front]

    def test_every_evaluation_journaled(self, first_run):
        _tmp, path, results, _ev = first_run
        j = Journal(path).load()
        for r in results:
            assert j.has(r.key)


class TestResume:
    def test_full_resume_zero_simulations(self, first_run):
        tmp, path, results, _ev = first_run
        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp, journal)
            again = GridSearch().run(ev, SPACE)
        assert ev.simulated == 0
        assert ev.journal_hits == len(SPACE.points())
        assert [r.objectives for r in again] == \
            [r.objectives for r in results]
        assert all(r.from_journal for r in again)

    def test_killed_midway_resumes_without_reevaluation(
            self, tmp_path, first_run):
        """Journal only a prefix (as if the process died), then run the
        full search: only the missing points simulate, and the frontier
        matches the uninterrupted run's exactly."""
        _tmp, _path, results, _ev = first_run
        points = SPACE.points()
        path = str(tmp_path / "killed.jsonl")
        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp_path, journal)
            ev.evaluate(points[:3])
        # prefix points plus the baseline the evaluator journals itself
        done = len(Journal(path).load())
        assert done >= 3

        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp_path, journal)
            resumed = GridSearch().run(ev, SPACE)
        assert ev.journal_hits == done
        assert ev.simulated == len(points) - done
        assert len(Journal(path).load()) == len(points)
        assert {r.key: r.objectives for r in resumed} == \
            {r.key: r.objectives for r in results}
        assert [r.point for r in frontier_of(resumed)] == \
            [r.point for r in frontier_of(results)]


class TestSearchDrivers:
    def test_random_search_same_seed_same_points(self, first_run):
        tmp, path, _results, _ev = first_run
        space = paper_space()
        picks_a = space.sample(4, seed=7)
        picks_b = space.sample(4, seed=7)
        assert picks_a == picks_b
        driver = RandomSearch(n_points=4, seed=7)
        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp, journal)
            res = driver.run(ev, SPACE)
        assert [r.point for r in res] == SPACE.sample(4, seed=7)

    def test_halving_final_rung_is_full_input(self, tmp_path):
        driver = SuccessiveHalving(eta=2, rung0_samples=16, growth=4)
        ev = make_evaluator(tmp_path)
        res = driver.run(ev, SPACE)
        assert all(r.n_samples == N for r in res)
        # survivors shrink by eta per rung, never below 1
        assert 1 <= len(res) <= len(SPACE.points())

    def test_halving_rungs_resume_too(self, tmp_path):
        path = str(tmp_path / "halve.jsonl")
        driver = SuccessiveHalving(eta=2, rung0_samples=16, growth=4)
        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp_path, journal)
            first = driver.run(ev, SPACE)
        with Journal(path).open(META) as journal:
            ev = make_evaluator(tmp_path, journal)
            second = driver.run(ev, SPACE)
        assert ev.simulated == 0
        assert [r.key for r in second] == [r.key for r in first]

    def test_halving_rung_sizes(self, tmp_path):
        """rung_sizes enumerates exactly the sizes run() visits."""
        driver = SuccessiveHalving(eta=2, rung0_samples=16, growth=4)
        sizes = driver.rung_sizes(N)
        assert sizes == [16, 64]
        assert driver.rung_sizes(8) == [8]
        ev = make_evaluator(tmp_path)
        visited = []
        evaluate = ev.evaluate

        def spy(points, n_samples=None):
            visited.append(n_samples)
            return evaluate(points, n_samples=n_samples)

        ev.evaluate = spy
        driver.run(ev, SPACE)
        assert visited == sizes

    def test_make_search(self):
        assert make_search("grid").name == "grid"
        assert make_search("random", n_points=3, seed=5) == \
            RandomSearch(n_points=3, seed=5)
        assert make_search("halving").name == "halving"
        with pytest.raises(ValueError):
            make_search("simulated-annealing")


class TestCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.fixture()
    def space_file(self, tmp_path):
        small = ConfigSpace(predictors=("bimodal-512-512",),
                            asbr=(False, True),
                            bit_capacities=(16,),
                            bdt_updates=("mem", "execute"))
        path = tmp_path / "space.json"
        path.write_text(json.dumps(small.to_dict()))
        return str(path)

    def test_run_then_resume_all_journal_hits(self, tmp_path,
                                              space_file, capsys):
        journal = str(tmp_path / "cli.jsonl")
        argv = ["dse", "run", "--space", space_file,
                "--benchmark", BENCH, "--samples", str(N),
                "--seed", str(SEED), "--journal", journal,
                "--cache-dir", str(tmp_path / "cache")]
        code, out, err = self.run_cli(argv, capsys)
        assert code == 0
        assert "0 simulated" not in err
        assert "Pareto-optimal" in out

        # second invocation must refuse without --resume...
        code, _out, err = self.run_cli(argv, capsys)
        assert code == 2 and "--resume" in err
        # ...and be 100% journal hits with it
        code, out, err = self.run_cli(
            argv + ["--resume", "--expect-no-new"], capsys)
        assert code == 0
        assert "(0 simulated, 3 from journal)" in err

    def test_frontier_and_report_replay_without_simulation(
            self, tmp_path, space_file, capsys):
        journal = str(tmp_path / "cli2.jsonl")
        code, _o, _e = self.run_cli(
            ["dse", "run", "--space", space_file, "--benchmark", BENCH,
             "--samples", str(N), "--seed", str(SEED),
             "--journal", journal, "--no-cache"], capsys)
        assert code == 0
        code, out, _e = self.run_cli(
            ["dse", "frontier", "--journal", journal, "--csv"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("label,")
        code, out, _e = self.run_cli(
            ["dse", "report", "--journal", journal], capsys)
        assert code == 0
        assert "evaluations" in out and "frontier" in out

    def test_json_export(self, tmp_path, space_file, capsys):
        journal = str(tmp_path / "cli3.jsonl")
        code, out, _e = self.run_cli(
            ["dse", "run", "--space", space_file, "--benchmark", BENCH,
             "--samples", str(N), "--seed", str(SEED),
             "--journal", journal, "--no-cache", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["objectives"] == ["speedup", "table_bits", "energy"]
        assert any(p["on_frontier"] for p in doc["points"])


# ----------------------------------------------------------------------
# tolerant evaluation (quarantined points)
# ----------------------------------------------------------------------
BAD_POINT = DesignPoint(predictor_spec="no-such-predictor",
                        with_asbr=False)
GOOD_POINT = DesignPoint(predictor_spec="bimodal-512-512",
                         with_asbr=False)
ADHOC_META = {"space": "adhoc", "benchmark": BENCH,
              "n_samples": N, "seed": SEED}


class TestTolerantEvaluation:
    def test_poisoned_point_quarantined_and_journaled(self, tmp_path):
        from repro.dse.journal import eval_key
        path = os.path.join(str(tmp_path), "j.jsonl")
        with Journal(path).open(ADHOC_META) as journal:
            ev = Evaluator(BENCH, N, SEED, workers=0, journal=journal,
                           tolerant=True)
            results = ev.evaluate([GOOD_POINT, BAD_POINT])
        assert [r.point for r in results] == [GOOD_POINT]
        assert ev.failed == 1
        j = Journal(path).load()
        key = eval_key(BAD_POINT, BENCH, N, SEED)
        assert not j.has(key)               # pending: resume retries
        assert "no-such-predictor" in j.failures[key]["error"]

    def test_resume_retries_quarantined_point(self, tmp_path):
        path = os.path.join(str(tmp_path), "j.jsonl")
        with Journal(path).open(ADHOC_META) as journal:
            ev = Evaluator(BENCH, N, SEED, workers=0, journal=journal,
                           tolerant=True)
            ev.evaluate([BAD_POINT])
            assert ev.failed == 1
        # a resumed exploration sees the point as pending and retries
        with Journal(path).open(ADHOC_META) as journal:
            ev2 = Evaluator(BENCH, N, SEED, workers=0, journal=journal,
                            tolerant=True)
            assert ev2.evaluate([BAD_POINT]) == []
            assert ev2.failed == 1          # retried, failed again
            assert ev2.journal_hits == 0    # never served from journal

    def test_default_evaluator_still_raises(self, tmp_path):
        ev = make_evaluator(tmp_path)
        with pytest.raises(ValueError):
            ev.evaluate([BAD_POINT])


# ----------------------------------------------------------------------
# untraced evaluation: fold coverage from stats, telemetry as the oracle
# ----------------------------------------------------------------------
def traced_objectives(points, benchmark, n, seed):
    """Objective vectors as a traced run computes them: the baseline
    and every distinct point run through ``execute_spec_metrics``, and
    fold coverage is read off the telemetry branch tables, committed
    folds / (committed folds + branch executions)."""
    runs = {p: execute_spec_metrics(p.to_spec(benchmark, n, seed))
            for p in dict.fromkeys([BASELINE_POINT, *points])}
    base = runs[BASELINE_POINT][0]
    out = []
    for p in points:
        stats, metrics = runs[p]
        rows = MetricsRegistry.from_dict(metrics).branches.values()
        folds = sum(b.fold_hits for b in rows)
        total = folds + sum(b.executions for b in rows)
        out.append(dataclasses.replace(
            extract_objectives(p, stats, base),
            fold_coverage=folds / total if total else 0.0))
    return out


def dse_spaces():
    """The paper space and the quick spaces of E5 and E6."""
    from repro.experiments.frontend_frontier import frontend_space
    from repro.experiments.ooo_fold_sensitivity import ooo_space
    return {"paper": paper_space(), "frontend": frontend_space(quick=True),
            "ooo": ooo_space(quick=True)}


#: an OoO point on which, before the OoO machine emitted ``BRANCH`` at
#: commit, telemetry and stats disagreed on fold coverage (the tables
#: also counted 14 branches resolved on squashed paths: 0.277184)
OOO_POINT = DesignPoint(predictor_spec="bimodal-512-512", backend="ooo",
                        issue_width=1)
OOO_BENCH, OOO_N, OOO_SEED = "huffman_dec", 150, 7


def _forbidden(*_args, **_kwargs):
    raise AssertionError("a forbidden run was started")


def forbid_tracing(monkeypatch):
    """Fail any traced run from here on: the metrics executor, or a
    Tracer built anywhere."""
    import repro.runner.pool
    from repro.telemetry import Tracer

    monkeypatch.setattr(repro.runner.pool, "execute_spec_metrics",
                        _forbidden)
    monkeypatch.setattr(Tracer, "__init__", _forbidden)


def grid_never_traces(space, tmp_path, monkeypatch):
    forbid_tracing(monkeypatch)
    ev = make_evaluator(tmp_path)
    assert len(GridSearch().run(ev, space)) == len(space.points())


def forbid_simulation(monkeypatch):
    """Fail any run at all: every result must come from the cache."""
    import repro.runner.pool

    forbid_tracing(monkeypatch)
    monkeypatch.setattr(repro.runner.pool, "execute_spec", _forbidden)


class TestUntracedObjectives:
    """Every point runs untraced; the traced path is the oracle."""

    N, SEED = 48, 5

    @pytest.mark.parametrize("space", ["paper", "frontend", "ooo"])
    @pytest.mark.parametrize("bench", ["adpcm_enc", "huffman_dec"])
    def test_equal_to_telemetry_oracle(self, bench, space):
        space = dse_spaces()[space]
        ev = Evaluator(bench, self.N, self.SEED)
        got = [r.objectives for r in GridSearch().run(ev, space)]
        assert got == traced_objectives(space.points(), bench, self.N,
                                        self.SEED)
        assert any(o.fold_coverage > 0 for o in got)

    @pytest.mark.parametrize("space", ["paper", "frontend"])
    def test_in_order_grid_never_traces(self, space, tmp_path,
                                        monkeypatch):
        grid_never_traces(dse_spaces()[space], tmp_path, monkeypatch)

    def test_ooo_grid_never_traces(self, tmp_path, monkeypatch):
        grid_never_traces(dse_spaces()["ooo"], tmp_path, monkeypatch)

    def test_ooo_point_equals_telemetry_oracle(self):
        r, = Evaluator(OOO_BENCH, OOO_N, OOO_SEED).evaluate([OOO_POINT])
        assert [r.objectives] == traced_objectives(
            [OOO_POINT], OOO_BENCH, OOO_N, OOO_SEED)
        assert r.objectives.fold_coverage == pytest.approx(0.280686,
                                                           abs=1e-6)


class TestCacheCompatibility:
    N, SEED = 48, 5

    def test_traced_entries_serve_untraced_evaluator(self, tmp_path,
                                                     monkeypatch):
        """Entries the traced path wrote (stats plus metrics) are hits."""
        points = paper_space().points()
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep([p.to_spec(BENCH, self.N, self.SEED) for p in points],
                  cache=cache, collect_metrics=True)
        want = traced_objectives(points, BENCH, self.N, self.SEED)
        forbid_simulation(monkeypatch)
        cache = ResultCache(str(tmp_path / "cache"))
        ev = Evaluator(BENCH, self.N, self.SEED, cache=cache)
        got = [r.objectives for r in GridSearch().run(ev, paper_space())]
        assert (cache.hits, cache.misses) == (len(points), 0)
        assert got == want

    def test_ooo_entry_without_metrics_is_a_hit(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [p.to_spec(OOO_BENCH, OOO_N, OOO_SEED)
                 for p in (BASELINE_POINT, OOO_POINT)]
        run_sweep(specs, cache=cache)           # stats only, untraced
        forbid_simulation(monkeypatch)
        cache = ResultCache(str(tmp_path / "cache"))
        ev = Evaluator(OOO_BENCH, OOO_N, OOO_SEED, cache=cache)
        r, = ev.evaluate([OOO_POINT])
        assert (cache.hits, cache.misses) == (2, 0)
        assert r.objectives.fold_coverage == pytest.approx(0.280686,
                                                           abs=1e-6)
