"""Tests for the PAg local-history predictor extension."""

import pytest

from repro.predictors import LocalHistoryPredictor, make_predictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor

PC = 0x400100
TGT = 0x400200


class TestLocal:
    def test_learns_periodic_pattern(self):
        """A period-3 pattern (T T NT) is exact for local history."""
        p = LocalHistoryPredictor(history_bits=6, pht_entries=64,
                                  btb_entries=64)
        pattern = [True, True, False] * 80
        correct = 0
        for taken in pattern:
            correct += p.predict(PC).taken == taken
            p.update(PC, taken, TGT)
        assert correct > len(pattern) * 0.85

    def test_immune_to_interleaved_noise(self):
        """A second noisy branch cannot pollute the first's history
        (which it can with gshare's single global register)."""
        import random
        rng = random.Random(5)
        local = LocalHistoryPredictor(history_bits=4, pht_entries=16,
                                      btb_entries=64)
        gshare = GSharePredictor(history_bits=4, entries=16,
                                 btb_entries=64)
        l_ok = g_ok = total = 0
        for i in range(600):
            periodic = bool(i % 2)
            l_ok += local.predict(PC).taken == periodic
            g_ok += gshare.predict(PC).taken == periodic
            local.update(PC, periodic, TGT)
            gshare.update(PC, periodic, TGT)
            noise = rng.random() < 0.5
            local.update(PC + 8, noise, TGT)
            gshare.update(PC + 8, noise, TGT)
            total += 1
        assert l_ok / total > 0.9
        assert l_ok > g_ok

    def test_histories_are_per_branch(self):
        p = LocalHistoryPredictor(history_bits=4, pht_entries=16,
                                  btb_entries=64)
        p.update(PC, True, TGT)
        assert p._histories[p._history_index(PC)] == 1
        assert p._histories[p._history_index(PC + 4)] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalHistoryPredictor(history_entries=100)
        with pytest.raises(ValueError):
            LocalHistoryPredictor(history_bits=12, pht_entries=1024)

    def test_reset(self):
        p = LocalHistoryPredictor()
        for _ in range(4):
            p.update(PC, True, TGT)
        p.reset()
        assert not p.predict(PC).taken

    def test_state_bits_accounting(self):
        p = LocalHistoryPredictor(history_bits=8, history_entries=512,
                                  pht_entries=1024, btb_entries=64)
        assert p.state_bits == 512 * 8 + 2 * 1024 + p.btb.state_bits

    def test_make_predictor_spec(self):
        p = make_predictor("local-6-256")
        assert isinstance(p, LocalHistoryPredictor)
        assert p.history_bits == 6
        assert p.pht_entries == 256

    def test_pipeline_integration(self, count_loop_program):
        from repro.sim.functional import FunctionalSimulator
        from repro.sim.pipeline import PipelineSimulator
        f = FunctionalSimulator(count_loop_program)
        f.run_reference()
        sim = PipelineSimulator(count_loop_program,
                                predictor=LocalHistoryPredictor())
        sim.run()
        assert sim.regs.snapshot() == f.regs.snapshot()

    def test_loop_trip_count_learned(self):
        """A loop with a fixed trip count of 5: after warm-up, local
        history predicts the exit perfectly; bimodal always misses it."""
        p = LocalHistoryPredictor(history_bits=8, pht_entries=256,
                                  btb_entries=64)
        b = BimodalPredictor(256, 64)
        l_miss = b_miss = 0
        for _rep in range(40):
            for i in range(5):
                taken = i < 4       # 4 taken, then exit
                l_miss += p.predict(PC).taken != taken
                b_miss += b.predict(PC).taken != taken
                p.update(PC, taken, TGT)
                b.update(PC, taken, TGT)
        assert l_miss < 20      # only warm-up misses
        assert b_miss >= 40     # every exit mispredicted
