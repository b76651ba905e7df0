import math

import numpy as np
import pytest

from cvqkdsim.classical import (
    PRBS15_PERIOD,
    prbs15_sequence,
    simulate_ook_link,
)


class TestPrbs15:
    def test_period_is_exactly_32767(self):
        # after 15 steps the register holds the last 15 output bits, so a
        # period visiting 32767 distinct windows visits every nonzero state
        bits = prbs15_sequence(PRBS15_PERIOD + 14).astype(np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(bits, 15)
        states = windows @ (1 << np.arange(15))
        assert np.unique(states).size == PRBS15_PERIOD == 32767

    def test_zero_lag_autocorrelation(self):
        pm = 2 * prbs15_sequence(PRBS15_PERIOD).astype(np.int64) - 1
        assert int(np.sum(pm * pm)) == PRBS15_PERIOD

    def test_all_seeds_reachable_nonzero(self):
        with pytest.raises(ValueError):
            prbs15_sequence(1, seed=0)
        with pytest.raises(ValueError):
            prbs15_sequence(1, seed=1 << 15)

    def test_seed_shifts_phase_only(self):
        a = prbs15_sequence(PRBS15_PERIOD, seed=0x0001)
        b = prbs15_sequence(PRBS15_PERIOD, seed=0x4321)
        assert int(np.sum(a)) == int(np.sum(b))
        # b is a cyclic rotation of a
        joined = np.concatenate([a, a]).tobytes()
        assert joined.find(b.tobytes()) >= 0


class TestEye:
    def test_noiseless_eye_fully_open(self):
        bits = prbs15_sequence(1000)
        rep = simulate_ook_link(bits, math.inf, np.random.default_rng(0))
        assert rep.eye_opening == 1.0
        assert rep.noise_sigma == 0.0
        assert rep.level_one_mean == pytest.approx(1.0)
        assert rep.level_zero_mean == pytest.approx(0.0)

    def test_sigma_six_closes_the_eye(self):
        # sigma = swing / 6 puts the opening exactly at the 0 boundary
        snr_db = 20.0 * math.log10(6.0)
        bits = prbs15_sequence(20_000)
        rep = simulate_ook_link(bits, snr_db, np.random.default_rng(1))
        assert rep.eye_opening == pytest.approx(0.0, abs=0.02)

    def test_five_percent_sigma_gives_seventy_percent(self):
        # sigma = 0.05 * swing -> opening (1 - 6*0.05) = 0.7
        snr_db = 20.0 * math.log10(1.0 / 0.05)
        bits = prbs15_sequence(50_000)
        rep = simulate_ook_link(bits, snr_db, np.random.default_rng(2))
        assert rep.eye_opening == pytest.approx(0.7, abs=0.01)

    def test_rejects_bad_inputs(self):
        bits = prbs15_sequence(100)
        with pytest.raises(ValueError):
            simulate_ook_link(np.array([], dtype=np.uint8), 20.0,
                              np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_ook_link(bits, math.nan, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_ook_link(bits, -math.inf, np.random.default_rng(0))
