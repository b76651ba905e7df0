import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkdsim.classical import (
    PRBS15_PERIOD,
    EyeReport,
    prbs15_sequence,
    simulate_ook_link,
)


def lfsr_reference(n, seed):
    """The x^15 + x^14 + 1 Fibonacci LFSR, one step per output bit."""
    out = bytearray(n)
    reg = seed
    for i in range(n):
        bit = ((reg >> 14) ^ (reg >> 13)) & 1
        reg = ((reg << 1) | bit) & 0x7FFF
        out[i] = bit
    return np.frombuffer(out, dtype=np.uint8)


def boolean_index_reference(bits, snr_db, rng):
    """simulate_ook_link with each level gathered by a boolean index."""
    bits = np.asarray(bits, dtype=np.uint8)
    sigma = 0.0 if snr_db == math.inf else 1.0 / (10.0 ** (snr_db / 20.0))
    mid = bits.astype(float)
    if sigma > 0.0:
        mid = mid + sigma * rng.standard_normal(mid.size)
    ones, zeros = mid[bits == 1], mid[bits == 0]
    mu1 = float(np.mean(ones)) if ones.size else 1.0
    mu0 = float(np.mean(zeros)) if zeros.size else 0.0
    resid = np.concatenate([ones - mu1, zeros - mu0])
    sigma_hat = float(np.std(resid)) if resid.size > 1 else 0.0
    span = mu1 - mu0
    opening = max(0.0, (span - 6.0 * sigma_hat) / span) if span > 0.0 else 0.0
    return EyeReport(opening, mu1, mu0, sigma_hat)


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

    def test_rejects_a_negative_length(self):
        with pytest.raises(ValueError, match="negative length"):
            prbs15_sequence(-1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(0, 15),
                       st.integers(0, 3 * PRBS15_PERIOD)),
           seed=st.integers(1, 0x7FFF))
    @example(n=3 * PRBS15_PERIOD, seed=0x7FFF)
    def test_matches_the_lfsr(self, n, seed):
        got = prbs15_sequence(n, seed)
        assert got.dtype == np.uint8
        assert np.array_equal(got, lfsr_reference(n, seed))

    def test_seed_shifts_phase_only(self):
        a = prbs15_sequence(PRBS15_PERIOD, seed=0x0001)
        b = prbs15_sequence(PRBS15_PERIOD, seed=0x4321)
        assert int(np.sum(a)) == int(np.sum(b))
        # b is a cyclic rotation of a
        joined = np.concatenate([a, a]).tobytes()
        assert joined.find(b.tobytes()) >= 0


class TestEye:
    @pytest.mark.parametrize("bits", [
        np.random.default_rng(3).integers(0, 2, 5000, dtype=np.uint8),
        np.ones(100, np.uint8),
        np.zeros(100, np.uint8),
        np.ones(1, np.uint8),
        # a 2 joins neither level
        np.array([0, 1, 2, 1, 0, 2, 2], np.uint8),
    ], ids=["random", "ones", "zeros", "one-bit", "holds-2"])
    @pytest.mark.parametrize("snr_db", [math.inf, 15.0])
    def test_matches_boolean_index_gathers(self, bits, snr_db):
        # each report is its own seed's, whatever shares the call and its
        # reused buffers; no generator, no report
        for seeds in ([], [4], [4, 5], [5, 4]):
            got = simulate_ook_link(
                bits, snr_db, [np.random.default_rng(s) for s in seeds])
            assert len(got) == len(seeds)
            for rep, seed in zip(got, seeds):
                want = boolean_index_reference(bits, snr_db,
                                               np.random.default_rng(seed))
                for field in fields(EyeReport):
                    assert (getattr(rep, field.name)
                            == getattr(want, field.name)), (seeds, field.name)

    def test_noiseless_eye_fully_open(self):
        bits = prbs15_sequence(1000)
        [rep] = simulate_ook_link(bits, math.inf, [np.random.default_rng(0)])
        assert rep.eye_opening == 1.0
        assert rep.noise_sigma == 0.0
        assert rep.level_one_mean == pytest.approx(1.0)
        assert rep.level_zero_mean == pytest.approx(0.0)

    def test_sigma_six_closes_the_eye(self):
        # sigma = swing / 6 puts the opening exactly at the 0 boundary
        snr_db = 20.0 * math.log10(6.0)
        bits = prbs15_sequence(20_000)
        [rep] = simulate_ook_link(bits, snr_db, [np.random.default_rng(1)])
        assert rep.eye_opening == pytest.approx(0.0, abs=0.02)

    def test_five_percent_sigma_gives_seventy_percent(self):
        # sigma = 0.05 * swing -> opening (1 - 6*0.05) = 0.7
        snr_db = 20.0 * math.log10(1.0 / 0.05)
        bits = prbs15_sequence(50_000)
        [rep] = simulate_ook_link(bits, snr_db, [np.random.default_rng(2)])
        assert rep.eye_opening == pytest.approx(0.7, abs=0.01)

    def test_rejects_bad_inputs(self):
        bits = prbs15_sequence(100)
        with pytest.raises(ValueError):
            simulate_ook_link(np.array([], dtype=np.uint8), 20.0,
                              [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            simulate_ook_link(bits, math.nan, [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            simulate_ook_link(bits, -math.inf, [np.random.default_rng(0)])
