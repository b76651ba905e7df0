import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2

from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import (
    QUANTUM_CHANNEL_INDEX,
    CalibrationError,
    DriftParams,
    DriftState,
    FiberSpec,
    PulseBatch,
    WdmChannelSpec,
    _ndtr,
    advance_drift,
    calibrate_shot_noise,
    effective_length_km,
    fiber_transmittance,
    prepare_and_measure,
    wdm_excess_noise,
)


def ideal_config(**kwargs) -> SystemConfig:
    """Lossless, noiseless fiber with WDM off; overrides via kwargs."""
    base = SystemConfig(
        fiber=FiberSpec(length_km=10.0, attenuation_db_per_km=0.0,
                        raman_coefficient_per_mw_km=0.0),
        epsilon_intrinsic_snu=0.0,
        drift=DriftParams(efficiency_mean=1.0),
        **kwargs)
    return base.with_wdm_enabled([])


class TestNdtr:
    def test_matches_scipy(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 80_001),
                            np.random.default_rng(3).uniform(-40, 40, 20_000)])
        got, want = _ndtr(x), special.ndtr(x)
        assert got.shape == x.shape
        # within 2 ulp where erfc is flat
        upper = x >= 0.0
        assert np.all(np.abs(got - want)[upper]
                      <= 2 * np.spacing(want[upper]))
        # below, they differ by more, and not by this helper's fault: for
        # -sqrt 2 < x < 0 scipy takes 0.5 + 0.5 erf(x / sqrt 2), which
        # cancels (8 ulp off the exact value, where this helper is 4); and
        # both round x / sqrt 2, to which erfc's relative condition number,
        # ~x^2, adds up to ~x^2 / 2 ulp each (scipy is 1.8e3 ulp off the
        # exact value at x = -37)
        lower = (x < 0.0) & (want >= np.finfo(float).tiny)
        assert np.all(np.abs(got - want)[lower]
                      <= (12 + x[lower] ** 2) * np.spacing(want[lower]))
        # from x ~ -37.5 both lie below the normal range (scipy's is 0)
        assert np.all(got[want < np.finfo(float).tiny] < np.finfo(float).tiny)

    def test_keeps_the_shape(self):
        assert _ndtr(np.zeros((8, 2))).shape == (8, 2)
        assert _ndtr(0.0) == 0.5


class TestFiber:
    def test_transmittance_closed_form(self):
        assert fiber_transmittance(FiberSpec(10.0, 0.2)) == pytest.approx(
            10.0 ** -0.2)
        assert fiber_transmittance(FiberSpec(25.0, 0.2)) == pytest.approx(
            0.316228, abs=1e-6)

    def test_zero_length_is_transparent(self):
        assert fiber_transmittance(FiberSpec(0.0, 0.2)) == 1.0

    def test_effective_length_limits(self):
        f = FiberSpec(10.0, 0.2)
        alpha_lin = 0.2 * math.log(10.0) / 10.0
        want = (1.0 - fiber_transmittance(f)) / alpha_lin
        assert effective_length_km(f) == pytest.approx(want)
        # lossless limit: effective length equals physical length
        assert effective_length_km(FiberSpec(10.0, 0.0)) == 10.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            FiberSpec(length_km=-1.0)


class TestWdmNoise:
    def test_single_channel_below_ceiling(self):
        cfg = SystemConfig()
        for ch in cfg.classical_channels:
            eps = wdm_excess_noise([ch], cfg.fiber)
            assert 0.0 < eps <= 0.0075

    def test_linearity_in_power(self):
        cfg = SystemConfig()
        ch = cfg.classical_channels[0]
        doubled = replace(ch, launch_power_dbm=ch.launch_power_dbm
                          + 10.0 * math.log10(2.0))
        assert wdm_excess_noise([doubled], cfg.fiber) == pytest.approx(
            2.0 * wdm_excess_noise([ch], cfg.fiber))

    def test_disabled_and_quantum_channels_ignored(self):
        cfg = SystemConfig()
        assert wdm_excess_noise(
            [replace(ch, enabled=False) for ch in cfg.wdm], cfg.fiber) == 0.0
        # the quantum band cannot be a channel, so it never adds noise
        with pytest.raises(ValueError):
            WdmChannelSpec(QUANTUM_CHANNEL_INDEX)


class TestPrepareAndMeasure:
    def test_known_mean_and_variance(self):
        # T = 1, eta = 1, eps = 0, alpha = 0.5: phase 0 in Q has mean
        # 2 * 0.5 * cos(pi/4) = +0.70711 and variance 1.
        cfg = ideal_config(alpha=0.5)
        drift = DriftState(efficiency_factor=1.0)
        rng = np.random.default_rng(42)
        batch = prepare_and_measure(1_000_000, cfg, drift, rng)
        sel = (batch.alice_phase_index == 0) & (batch.bob_quadrature == 0)
        x = batch.outcome_snu[sel]
        assert np.mean(x) == pytest.approx(2 * 0.5 * math.cos(math.pi / 4),
                                           rel=0.01)
        assert np.var(x) == pytest.approx(1.0, rel=0.01)

    def test_signal_noise_variance_matches_model(self):
        cfg = SystemConfig()
        drift = DriftState(cfg.drift.efficiency_mean, 0.0)
        rng = np.random.default_rng(3)
        n = 1_000_000
        batch = prepare_and_measure(n, cfg, drift, rng)
        # subtract the per-cell mean so only the noise variance remains
        resid = np.empty(n)
        for ph in range(4):
            for q in range(2):
                sel = (batch.alice_phase_index == ph) & (batch.bob_quadrature == q)
                resid[sel] = batch.outcome_snu[sel] - np.mean(batch.outcome_snu[sel])
        t = fiber_transmittance(cfg.fiber)
        eps = cfg.epsilon_intrinsic_snu + wdm_excess_noise(cfg.wdm, cfg.fiber)
        want = 1.0 + t * drift.efficiency_factor * eps
        three_sigma = 3.0 * want * math.sqrt(2.0 / n)
        assert abs(np.var(resid) - want) < three_sigma

    def test_blocked_frames_are_pure_shot_noise(self):
        cfg = SystemConfig()  # WDM on; must not leak into blocked frames
        rng = np.random.default_rng(11)
        batch = prepare_and_measure(1_000_000, cfg, DriftState(), rng,
                                    blocked=True)
        assert batch.blocked
        assert np.mean(batch.outcome_snu) == pytest.approx(0.0, abs=0.01)
        assert np.var(batch.outcome_snu) == pytest.approx(1.0, rel=0.01)

    def test_wdm_on_off_total_variance_within_one_percent(self):
        cfg = SystemConfig()
        drift = DriftState(cfg.drift.efficiency_mean, 0.0)
        v = {}
        for label, c in (("on", cfg), ("off", cfg.with_wdm_enabled([]))):
            rng = np.random.default_rng(5)  # common random numbers
            v[label] = np.var(prepare_and_measure(
                1_000_000, c, drift, rng).outcome_snu)
        assert abs(v["on"] - v["off"]) / v["off"] <= 0.01

    def test_reproducible_given_seed(self):
        cfg = SystemConfig()
        a = prepare_and_measure(1000, cfg, DriftState(),
                                np.random.default_rng(1))
        b = prepare_and_measure(1000, cfg, DriftState(),
                                np.random.default_rng(1))
        assert np.array_equal(a.outcome_snu, b.outcome_snu)
        assert np.array_equal(a.alice_phase_index, b.alice_phase_index)

    def test_force_sigma_override(self):
        cfg = replace(ideal_config(alpha=0.5), force_sigma_snu=1e-9)
        batch = prepare_and_measure(10_000, cfg, DriftState(1.0, 0.0),
                                    np.random.default_rng(0))
        m = 2 * 0.5 * math.cos(math.pi / 4)
        assert np.allclose(np.abs(batch.outcome_snu), m, atol=1e-6)

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            prepare_and_measure(0, SystemConfig(), DriftState(),
                                np.random.default_rng(0))


class TestCalibration:
    def test_chi_square_confidence(self):
        # With n = 1e6 the sample variance lies inside the 99% chi-square
        # interval around the truth, which itself is well within 1%.
        n = 1_000_000
        rng = np.random.default_rng(1234)
        batch = prepare_and_measure(n, SystemConfig(), DriftState(), rng,
                                    blocked=True)
        est = calibrate_shot_noise(batch)
        lo = chi2.ppf(0.005, n - 1) / (n - 1)
        hi = chi2.ppf(0.995, n - 1) / (n - 1)
        assert lo <= est <= hi
        assert abs(est - 1.0) < 0.01

    def test_scales_with_true_variance(self):
        rng = np.random.default_rng(9)
        x = 2.5 * rng.standard_normal(200_000)
        batch = PulseBatch(np.zeros(x.size, np.int8),
                           np.zeros(x.size, np.int8), x, blocked=True)
        assert calibrate_shot_noise(batch) == pytest.approx(6.25, rel=0.02)

    def test_degenerate_frame_rejected(self):
        x = np.full(2000, 0.7)
        batch = PulseBatch(np.zeros(2000, np.int8), np.zeros(2000, np.int8),
                           x, blocked=True)
        with pytest.raises(CalibrationError):
            calibrate_shot_noise(batch)

    def test_requires_blocked_batch_and_minimum_size(self):
        x = np.random.default_rng(0).standard_normal(2000)
        with pytest.raises(ValueError):
            calibrate_shot_noise(PulseBatch(
                np.zeros(2000, np.int8), np.zeros(2000, np.int8), x))
        with pytest.raises(ValueError):
            calibrate_shot_noise(PulseBatch(
                np.zeros(10, np.int8), np.zeros(10, np.int8), x[:10],
                blocked=True))


class TestDrift:
    def test_reversion_without_noise(self):
        params = DriftParams(efficiency_mean=0.99, reversion_rate=0.01)
        state = DriftState(efficiency_factor=0.5)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            state = advance_drift(state, 1.0, params, rng)
        assert state.efficiency_factor == pytest.approx(0.99, abs=1e-6)
        assert state.phase_error_rad == pytest.approx(0.0)

    def test_stationary_variance_matches_ou_oracle(self):
        # Discrete mean-reverting walk x <- (1 - theta*dt)*x + sigma*sqrt(dt)*N
        # has stationary variance sigma^2 * dt / (1 - (1 - theta*dt)^2).
        theta, sigma, dt = 0.05, 0.01, 1.0
        params = DriftParams(phase_sigma=sigma, reversion_rate=theta)
        rng = np.random.default_rng(77)
        state = DriftState()
        samples = np.empty(200_000)
        for i in range(samples.size):
            state = advance_drift(state, dt, params, rng)
            samples[i] = state.phase_error_rad
        want = sigma ** 2 * dt / (1.0 - (1.0 - theta * dt) ** 2)
        assert np.var(samples[1000:]) == pytest.approx(want, rel=0.05)

    def test_efficiency_stays_clamped(self):
        params = DriftParams(efficiency_mean=0.99, efficiency_sigma=0.5)
        state = DriftState()
        rng = np.random.default_rng(3)
        for _ in range(500):
            state = advance_drift(state, 1.0, params, rng)
            assert 0.0 < state.efficiency_factor <= 1.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            advance_drift(DriftState(), 0.0, DriftParams(),
                          np.random.default_rng(0))
