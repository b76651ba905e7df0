"""The kept-pulse sampler (pipeline.simulate_quantum_exchange) against the
per-pulse reference (physics.prepare_and_measure and calibrate_shot_noise).

Each check compares a statistic of the two with its sampling interval, at
a 0.1 % significance level.  The seeds are fixed, so every outcome is
deterministic; the reference blocks use other block ids than the sampled
ones, so the two samples are independent.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cvqkdsim import experiments as ex
from cvqkdsim import pipeline
from cvqkdsim import postprocess as pp
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import (
    CalibrationError,
    DriftState,
    KeptPulses,
    _ndtr,
    calibrate_shot_noise,
    draw_signal_statistics,
    prepare_and_measure,
)
from cvqkdsim.pipeline import (
    SEED_TAG_PULSES,
    LocalLink,
    derive_seed,
    run_chain,
    signal_variance,
    simulate_quantum_exchange,
)

ALPHA = 1e-3         # significance level of every agreement check
N_BLOCKS = 40
REFERENCE_OFFSET = 1000   # reference block b stands beside sampled block b

SCENARIOS = {
    "mean-drift": (SystemConfig(), None),
    # phase error and efficiency loss: the 8 class means all differ
    "drifted": (SystemConfig(), DriftState(0.9, 0.2)),
    "forced-sigma": (SystemConfig(force_sigma_snu=0.8), None),
}


def frame_sizes(cfg) -> tuple[int, int]:
    return cfg.calibration_pulses, cfg.block_size_pulses - cfg.calibration_pulses


def reference_exchange(cfg, block_id: int, drift) -> KeptPulses:
    """A block by the per-pulse reference: every pulse drawn, the shot noise
    estimated from a blocked frame, the threshold applied to the normalized
    outcomes."""
    rng = np.random.default_rng(derive_seed(cfg, block_id, SEED_TAG_PULSES))
    n_cal, n_sig = frame_sizes(cfg)
    shot = calibrate_shot_noise(
        prepare_and_measure(n_cal, cfg, drift, rng, blocked=True))
    batch = prepare_and_measure(n_sig, cfg, drift, rng)
    x = batch.outcome_snu / math.sqrt(shot)
    kept = np.flatnonzero(np.abs(x) >= cfg.x_th_snu)
    return KeptPulses(n_sig, batch.alice_phase_index[kept],
                      batch.bob_quadrature[kept],
                      (x[kept] > 0.0).astype(np.uint8), float(np.var(x)))


def int64_draw(sig, x_th_snu: float, rng) -> KeptPulses:
    """physics.draw_kept_pulses with its labels left int64."""
    n_sig = int(sig.counts.sum())
    thr = x_th_snu * math.sqrt(sig.shot_snu)
    mu = sig.table.reshape(8, 1)
    p = _ndtr(np.hstack([mu - thr, -thr - mu]) / sig.sigma)
    n_kept = rng.multinomial(sig.counts.ravel(), np.hstack(
        [p, np.maximum(0.0, 1.0 - p.sum(axis=1, keepdims=True))]))
    label = rng.permutation(np.repeat(np.arange(16),
                                      n_kept[:, :2].ravel()))
    return KeptPulses(n_sig, label >> 2, label >> 1 & 1,
                      (1 - (label & 1)).astype(np.uint8), sig.variance_snu)


def block_figures(cfg, batch: KeptPulses, block_id: int) -> dict:
    """What a block gives: kept count, the error rate over all kept bits,
    and the chain's report with the block's own error estimate."""
    alice = pp.sift_alice_bits(batch.alice_phase_index, batch.bob_quadrature)
    bob = batch.bob_bit
    report = run_chain(cfg, block_id, batch, LocalLink()).report
    return {"kept": batch.bob_bit.size, "p_post": report.p_post,
            "qber": float(np.mean(alice != bob)),
            "skr": report.skr_bits_per_s,
            "variance_snu": batch.variance_snu}


@pytest.fixture(scope="module", params=list(SCENARIOS))
def scenario(request):
    """(cfg, sampled batches, reference batches, their figures)."""
    cfg, drift = SCENARIOS[request.param]
    drift = cfg.drift.mean_state() if drift is None else drift
    sampled, reference, figures = [], [], {"sampled": [], "reference": []}
    for b in range(N_BLOCKS):
        s = simulate_quantum_exchange(cfg, b, drift)
        r = reference_exchange(cfg, b + REFERENCE_OFFSET, drift)
        sampled.append(s)
        reference.append(r)
        figures["sampled"].append(block_figures(cfg, s, b))
        figures["reference"].append(block_figures(
            cfg, r, b + REFERENCE_OFFSET))
    return cfg, sampled, reference, figures


def column(figures, side, name) -> np.ndarray:
    return np.array([f[name] for f in figures[side]])


def test_kept_bits_agree_per_class(scenario):
    # per (phase, quadrature) class, a 2 x 2 contingency of Bob's bits:
    # sampled against reference, 0 against 1
    _, sampled, reference, _ = scenario
    for phase in range(4):
        for quad in range(2):
            def bit_counts(batches):
                return np.bincount(np.concatenate([
                    b.bob_bit[(b.alice_phase_index == phase)
                              & (b.bob_quadrature == quad)]
                    for b in batches]), minlength=2)
            table = np.array([bit_counts(sampled), bit_counts(reference)])
            assert stats.chi2_contingency(table).pvalue > ALPHA, (
                phase, quad, table)


@pytest.mark.parametrize("name", ["kept", "p_post", "qber", "skr"])
def test_block_means_agree(scenario, name):
    # Welch's t-test on the per-block values of N_BLOCKS blocks each
    _, _, _, figures = scenario
    s = column(figures, "sampled", name)
    r = column(figures, "reference", name)
    assert stats.ttest_ind(s, r, equal_var=False).pvalue > ALPHA, (
        name, s.mean(), r.mean())


def _variance_ratio_pvalue(s, r) -> float:
    f = np.var(s, ddof=1) / np.var(r, ddof=1)
    dist = stats.f(s.size - 1, r.size - 1)
    return 2.0 * min(dist.cdf(f), dist.sf(f))


def test_signal_variance_mean_and_spread_agree(scenario):
    # variance_snu comes from per-class statistics in the sampler and is
    # np.var of every normalized outcome in the reference
    _, _, _, figures = scenario
    s = column(figures, "sampled", "variance_snu")
    r = column(figures, "reference", "variance_snu")
    assert stats.ttest_ind(s, r, equal_var=False).pvalue > ALPHA
    assert _variance_ratio_pvalue(s, r) > ALPHA
    # and so does the spread of the kept count
    assert _variance_ratio_pvalue(column(figures, "sampled", "kept"),
                                  column(figures, "reference", "kept")) > ALPHA


class TestCalibration:
    def test_block_estimate_inside_chi_square_interval(self):
        cfg = SystemConfig()
        n_cal, n_sig = frame_sizes(cfg)
        lo = stats.chi2.ppf(0.005, n_cal - 1) / (n_cal - 1)
        hi = stats.chi2.ppf(0.995, n_cal - 1) / (n_cal - 1)
        inside = []
        for b in range(200):
            rng = np.random.default_rng(derive_seed(cfg, b, SEED_TAG_PULSES))
            est = draw_signal_statistics(n_sig, n_cal, cfg,
                                         cfg.drift.mean_state(), rng).shot_snu
            inside.append(lo <= est <= hi)
        assert inside[0]
        # about 99 % of the blocks: at most 7 of 200 outside (binomial tail
        # below 0.1 % for a true 1 %)
        assert inside.count(False) <= 7

    def test_estimates_follow_scaled_chi_square(self):
        cfg = SystemConfig(force_sigma_snu=1.3)
        n_cal, n_sig = frame_sizes(cfg)
        est = np.array([draw_signal_statistics(
            n_sig, n_cal, cfg, cfg.drift.mean_state(),
            np.random.default_rng(derive_seed(cfg, b, SEED_TAG_PULSES))
        ).shot_snu
            for b in range(300)])
        scaled = est / 1.3 ** 2 * (n_cal - 1)
        assert stats.kstest(scaled, stats.chi2(n_cal - 1).cdf).pvalue > ALPHA

    def test_zero_sigma_is_a_calibration_error(self):
        cfg = SystemConfig(force_sigma_snu=0.0)
        with pytest.raises(CalibrationError):
            simulate_quantum_exchange(cfg, 0, cfg.drift.mean_state())


class TestKeptPulses:
    def test_positions_sorted_unique_and_in_range(self):
        # no stage reads a kept pulse's position, so none is drawn; what is
        # drawn is one entry of each field per kept pulse, fewer than the
        # block's signal pulses
        cfg = SystemConfig(block_size_pulses=100_000)
        batch = simulate_quantum_exchange(cfg, 3, cfg.drift.mean_state())
        assert batch.n_signal == frame_sizes(cfg)[1]
        assert 0 < batch.bob_bit.size < batch.n_signal
        assert (batch.alice_phase_index.size == batch.bob_quadrature.size
                == batch.bob_bit.size)
        assert batch.bob_bit.dtype == np.uint8
        assert set(np.unique(batch.bob_bit)) == {0, 1}

    def test_zero_threshold_keeps_every_pulse(self):
        cfg = SystemConfig(block_size_pulses=100_000, x_th_snu=0.0)
        batch = simulate_quantum_exchange(cfg, 0, cfg.drift.mean_state())
        assert batch.bob_bit.size == batch.n_signal

    def test_variance_does_not_depend_on_threshold(self):
        # variance_snu is drawn before the kept pulses
        cfg = SystemConfig(block_size_pulses=100_000)
        drift = cfg.drift.mean_state()
        values = {simulate_quantum_exchange(replace(cfg, x_th_snu=x), 0,
                                            drift).variance_snu
                  for x in (0.0, 2.7, 40.0)}
        assert values == {signal_variance(cfg, 0, drift)}

    @pytest.mark.parametrize("name", [*SCENARIOS, "low-threshold"])
    def test_matches_int64_draw(self, name):
        # the 1-byte labels hold the very values of the same draw made in
        # int64, the form it had before it narrowed them
        cfg, drift = SCENARIOS.get(name, (SystemConfig(x_th_snu=1.0), None))
        drift = cfg.drift.mean_state() if drift is None else drift
        n_cal, n_sig = frame_sizes(cfg)
        for b in range(4):
            got = simulate_quantum_exchange(cfg, b, drift)
            rng = np.random.default_rng(derive_seed(cfg, b, SEED_TAG_PULSES))
            want = int64_draw(draw_signal_statistics(n_sig, n_cal, cfg, drift,
                                                     rng), cfg.x_th_snu, rng)
            assert got.n_signal == want.n_signal
            assert got.variance_snu == want.variance_snu
            for field in ("alice_phase_index", "bob_quadrature", "bob_bit"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), (b, field)
            assert (got.alice_phase_index.dtype == got.bob_quadrature.dtype
                    == got.bob_bit.dtype == np.uint8)

    def test_variance_sweep_draws_no_kept_pulse(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kept pulses drawn")

        monkeypatch.setattr(pipeline, "draw_kept_pulses", refuse)
        ex.exp_variance_sweep(SystemConfig(block_size_pulses=100_000))
