"""Monte-Carlo model of the optical layer.

Pulse preparation with four-state phase modulation, fiber loss, WDM-induced
excess noise, homodyne detection and shot-noise calibration, plus a slow
mean-reverting drift of receiver efficiency and modulation phase.

The model is simulated two ways.  prepare_and_measure and
calibrate_shot_noise draw every pulse; they are the statistical reference.
draw_signal_statistics and draw_kept_pulses draw only what a block's
distillation reads: per-class sufficient statistics, the calibration
estimate, and each kept pulse's class and tail (Bob's bit), in uint8.  A
kept pulse's position is never drawn: no stage reads it.  Normal tail
probabilities come from math.erfc (_ndtr).

Quadrature convention: the vacuum quadrature variance is 1 shot-noise unit
(SNU).  A coherent state of amplitude a*exp(i*theta) measured in quadrature
phi yields mean 2*|a|*cos(theta - phi) and variance 1 SNU.  Excess noise is
referred to the channel input; the receiver sees T * epsilon on top of shot
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiberSpec",
    "WdmChannelSpec",
    "PulseBatch",
    "SignalStatistics",
    "KeptPulses",
    "DriftState",
    "DriftParams",
    "CalibrationError",
    "QUANTUM_CHANNEL_INDEX",
    "fiber_transmittance",
    "effective_length_km",
    "wdm_excess_noise",
    "signal_model",
    "prepare_and_measure",
    "calibrate_shot_noise",
    "draw_signal_statistics",
    "draw_kept_pulses",
    "advance_drift",
]

QUANTUM_CHANNEL_INDEX = 6


_SQRT1_2 = math.sqrt(0.5)


def _ndtr(x) -> np.ndarray:
    """The standard normal CDF of each entry of `x`, 0.5 erfc(-x / sqrt 2),
    from math.erfc.  It is within 2 ulp of scipy.special.ndtr for x >= 0;
    below, where erfc is steep, the rounding of x / sqrt 2 moves either by
    up to ~x^2 / 2 ulp."""
    x = np.asarray(x, dtype=float)
    return np.array([0.5 * math.erfc(-v * _SQRT1_2)
                     for v in x.flat]).reshape(x.shape)


class CalibrationError(RuntimeError):
    """Shot-noise calibration could not produce a usable estimate."""


@dataclass(frozen=True)
class FiberSpec:
    length_km: float = 10.0
    attenuation_db_per_km: float = 0.2
    # Noise photons per pulse mode per mW launch per km, after LO mode
    # filtering.  Calibrated so one channel at -4.5 dBm over 10 km stays
    # below 0.0075 SNU of excess noise and all seven together change the
    # total signal variance by less than 1%.
    raman_coefficient_per_mw_km: float = 5.5e-4

    def __post_init__(self):
        for name in ("length_km", "attenuation_db_per_km",
                     "raman_coefficient_per_mw_km"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class WdmChannelSpec:
    """One classical channel of the 8-band grid.  The quantum signal sits in
    band QUANTUM_CHANNEL_INDEX and is not a channel here: no model reads
    anything of it."""
    index: int
    launch_power_dbm: float = -4.5
    enabled: bool = True

    def __post_init__(self):
        if not 1 <= self.index <= 8 or self.index == QUANTUM_CHANNEL_INDEX:
            raise ValueError(f"channel index {self.index} is not a classical "
                             f"band: 1..8 but not {QUANTUM_CHANNEL_INDEX}")
        try:
            self.launch_power_mw
        except OverflowError:
            raise ValueError("launch_power_dbm overflows in mW") from None

    @property
    def launch_power_mw(self) -> float:
        return 10.0 ** (self.launch_power_dbm / 10.0)


@dataclass
class PulseBatch:
    """Per-pulse records of one quantum-exchange frame."""

    alice_phase_index: np.ndarray   # int8 in {0..3}
    bob_quadrature: np.ndarray      # int8, 0 = Q, 1 = P
    outcome_snu: np.ndarray         # float64 homodyne results
    blocked: bool = False

    @property
    def count(self) -> int:
        return len(self.outcome_snu)

    def __post_init__(self):
        n = len(self.outcome_snu)
        if len(self.alice_phase_index) != n or len(self.bob_quadrature) != n:
            raise ValueError("per-pulse arrays must have equal length")
        if not np.all(np.isfinite(self.outcome_snu)):
            raise ValueError("non-finite homodyne outcome")


@dataclass
class SignalStatistics:
    """A block's signal frames before post-selection, as per-class
    sufficient statistics, and its shot-noise calibration."""

    counts: np.ndarray    # int64 (4, 2): pulses per (phase index, quadrature)
    table: np.ndarray     # (4, 2) class means, SNU (signal_model)
    sigma: float          # outcome sigma of a signal pulse, SNU
    shot_snu: float       # calibration estimate
    variance_snu: float   # variance of all normalized signal outcomes


@dataclass
class KeptPulses:
    """The signal pulses of one block that pass post-selection, in pulse
    order, their positions undrawn: all that the distillation chain reads
    of a simulated block."""

    n_signal: int                   # signal pulses in the block
    alice_phase_index: np.ndarray   # uint8 in {0..3}
    bob_quadrature: np.ndarray      # uint8, 0 = Q, 1 = P
    bob_bit: np.ndarray             # uint8, 1 iff the outcome is positive
    variance_snu: float             # over all signal pulses, kept or not


@dataclass(frozen=True)
class DriftParams:
    """Mean-reverting random-walk parameters for the environmental drift."""

    efficiency_mean: float = 0.99
    efficiency_sigma: float = 0.0  # per sqrt(second)
    phase_mean_rad: float = 0.0
    phase_sigma: float = 0.0       # per sqrt(second)
    reversion_rate: float = 1.0 / 600.0  # 1/s

    def __post_init__(self):
        if not 0.0 < self.efficiency_mean <= 1.0:
            raise ValueError(
                f"efficiency_mean {self.efficiency_mean!r} outside (0, 1]")
        for name in ("efficiency_sigma", "phase_sigma", "reversion_rate"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def mean_state(self) -> DriftState:
        """Where a run's drift starts: both walks at their means."""
        return DriftState(self.efficiency_mean, self.phase_mean_rad)


@dataclass(frozen=True)
class DriftState:
    efficiency_factor: float = 0.99
    phase_error_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.efficiency_factor <= 1.0:
            raise ValueError(
                f"efficiency_factor {self.efficiency_factor!r} outside (0, 1]")


def fiber_transmittance(fiber: FiberSpec) -> float:
    """Power transmittance of the fiber span."""
    return 10.0 ** (-fiber.attenuation_db_per_km * fiber.length_km / 10.0)


def effective_length_km(fiber: FiberSpec) -> float:
    """Effective interaction length (1 - T) / alpha_lin of the span."""
    a = fiber.attenuation_db_per_km
    if a == 0.0:
        return fiber.length_km
    alpha_lin = a * math.log(10.0) / 10.0  # 1/km
    return (1.0 - fiber_transmittance(fiber)) / alpha_lin


def wdm_excess_noise(channels: list[WdmChannelSpec], fiber: FiberSpec) -> float:
    """Excess noise (SNU, referred to channel input) from co-propagating
    classical channels.

    Each enabled classical channel scatters on average
    n_ch = raman_coefficient * P_launch(mW) * L_eff(km) photons into the
    LO-matched mode, contributing 2 * n_ch to the quadrature variance.
    """
    l_eff = effective_length_km(fiber)
    eps = 0.0
    for ch in channels:
        if not ch.enabled:
            continue
        eps += 2.0 * fiber.raman_coefficient_per_mw_km * ch.launch_power_mw * l_eff
    return eps


def signal_model(cfg, drift: DriftState) -> tuple[np.ndarray, float]:
    """Mean homodyne outcome of each (phase index, quadrature) class, as a
    4 x 2 table, and the outcome sigma of a signal pulse, in SNU before
    calibration.

    `cfg` is a SystemConfig.  Its alpha, epsilon_intrinsic_snu, fiber and
    wdm channels set the model; its force_sigma_snu diagnostic, when not
    None, overrides the sigma.
    """
    t = fiber_transmittance(cfg.fiber)
    eta = drift.efficiency_factor
    eps = cfg.epsilon_intrinsic_snu + wdm_excess_noise(cfg.wdm, cfg.fiber)
    # theta - phi takes 8 values: one mean per (phase index, quadrature)
    theta = ((2.0 * np.arange(4)[:, None] + 1.0) * (math.pi / 4.0)
             + drift.phase_error_rad)
    phi = np.arange(2) * (math.pi / 2.0)
    table = 2.0 * cfg.alpha * math.sqrt(t * eta) * np.cos(theta - phi)
    return table, _noise_sigma(cfg, math.sqrt(1.0 + t * eta * eps))


def _noise_sigma(cfg, model_sigma: float) -> float:
    """The model's sigma, or the magnitude of the forced one."""
    if cfg.force_sigma_snu is None:
        return model_sigma
    return abs(cfg.force_sigma_snu)


def prepare_and_measure(n: int, cfg, drift: DriftState,
                        rng: np.random.Generator,
                        blocked: bool = False) -> PulseBatch:
    """Simulate `n` pulses end-to-end: random four-state preparation,
    transmission, and homodyne detection of a random quadrature, with the
    means and sigma of signal_model.

    With `blocked` the receiver switch blocks the signal fiber input, so the
    outcomes are pure receiver shot noise (the WDM scatter arrives through
    the same fiber and is blocked with it); force_sigma_snu still applies.
    """
    if n < 1:
        raise ValueError(f"pulse count must be >= 1, got {n}")
    phase_idx = rng.integers(0, 4, size=n, dtype=np.int8)
    quadrature = rng.integers(0, 2, size=n, dtype=np.int8)
    if blocked:
        mean, sigma = np.zeros(n), _noise_sigma(cfg, 1.0)
    else:
        table, sigma = signal_model(cfg, drift)
        mean = table[phase_idx, quadrature]
    outcomes = mean + sigma * rng.standard_normal(n)
    return PulseBatch(phase_idx, quadrature, outcomes, blocked=blocked)


def calibrate_shot_noise(blocked_batch: PulseBatch) -> float:
    """Unbiased variance estimate of a blocked calibration frame.

    Downstream normalization divides signal outcomes by the square root
    of the estimate.
    """
    if not blocked_batch.blocked:
        raise ValueError("shot-noise calibration needs a blocked batch")
    n_total = blocked_batch.count
    if n_total < 1000:
        raise ValueError(f"calibration needs >= 1000 pulses, got {n_total}")
    return _usable_shot_noise(
        float(np.var(blocked_batch.outcome_snu, ddof=1)))


def _usable_shot_noise(estimate: float) -> float:
    # constant frames leave only float roundoff in the variance; anything
    # this small cannot be a physical shot-noise level
    if estimate <= 1e-24:
        raise CalibrationError("degenerate calibration frame (zero variance)")
    return estimate


def draw_signal_statistics(n_sig: int, n_cal: int, cfg, drift: DriftState,
                           rng: np.random.Generator) -> SignalStatistics:
    """What `n_cal` blocked pulses and then `n_sig` signal pulses give
    before post-selection, drawn from sufficient statistics, not per pulse:
      * the pulse count of each of the 8 (phase index, quadrature) classes,
        Multinomial(n_sig, 1/8 each);
      * the calibration estimate, sigma_b^2 chi2(n_cal - 1) / (n_cal - 1),
        as calibrate_shot_noise gives it;
      * each class's sample mean, mu + sigma Z / sqrt(N), and its sum of
        squares about that mean, sigma^2 chi2(N - 1).  From these the
        variance of all signal outcomes is exact in distribution.
    Every draw is of a standard variate and their number depends on the
    class counts alone, so configs that differ only in the model share
    random numbers.
    """
    if n_sig < 1 or n_cal < 1000:
        raise ValueError(f"a block needs >= 1 signal and >= 1000 calibration "
                         f"pulses, got {n_sig} and {n_cal}")
    counts = rng.multinomial(n_sig, np.full(8, 0.125)).reshape(4, 2)
    shot = _usable_shot_noise(_noise_sigma(cfg, 1.0) ** 2
                              * rng.chisquare(n_cal - 1) / (n_cal - 1))
    z = rng.standard_normal((4, 2))
    within = 2.0 * rng.standard_gamma(np.maximum(counts - 1, 0) / 2.0)
    table, sigma = signal_model(cfg, drift)
    class_mean = table + sigma * z / np.sqrt(np.maximum(counts, 1))
    grand_mean = np.sum(counts * class_mean) / n_sig
    sum_sq = (sigma ** 2 * np.sum(within)
              + np.sum(counts * (class_mean - grand_mean) ** 2))
    return SignalStatistics(counts, table, sigma, shot,
                            float(sum_sq / n_sig / shot))


def draw_kept_pulses(stats: SignalStatistics, x_th_snu: float,
                     rng: np.random.Generator) -> KeptPulses:
    """The signal pulses whose normalized outcome reaches `x_th_snu` in
    magnitude; the others are never drawn.

    On raw outcomes the threshold is thr = x_th * sqrt(shot), so a pulse of
    a class is kept in its upper tail, x >= thr, or its lower one,
    x <= -thr.  The kept count of each (class, tail) is one multinomial
    draw from the class count.  The kept pulses take their (class, tail)
    labels in random order, which is how they fall in pulse order whatever
    their positions, so no position is drawn.  A tail is an outcome's sign,
    Bob's bit, and no more of it is drawn.
    Given the class counts, they are independent of the block's
    variance_snu.
    """
    n_sig = int(stats.counts.sum())
    thr = x_th_snu * math.sqrt(stats.shot_snu)
    mu = stats.table.reshape(8, 1)
    # P(kept in a tail): column 0 the upper tail, column 1 the lower one
    p = _ndtr(np.hstack([mu - thr, -thr - mu]) / stats.sigma)
    # per class: kept in the upper tail, kept in the lower one, not kept
    n_kept = rng.multinomial(stats.counts.ravel(), np.hstack(
        [p, np.maximum(0.0, 1.0 - p.sum(axis=1, keepdims=True))]))
    # per kept pulse, in random order: 2 * class + tail (0 upper, 1 lower),
    # shuffled in place in int64, which is faster than a uint8 shuffle,
    # then split in uint8
    label = np.repeat(np.arange(16), n_kept[:, :2].ravel())
    rng.shuffle(label)
    label = label.astype(np.uint8)
    return KeptPulses(n_sig, label >> 2, label >> 1 & 1, 1 - (label & 1),
                      stats.variance_snu)


def advance_drift(drift: DriftState, dt_s: float, params: DriftParams,
                  rng: np.random.Generator) -> DriftState:
    """One mean-reverting random-walk step for the environmental drift.

    x <- x + theta * (mu - x) * dt + sigma * sqrt(dt) * N(0, 1), with the
    efficiency clamped into (0, 1].  sigma = 0 leaves only the deterministic
    reversion toward the mean.
    """
    if dt_s <= 0.0:
        raise ValueError(f"dt_s must be > 0, got {dt_s!r}")
    step = min(1.0, params.reversion_rate * dt_s)
    sq = math.sqrt(dt_s)

    eff = drift.efficiency_factor
    eff += step * (params.efficiency_mean - eff)
    if params.efficiency_sigma > 0.0:
        eff += params.efficiency_sigma * sq * rng.standard_normal()
    eff = min(1.0, max(1e-6, eff))

    ph = drift.phase_error_rad
    ph += step * (params.phase_mean_rad - ph)
    if params.phase_sigma > 0.0:
        ph += params.phase_sigma * sq * rng.standard_normal()

    return DriftState(efficiency_factor=eff, phase_error_rad=ph)
