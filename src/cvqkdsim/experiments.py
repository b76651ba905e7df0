"""Experiment orchestration: the variance sweep, the on/off toggling run,
the long sustained-rate run, the eye-diagram sweep and receiver calibration.

All runners emit CSV text (UTF-8, comma separated, '.' decimal) with fixed
headers; given the same config and seed the output bytes are identical
between runs.  The --time-scale factor compresses represented wall time by
shrinking the pulse budget, never the per-block statistics: a scaled run
simulates fewer blocks of the full configured size, with each block standing
in for `time_scale` times its nominal duration.

exp_longrun and exp_onoff share one block loop (`_run_blocks`): it runs
each block through BlockRunner.run_block on the config a function of the
block's start time picks, and writes one row per block.  The long run
always picks the given config; the on/off run alternates between all
classical channels on and all off, and appends its summary lines.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .classical import PRBS15_PERIOD, prbs15_sequence, simulate_ook_link
from .config import ConfigError
from .physics import (QUANTUM_CHANNEL_INDEX, advance_drift,
                      calibrate_shot_noise, prepare_and_measure)
from .pipeline import (SEED_TAG_DRIFT, SEED_TAG_EYE, SEED_TAG_PULSES,
                       derive_seed, distill_block, model_qber, signal_variance)

__all__ = [
    "BlockRunner",
    "wdm_state_mask",
    "exp_variance_sweep",
    "exp_onoff",
    "exp_longrun",
    "exp_eye",
    "run_calibration",
    "DEFAULT_TIME_SCALE",
    "LONGRUN_HEADER",
    "VARIANCE_HEADER",
    "EYE_HEADER",
]

DEFAULT_TIME_SCALE = 1000.0
MIN_BLOCK_PULSES = 100_000
VARIANCE_POINT_SECONDS = 180.0   # per-point averaging time before scaling
EYE_SNR_DB = 20.0

LONGRUN_HEADER = "timestamp_s,skr_bits_per_s,variance_snu,qber,wdm_state"
VARIANCE_HEADER = "channel_index,variance_snu,relative_change"
EYE_HEADER = ("channel_index,cvqkd_on,eye_opening,level_one_mean,"
              "level_zero_mean,noise_sigma")


def wdm_state_mask(cfg) -> int:
    """Bit (index - 1) set iff that channel carries light; the quantum
    band always does."""
    mask = 1 << (QUANTUM_CHANNEL_INDEX - 1)
    for ch in cfg.wdm:
        if ch.enabled:
            mask |= 1 << (ch.index - 1)
    return mask


def _check_positive(name: str, value: float, allow_zero: bool) -> None:
    """A ValueError naming the argument unless it is finite and > 0, or
    >= 0 with `allow_zero`."""
    if not (math.isfinite(value)
            and (value >= 0.0 if allow_zero else value > 0.0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _count(what: str, value: float) -> float:
    """`value`, or a ValueError if an int64 cannot count that many `what`."""
    if not value < 2.0 ** 63:   # an inf or a nan too
        raise ValueError(f"{value!r} {what} are too many to count")
    return value


def _check_block_size(cfg) -> None:
    if cfg.block_size_pulses < MIN_BLOCK_PULSES:
        raise ValueError(
            f"experiments need block_size_pulses >= {MIN_BLOCK_PULSES}, "
            f"got {cfg.block_size_pulses}")


class BlockRunner:
    """Sequential block execution with drift and a pooled error estimate.

    The per-block sampled error rate is too noisy to feed the key-length
    arithmetic directly at desk-scale block sizes, so the runner maintains
    an exponential moving average (weight cfg.qber_smoothing) and hands
    that to distill_block as the working estimate.  The average starts at
    the model-expected error rate of the configured operating point, which
    avoids a warmup transient from the first noisy sample.  Drift advances
    by the represented duration of each block, time_scale times the
    nominal block length.
    """

    def __init__(self, cfg, time_scale: float = DEFAULT_TIME_SCALE):
        _check_positive("time_scale", time_scale, allow_zero=False)
        _check_block_size(cfg)
        self.cfg = cfg
        self.represented_dt_s = (cfg.block_size_pulses / cfg.rep_rate_hz
                                 * time_scale)
        _check_positive("time_scale x block duration", self.represented_dt_s,
                        allow_zero=False)
        self.drift = cfg.drift.mean_state()
        self.drift_rng = np.random.default_rng(
            derive_seed(cfg, 0, SEED_TAG_DRIFT))
        self.qber_ema = model_qber(cfg)

    def run_block(self, block_id: int, cfg=None):
        cfg = self.cfg if cfg is None else cfg
        result = distill_block(cfg, block_id, self.drift,
                               qber_used=self.qber_ema)
        w = self.cfg.qber_smoothing
        if result.report.p_post:   # a block that kept no pulse sampled none
            self.qber_ema = (1.0 - w) * self.qber_ema + w * result.qber_raw
        self.drift = advance_drift(self.drift, self.represented_dt_s,
                                   cfg.drift, self.drift_rng)
        return result


def _run_blocks(cfg, duration_s: float, time_scale: float, config_at):
    """One block per represented block duration over `duration_s`, block b
    on `config_at(t)` for its start time t.  Returns the CSV lines and each
    block's (config, SKR)."""
    runner = BlockRunner(cfg, time_scale)
    lines = [LONGRUN_HEADER]
    skr = []
    for b in range(round(_count(
            f"blocks at duration_s {duration_s!r}, time_scale {time_scale!r}",
            duration_s / runner.represented_dt_s))):
        t = b * runner.represented_dt_s
        active = config_at(t)
        res = runner.run_block(b, active)
        rep = res.report
        lines.append(f"{t!r},{rep.skr_bits_per_s!r},{res.variance_snu!r},"
                     f"{rep.qber!r},{wdm_state_mask(active)}")
        skr.append((active, rep.skr_bits_per_s))
    return lines, skr


def exp_longrun(cfg, duration_s: float,
                time_scale: float = DEFAULT_TIME_SCALE) -> str:
    """Sustained key distillation over `duration_s` of represented time.

    One CSV row per block; timestamps are represented seconds from the
    start of the run.
    """
    _check_positive("duration_s", duration_s, allow_zero=True)
    lines, _ = _run_blocks(cfg, duration_s, time_scale, lambda t: cfg)
    return "\n".join(lines) + "\n"


def exp_onoff(cfg, interval_s: float = 600.0, total_s: float = 7800.0,
              time_scale: float = DEFAULT_TIME_SCALE) -> str:
    """Toggle all classical channels together every `interval_s` of
    represented time, starting with them on.

    The appended '# ...' lines carry the paired statistic: mean SKR with
    the channels on, with them off, and the relative difference.  The mean
    of a phase that ran no block is nan, and so is the difference unless
    both phases ran.  An off phase that kept no key differs from an on
    phase that did by inf, and from one that did not by 0.
    """
    _check_positive("interval_s", interval_s, allow_zero=False)
    _check_positive("total_s", total_s, allow_zero=True)
    cfg_on = cfg.with_wdm_enabled(ch.index for ch in cfg.wdm)
    cfg_off = cfg.with_wdm_enabled([])

    def config_at(t):
        n = _count(f"toggles at interval_s {interval_s!r}", t // interval_s)
        return cfg_on if int(n) % 2 == 0 else cfg_off
    lines, skr = _run_blocks(cfg, total_s, time_scale, config_at)

    skr_on = [s for active, s in skr if active is cfg_on]
    skr_off = [s for active, s in skr if active is cfg_off]
    # the run starts on, so with no on block there is no off block either
    mean_on = float(np.mean(skr_on)) if skr_on else math.nan
    mean_off = float(np.mean(skr_off)) if skr_off else math.nan
    if mean_off != 0.0:
        rel = abs(mean_on - mean_off) / mean_off
    else:
        rel = math.inf if mean_on else 0.0
    lines.append(f"# mean_skr_on = {mean_on!r}")
    lines.append(f"# mean_skr_off = {mean_off!r}")
    lines.append(f"# relative_difference = {rel!r}")
    return "\n".join(lines) + "\n"


def exp_variance_sweep(cfg, time_scale: float = DEFAULT_TIME_SCALE) -> str:
    """Normalized signal variance with one interfering channel at a time.

    Every point reuses the same random-number stream (identical seed and
    pulse budget), so the only difference between rows is the excess-noise
    term; with all scattering coefficients zero, every relative change is
    exactly 0.
    """
    _check_positive("time_scale", time_scale, allow_zero=False)
    _check_block_size(cfg)
    n_point = max(cfg.block_size_pulses, math.ceil(_count(
        f"pulses per point at time_scale {time_scale!r}",
        VARIANCE_POINT_SECONDS * cfg.rep_rate_hz / time_scale)))
    try:   # a point is one block, which SystemConfig bounds
        point_cfg = replace(cfg, block_size_pulses=n_point)
    except ConfigError as exc:
        raise ValueError(f"time_scale {time_scale!r}: {exc}") from None
    drift = cfg.drift.mean_state()

    def point_variance(enabled) -> float:
        return signal_variance(point_cfg.with_wdm_enabled(enabled), 0, drift)

    baseline = point_variance([])
    lines = [VARIANCE_HEADER]
    for ch in cfg.wdm:
        v = point_variance([ch.index])
        rel = (v - baseline) / baseline
        lines.append(f"{ch.index},{v!r},{rel!r}")
    return "\n".join(lines) + "\n"


def exp_eye(cfg, snr_db: float = EYE_SNR_DB) -> str:
    """Eye-diagram metrics for each classical channel, with the quantum
    system on and off.  The quantum channel adds no measurable noise to a
    classical one, so one simulation per channel gives both rows, which
    differ only in the flag."""
    bits = prbs15_sequence(PRBS15_PERIOD)
    rngs = [np.random.default_rng(derive_seed(cfg, ch.index, SEED_TAG_EYE))
            for ch in cfg.wdm]
    lines = [EYE_HEADER]
    for ch, rep in zip(cfg.wdm, simulate_ook_link(bits, snr_db, rngs)):
        metrics = (f"{rep.eye_opening!r},{rep.level_one_mean!r},"
                   f"{rep.level_zero_mean!r},{rep.noise_sigma!r}")
        lines += [f"{ch.index},true,{metrics}", f"{ch.index},false,{metrics}"]
    return "\n".join(lines) + "\n"


def run_calibration(cfg, n_pulses: int = 1_000_000) -> float:
    """One blocked calibration frame; returns the shot-noise estimate."""
    rng = np.random.default_rng(derive_seed(cfg, 0, SEED_TAG_PULSES))
    batch = prepare_and_measure(n_pulses, cfg, cfg.drift.mean_state(), rng,
                                blocked=True)
    return calibrate_shot_noise(batch)
