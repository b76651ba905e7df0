"""The classical side of the WDM link: PRBS15 pattern source and a
mid-bit-sampled NRZ eye-opening metric for the 12.5 Gbit/s OOK channels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EyeReport",
    "PRBS15_PERIOD",
    "prbs15_sequence",
    "simulate_ook_link",
]

PRBS15_PERIOD = 2 ** 15 - 1
_REG_MASK = 0x7FFF


def prbs15_sequence(n: int, seed: int = 0x0001) -> np.ndarray:
    """First `n` output bits of the x^15 + x^14 + 1 LFSR started from the
    15-bit register `seed`.

    Fibonacci form with feedback from stages 15 and 14; each step's
    feedback bit is the output and shifts in as the low tap.
    """
    if not 0 < seed <= _REG_MASK:
        raise ValueError(f"register {seed:#x} outside 1..0x7fff")
    out = bytearray(n)
    reg = seed
    for i in range(n):
        bit = ((reg >> 14) ^ (reg >> 13)) & 1
        reg = ((reg << 1) | bit) & _REG_MASK
        out[i] = bit
    return np.frombuffer(out, dtype=np.uint8)


@dataclass(frozen=True)
class EyeReport:
    """Level statistics of mid-bit samples after the link.

    eye_opening = max(0, (mu1 - mu0 - 6*sigma) / (mu1 - mu0)).
    """

    eye_opening: float
    level_one_mean: float
    level_zero_mean: float
    noise_sigma: float


def simulate_ook_link(bits, snr_db: float,
                      rng: np.random.Generator) -> EyeReport:
    """NRZ OOK over an AWGN link, reported as mid-bit level statistics.

    Each bit is one mid-bit sample: its level plus one Gaussian noise draw.
    snr_db sets the swing-to-noise ratio: sigma = (mu1 - mu0) / 10^(snr/20).
    The co-propagating quantum channel adds no measurable noise, so the
    model has no term for it.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("bit sequence must be nonempty")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"invalid snr_db {snr_db!r}")

    swing = 1.0
    sigma = 0.0 if snr_db == math.inf else swing / (10.0 ** (snr_db / 20.0))
    mid = bits.astype(float)
    if sigma > 0.0:
        mid = mid + sigma * rng.standard_normal(mid.size)

    ones = mid[bits == 1]
    zeros = mid[bits == 0]
    mu1 = float(np.mean(ones)) if ones.size else 1.0
    mu0 = float(np.mean(zeros)) if zeros.size else 0.0
    resid = np.concatenate([ones - mu1, zeros - mu0])
    sigma_hat = float(np.std(resid)) if resid.size > 1 else 0.0

    span = mu1 - mu0
    opening = max(0.0, (span - 6.0 * sigma_hat) / span) if span > 0.0 else 0.0
    return EyeReport(eye_opening=opening, level_one_mean=mu1,
                     level_zero_mean=mu0, noise_sigma=sigma_hat)
