"""The classical side of the WDM link: PRBS15 pattern source and a
mid-bit-sampled NRZ eye-opening metric for the 12.5 Gbit/s OOK channels.

The x^15 + x^14 + 1 LFSR's output obeys s[i] = s[i-14] ^ s[i-15].  Squaring
the polynomial k times over GF(2) gives x^(15*2^k) + x^(14*2^k) + 1, so also
s[i] = s[i - 14*2^k] ^ s[i - 15*2^k]: once 15*2^k bits are known, the next
14*2^k follow in one array xor, and a period takes 15 of them."""

from __future__ import annotations

import math
from collections.abc import Iterable
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
    feedback bit is the output and shifts in as the low tap.  The register
    holds the 15 bits before the output, oldest (stage 15) highest, and the
    squared recurrence of the module docstring extends them.
    """
    if not 0 < seed <= _REG_MASK:
        raise ValueError(f"register {seed:#x} outside 1..0x7fff")
    if n < 0:
        raise ValueError(f"negative length {n}")
    s = np.empty(15 + n, dtype=np.uint8)
    s[:15] = (seed >> np.arange(14, -1, -1)) & 1
    done = 15
    while done < s.size:
        k = (done // 15).bit_length() - 1    # the largest with 15*2^k <= done
        lag14, lag15 = 14 << k, 15 << k
        step = min(lag14, s.size - done)
        np.bitwise_xor(s[done - lag14:done - lag14 + step],
                       s[done - lag15:done - lag15 + step],
                       out=s[done:done + step])
        done += step
    return s[15:]


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
                      rngs: Iterable[np.random.Generator]) -> list[EyeReport]:
    """NRZ OOK over an AWGN link, once per generator of `rngs`: one
    EyeReport of mid-bit level statistics per generator, in order.

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
    # the samples of the ones, then of the zeros, each in bit order; a
    # sample whose bit is neither 0 nor 1 joins no level
    one_at = np.flatnonzero(bits == 1)
    order = np.concatenate([one_at, np.flatnonzero(bits == 0)])
    # every run reuses these two buffers, so a sweep finds them in cache;
    # the in-place steps are the same IEEE operations, in the same order,
    # as bits + sigma * z, a gather per level and ones - mu1, zeros - mu0
    mid = np.empty(bits.size)
    resid = np.empty(order.size)
    ones, zeros = resid[:one_at.size], resid[one_at.size:]
    reports = []
    for rng in rngs:
        if sigma > 0.0:
            rng.standard_normal(out=mid)
            mid *= sigma
            mid += bits
        else:
            mid[:] = bits
        # "clip" cannot clip an order in range; "raise" would gather
        # through a temporary copy of resid
        mid.take(order, out=resid, mode="clip")
        mu1 = float(np.mean(ones)) if ones.size else 1.0
        mu0 = float(np.mean(zeros)) if zeros.size else 0.0
        ones -= mu1
        zeros -= mu0
        sigma_hat = float(np.std(resid)) if resid.size > 1 else 0.0

        span = mu1 - mu0
        opening = (max(0.0, (span - 6.0 * sigma_hat) / span) if span > 0.0
                   else 0.0)
        reports.append(EyeReport(eye_opening=opening, level_one_mean=mu1,
                                 level_zero_mean=mu0, noise_sigma=sigma_hat))
    return reports
