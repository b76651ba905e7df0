"""Acceptance gate: one test per criterion (1, 1b, 2-9), each printing a
single PASS/FAIL line (also visible as the pytest verdict for that test).
A criterion stopped by a shared check before its verdict prints its FAIL
line with that check's exception (test_each_criterion_prints_one_line).
Criteria 5 and 9 run their sessions on peers.ends_as_expected, the rule of
every two-end session, criterion 7 holds holevo_bound to test_quantum's
Fock-basis oracle, and criterion 8 is the only test of the PRBS-15 ones
count, period and nonzero-lag autocorrelation."""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from cvqkdsim import experiments as ex
from cvqkdsim import postprocess as pp
from cvqkdsim import protocol as proto
from cvqkdsim.classical import PRBS15_PERIOD, prbs15_sequence
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import (DriftState, calibrate_shot_noise,
                              prepare_and_measure)
from cvqkdsim.quantum import (
    CoherentStateEnsemble,
    binary_entropy,
    holevo_bound,
)

from peers import Session, ends_as_expected, unknown_type
from test_quantum import _holevo_fock


class CriterionFailed(AssertionError):
    """A criterion's verdict, FAIL, whose line is printed."""


def verdict(num, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    if not ok:
        raise CriterionFailed(line)


def criterion(test):
    """The test `test_criterion_<num>_...`, which prints `criterion <num>:
    FAIL (<exception>)` for an exception raised before its verdict."""
    num = test.__name__.split("_")[2]

    @functools.wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except CriterionFailed:
            raise
        except Exception as exc:
            print(f"criterion {num}: FAIL ({exc!r})")
            raise
    return run


@pytest.fixture(scope="module")
def longrun_skr():
    """Each block's SKR over 24 h, and the run's wall time."""
    start = time.monotonic()
    csv = ex.exp_longrun(SystemConfig(), 86400.0, time_scale=1000.0)
    skr = np.array([float(line.split(",")[1])
                    for line in csv.strip().splitlines()[1:]])
    return skr, time.monotonic() - start


@criterion
def test_criterion_1_paper_band(longrun_skr):
    skr, elapsed = longrun_skr
    mean = float(np.mean(skr))
    ok = 20_000.0 <= mean <= 50_000.0 and elapsed <= 300.0
    verdict(1, ok, f"time-averaged SKR {mean:.0f} bit/s over {skr.size} "
                   f"blocks, runtime {elapsed:.0f} s")


@criterion
def test_criterion_1b_block_band(longrun_skr):
    # supporting bound from the same run: every block inside [15, 60] kbit/s
    skr, _ = longrun_skr
    lo, hi = float(np.min(skr)), float(np.max(skr))
    verdict("1b", 15_000.0 <= lo and hi <= 60_000.0,
            f"block SKR {lo:.0f} to {hi:.0f} bit/s inside [15000, 60000]")


@criterion
def test_criterion_2_coexistence_ceiling():
    rows = ex.exp_variance_sweep(SystemConfig()).strip().splitlines()[1:]
    rels = [float(r.split(",")[2]) for r in rows]
    fiber = replace(SystemConfig().fiber, raman_coefficient_per_mw_km=0.0)
    zero_rows = ex.exp_variance_sweep(
        SystemConfig(fiber=fiber)).strip().splitlines()[1:]
    zero_rels = [float(r.split(",")[2]) for r in zero_rows]
    ok = max(rels) <= 0.01 and all(r == 0.0 for r in zero_rels)
    verdict(2, ok, f"max per-channel variance change {max(rels):.5f}, "
                   f"zero-coefficient changes {max(zero_rels):.0e}")


@criterion
def test_criterion_3_onoff_insensitivity():
    csv = ex.exp_onoff(SystemConfig(), interval_s=600.0, total_s=7800.0)
    lines = csv.strip().splitlines()
    rel = float(lines[-1].split("=")[1])
    masks = [int(l.split(",")[4]) for l in lines[1:]
             if not l.startswith("#")]
    toggles = sum(a != b for a, b in zip(masks, masks[1:]))
    ok = rel <= 0.02 and toggles >= 12
    verdict(3, ok, f"mean-SKR on/off relative difference {rel:.4f} "
                   f"over {toggles} toggles")


@criterion
def test_criterion_4_shot_noise_calibration():
    n = 1_000_000
    lo = chi2.ppf(0.005, n - 1) / (n - 1)
    hi = chi2.ppf(0.995, n - 1) / (n - 1)
    # two draws, one on each side of the truth, so that a bias of 0.5%
    # either way leaves one of them outside the interval
    est = [calibrate_shot_noise(prepare_and_measure(
        n, SystemConfig(), DriftState(), np.random.default_rng(seed),
        blocked=True)) for seed in (424242, 1234)]
    ok = all(lo <= e <= hi and abs(e - 1.0) <= 0.01 for e in est)
    verdict(4, ok, f"estimates {est[0]:.6f} and {est[1]:.6f} inside 99% "
                   f"interval [{lo:.6f}, {hi:.6f}] and within 1% of truth")


@criterion
def test_criterion_5_protocol_correctness():
    # both ends agree with the in-process chain on a noiseless block; Alice's
    # first frame, her HELLO, under an unknown type fails both ends
    result, _ = ends_as_expected(Session("noiseless", SystemConfig(
        block_size_pulses=20_000, force_sigma_snu=1e-9)))
    ends_as_expected(Session(
        "hello-unknown-type", SystemConfig(block_size_pulses=20_000),
        outcome=(proto.AbortReason.DECODE_ERROR,),
        fault=(proto.Role.ALICE, proto.MsgType.HELLO, unknown_type)))
    verdict(5, result.report.qber == 0.0 and result.key_bits.size > 0,
            "noiseless loopback keys identical with qber 0; corrupted frame "
            "fails both endpoints with reason DECODE_ERROR")


@criterion
def test_criterion_6_reconciliation():
    failures = 0
    leak_matches = True
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        bob = rng.integers(0, 2, 10_000).astype(np.uint8)
        alice = bob ^ (rng.random(10_000) < 0.05).astype(np.uint8)
        perms = pp.CascadePermutations(10_000, 4, 6000 + trial)
        oracle = pp.LocalParityOracle(bob, perms)
        corrected, leak = pp.cascade_reconcile(
            alice, oracle, pp.cascade_block_size(0.05, 10_000), perms)
        if not np.array_equal(corrected, bob):
            failures += 1
        if leak != oracle.query_count:
            leak_matches = False
    ok = failures <= 1 and leak_matches
    verdict(6, ok, f"{100 - failures}/100 trials with zero residual errors; "
                   f"leak equals disclosed-parity count: {leak_matches}")


@criterion
def test_criterion_7_security_math_oracle():
    # two-state closed form
    err2 = 0.0
    for a in (0.3, 0.5, 1.0):
        ens = CoherentStateEnsemble((a, -a), (0.5, 0.5))
        s = math.exp(-2.0 * a * a)
        err2 = max(err2, abs(holevo_bound(ens)
                             - binary_entropy((1.0 - s) / 2.0)))
    # four-state Fock-truncation oracle
    err4 = max(abs(holevo_bound(ens) - _holevo_fock(ens))
               for ens in map(CoherentStateEnsemble.four_state,
                              (0.5, 0.68, 1.0)))
    ok = err2 <= 1e-9 and err4 <= 1e-8
    verdict(7, ok, f"two-state closed-form error {err2:.1e} <= 1e-9; "
                   f"four-state Fock-oracle error {err4:.1e} <= 1e-8")


@criterion
def test_criterion_8_prbs():
    bits = prbs15_sequence(2 * PRBS15_PERIOD)
    period_ok = np.array_equal(bits[:PRBS15_PERIOD], bits[PRBS15_PERIOD:])
    ones = int(np.sum(bits[:PRBS15_PERIOD]))
    pm = 2 * bits[:PRBS15_PERIOD].astype(np.int64) - 1
    lags = (1, 2, 7, 100, 1000, 16384, PRBS15_PERIOD - 1)
    autocorr_ok = all(int(np.sum(pm * np.roll(pm, lag))) == -1
                      for lag in lags)
    ok = PRBS15_PERIOD == 32767 and period_ok and ones == 16384 and autocorr_ok
    verdict(8, ok, f"period 32767, ones {ones}, nonzero-lag "
                   f"autocorrelation -1 exactly")


@criterion
def test_criterion_9_determinism():
    cfg = SystemConfig()
    csv_runs = [(ex.exp_longrun(cfg, 3600.0), ex.exp_variance_sweep(cfg),
                 ex.exp_onoff(cfg, interval_s=600.0, total_s=2400.0),
                 ex.exp_eye(cfg), ex.run_calibration(cfg, 50_000))
                for _ in range(2)]
    csv_ok = csv_runs[0] == csv_runs[1]

    # a transcript records its end's events
    row = Session("link", SystemConfig(block_size_pulses=20_000))
    events = [[end.events for end in ends_as_expected(row)[1]]
              for _ in range(2)]
    wire_ok = events[0] == events[1] and len(events[0][0]) > 0
    verdict(9, csv_ok and wire_ok,
            "two consecutive runs gave byte-identical CSVs, calibration "
            "estimates and wire transcripts")



def _shared_check():
    raise AssertionError("a shared check")


@pytest.mark.parametrize("check, raises, line", [
    (_shared_check, AssertionError,
     "criterion 0: FAIL (AssertionError('a shared check'))"),
    (lambda: verdict(0, False, "why"), CriterionFailed,
     "criterion 0: FAIL (why)"),
    (lambda: verdict(0, True, "why"), None, "criterion 0: PASS (why)"),
])
def test_each_criterion_prints_one_line(check, raises, line, capsys):
    @criterion
    def test_criterion_0_example():
        check()

    if raises is None:
        test_criterion_0_example()
    else:
        with pytest.raises(raises) as failed:
            test_criterion_0_example()
        assert type(failed.value) is raises
    assert capsys.readouterr().out == line + "\n"
