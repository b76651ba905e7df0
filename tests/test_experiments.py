import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvqkdsim import experiments as ex
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import DriftParams
from cvqkdsim.protocol import stream_fingerprint


def fast_cfg(**kwargs) -> SystemConfig:
    return SystemConfig(block_size_pulses=100_000, **kwargs)


def csv_rows(text: str) -> list[list[str]]:
    lines = [l for l in text.strip().splitlines()[1:]
             if not l.startswith("#")]
    return [l.split(",") for l in lines]


class TestLongrun:
    def test_zero_duration_yields_header_only(self):
        assert ex.exp_longrun(fast_cfg(), 0.0) == ex.LONGRUN_HEADER + "\n"

    def test_header_and_column_count(self):
        csv = ex.exp_longrun(fast_cfg(), 100.0)
        assert csv.splitlines()[0] == ex.LONGRUN_HEADER
        for row in csv_rows(csv):
            assert len(row) == 5

    def test_timestamps_monotone(self):
        csv = ex.exp_longrun(fast_cfg(), 200.0)
        stamps = [float(r[0]) for r in csv_rows(csv)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_deterministic_bytes(self):
        cfg = fast_cfg()
        assert ex.exp_longrun(cfg, 150.0) == ex.exp_longrun(cfg, 150.0)

    def test_seed_changes_output(self):
        a = ex.exp_longrun(fast_cfg(), 150.0)
        b = ex.exp_longrun(fast_cfg(seed=999), 150.0)
        assert a != b

    def test_no_drift_skr_is_stable(self):
        # full-size blocks, drift disabled: only estimator noise remains
        cfg = SystemConfig(drift=DriftParams(efficiency_mean=0.99))
        csv = ex.exp_longrun(cfg, 5000.0)
        skr = np.array([float(r[1]) for r in csv_rows(csv)])
        assert skr.size == 50
        assert np.all(skr > 0.0)
        assert np.std(skr) <= 0.15 * np.mean(skr)

    @pytest.mark.parametrize("cfg", [
        SystemConfig(), SystemConfig(f_cal=0.0, block_size_pulses=100_000)],
        ids=["default", "f_cal-0"])
    def test_skr_is_the_key_over_the_block(self, cfg):
        # a row's SKR is its block's final key bits over the block's whole
        # duration, calibration frames included
        rows = csv_rows(ex.exp_longrun(cfg, 500.0))
        runner = ex.BlockRunner(cfg)
        keys = [runner.run_block(b).report.final_key_bits
                for b in range(len(rows))]
        assert len(rows) >= 5 and max(keys) > 0
        for row, key_bits in zip(rows, keys):
            assert float(row[1]) == (
                key_bits * cfg.rep_rate_hz / cfg.block_size_pulses)

    def test_rejects_small_blocks(self):
        with pytest.raises(ValueError):
            ex.exp_longrun(SystemConfig(block_size_pulses=10_000), 100.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            ex.exp_longrun(fast_cfg(), -1.0)


class TestOnOff:
    def test_mask_alternates_per_interval(self):
        cfg = fast_cfg()
        csv = ex.exp_onoff(cfg, interval_s=40.0, total_s=160.0,
                           time_scale=1000.0)
        rows = csv_rows(csv)
        masks = [int(r[4]) for r in rows]
        on_mask = ex.wdm_state_mask(cfg)
        assert on_mask == 0xFF   # all 8 bands, the quantum one included
        off_mask = 1 << 5  # only the quantum channel carries light
        # four 40 s intervals of 4 blocks each, starting on
        assert masks == ([on_mask] * 4 + [off_mask] * 4) * 2

    def test_summary_lines_present(self):
        csv = ex.exp_onoff(fast_cfg(), interval_s=40.0, total_s=160.0)
        tail = csv.strip().splitlines()[-3:]
        assert tail[0].startswith("# mean_skr_on = ")
        assert tail[1].startswith("# mean_skr_off = ")
        assert tail[2].startswith("# relative_difference = ")

    @pytest.mark.parametrize("total_s", [300.0, 0.0])
    def test_phase_without_blocks_has_no_mean(self, total_s):
        # 600 s intervals: over 300 s every block runs on, over 0 s none
        # runs, and a phase without blocks compares with nothing
        tail = ex.exp_onoff(fast_cfg(), 600.0, total_s).splitlines()[-3:]
        mean_on, mean_off, rel = (float(line.split(" = ")[1])
                                  for line in tail)
        assert mean_on > 0.0 if total_s else np.isnan(mean_on)
        assert np.isnan(mean_off) and np.isnan(rel)

    @pytest.mark.parametrize("keyless, rel", [
        ({1 << 5}, float("inf")), ({1 << 5, 0xFF}, 0.0)], ids=["off", "both"])
    def test_phase_without_key(self, monkeypatch, keyless, rel):
        # blocks on the masks in `keyless` keep no key: an off phase without
        # key is no match for an on phase with one, but one for another
        run_block = ex.BlockRunner.run_block

        def run(runner, block_id, cfg):
            res = run_block(runner, block_id, cfg)
            if ex.wdm_state_mask(cfg) not in keyless:
                return res
            return replace(res, report=replace(
                res.report, final_key_bits=0, skr_bits_per_s=0.0))

        monkeypatch.setattr(ex.BlockRunner, "run_block", run)
        tail = ex.exp_onoff(fast_cfg(), 40.0, 160.0).splitlines()[-3:]
        assert tail[1] == "# mean_skr_off = 0.0"
        assert tail[2] == f"# relative_difference = {rel!r}"

    def test_zero_coefficient_small_difference(self):
        # without scattering the on and off populations share the same
        # distribution, so the paired means differ only by estimator noise
        fiber = replace(SystemConfig().fiber, raman_coefficient_per_mw_km=0.0)
        csv = ex.exp_onoff(SystemConfig(fiber=fiber), interval_s=200.0,
                           total_s=4000.0)
        rel = float(csv.strip().splitlines()[-1].split("=")[1])
        assert rel <= 0.1

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ex.exp_onoff(fast_cfg(), interval_s=0.0)


class TestVarianceSweep:
    def test_one_row_per_classical_channel(self):
        csv = ex.exp_variance_sweep(fast_cfg())
        rows = csv_rows(csv)
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 7, 8]
        assert csv.splitlines()[0] == ex.VARIANCE_HEADER

    def test_zero_coefficient_exact_zero_change(self):
        fiber = replace(SystemConfig().fiber, raman_coefficient_per_mw_km=0.0)
        csv = ex.exp_variance_sweep(fast_cfg(fiber=fiber))
        for row in csv_rows(csv):
            assert float(row[2]) == 0.0

    def test_defaults_below_one_percent(self):
        csv = ex.exp_variance_sweep(fast_cfg())
        for row in csv_rows(csv):
            assert 0.0 < float(row[2]) <= 0.01

    def test_doubling_power_doubles_excess(self):
        cfg = fast_cfg()
        import math
        boosted = replace(
            cfg, wdm=[replace(ch, launch_power_dbm=ch.launch_power_dbm
                              + 10.0 * math.log10(2.0))
                      for ch in cfg.wdm])
        base = csv_rows(ex.exp_variance_sweep(cfg))
        loud = csv_rows(ex.exp_variance_sweep(boosted))
        for b, l in zip(base, loud):
            # identical noise draws, so the variance deltas divide exactly
            assert float(l[2]) / float(b[2]) == pytest.approx(2.0, rel=1e-3)

    def test_deterministic_bytes(self):
        cfg = fast_cfg()
        assert ex.exp_variance_sweep(cfg) == ex.exp_variance_sweep(cfg)

class TestEye:
    def test_fourteen_rows(self):
        csv = ex.exp_eye(SystemConfig())
        rows = csv_rows(csv)
        assert len(rows) == 14
        assert csv.splitlines()[0] == ex.EYE_HEADER

    def test_flag_rows_identical_in_metrics(self):
        rows = csv_rows(ex.exp_eye(SystemConfig()))
        for on, off in zip(rows[0::2], rows[1::2]):
            assert on[0] == off[0]
            assert (on[1], off[1]) == ("true", "false")
            assert on[2:] == off[2:]

    def test_noiseless_eye_open_everywhere(self):
        import math
        csv = ex.exp_eye(SystemConfig(), snr_db=math.inf)
        for row in csv_rows(csv):
            assert float(row[2]) == 1.0
        # the sigma = 0 branch, which no pinned CSV reaches; it draws no
        # noise, so no numpy release can move it
        assert (hashlib.sha256(csv.encode()).hexdigest()
                == "57af9876a5e144c3b606431fb8a6659d"
                   "0754539e568753e72d4e56120b181c02")

    def test_seed_two_matches_its_digest(self):
        # the noise streams of CI's seed-2 eye smoke, which eye.csv's digest
        # (seed 1) does not cover
        got = hashlib.sha256(
            ex.exp_eye(SystemConfig(seed=2)).encode()).hexdigest()
        assert got == ("669222aad1b55de181a11eb279897722"
                       "ecf7050218c3806b7203834db406fde0"), (
            f"seed 2's eye sweep differs under numpy {np.__version__}, "
            f"stream fingerprint {stream_fingerprint().hex()}")

    def test_deterministic_bytes(self):
        assert ex.exp_eye(SystemConfig()) == ex.exp_eye(SystemConfig())


class TestCalibrationRunner:
    def test_estimate_near_unity(self):
        est = ex.run_calibration(SystemConfig(), 200_000)
        assert est == pytest.approx(1.0, rel=0.02)

    def test_deterministic(self):
        cfg = SystemConfig()
        assert ex.run_calibration(cfg, 50_000) == ex.run_calibration(cfg,
                                                                     50_000)


class TestTimeScaleInvariance:
    def test_means_agree_across_scales(self):
        # halving the compression doubles the block count but must leave
        # the expected rate untouched
        cfg = fast_cfg()
        fast = ex.exp_longrun(cfg, 2000.0, time_scale=1000.0)
        slow = ex.exp_longrun(cfg, 2000.0, time_scale=500.0)
        m_fast = np.mean([float(r[1]) for r in csv_rows(fast)])
        m_slow = np.mean([float(r[1]) for r in csv_rows(slow)])
        assert len(csv_rows(slow)) == 2 * len(csv_rows(fast))
        assert abs(m_fast - m_slow) / m_slow < 0.2


# sha256sum lines for the CSVs of the default config; CI checks the CLI's
# files against the same lines, written as the CLI call in each comment
PINNED_DIGESTS = Path(__file__).with_name("experiment_outputs.sha256")
PINNED_RUNS = {
    # exp-longrun --duration 3200
    "longrun.csv": lambda cfg: ex.exp_longrun(cfg, 3200.0),
    # exp-onoff --total 2400
    "onoff.csv": lambda cfg: ex.exp_onoff(cfg, 600.0, 2400.0),
    # exp-variance
    "variance.csv": ex.exp_variance_sweep,
    # exp-eye
    "eye.csv": ex.exp_eye,
}


def test_outputs_match_pinned_digests():
    # a change that alters an output on purpose updates the digest file
    pinned = dict(reversed(line.split()) for line in
                  PINNED_DIGESTS.read_text(encoding="utf-8").splitlines())
    assert pinned.keys() == PINNED_RUNS.keys()
    for name, run in PINNED_RUNS.items():
        got = hashlib.sha256(run(SystemConfig()).encode()).hexdigest()
        # NEP 19 lets a numpy release change what a Generator draws, and
        # with it the stream fingerprint
        assert got == pinned[name], (
            f"{name} differs from {PINNED_DIGESTS.name} under numpy "
            f"{np.__version__}, stream fingerprint "
            f"{stream_fingerprint().hex()}")
