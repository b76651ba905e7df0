import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import cvqkdsim
from cvqkdsim import cli
from cvqkdsim.config import SystemConfig, parse_config_text


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cvqkdsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def fast_config_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text("block_size_pulses = 100000\n", encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        assert cli.main(["dump-config"]) == 0
        assert "rep_rate_hz" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("f_cal = 2.0\n", encoding="utf-8")
        assert cli.main(["--config", str(bad), "dump-config"]) == 1
        assert "f_cal" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["--config", "/no/such/file", "dump-config"]) == 1

    @staticmethod
    def _exits_cleanly(tmp_path, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        proc = run_python("-m", "cvqkdsim.cli", "--config", str(bad),
                          "exp-longrun", "--duration", "100")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert line.split(" = ")[0].rsplit(".", 1)[-1] in proc.stderr

    def test_non_finite_rep_rate_exits_cleanly(self, tmp_path):
        self._exits_cleanly(tmp_path, "rep_rate_hz = inf")

    def test_overflowing_launch_power_exits_cleanly(self, tmp_path):
        # 10 ** 400 mW does not fit a float
        self._exits_cleanly(tmp_path, "wdm.1.launch_power_dbm = 4000")

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--pulses", "2000"], ["exp-variance"]],
        ids=["calibrate", "exp-variance"])
    def test_failed_calibration_exits_cleanly(self, tmp_path, argv):
        # zero noise leaves a calibration frame with no variance to measure
        bad = tmp_path / "bad.cfg"
        bad.write_text("force_sigma_snu = 0.0\n", encoding="utf-8")
        proc = run_python("-m", "cvqkdsim.cli", "--config", str(bad), *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, name", [
        (["exp-longrun", "--duration", "inf"], "duration_s"),
        (["exp-longrun", "--duration", "nan"], "duration_s"),
        (["exp-longrun", "--time-scale", "nan"], "time_scale"),
        (["exp-longrun", "--time-scale", "inf"], "time_scale"),
        (["exp-onoff", "--total", "inf"], "total_s"),
        (["exp-onoff", "--total", "nan"], "total_s"),
        (["exp-onoff", "--interval", "inf"], "interval_s"),
        (["exp-onoff", "--time-scale", "nan"], "time_scale"),
        (["exp-variance", "--time-scale", "nan"], "time_scale"),
        # checked before any socket opens, so no peer is needed
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
          "--timeout", "inf"], "--timeout"),
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
          "--timeout", "1e300"], "--timeout"),
        (["run-link", "--role", "alice", "--connect", "127.0.0.1:9",
          "--timeout", "nan"], "--timeout"),
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
          "--timeout", "0"], "--timeout"),
        (["run-link", "--role", "alice", "--connect", "127.0.0.1:9",
          "--timeout", "-1"], "--timeout"),
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
          "--block-id", "-1"], "--block-id"),
    ])
    def test_non_finite_argument_is_an_error(self, argv, name, capsys):
        # rejected before any block runs, with the argument named
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err


class TestImport:
    def test_import_leaves_out_scipy_signal_and_stats(self):
        # scipy.signal (and the scipy.stats it pulls in) costs about a
        # second of every run's start-up; nothing in the package needs it
        proc = run_python("-c", "import sys, cvqkdsim; print(sorted("
                          "m for m in ('scipy.signal', 'scipy.stats') "
                          "if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSubcommands:
    def test_calibrate(self, capsys):
        assert cli.main(["calibrate", "--pulses", "100000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("shot_noise_estimate_snu = ")
        assert abs(float(out.split("=")[1]) - 1.0) < 0.05

    def test_dump_config_round_trips(self, capsys):
        assert cli.main(["dump-config"]) == 0
        text = capsys.readouterr().out
        assert parse_config_text(text) == SystemConfig()

    def test_exp_eye_to_file(self, tmp_path):
        out = tmp_path / "eye.csv"
        assert cli.main(["exp-eye", "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("channel_index,")
        assert len(lines) == 15

    def test_exp_longrun_short(self, fast_config_file, tmp_path):
        out = tmp_path / "run.csv"
        assert cli.main(["--config", fast_config_file, "exp-longrun",
                         "--duration", "100", "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "timestamp_s,skr_bits_per_s,variance_snu,qber,wdm_state"
        assert len(lines) == 11

    def test_exp_longrun_with_nothing_kept(self, tmp_path, capsys):
        # no outcome reaches 40 SNU: every block yields no key, not an error
        path = tmp_path / "high.cfg"
        path.write_text("block_size_pulses = 100000\nx_th_snu = 40.0\n",
                        encoding="utf-8")
        assert cli.main(["--config", str(path), "exp-longrun",
                         "--duration", "100"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 10
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_exp_variance(self, fast_config_file, capsys):
        assert cli.main(["--config", fast_config_file, "exp-variance"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8

    def test_exp_onoff(self, fast_config_file, capsys):
        assert cli.main(["--config", fast_config_file, "exp-onoff",
                         "--interval", "40", "--total", "160"]) == 0
        out = capsys.readouterr().out
        assert "# relative_difference = " in out


class TestRunLink:
    def test_two_endpoint_session(self, fast_config_file, tmp_path, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes = {}

        def serve():
            codes["bob"] = cli.main(
                ["--config", fast_config_file, "run-link", "--role", "bob",
                 "--listen", f"127.0.0.1:{port}",
                 "--key-out", str(tmp_path / "bob.key"),
                 "--output", str(tmp_path / "bob.txt")])

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        # Alice may connect before Bob listens: retry while she is refused
        deadline = time.monotonic() + 30.0
        while True:
            codes["alice"] = cli.main(
                ["--config", fast_config_file, "run-link", "--role", "alice",
                 "--connect", f"127.0.0.1:{port}",
                 "--key-out", str(tmp_path / "alice.key"),
                 "--output", str(tmp_path / "alice.txt")])
            refused = "refused" in capsys.readouterr().err
            if not (codes["alice"] == 1 and refused
                    and time.monotonic() < deadline):
                break
            time.sleep(0.05)
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert codes == {"alice": 0, "bob": 0}
        from cvqkdsim.postprocess import read_key_file
        a = read_key_file(tmp_path / "alice.key")
        b = read_key_file(tmp_path / "bob.key")
        assert np.array_equal(a, b)
        assert (tmp_path / "alice.txt").read_text() == \
            (tmp_path / "bob.txt").read_text()

    def test_listen_times_out_without_peer(self, capsys):
        # no peer ever connects: --timeout bounds the wait in accept()
        codes = []
        t = threading.Thread(target=lambda: codes.append(cli.main(
            ["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
             "--timeout", "0.5"])), daemon=True)
        start = time.monotonic()
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert time.monotonic() - start < 5.0
        assert codes == [2]
        assert "session failed: TIMEOUT" in capsys.readouterr().err

    def test_bad_endpoint_spec(self, capsys):
        assert cli.main(["run-link", "--role", "alice",
                         "--connect", "nonsense"]) == 1
