import hashlib
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cvqkdsim
from cvqkdsim import cli
from cvqkdsim.config import SystemConfig, parse_config_text


PINNED_DIGESTS = Path(__file__).with_name("experiment_outputs.sha256")


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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "/no/such/file" in err

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--pulses", "abc"],
        ["run-link", "--role", "carol", "--listen", "127.0.0.1:1"],
        ["run-link", "--role", "bob"],
        [],
    ], ids=["pulses-abc", "role-carol", "no-endpoint", "no-command"])
    def test_usage_error_exits_1(self, argv, capsys):
        # exit 2 means a protocol failure, so argparse's own 2 is not used
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cvqkdsim") and "error: " in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["run-link", "--help"])
        assert exc_info.value.code == 0
        assert "--role" in capsys.readouterr().out

    def test_unwritable_output_fails_before_the_run(self, tmp_path,
                                                    monkeypatch, capsys):
        # a 24-hour run must not end in a path it cannot write
        monkeypatch.setattr(cli.ex, "exp_longrun",
                            lambda *args: pytest.fail("the run started"))
        assert cli.main(["exp-longrun", "--output",
                         str(tmp_path / "no" / "longrun.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: --output")

    def test_impossible_allocation_is_an_error(self, capsys):
        # 10**15 pulses need 909 TiB, more than the 128 TiB a 64-bit Linux
        # process can address, so the allocation fails without taking memory
        assert cli.main(["calibrate", "--pulses", "1000000000000000"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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
        # finite, but more blocks, toggles or pulses than an int64 counts
        (["exp-longrun", "--duration", "10", "--time-scale", "1e-320"],
         "time_scale"),
        (["exp-longrun", "--duration", "1e308", "--time-scale", "1e-5"],
         "duration_s"),
        (["exp-onoff", "--total", "300", "--interval", "1e-320"],
         "interval_s"),
        (["exp-variance", "--time-scale", "1e-12"], "time_scale"),
        # a block of no represented duration
        (["exp-longrun", "--duration", "10", "--time-scale", "5e-324"],
         "time_scale"),
        # a port past 65535: no OverflowError from the socket layer, and no
        # connection to the port modulo 65536
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:99999"],
         "127.0.0.1:99999"),
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:65536"],
         "127.0.0.1:65536"),
        (["run-link", "--role", "alice", "--connect", "127.0.0.1:70000"],
         "127.0.0.1:70000"),
        # a variance point is one block: 2**31 or more signal pulses are
        # too many to index
        (["exp-variance", "--time-scale", "0.5"], "time_scale"),
        # a block id past the u64 a HELLO carries
        (["run-link", "--role", "bob", "--listen", "127.0.0.1:0",
          "--block-id", str(2 ** 64)], "--block-id"),
    ])
    def test_non_finite_argument_is_an_error(self, argv, name, capsys):
        # rejected with the argument named; all but a toggle count before
        # any block runs
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err


class TestImport:
    @pytest.mark.parametrize("module", [
        "cvqkdsim", "cvqkdsim.experiments", "cvqkdsim.protocol",
        "cvqkdsim.cli"])
    def test_import_loads_no_scipy(self, module):
        # scipy.special and scipy.fft cost ~0.35 s of every run's start-up;
        # math.erfc does the package's part of their work, and privacy
        # amplification needs no FFT
        proc = run_python("-c", f"import sys, {module}; print(sorted("
                          "m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exp_longrun_runs_without_scipy(self, tmp_path):
        # `import scipy` fails in this interpreter, as where scipy is not
        # installed, so a lazy import inside a function fails too; the CSV
        # must be the one whose digest tier-1 and CI pin
        out = tmp_path / "longrun.csv"
        proc = run_python("-c", "import sys; sys.modules['scipy'] = None; "
                          "from cvqkdsim import cli; "
                          "sys.exit(cli.main(sys.argv[1:]))",
                          "exp-longrun", "--duration", "3200",
                          "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        pinned = dict(reversed(line.split()) for line in
                      PINNED_DIGESTS.read_text(encoding="utf-8").splitlines())
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == pinned["longrun.csv"])


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


def run_link_pair(capsys, alice, bob):
    """Exit codes of a run-link Bob listening on a free loopback port and a
    run-link Alice connecting to it, and all that both wrote to stderr.
    `alice` and `bob` are each (options before run-link, options after it).
    Alice may connect before Bob listens: she retries while refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    codes, err = {}, ""

    def run(role, before, after):
        end = "--listen" if role == "bob" else "--connect"
        return cli.main([*before, "run-link", "--role", role,
                         end, f"127.0.0.1:{port}", *after])

    t = threading.Thread(target=lambda: codes.update(bob=run("bob", *bob)),
                         daemon=True)
    t.start()
    deadline = time.monotonic() + 30.0
    while True:
        codes["alice"] = run("alice", *alice)
        tried = capsys.readouterr().err
        err += tried
        if not (codes["alice"] == 1 and "refused" in tried
                and time.monotonic() < deadline):
            break
        time.sleep(0.05)
    t.join(timeout=60.0)
    assert not t.is_alive()
    return codes, err + capsys.readouterr().err


class TestRunLink:
    def test_two_endpoint_session(self, fast_config_file, tmp_path, capsys):
        codes, _ = run_link_pair(capsys, *(
            (["--config", fast_config_file],
             ["--key-out", str(tmp_path / f"{role}.key"),
              "--output", str(tmp_path / f"{role}.txt")])
            for role in ("alice", "bob")))
        assert codes == {"alice": 0, "bob": 0}
        from cvqkdsim.postprocess import read_key_file
        a = read_key_file(tmp_path / "alice.key")
        b = read_key_file(tmp_path / "bob.key")
        assert np.array_equal(a, b)
        assert (tmp_path / "alice.txt").read_text() == \
            (tmp_path / "bob.txt").read_text()

    @pytest.mark.parametrize("bob_line, bob_args, field", [
        ("seed = 7", [], "config_digest"),
        ("sample_fraction = 0.05", [], "config_digest"),
        # both ends once finished with the same key and different SKRs
        ("rep_rate_hz = 2e7", [], "config_digest"),
        ("", ["--block-id", "1"], "block_id"),
    ], ids=["seed-7", "sample-fraction-0.05", "rep-rate-2e7", "block-id-1"])
    def test_failed_session_says_why(self, bob_line, bob_args, field,
                                     fast_config_file, tmp_path, monkeypatch,
                                     capsys):
        # Bob refuses Alice's HELLO and names the field that differs;
        # Alice hears only his ABORT, and both end well inside --timeout
        failed, run_session = {}, cli.run_session

        def recorded(role, *args, **kwargs):
            try:
                return run_session(role, *args, **kwargs)
            except cli.SessionFailed as exc:
                failed[role.value] = str(exc)
                raise

        monkeypatch.setattr(cli, "run_session", recorded)
        bob_cfg = tmp_path / "bob.cfg"
        bob_cfg.write_text(f"block_size_pulses = 100000\n{bob_line}\n",
                           encoding="utf-8")
        start = time.monotonic()
        codes, err = run_link_pair(
            capsys, (["--config", fast_config_file], ["--timeout", "10"]),
            (["--config", str(bob_cfg)], ["--timeout", "10", *bob_args]))
        assert time.monotonic() - start < 10 / 2
        assert codes == {"alice": 2, "bob": 2}
        assert failed == {
            "bob": f"session failed: CONFIG_MISMATCH HELLO differs in {field}",
            "alice": "session failed: CONFIG_MISMATCH peer aborted"}
        assert all(line in err for line in failed.values())

    @pytest.mark.parametrize("option", ["--key-out", "--transcript",
                                        "--output"])
    @pytest.mark.parametrize("where", ["missing-parent", "a-directory"])
    @pytest.mark.parametrize("role, endpoint", [
        ("bob", ["--listen", "127.0.0.1:0"]),
        ("alice", ["--connect", "127.0.0.1:9"])])
    def test_unwritable_path_fails_before_any_socket(
            self, option, where, role, endpoint, tmp_path, monkeypatch,
            capsys):
        # an end that could not keep its key or record must not run the
        # block its peer then keeps alone
        def no_socket(*args, **kwargs):
            pytest.fail("a socket was opened")

        monkeypatch.setattr(socket, "create_server", no_socket)
        monkeypatch.setattr(socket, "create_connection", no_socket)
        path = (tmp_path / "no" / "such" / "file" if where == "missing-parent"
                else tmp_path)
        assert cli.main(["run-link", "--role", role, *endpoint,
                         option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
        assert list(tmp_path.iterdir()) == []

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
        assert "expected HOST:PORT" in capsys.readouterr().err
