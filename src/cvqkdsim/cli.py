"""Command-line entry point.

Subcommands: calibrate, run-link, exp-variance, exp-onoff, exp-longrun,
exp-eye, dump-config.  Exit code 0 on success, 1 on usage and
configuration errors, 2 on protocol failures.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

import numpy as np

from . import experiments as ex
from . import postprocess as pp
from .config import ConfigError, SystemConfig, dump_config, load_config
from .physics import CalibrationError
from .protocol import (AbortReason, Role, SessionFailed, StreamTransport,
                       run_session)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROTOCOL = 2


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: argparse's own exit code, 2,
    would read as a protocol failure.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvqkdsim",
        description="Desk-scale CV-QKD + WDM coexistence simulator")
    parser.add_argument("--config", metavar="PATH",
                        help="config file (key = value format); "
                             "defaults apply when omitted")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", metavar="PATH",
                       help="write CSV/text here instead of stdout")
        return p

    p = add("calibrate", "run a blocked shot-noise calibration frame")
    p.add_argument("--pulses", type=int, default=1_000_000)

    p = add("run-link", "run one key-distillation block over TCP")
    p.add_argument("--role", choices=["alice", "bob"], required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--listen", metavar="HOST:PORT")
    group.add_argument("--connect", metavar="HOST:PORT")
    p.add_argument("--block-id", type=int, default=0)
    p.add_argument("--timeout", type=float, default=30.0,
                   help="seconds to wait for the peer and for the block")
    p.add_argument("--key-out", metavar="PATH",
                   help="write the final key as a binary key file")
    p.add_argument("--transcript", metavar="PATH",
                   help="record every wire frame to this file")

    p = add("exp-variance", "variance sweep, one interfering channel at a time")
    p.add_argument("--time-scale", type=float, default=ex.DEFAULT_TIME_SCALE)

    p = add("exp-onoff", "toggle the classical channels on and off")
    p.add_argument("--interval", type=float, default=600.0,
                   help="toggle interval in represented seconds")
    p.add_argument("--total", type=float, default=7800.0,
                   help="total represented duration in seconds")
    p.add_argument("--time-scale", type=float, default=ex.DEFAULT_TIME_SCALE)

    p = add("exp-longrun", "sustained key distillation run")
    p.add_argument("--duration", type=float, default=86400.0,
                   help="represented duration in seconds")
    p.add_argument("--time-scale", type=float, default=ex.DEFAULT_TIME_SCALE)

    add("exp-eye", "eye-diagram metrics for the classical channels")
    add("dump-config", "print the fully resolved configuration")
    return parser


def _emit(text: str, output_path) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(option: str, path) -> None:
    """A ConfigError unless `path`, if given, can be written: its parent a
    writable directory, and the path itself no directory."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK | os.X_OK)
            or os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"{option} cannot be written: {path!r}")


def _parse_endpoint(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"expected HOST:PORT, PORT <= 65535, got {spec!r}")
    return host, int(port)


def _connect(args) -> socket.socket:
    """The connection to the peer; waiting for it longer than --timeout
    fails the session with TIMEOUT."""
    try:
        if args.listen:
            with socket.create_server(_parse_endpoint(args.listen)) as server:
                server.settimeout(args.timeout)
                return server.accept()[0]
        return socket.create_connection(_parse_endpoint(args.connect),
                                        timeout=args.timeout)
    except socket.timeout:
        raise SessionFailed(AbortReason.TIMEOUT, "no peer")


def _run_link(cfg, args) -> int:
    # settimeout raises OverflowError past the longest wait it can time
    if not 0 < args.timeout <= threading.TIMEOUT_MAX:
        raise ConfigError(f"--timeout must be > 0 and at most "
                          f"{threading.TIMEOUT_MAX:.0f} s, "
                          f"got {args.timeout!r}")
    # a HELLO carries the block id as a u64
    if not 0 <= args.block_id < 2 ** 64:
        raise ConfigError(f"--block-id must be >= 0 and below 2**64, "
                          f"got {args.block_id}")
    # a path that cannot be written fails here, not after the peer has
    # spent a block on the session
    _check_writable("--key-out", args.key_out)
    _check_writable("--transcript", args.transcript)
    role = Role.ALICE if args.role == "alice" else Role.BOB
    try:
        transport = StreamTransport(_connect(args), args.timeout,
                                    args.transcript)
        try:
            result = run_session(role, transport, cfg, block_id=args.block_id)
        finally:
            transport.close()
    except SessionFailed as exc:
        print(exc, file=sys.stderr)   # "session failed: REASON detail"
        return EXIT_PROTOCOL
    if args.key_out:
        pp.write_key_file(args.key_out, result.key_bits)
    rep = result.report
    _emit(
        f"block {args.block_id}: qber={rep.qber:.4f} "
        f"key_bits={rep.final_key_bits} leak_bits={rep.leak_bits} "
        f"skr_bits_per_s={rep.skr_bits_per_s:.1f}\n",
        args.output)
    return EXIT_OK


def main(argv=None) -> int:
    # glibc's malloc maps each array above its threshold, 128 KB at first,
    # from fresh pages, a fault per 4 KB, until it frees one such mapping
    # and raises the threshold to that size.  A block's largest arrays, such
    # as Cascade's index arrays over ~25 k kept bits, are 0.1-0.5 MB, so
    # one 4 MB array, freed at once, takes a 24-hour exp-longrun (864
    # blocks) from ~107 minor faults a block to 0.2 (~92 k in all).
    np.empty(1 << 19)
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else SystemConfig()
        _check_writable("--output", args.output)
        if args.command == "calibrate":
            estimate = ex.run_calibration(cfg, args.pulses)
            _emit(f"shot_noise_estimate_snu = {estimate!r}\n", args.output)
        elif args.command == "run-link":
            return _run_link(cfg, args)
        elif args.command == "exp-variance":
            _emit(ex.exp_variance_sweep(cfg, args.time_scale), args.output)
        elif args.command == "exp-onoff":
            _emit(ex.exp_onoff(cfg, args.interval, args.total,
                               args.time_scale), args.output)
        elif args.command == "exp-longrun":
            _emit(ex.exp_longrun(cfg, args.duration, args.time_scale),
                  args.output)
        elif args.command == "exp-eye":
            _emit(ex.exp_eye(cfg), args.output)
        elif args.command == "dump-config":
            _emit(dump_config(cfg), args.output)
    except (ConfigError, CalibrationError, ValueError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
