"""The three closed-loop workloads: one client each, one op in flight.

Each workload builds its config as ``SystemConfig(seed=...)`` and never
calls ``load_config``, so an ambient ``CVQKD_SEED`` cannot replace the
workload seed.  ``run_unit`` runs one unit of work (one op, or for
``longrun`` one ``exp_longrun`` call of CHUNK_BLOCKS ops) and returns one
``Op`` per op with its times and whether its output checks passed.  Just
before each op it takes a machine-speed sample (speed.py).
"""

from __future__ import annotations

import hashlib
import socket
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from cvqkdsim import experiments as ex
from cvqkdsim import pipeline, protocol
from cvqkdsim import postprocess as pp
from cvqkdsim.classical import PRBS15_PERIOD
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import DriftState

import speed
import tracing

# criterion 1b of the acceptance gate: every block's SKR inside this band
SKR_BAND_BITS_PER_S = (15_000.0, 60_000.0)
# longrun: blocks per exp_longrun call; every call starts again at block 0,
# so each call must give the same CSV bytes
CHUNK_BLOCKS = 16
# link: blocks whose key is compared with in-process distill_block
LINK_CHECKED_BLOCKS = 4
# Cascade may leave errors in a block (criterion 6 of the acceptance gate
# allows 1 trial in 100).  Such a block yields no key: zero key bits in
# process, a KEY_MISMATCH abort on both ends over the wire.  A run may
# hold this many such blocks per distinct block run, and at least one.
UNRECONCILED_SHARE = 0.02
# line rate of the classical OOK channels (classical.py)
OOK_BIT_RATE_HZ = 12.5e9


@dataclass
class Op:
    ms: float                   # wall time
    cpu_ms: float               # process CPU time, all threads
    speed_index: int            # speed sample taken just before the op
    ok: bool                    # completed and passed its output checks
    represented_s: float        # link time the op stands for
    block: int | None = None    # block id distilled by the op
    unreconciled: bool = False  # Cascade left errors, so no key
    key_bits: int | None = None
    skr: float | None = None
    leak_bits: int | None = None


class _OpClock:
    """Takes the speed sample, then starts the op's wall and CPU clocks."""

    def __init__(self, probe: speed.SpeedProbe | None):
        self.speed_index = probe.sample() if probe is not None else -1
        self.c0 = process_time()
        self.t0 = perf_counter()

    def op(self, ok: bool, represented_s: float, block=None,
           report=None) -> Op:
        ms = (perf_counter() - self.t0) * 1e3
        cpu_ms = (process_time() - self.c0) * 1e3
        op = Op(ms, cpu_ms, self.speed_index, ok, represented_s, block)
        if report is not None:
            op.key_bits = report.final_key_bits
            op.skr = report.skr_bits_per_s
            op.leak_bits = report.leak_bits
        return op


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _patch_postprocess(tracer: tracing.Tracer) -> None:
    """Spans on every pp.* name that pipeline and protocol call into."""
    for name in ("sift", "sift_alice_bits", "qber_estimate",
                 "CascadePermutations", "cascade_reconcile", "toeplitz_hash",
                 "secret_fraction"):
        tracer.patch(pp, name, f"postprocess.{name}")
    tracer.patch(pp, "post_select", "postprocess.post_select",
                 after=_count_kept)
    tracer.patch(pp, "LocalParityOracle", "postprocess.LocalParityOracle",
                 after=lambda t, sp, args, oracle: t.oracles.append((sp.op, oracle)))
    tracer.patch(pp, "holevo_bound", "quantum.holevo_bound")


def _patch_physics(tracer: tracing.Tracer) -> None:
    tracer.patch(pipeline, "prepare_and_measure", "physics.prepare_and_measure",
                 after=lambda t, sp, args, res: t.add_count(
                     sp.op, "physics.pulses_simulated", args[0]))
    tracer.patch(pipeline, "calibrate_shot_noise", "physics.calibrate_shot_noise")


def _count_kept(tracer, sp, args, frame) -> None:
    tracer.add_count(sp.op, "postprocess.kept_pulses",
                     int(np.count_nonzero(frame.postselect_mask)))
    tracer.add_count(sp.op, "postprocess.signal_pulses", len(frame))


class Longrun:
    """``experiments.exp_longrun`` on the default config, timed per block
    through ``BlockRunner.run_block``."""

    name = "longrun"
    min_units = 1

    def __init__(self, seed: int):
        self.cfg = SystemConfig(seed=seed)
        self.time_scale = ex.DEFAULT_TIME_SCALE
        self.block_s = self.cfg.block_size_pulses / self.cfg.rep_rate_hz
        self.duration_s = CHUNK_BLOCKS * self.block_s * self.time_scale
        self.csv_digest: str | None = None
        self.broken = False

    def install(self, tracer: tracing.Tracer) -> None:
        tracer.patch(ex.BlockRunner, "run_block", "experiments.run_block")
        tracer.patch(ex, "distill_block", "pipeline.distill_block")
        tracer.patch(pipeline, "simulate_quantum_exchange",
                     "pipeline.simulate_quantum_exchange")
        _patch_physics(tracer)
        _patch_postprocess(tracer)

    def op_ids(self, index: int) -> list[int]:
        return list(range(index * CHUNK_BLOCKS, (index + 1) * CHUNK_BLOCKS))

    def warm_up(self) -> list[Op]:
        clock = _OpClock(None)
        res = ex.BlockRunner(self.cfg, self.time_scale).run_block(0)
        ok = res.residual_errors == 0 or res.key_bits.size == 0
        return [clock.op(ok, self.block_s, 0, res.report)]

    def run_unit(self, index: int, probe: speed.SpeedProbe,
                 tracer: tracing.Tracer | None = None) -> list[Op]:
        blocks: list[tuple[Op, object]] = []
        inner = ex.BlockRunner.run_block

        def timed_block(runner, block_id, cfg=None):
            if tracer is None:
                clock = _OpClock(probe)
            else:
                # the sample belongs to no op, and its span keeps it out
                # of exp_longrun's self time
                tracer.set_op(None)
                with tracer.span("perfbench.speed_sample"):
                    clock = _OpClock(probe)
                tracer.set_op(index * CHUNK_BLOCKS + block_id)
            res = inner(runner, block_id, cfg)
            blocks.append((clock.op(True, self.block_s, block_id, res.report),
                           res))
            return res

        ex.BlockRunner.run_block = timed_block
        csv = None
        try:
            if tracer is None:
                csv = ex.exp_longrun(self.cfg, self.duration_s, self.time_scale)
            else:
                tracer.set_op(None)
                with tracer.span("experiments.exp_longrun"):
                    csv = ex.exp_longrun(self.cfg, self.duration_s,
                                         self.time_scale)
        except Exception:
            _report_exception("exp_longrun")
        finally:
            ex.BlockRunner.run_block = inner

        csv_ok = csv is not None and len(blocks) == CHUNK_BLOCKS
        if csv_ok:
            digest = _digest(csv)
            if self.csv_digest is None:
                self.csv_digest = digest
            csv_ok = digest == self.csv_digest
        ops = []
        for op, res in blocks:
            op.unreconciled = res.residual_errors > 0
            if op.unreconciled:
                op.ok = csv_ok and op.key_bits == 0 and op.skr == 0.0
            else:
                op.ok = csv_ok and (SKR_BAND_BITS_PER_S[0] <= op.skr
                                    <= SKR_BAND_BITS_PER_S[1])
            ops.append(op)
        if len(blocks) < CHUNK_BLOCKS:
            # exp_longrun raised: the blocks it never ran count as failed
            self.broken = True
            ops += [Op(0.0, 0.0, -1, False, 0.0)] * (CHUNK_BLOCKS - len(blocks))
        return ops

    def finish(self) -> dict:
        return {"csv_sha256": self.csv_digest}

    def close(self) -> None:
        pass


class Link:
    """``protocol.run_session`` with Alice and Bob in this process, one
    thread each, over one TCP connection on 127.0.0.1.  The op of unit k
    distills block k."""

    name = "link"
    min_units = 6

    def __init__(self, seed: int):
        self.cfg = SystemConfig(seed=seed)
        self.block_s = self.cfg.block_size_pulses / self.cfg.rep_rate_hz
        # Bob listens and Alice connects, as with run-link
        with socket.create_server(("127.0.0.1", 0)) as server:
            alice_sock = socket.create_connection(server.getsockname()[:2])
            bob_sock, _ = server.accept()
        self.ends = {protocol.Role.ALICE: protocol.StreamTransport(alice_sock),
                     protocol.Role.BOB: protocol.StreamTransport(bob_sock)}
        self.pool = ThreadPoolExecutor(max_workers=2,
                                       thread_name_prefix="perfbench-link")
        self.keys: dict[int, np.ndarray] = {}
        self.unreconciled: set[int] = set()
        self.broken = False

    def install(self, tracer: tracing.Tracer) -> None:
        tracer.patch(protocol, "simulate_quantum_exchange",
                     "pipeline.simulate_quantum_exchange")
        _patch_physics(tracer)
        _patch_postprocess(tracer)
        tracer.patch(protocol, "encode_frame", "protocol.encode_frame",
                     after=lambda t, sp, args, data: t.on_frame_sent(
                         sp.op, sp.thread, args[0].msg_type.name, len(data)),
                     keep=False)
        tracer.patch(protocol, "decode_frame", "protocol.decode_frame",
                     keep=False)
        for transport in self.ends.values():
            tracer.patch(transport, "send_frame", "protocol.send_frame",
                         keep=False)
            tracer.patch(transport, "recv_frame", "protocol.recv_frame",
                         keep=False)

    def _session(self, role, block_id: int, tracer):
        transport = self.ends[role]
        if tracer is None:
            return protocol.run_session(role, transport, self.cfg,
                                        block_id=block_id)
        tracer.set_context(block_id, role.value)
        with tracer.span("protocol.run_session"):
            return protocol.run_session(role, transport, self.cfg,
                                        block_id=block_id)

    def op_ids(self, index: int) -> list[int]:
        return [index]

    def warm_up(self) -> list[Op]:
        return self.run_unit(0, None)

    def run_unit(self, index: int, probe: speed.SpeedProbe | None,
                 tracer: tracing.Tracer | None = None) -> list[Op]:
        b = index
        clock = _OpClock(probe)
        futures = [self.pool.submit(self._session, role, b, tracer)
                   for role in (protocol.Role.ALICE, protocol.Role.BOB)]
        results, aborts = [], []
        for f in futures:
            try:
                results.append(f.result())
            except protocol.SessionFailed as exc:
                aborts.append(exc.reason)
            except Exception:
                _report_exception(f"run_session block {b}")
        if aborts == [protocol.AbortReason.KEY_MISMATCH] * 2:
            op = clock.op(True, self.block_s, b)
            op.unreconciled = True
            op.ok = self._drain_aborts()
            self.unreconciled.add(b)
            return [op]
        if len(results) != 2:
            print(f"perfbench: block {b} ended in {aborts}", file=sys.stderr)
            # the two ends may now disagree about where the stream is
            self.broken = True
            return [clock.op(False, 0.0, b)]
        alice, bob = results
        ok = np.array_equal(alice.key_bits, bob.key_bits)
        if b < LINK_CHECKED_BLOCKS:
            self.keys.setdefault(b, alice.key_bits)
            ok = ok and np.array_equal(self.keys[b], alice.key_bits)
        return [clock.op(ok, self.block_s, b, alice.report)]

    def _drain_aborts(self) -> bool:
        """After a KEY_MISMATCH abort each end has sent an ABORT frame that
        the other has not read; read both so the next session starts in
        step."""
        try:
            frames = [t.recv_frame() for t in self.ends.values()]
        except protocol.ProtocolError:
            _report_exception("reading the ABORT frames")
            self.broken = True
            return False
        return all(f.msg_type == protocol.MsgType.ABORT for f in frames)

    def finish(self) -> dict:
        """Compare with in-process distillation, outside the timed region:
        the first blocks' keys must be equal, and every block that aborted
        with KEY_MISMATCH must leave residual errors in process too."""
        drift = DriftState(self.cfg.drift.efficiency_mean,
                           self.cfg.drift.phase_mean_rad)
        mismatched = []
        for b in sorted(set(self.keys) | self.unreconciled):
            ref = pipeline.distill_block(self.cfg, b, drift, qber_used=None)
            if b in self.unreconciled:
                agree = ref.residual_errors > 0
            else:
                agree = np.array_equal(ref.key_bits, self.keys[b])
            if not agree:
                mismatched.append(b)
        return {"checked_blocks": sorted(set(self.keys) | self.unreconciled),
                "mismatched_blocks": mismatched}

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        for transport in self.ends.values():
            transport.close()


class Eye:
    """``experiments.exp_eye`` on the default config; one op is one sweep."""

    name = "eye"
    min_units = 8

    def __init__(self, seed: int):
        self.cfg = SystemConfig(seed=seed)
        rows = 2 * len(self.cfg.classical_channels)
        self.represented_s = rows * PRBS15_PERIOD / OOK_BIT_RATE_HZ
        self.csv_digest: str | None = None
        self.broken = False

    def install(self, tracer: tracing.Tracer) -> None:
        tracer.patch(ex, "prbs15_sequence", "classical.prbs15_sequence")
        tracer.patch(ex, "simulate_ook_link", "classical.simulate_ook_link")

    def op_ids(self, index: int) -> list[int]:
        return [index]

    def warm_up(self) -> list[Op]:
        return self.run_unit(0, None)

    def run_unit(self, index: int, probe: speed.SpeedProbe | None,
                 tracer: tracing.Tracer | None = None) -> list[Op]:
        clock = _OpClock(probe)
        try:
            if tracer is None:
                csv = ex.exp_eye(self.cfg)
            else:
                tracer.set_op(index)
                with tracer.span("experiments.exp_eye"):
                    csv = ex.exp_eye(self.cfg)
        except Exception:
            _report_exception("exp_eye")
            return [clock.op(False, 0.0)]
        op = clock.op(True, self.represented_s)
        digest = _digest(csv)
        if self.csv_digest is None:
            self.csv_digest = digest
        op.ok = digest == self.csv_digest and _eye_rows_paired(csv, self.cfg)
        return [op]

    def finish(self) -> dict:
        return {"csv_sha256": self.csv_digest}

    def close(self) -> None:
        pass


def _eye_rows_paired(csv: str, cfg) -> bool:
    """Each classical channel has an on row and an off row whose metric
    columns are identical."""
    lines = csv.splitlines()
    if not lines or lines[0] != ex.EYE_HEADER:
        return False
    rows: dict[str, dict[str, list[str]]] = {}
    for line in lines[1:]:
        cols = line.split(",")
        rows.setdefault(cols[0], {})[cols[1]] = cols[2:]
    want = {str(ch.index) for ch in cfg.classical_channels}
    return (set(rows) == want
            and all(set(r) == {"true", "false"} and r["true"] == r["false"]
                    for r in rows.values()))


WORKLOADS = {cls.name: cls for cls in (Longrun, Link, Eye)}
