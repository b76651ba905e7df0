"""Two-end session helpers for the tests: a scripted peer, whose one
`rewrite` of an outgoing frame is each hostile-peer fault, the pairs it
runs over, and the one rule a two-end session is held to."""

import json
import socket
import threading
import time
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.pipeline import (BlockResult, LocalLink, distill_block,
                               run_chain, simulate_quantum_exchange)
from cvqkdsim.protocol import (AbortReason, Frame, MsgType, Role,
                               SessionFailed, decode_frame, encode_frame)

# the receive timeout of the test sessions; a session that ends on its own,
# not on a timeout, must end within half of it
TIMEOUT_S = 5.0


class Peer(proto.StreamTransport):
    """A StreamTransport that logs ("sent" | "received", frame bytes) for
    each frame it sends or receives, in event order, in `events`.  The
    first frame of type `msg_type` it sends goes on the wire as
    `rewrite(frame)`, and b"" drops it; `fault_at` is then the monotonic
    time of the rewrite, and `received_after` lists the types of the
    frames received since.  Every other frame goes out through
    StreamTransport.send_frame, and so into the transcript; a rewritten
    one bypasses both."""

    def __init__(self, sock, timeout_s, msg_type=None, rewrite=None,
                 transcript_path=None):
        super().__init__(sock, timeout_s, transcript_path)
        self.msg_type = msg_type
        self.rewrite = rewrite
        self.events = []
        self.fault_at = None
        self.received_after = []

    @property
    def sent(self) -> list:
        """The frames this end put on the wire, decoded."""
        return [decode_frame(data) for d, data in self.events if d == "sent"]

    def send_frame(self, frame):
        if self.fault_at is not None or frame.msg_type != self.msg_type:
            super().send_frame(frame)
            self.events.append(("sent", encode_frame(frame)))
            return
        data = self.rewrite(frame)
        self.fault_at = time.monotonic()
        if data:
            self.sock.sendall(data)
            self.events.append(("sent", data))

    def recv_frame(self, n_pulses=None, deadline=None):
        frame = super().recv_frame(n_pulses, deadline)
        self.events.append(("received", encode_frame(frame)))
        if self.fault_at is not None:
            self.received_after.append(frame.msg_type)
        return frame


def unknown_type(frame) -> bytes:
    """`frame`'s bytes under type byte 0x02, which once carried the kept
    pulses' positions and is now unassigned."""
    data = encode_frame(frame)
    return data[:4] + b"\x02" + data[5:]


def peer_pair(timeout_s=TIMEOUT_S, sender=None, msg_type=None, rewrite=None,
              transcripts=(None, None), socks=None):
    """(Alice end, Bob end): two Peers over `socks` (one socket pair by
    default), `sender`'s rewriting the first `msg_type` frame it sends."""
    return tuple(
        Peer(sock, timeout_s, msg_type if role == sender else None, rewrite,
             path)
        for role, sock, path in zip(Role, socks or socket.socketpair(),
                                    transcripts))


def tcp_pair(timeout_s=TIMEOUT_S, *fault):
    """peer_pair's two Peers over one loopback TCP connection, built as
    run-link builds it: Bob listens and Alice connects."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        alice = socket.create_connection(server.getsockname()[:2])
        bob, _ = server.accept()
    return peer_pair(timeout_s, *fault, socks=(alice, bob))


def run_pair(cfg, transports=None, bob_cfg=None, block_id=0,
             bob_block_id=None):
    """Drive both roles over `transports` (a peer_pair by default), Bob on
    `bob_cfg` and block `bob_block_id` if given; returns
    {role: result|SessionFailed}.  An end that raised anything else, in
    either thread, fails the call, which names it."""
    ta, tb = transports or peer_pair()
    args = {Role.ALICE: (cfg, block_id),
            Role.BOB: (bob_cfg or cfg,
                       block_id if bob_block_id is None else bob_block_id)}
    out = {}

    def go(role, transport):
        try:
            out[role] = proto.run_session(role, transport, *args[role])
        except Exception as exc:
            out[role] = exc
        finally:
            transport.close()

    t = threading.Thread(target=go, args=(Role.BOB, tb))
    t.start()
    go(Role.ALICE, ta)
    t.join()
    for role, exc in out.items():
        if isinstance(exc, Exception) and not isinstance(exc, SessionFailed):
            raise AssertionError(f"{role.value} end crashed") from exc
    return out


def transcript_frames(data: bytes) -> list:
    """The frames of a transcript, each as its bytes."""
    frames, i = [], 0
    while i < len(data):
        end = i + 5 + int.from_bytes(data[i:i + 4], "big")
        frames.append(data[i:end])
        i = end
    return frames


AGREES = "agrees"


class Session(NamedTuple):
    """A two-end session over `pair` (peer_pair or tcp_pair), Bob on
    `bob_cfg` and `bob_block_id` where given, and its outcome: AGREES, or
    (reason[, detail]).  A `fault` (sender, msg_type, rewrite) sends the
    sender's first msg_type frame as rewrite(frame); b"" drops it."""
    id: str
    cfg: SystemConfig
    block_id: int = 0
    outcome: object = AGREES
    fault: tuple = ()
    bob_cfg: SystemConfig | None = None
    bob_block_id: int | None = None
    pair: object = peer_pair


class _RecordingLink(LocalLink):
    """A LocalLink that keeps every value it passes encoded as a wire
    frame."""

    def __init__(self):
        self.frames = []

    def carry(self, sender, kind, make, bound=None):
        value = make()
        self.frames.append(encode_frame(Frame(MsgType[kind], value)))
        return value


_FLIP = {"sent": "received", "received": "sent"}
# Alice's events when each end refuses the other's HELLO
_REFUSED = {
    Role.BOB: [("sent", MsgType.HELLO), ("received", MsgType.ABORT)],
    Role.ALICE: [("sent", MsgType.HELLO), ("received", MsgType.HELLO),
                 ("sent", MsgType.ABORT)]}
# the frames Bob sends after his HELLO before he waits on Alice
_OPENING = [MsgType.BASIS_ANNOUNCE]


def ends_as_expected(row: Session, ends=None):
    """The rule of every two-end session, run over `ends` (row.pair's by
    default): each end returns a BlockResult or raises SessionFailed, and
    receives the first frames the other sent.  AGREES: both return what
    distill_block does at the mean drift, its counts Python ints and its
    rates floats, over the frames the in-process chain passes.  (reason[,
    detail]): both raise SessionFailed with `reason`, and an end that
    refused the peer's HELLO names `detail`.  Returns (the result both ends
    agree on, or None; the ends)."""
    agrees = row.outcome == AGREES
    reason, *detail = (None,) if agrees else row.outcome
    timeout_s = 0.2 if reason is AbortReason.TIMEOUT else TIMEOUT_S
    alice, bob = ends = tuple(ends or row.pair(timeout_s, *row.fault))
    start = time.monotonic()
    out = run_pair(row.cfg, ends, row.bob_cfg, row.block_id, row.bob_block_id)
    done = time.monotonic()
    for role, result in out.items():
        assert isinstance(result, BlockResult if agrees else SessionFailed), (
            role, result)
        assert agrees or result.reason == reason, (role, result)
    faulty = [end for end in ends if end.fault_at is not None and not agrees]
    if reason is AbortReason.TIMEOUT:
        # both ends wait on each other, and each at most one timeout once
        # a frame is lost
        since = faulty[0].fault_at if faulty else start
        assert done - since < 2 * alice.timeout_s
    else:
        assert done - start < TIMEOUT_S / 2
        # the peer refused the faulty frame itself, not a later one
        for end in faulty:
            assert end.received_after == [MsgType.ABORT]
    if agrees:
        # each end read every frame the other sent, in the same order
        assert alice.events == [(_FLIP[d], data) for d, data in bob.events]
    else:
        # each end read the first frames the other sent
        for end, other in (ends, ends[::-1]):
            got = [data for d, data in end.events if d == "received"]
            sent = [data for d, data in other.events if d == "sent"]
            assert got == sent[:len(got)]
    if reason is AbortReason.CONFIG_MISMATCH:
        # refused at the HELLOs: Alice's events are the HELLOs until one
        # end's ABORT.  Bob sends his opening frame without waiting for
        # Alice's verdict on his HELLO, so that may be all she never read
        kinds = [(d, data[4]) for d, data in alice.events]
        refuser = next((r for r in Role if _REFUSED[r] == kinds), None)
        assert refuser, kinds
        read = sum(d == "received" for d, _ in alice.events)
        unread = [data[4] for d, data in bob.events if d == "sent"][read:]
        assert unread == _OPENING[:len(unread)], unread
        assert all(d in str(out[refuser]) for d in detail), out[refuser]
    if not agrees:
        return None, ends
    cfg, block_id = row.cfg, row.block_id
    drift = cfg.drift.mean_state()
    local = distill_block(cfg, block_id, drift)
    assert local.report.skr_bits_per_s == (
        local.key_bits.size * cfg.rep_rate_hz / cfg.block_size_pulses)
    for end, result in [("in process", local), *out.items()]:
        assert result.report == local.report, end
        assert np.array_equal(result.key_bits, local.key_bits), end
        assert result.variance_snu == local.variance_snu, end
        # a numpy scalar in a report does not serialise to JSON
        report = result.report
        assert {type(report.leak_bits), type(report.final_key_bits),
                type(result.residual_errors)} == {int}
        assert {type(report.p_post), type(report.qber), type(result.qber_raw),
                type(report.skr_bits_per_s)} == {float}
        json.dumps(asdict(report))
    if not row.fault:
        # every protocol step runs in run_chain, so the in-process link
        # passes exactly the frames the wire carries, in the same order
        link = _RecordingLink()
        chained = run_chain(cfg, block_id, simulate_quantum_exchange(
            cfg, block_id, drift), link)
        assert chained.report == local.report
        hello = encode_frame(Frame(MsgType.HELLO, proto._hello(cfg, block_id)))
        assert [data for _, data in alice.events] == [hello, hello,
                                                      *link.frames]
        assert [d for d, _ in alice.events[:2]] == ["sent", "received"]
    return local, ends
