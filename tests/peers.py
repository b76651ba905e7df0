"""Two-end session helpers for the tests: a scripted peer, whose one
`rewrite` of an outgoing frame is each hostile-peer fault, the pairs it
runs over, the two drivers of a pair (both ends in one thread over an
in-memory pipe, or one thread each over a socket), and the one rule a
two-end session is held to."""

import contextlib
import errno
import json
import socket
import threading
import time
from dataclasses import asdict
from typing import NamedTuple
from unittest import mock

import numpy as np

from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.pipeline import (BlockResult, distill_block, run_chain,
                               simulate_quantum_exchange)
from cvqkdsim.postprocess import drive
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


class Pipe:
    """One end of an in-memory byte stream, as much of a socket as a
    StreamTransport uses.  It is a local stream, as a socket pair's is, so
    the transport sets no TCP option on it.  A read of an empty pipe
    returns no byte once the peer has closed, and times out at once
    otherwise, as does every read once `timed_out` is set: step_pair reads
    an empty pipe only when both ends wait."""

    family = socket.AF_UNIX

    def __init__(self):
        self.inbox = bytearray()
        self.peer = None
        self.closed = self.timed_out = False

    @classmethod
    def pair(cls):
        ends = cls(), cls()
        ends[0].peer, ends[1].peer = ends[1], ends[0]
        return ends

    def ready(self) -> bool:
        """Whether a read returns without waiting."""
        return bool(self.inbox) or self.peer.closed or self.timed_out

    def settimeout(self, timeout_s):
        pass

    def sendall(self, data):
        if self.closed or self.peer.closed:
            raise BrokenPipeError(errno.EPIPE, "peer closed the connection")
        self.peer.inbox += data

    def recv_into(self, buf):
        if self.timed_out or not (self.inbox or self.peer.closed):
            raise socket.timeout("timed out")
        n = min(len(buf), len(self.inbox))
        buf[:n] = self.inbox[:n]
        del self.inbox[:n]
        return n

    def close(self):
        self.closed = True


def peer_pair(timeout_s=TIMEOUT_S, sender=None, msg_type=None, rewrite=None,
              transcripts=(None, None), socks=None):
    """(Alice end, Bob end): two Peers over `socks` (a Pipe pair by
    default), `sender`'s rewriting the first `msg_type` frame it sends."""
    return tuple(
        Peer(sock, timeout_s, msg_type if role == sender else None, rewrite,
             path)
        for role, sock, path in zip(Role, socks or Pipe.pair(), transcripts))


def socket_pair(timeout_s=TIMEOUT_S, *fault, transcripts=(None, None)):
    """peer_pair's two Peers over one socket pair."""
    return peer_pair(timeout_s, *fault, transcripts=transcripts,
                     socks=socket.socketpair())


def tcp_pair(timeout_s=TIMEOUT_S, *fault):
    """peer_pair's two Peers over one loopback TCP connection, built as
    run-link builds it: Bob listens and Alice connects."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        alice = socket.create_connection(server.getsockname()[:2])
        bob, _ = server.accept()
    return peer_pair(timeout_s, *fault, socks=(alice, bob))


def _session_args(cfg, bob_cfg, block_id, bob_block_id) -> dict:
    """{role: (config, block id)}, Bob's own where given."""
    return {Role.ALICE: (cfg, block_id),
            Role.BOB: (bob_cfg or cfg,
                       block_id if bob_block_id is None else bob_block_id)}


def _crashed(out: dict) -> dict:
    """`out`, unless an end raised anything but SessionFailed, which fails
    the call and is named."""
    for role, exc in out.items():
        if isinstance(exc, Exception) and not isinstance(exc, SessionFailed):
            raise AssertionError(f"{role.value} end crashed") from exc
    return out


def step_pair(cfg, transports, bob_cfg=None, block_id=0, bob_block_id=None):
    """run_pair's outcome with both ends in this thread, over the Pipes of
    `transports`, and no wall-clock wait.  Each end builds its WireLink
    and answers the link's steps with its carry, as run_session does, so
    the steps check the block id and bound the peer's headers here too.
    An end is stepped until it would read an empty pipe; then the other
    end is.  When both would, both reads time out at once, Alice's first.
    An end that is done closes its transport."""
    args = _session_args(cfg, bob_cfg, block_id, bob_block_id)
    ends = dict(zip(Role, transports))
    links = {role: proto.WireLink(role, end) for role, end in ends.items()}
    steps = {role: link.steps(*args[role]) for role, link in links.items()}
    step = dict.fromkeys(Role)   # each end's next step; None before its first
    out = {}

    def goes(role):
        """Whether `role`'s next step runs without waiting: it sends, or
        its transport holds unread bytes, or its pipe returns some."""
        end = ends[role]
        return role not in out and (
            step[role] is None or getattr(links[role], step[role][0])
            or end._end > end._start or end.sock.ready())

    while len(out) < 2:
        if not any(map(goes, Role)):
            for role in Role:
                ends[role].sock.timed_out = True
        for role in Role:
            while goes(role):
                try:
                    value = (None if step[role] is None
                             else links[role].carry(*step[role]))
                    step[role] = steps[role].send(value)
                except StopIteration as stop:
                    out[role] = stop.value
                except Exception as exc:
                    out[role] = exc
                if role in out:
                    ends[role].close()
    return _crashed(out)


def run_pair(cfg, transports, bob_cfg=None, block_id=0, bob_block_id=None):
    """Drive both roles over the sockets of `transports`, Bob's in a thread
    of its own, Bob on `bob_cfg` and block `bob_block_id` if given; returns
    {role: result|SessionFailed}.  An end that raised anything else, in
    either thread, fails the call, which names it."""
    ta, tb = transports
    args = _session_args(cfg, bob_cfg, block_id, bob_block_id)
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
    return _crashed(out)


AGREES = "agrees"


class Session(NamedTuple):
    """A two-end session over `pair` (peer_pair, socket_pair or tcp_pair:
    the first runs on step_pair, the others on run_pair), Bob on
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


class RecordingAnswer:
    """pipeline.local_answer, keeping every value it passes encoded as a
    wire frame, and the role that sent it."""

    def __init__(self):
        self.frames = []
        self.senders = []

    def __call__(self, sender, kind, make, bound):
        value = make()
        self.frames.append(encode_frame(Frame(MsgType[kind], value)))
        self.senders.append(sender)
        return value


_FLIP = {"sent": "received", "received": "sent"}
# Alice's events when each end refuses the other's HELLO
_REFUSED = {
    Role.BOB: [("sent", MsgType.HELLO), ("received", MsgType.ABORT)],
    Role.ALICE: [("sent", MsgType.HELLO), ("received", MsgType.HELLO),
                 ("sent", MsgType.ABORT)]}
# the frames Bob sends after his HELLO before he waits on Alice
_OPENING = [MsgType.BASIS_ANNOUNCE]


@contextlib.contextmanager
def _no_thread_or_socket():
    """Starting a thread or making a socket raises inside the block."""
    refuse = mock.Mock(side_effect=AssertionError("a one-thread row made a "
                                                  "thread or a socket"))
    with mock.patch.object(threading.Thread, "start", refuse), \
            mock.patch.object(socket, "socket", refuse), \
            mock.patch.object(socket, "socketpair", refuse):
        yield


def ends_as_expected(row: Session, ends=None):
    """The rule of every two-end session, run over `ends` (row.pair's by
    default): each end returns a BlockResult or raises SessionFailed, and
    receives the first frames the other sent.  AGREES: both return what
    distill_block does at the mean drift, its counts Python ints and its
    rates floats, over the frames the in-process chain passes.  (reason[,
    detail]): both raise SessionFailed with `reason`, and an end that
    refused the peer's HELLO names `detail`.  A row on peer_pair, or ends
    over Pipes, run on step_pair, and may make no thread and no socket;
    two ends that wait on each other there time out alike.  Returns (the
    result both ends agree on, or None; the ends)."""
    agrees = row.outcome == AGREES
    reason, *detail = (None,) if agrees else row.outcome
    timeout_s = 0.2 if reason is AbortReason.TIMEOUT else TIMEOUT_S
    ends = tuple(ends or ())
    one_thread = (isinstance(ends[0].sock, Pipe) if ends
                  else row.pair is peer_pair)
    with _no_thread_or_socket() if one_thread else contextlib.nullcontext():
        alice, bob = ends = ends or row.pair(timeout_s, *row.fault)
        start = time.monotonic()
        out = (step_pair if one_thread else run_pair)(
            row.cfg, ends, row.bob_cfg, row.block_id, row.bob_block_id)
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
        if one_thread:
            # both reads timed out at once
            assert str(out[Role.ALICE]) == str(out[Role.BOB]) == (
                "session failed: TIMEOUT receive timed out")
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
        # every protocol step runs in run_chain, so the in-process answer
        # passes exactly the frames the wire carries, in the same order
        answer = RecordingAnswer()
        chained = drive(run_chain(cfg, block_id, simulate_quantum_exchange(
            cfg, block_id, drift)), answer)
        assert chained.report == local.report
        hello = encode_frame(Frame(MsgType.HELLO, proto._hello(cfg, block_id)))
        assert [data for _, data in alice.events] == [hello, hello,
                                                      *answer.frames]
        assert [d for d, _ in alice.events[:2]] == ["sent", "received"]
    return local, ends
