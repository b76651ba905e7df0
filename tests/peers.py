"""Two-end session helpers for the tests: a scripted peer, whose one
`rewrite` of an outgoing frame is each hostile-peer fault, and the pairs
it runs over."""

import socket
import threading
import time

from cvqkdsim import protocol as proto
from cvqkdsim.protocol import (AbortReason, Role, SessionFailed, decode_frame,
                               encode_frame)

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
    """`frame`'s bytes under the unassigned type byte 0x7f."""
    data = encode_frame(frame)
    return data[:4] + b"\x7f" + data[5:]


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


def both_failed(out, reason: AbortReason) -> None:
    """Both ends of run_pair's `out` raised SessionFailed with `reason`."""
    for role in Role:
        assert isinstance(out[role], SessionFailed), (role, out[role])
        assert out[role].reason == reason, (role, out[role])


def transcript_frames(data: bytes) -> list:
    """The frames of a transcript, each as its bytes."""
    frames, i = [], 0
    while i < len(data):
        end = i + 5 + int.from_bytes(data[i:i + 4], "big")
        frames.append(data[i:end])
        i = end
    return frames
