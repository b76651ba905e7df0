"""Classical-channel protocol between Alice and Bob.

Length-prefixed binary frames over any reliable ordered byte stream:

    [4 bytes  payload length, big-endian]
    [1 byte   message type]
    [N bytes  payload]

A frame carries one value.  Each message type is one row of `_CODEC`:
its payload layout, its size, and the check on a received value; that
check (a bit field cut to its bit count, any other value held to its
bound) is the whole receive-side contract.  All integers on the wire are
big-endian.  Packed bit fields put pulse 0 in the most significant bit of
the first byte.  A received header is checked against its type and the
block before any payload byte is read: a fixed-size type needs its exact
size, and a variable-size one may carry no more than a block of its pulse
count needs.  The quantum exchange itself is simulated locally on both
endpoints from the shared config seed, so no quantum data travels over
this channel.

Bob's frames come first: POSTSELECT_MASK, then BASIS_ANNOUNCE with the
quadratures of the kept pulses only, and SAMPLE_INDICES are positions
among the kept pulses, in [0, n_post).

Bob sends some frames back to back: POSTSELECT_MASK, BASIS_ANNOUNCE and
SAMPLE_INDICES, and later HASH_SEED and KEY_CONFIRM.  Under Nagle's
algorithm a later one waits until the peer acknowledges the one before,
and the peer delays that ACK (~40 ms on Linux) because it has nothing to
send back yet: a block over TCP could lose ~80 ms to waiting.  A TCP
StreamTransport therefore sets TCP_NODELAY and every frame leaves when it
is written; an AF_UNIX socket has no such delay.  A received frame must
arrive whole within the transport's timeout, however its bytes trickle in.

Cascade crosses as PARITY_REQ 0x06 (a pass index, then count-prefixed
u32 start and end arrays) and PARITY_RSP 0x07 (a packed bit per range).
One request asks for all top-level parities of a pass, or for one
bisection depth of all its odd blocks, so a block takes tens of round
trips; an empty request ends Cascade.

run_session() is pipeline.run_chain over a WireLink and returns its
BlockResult, as distill_block() does in process.  Every protocol step,
Cascade's parity exchange and key confirmation (Bob's KEY_CONFIRM, then
Alice's) included, is a step of run_chain; a WireLink only carries values.
A malformed, out-of-range, out-of-order or missing frame ends both
endpoints in SessionFailed with the same AbortReason.  The one exception
is the last message of a session, Alice's KEY_CONFIRM: if it is lost,
Alice has already returned her key while Bob fails, with TRANSPORT_CLOSED
once she hangs up or TIMEOUT if she does not.  A lost frame that leaves
both ends waiting on each other ends only when the receive timeout
expires, which for `run-link` is 30 s by default.
"""

from __future__ import annotations

import enum
import socket
import struct
import time
from dataclasses import dataclass

import numpy as np

from .physics import CalibrationError
from .pipeline import BlockResult, run_chain, simulate_quantum_exchange

__all__ = [
    "MsgType",
    "AbortReason",
    "Frame",
    "ProtocolError",
    "FrameDecodeError",
    "SessionFailed",
    "Role",
    "StreamTransport",
    "WireLink",
    "loopback_pair",
    "encode_frame",
    "decode_frame",
    "run_session",
]

MAX_PAYLOAD = 2 ** 32 - 1
_HEADER = struct.Struct(">IB")   # payload length, message type
DEFAULT_TIMEOUT_S = 30.0


class MsgType(enum.IntEnum):
    BASIS_ANNOUNCE = 0x01
    POSTSELECT_MASK = 0x02
    SAMPLE_INDICES = 0x03
    SAMPLE_BITS = 0x04
    QBER_REPORT = 0x05
    PARITY_REQ = 0x06
    PARITY_RSP = 0x07
    HASH_SEED = 0x08
    KEY_CONFIRM = 0x09
    ABORT = 0x0A


class AbortReason(enum.IntEnum):
    UNEXPECTED_MESSAGE = 1
    DECODE_ERROR = 2
    TIMEOUT = 3
    KEY_MISMATCH = 4
    CALIBRATION_FAILED = 5
    TRANSPORT_CLOSED = 6


class ProtocolError(RuntimeError):
    pass


class FrameDecodeError(ProtocolError):
    pass


class SessionFailed(ProtocolError):
    def __init__(self, reason: AbortReason, detail: str = ""):
        super().__init__(f"session failed: {reason.name} {detail}".strip())
        self.reason = reason


@dataclass
class Frame:
    """A wire message: its type and the one value it carries, whose
    payload layout is the type's `_CODEC` row.  A decoded bit array is
    padded to whole bytes; the row's check cuts it to the bit count the
    receiver knows, as it checks every other value against its bound.
    """

    msg_type: MsgType
    value: object


def _passes(ok):
    """A check that passes a value through if `ok(value, bound)`."""
    return lambda value, bound: value if ok(value, bound) else None


def _struct_row(fmt: str, check, to_value=None):
    """A fixed-size row: `to_value` of the one field `fmt` packs or,
    without it, the tuple of its fields."""
    s = struct.Struct(fmt)
    if to_value is None:
        return lambda v: s.pack(*v), s.unpack, s.size, check
    return s.pack, lambda p: to_value(s.unpack(p)[0]), s.size, check


def _encode_indices(indices) -> bytes:
    idx = np.asarray(indices, dtype=">u4")
    return struct.pack(">I", idx.size) + idx.tobytes()


def _decode_indices(payload: bytes) -> np.ndarray:
    (count,) = struct.unpack(">I", payload[:4])
    idx = np.frombuffer(payload[4:], dtype=">u4")
    if idx.size != count:
        raise FrameDecodeError("index count mismatch")
    return idx.astype(np.int64)


def _encode_ranges(value) -> bytes:
    pass_index, starts, ends = value
    return (struct.pack(">I", pass_index) + _encode_indices(starts)
            + _encode_indices(ends))


def _decode_ranges(payload: bytes) -> tuple:
    pass_index, count = struct.unpack(">II", payload[:8])
    split = 8 + 4 * count
    return (pass_index, _decode_indices(payload[4:split]),
            _decode_indices(payload[split:]))


def _ranges_fit(value, perms) -> bool:
    """Whether `value`'s ranges lie in one pass of the permutations `perms`."""
    pass_index, starts, ends = value
    return (pass_index < perms.passes and starts.size == ends.size
            and np.all(starts < ends) and np.all(ends <= perms.n))


# a bit field, bounded by its bit count; it arrives padded with zeros to
# whole bytes, so one value has one encoding
_BITS_ROW = (
    lambda bits: np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes(),
    lambda payload: np.unpackbits(np.frombuffer(payload, dtype=np.uint8)),
    lambda n: (n + 7) // 8,
    lambda bits, n: (bits[:n] if bits.size == (n + 7) // 8 * 8
                     and not bits[n:].any() else None))

# MsgType -> (value -> payload, payload -> value, size, check).  size is
# the exact payload length of a fixed-size type, or for a variable-size one
# the most bytes it can carry in a block of n pulses.  check(value, bound)
# returns a received value as run_chain takes it, or None if it does not
# fit the bound run_chain gives.
_CODEC = {
    MsgType.BASIS_ANNOUNCE: _BITS_ROW,
    MsgType.POSTSELECT_MASK: _BITS_ROW,
    MsgType.SAMPLE_INDICES: (
        _encode_indices, _decode_indices, lambda n: 4 + 4 * n,
        _passes(lambda idx, n_post: idx.size and idx[-1] < n_post
                and np.all(np.diff(idx) > 0))),
    MsgType.SAMPLE_BITS: _BITS_ROW,
    MsgType.QBER_REPORT: _struct_row(
        ">d", _passes(lambda q, _: 0.0 <= q <= 1.0), float),
    MsgType.PARITY_REQ: (_encode_ranges, _decode_ranges,
                         lambda n: 12 + 8 * n, _passes(_ranges_fit)),
    MsgType.PARITY_RSP: _BITS_ROW,
    MsgType.HASH_SEED: _struct_row(
        ">QI", _passes(lambda v, n_kept: v[1] <= n_kept)),
    # a digest of any other length is refused at the header
    MsgType.KEY_CONFIRM: (bytes, bytes, 32, lambda digest, _: digest),
    MsgType.ABORT: _struct_row(">H", None, AbortReason),   # ends a session
}


def _checked_type(raw_type: int, length: int,
                  n_pulses: int | None = None) -> MsgType:
    """The type a header names, if its payload length fits the type and,
    given a block's pulse count, the block."""
    try:
        t = MsgType(raw_type)
    except ValueError:
        raise FrameDecodeError(f"unknown message type {raw_type:#04x}")
    size = _CODEC[t][2]
    if isinstance(size, int):
        fits = length == size
    else:
        fits = n_pulses is None or length <= size(n_pulses)
    if not fits:
        raise FrameDecodeError(f"{t.name} cannot carry a {length}-byte payload")
    return t


def encode_frame(frame: Frame) -> bytes:
    t = MsgType(frame.msg_type)
    encode, _, size, _ = _CODEC[t]
    payload = encode(frame.value)
    if isinstance(size, int) and len(payload) != size:
        raise ProtocolError(f"{t.name} payload must be {size} bytes")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError("payload too large")
    return _HEADER.pack(len(payload), t) + payload


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame (header + payload)."""
    if len(data) < _HEADER.size:
        raise FrameDecodeError("truncated header")
    length, raw_type = _HEADER.unpack_from(data)
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise FrameDecodeError(
            f"length mismatch: header says {length}, got {len(payload)}")
    t = _checked_type(raw_type, length)
    try:
        return Frame(t, _CODEC[t][1](payload))
    except (struct.error, ValueError) as exc:
        raise FrameDecodeError(str(exc))


class StreamTransport:
    """Blocking framed I/O over a socket, with an optional transcript file
    recording every frame in endpoint event order.

    `timeout_s` bounds the wait for each whole received frame, and each
    send.  A TCP socket gets TCP_NODELAY, so that each frame leaves when
    it is written (see the module docstring)."""

    def __init__(self, sock, timeout_s: float = DEFAULT_TIMEOUT_S,
                 transcript_path=None):
        self.sock = sock
        self.timeout_s = timeout_s
        self.sock.settimeout(timeout_s)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._transcript = open(transcript_path, "wb") if transcript_path else None

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame)
        if self._transcript:
            self._transcript.write(data)
        self.sock.sendall(data)

    def _recv_exact(self, n: int, deadline: float) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout
            self.sock.settimeout(remaining)
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise SessionFailed(AbortReason.TRANSPORT_CLOSED,
                                    "peer closed the connection")
            buf.extend(chunk)
        return bytes(buf)

    def recv_frame(self, n_pulses: int | None = None) -> Frame:
        """The next frame, which must arrive whole within the timeout: a
        peer that trickles bytes cannot stretch the wait.  Its header is
        checked before any payload byte is read: the type must be known
        and the length fit the type and, given the block's pulse count
        `n_pulses`, the block."""
        deadline = time.monotonic() + self.timeout_s
        try:
            try:
                header = self._recv_exact(_HEADER.size, deadline)
                length, raw_type = _HEADER.unpack(header)
                _checked_type(raw_type, length, n_pulses)
                payload = self._recv_exact(length, deadline)
            finally:
                self.sock.settimeout(self.timeout_s)   # sendall's timeout
        except socket.timeout:
            raise SessionFailed(AbortReason.TIMEOUT, "receive timed out")
        except OSError as exc:
            raise SessionFailed(AbortReason.TRANSPORT_CLOSED, str(exc))
        data = header + payload
        if self._transcript:
            self._transcript.write(data)
        return decode_frame(data)

    def close(self) -> None:
        if self._transcript:
            self._transcript.close()
            self._transcript = None
        self.sock.close()


def loopback_pair(timeout_s: float = DEFAULT_TIMEOUT_S,
                  transcripts: tuple | None = None):
    """In-process transport pair (Alice end, Bob end)."""
    a, b = socket.socketpair()
    ta = StreamTransport(a, timeout_s, transcripts[0] if transcripts else None)
    tb = StreamTransport(b, timeout_s, transcripts[1] if transcripts else None)
    return ta, tb


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class WireLink:
    """One endpoint's link for pipeline.run_chain: each value crosses as
    one frame, and a received one is checked against the block before it
    enters the chain.  A failure sends ABORT (unless the peer did) and
    raises SessionFailed."""

    def __init__(self, role: Role, transport: StreamTransport, n_pulses: int):
        self.alice = role == Role.ALICE
        self.bob = role == Role.BOB
        self.transport = transport
        self.n_pulses = n_pulses   # bounds what the peer's headers may claim

    def fail(self, reason: AbortReason | str, detail: str = "",
             notify: bool = True) -> SessionFailed:
        """ABORT the peer unless told not to; the SessionFailed to raise."""
        if isinstance(reason, str):
            reason = AbortReason[reason]
        if notify:
            try:
                self.transport.send_frame(Frame(MsgType.ABORT, reason))
            except OSError:
                pass
        return SessionFailed(reason, detail)

    def send(self, frame: Frame) -> None:
        try:
            self.transport.send_frame(frame)
        except OSError:
            # the peer hung up; an ABORT it sent first says why
            try:
                last = self.transport.recv_frame(self.n_pulses)
            except ProtocolError:
                last = None
            reason = AbortReason.TRANSPORT_CLOSED
            if last is not None and last.msg_type == MsgType.ABORT:
                reason = last.value
            raise self.fail(reason, "peer closed the connection", notify=False)

    def expect(self, msg_type: MsgType) -> Frame:
        try:
            frame = self.transport.recv_frame(self.n_pulses)
        except FrameDecodeError as exc:
            raise self.fail(AbortReason.DECODE_ERROR, str(exc))
        except SessionFailed as exc:
            raise self.fail(exc.reason, str(exc), notify=exc.reason == AbortReason.TIMEOUT)
        if frame.msg_type == MsgType.ABORT:
            raise self.fail(frame.value, "peer aborted", notify=False)
        if frame.msg_type != msg_type:
            raise self.fail(AbortReason.UNEXPECTED_MESSAGE,
                            f"expected {msg_type.name}, got {frame.msg_type.name}")
        return frame

    def from_alice(self, kind: str, make, bound=None):
        return self._carry(self.alice, MsgType[kind], make, bound)

    def from_bob(self, kind: str, make, bound=None):
        return self._carry(self.bob, MsgType[kind], make, bound)

    def _carry(self, sending: bool, t: MsgType, make, bound):
        if sending:
            value = make()
            self.send(Frame(t, value))
            return value
        value = _CODEC[t][3](self.expect(t).value, bound)
        if value is None:
            raise self.fail(AbortReason.UNEXPECTED_MESSAGE,
                            f"{t.name} does not fit the block")
        return value


def run_session(role: Role, transport: StreamTransport, cfg,
                block_id: int = 0) -> BlockResult:
    """Drive one key-distillation block end to end over `transport`.

    Both endpoints reconstruct the quantum exchange from the shared config
    seed, then run pipeline.run_chain over a WireLink and return its
    BlockResult.  Raises SessionFailed (after emitting ABORT) on any
    protocol violation; on success both ends hold bit-identical keys,
    checked via KEY_CONFIRM.
    """
    link = WireLink(role, transport, cfg.block_size_pulses)
    try:
        batch = simulate_quantum_exchange(cfg, block_id,
                                          cfg.drift.mean_state())
    except CalibrationError as exc:
        raise link.fail(AbortReason.CALIBRATION_FAILED, str(exc))
    return run_chain(cfg, block_id, batch, link)
