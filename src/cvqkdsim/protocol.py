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
block before its payload is awaited: a fixed-size type needs its exact
size, and a variable-size one may carry no more than a block of its pulse
count needs.  The quantum exchange itself is simulated locally on both
endpoints from the shared config seed, so no quantum data travels over
this channel.

Each session opens with a HELLO 0x0B from each end, Alice's first: a u16
protocol version, the u64 block id, the SHA-256 of dump_config(cfg) and
a stream fingerprint, the SHA-256 of one small fixed-seed draw of each
numpy Generator method a block makes (NEP 19 lets a numpy release change
what one draws).  Bob checks Alice's before he sends his own, and Alice
checks his before anything else; any difference ends both ends in
CONFIG_MISMATCH at the first frame.  So two ends that go on simulate the
same block, and no later frame is checked against the receiver's own copy
of it.

Bob's BASIS_ANNOUNCE 0x01 comes next: the quadratures of the kept
pulses, in the order each end draws them from the shared seed, so no
frame names a pulse's position.  No frame carries what the shared seed
fixes: each end draws its kept pulses, the disclosed error sample and the
privacy-amplification hash's a and b from the block's seed, and
Cascade's permutations from the config seed alone, and sizes the final
key, on its own.  Type bytes 0x02, 0x03 and 0x08 are unassigned, so a
frame of any of them is an unknown type.

Bob sends his HELLO and his BASIS_ANNOUNCE back to back.  Under
Nagle's algorithm each frame after the first waits until the peer
acknowledges the one before, and the peer delays that ACK (~40 ms on
Linux) because it has nothing to send back yet.  A TCP StreamTransport
therefore sets TCP_NODELAY and every frame leaves when it is written; an
AF_UNIX socket has no such delay.

A StreamTransport receives into one buffer that it keeps for the life of
its connection: a frame that has arrived whole costs one `recv_into` and
one decode_frame.  Bytes read past a frame's end belong to the
connection, not to the session that read them, and the next recv_frame
takes them first.  The buffer grows only as bytes arrive, so a header
that announces more than its peer sends holds no memory for the rest.
The socket's timeout, set once, bounds each read and send.  A block has
one deadline, the timeout after its session starts: a frame not whole
after a read that ends past it, or whole only past it, ends the session
in TIMEOUT unless it is the peer's ABORT.  A peer that stalls or trickles
its frames holds a block for about two timeouts, and never past three.
A send that times out, to a peer that reads nothing, ends the session in
TIMEOUT at once, with no further read and no ABORT, which could not leave.

Cascade crosses as PARITY_REQ 0x06 (a pass index, then count-prefixed
u32 start and end arrays) and PARITY_RSP 0x07 (a packed bit per range).
One request asks for all top-level parities of a pass, or for one
bisection depth of all its odd blocks, so a block takes tens of round
trips; an empty request ends Cascade.

Key confirmation crosses as KEY_CONFIRM 0x09, Bob's and then Alice's:
each end's CONFIRM_TAG_BITS = 32 tag bits, packed into 4 bytes, which are
the last bits of the strongly universal hash whose first bits are the
key; unequal strings give equal tags with probability 2^-32.  No digest
of the key is sent.  If the tags differ, both ends keep a 0-bit key and
the session goes on, as it does in process.

A WireLink is one end of a wire block.  Its steps() are the block's
steps over the wire: two HELLO steps, Alice's and then Bob's, then
pipeline.run_chain's, and they return run_chain's BlockResult, as
distill_block() does in process.  run_session() builds the link and
drives its steps with WireLink.carry as the answer (postprocess.drive).
So every value either end sends, a HELLO, a Cascade parity or a key
confirmation tag, crosses one WireLink.carry, which holds a received
frame, in this order, to its header's check, the peer's ABORT, the
block's deadline, the type the step expects and the `_CODEC` row's
check, and to nothing else; a WireLink is the one place that does I/O.
A malformed, out-of-range, out-of-order or missing frame ends both
endpoints in SessionFailed with the same AbortReason.  The one exception
is the last message of a session, Alice's KEY_CONFIRM: if it is lost,
Alice has already returned her key while Bob fails, with TRANSPORT_CLOSED
once she hangs up or TIMEOUT if she does not.  A lost frame that leaves
both ends waiting on each other ends at the block's deadline, which for
`run-link` is 30 s after the session starts by default.
"""

from __future__ import annotations

import enum
import functools
import operator
import socket
import struct
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import dump_config
from .physics import CalibrationError
from .pipeline import BlockResult, run_chain, simulate_quantum_exchange
from .postprocess import CONFIRM_TAG_BITS, drive

__all__ = [
    "MsgType",
    "AbortReason",
    "Frame",
    "Hello",
    "ProtocolError",
    "FrameDecodeError",
    "SessionFailed",
    "Role",
    "StreamTransport",
    "WireLink",
    "encode_frame",
    "decode_frame",
    "stream_fingerprint",
    "run_session",
]

MAX_PAYLOAD = 2 ** 32 - 1
_HEADER = struct.Struct(">IB")   # payload length, message type
DEFAULT_TIMEOUT_S = 30.0
# 2: the multiply-add-shift hash.  3: Cascade's permutations fixed per
# config, not per block, so a version-2 peer reads other orders and its
# tags would never match.  4: the kept pulses' positions (type 0x02) left
# the wire, so a version-3 peer waits for a frame that never comes
PROTOCOL_VERSION = 4
_RECV_BUFFER = 1 << 16   # a transport's receive buffer until a frame needs more


class MsgType(enum.IntEnum):
    BASIS_ANNOUNCE = 0x01
    SAMPLE_BITS = 0x04
    QBER_REPORT = 0x05
    PARITY_REQ = 0x06
    PARITY_RSP = 0x07
    KEY_CONFIRM = 0x09
    ABORT = 0x0A
    HELLO = 0x0B


class AbortReason(enum.IntEnum):
    UNEXPECTED_MESSAGE = 1
    DECODE_ERROR = 2
    TIMEOUT = 3
    KEY_MISMATCH = 4        # reserved; no end sends it
    CALIBRATION_FAILED = 5
    TRANSPORT_CLOSED = 6
    CONFIG_MISMATCH = 7


class ProtocolError(RuntimeError):
    pass


class FrameDecodeError(ProtocolError):
    pass


class SessionFailed(ProtocolError):
    def __init__(self, reason: AbortReason, detail: str = ""):
        super().__init__(f"session failed: {reason.name} {detail}".strip())
        self.reason = reason
        self.detail = detail


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


def _struct_row(fmt: str, check, to_value):
    """A fixed-size row: `to_value` of the one field `fmt` packs."""
    s = struct.Struct(fmt)
    return s.pack, lambda p: to_value(s.unpack(p)[0]), s.size, check


def _encode_indices(indices) -> bytes:
    idx = np.asarray(indices, dtype=">u4")
    return struct.pack(">I", idx.size) + idx.tobytes()


def _encode_ranges(value) -> bytes:
    pass_index, starts, ends = value
    return (struct.pack(">I", pass_index) + _encode_indices(starts)
            + _encode_indices(ends))


def _decode_ranges(payload) -> tuple:
    # u32 words: pass index, start count, starts, end count, ends
    words = np.frombuffer(payload, dtype=">u4").astype(np.int64)
    n = words.size
    count = int(words[1]) if n > 1 else -1
    if not 0 <= count <= n - 3 or words[2 + count] != n - 3 - count:
        raise FrameDecodeError("index count mismatch")
    return int(words[0]), words[2:2 + count], words[3 + count:]


def _ranges_fit(value, bound) -> bool:
    """Whether `value`'s ranges lie in one pass of the permutations `perms`,
    for `bound` = (perms, parities served): once n parities are out, only
    the empty request that ends Cascade fits."""
    perms, served = bound
    pass_index, starts, ends = value
    return (pass_index < perms.passes and starts.size == ends.size
            and (not starts.size or served < perms.n)
            and not np.count_nonzero(starts >= ends)
            and not np.count_nonzero(ends > perms.n))


class Hello(NamedTuple):
    """What a HELLO carries; the two ends' must be equal."""

    version: int
    block_id: int
    config_digest: bytes        # SHA-256 of dump_config(cfg)
    stream_fingerprint: bytes   # stream_fingerprint()


_HELLO = struct.Struct(">HQ32s32s")
BLOCK_IDS = 2 ** 64   # a HELLO carries the block id as a u64


def _encode_hello(hello) -> bytes:
    # the digests are joined as they are: one of another length makes a
    # payload that the row's size refuses, where a struct would cut or pad it
    return struct.pack(">HQ", *hello[:2]) + b"".join(hello[2:])


# One small draw of each numpy Generator method a block makes, in the form
# it makes it; NEP 19 lets a numpy release change any of these streams.
# The hash's PCG64.random_raw words need no entry: NEP 19 keeps a bit
# generator's own stream fixed.
_STREAM_DRAWS = {
    "multinomial": lambda rng: rng.multinomial([900, 40],
                                               [[0.1, 0.2, 0.7]] * 2),
    "chisquare": lambda rng: rng.chisquare(999.0, 4),
    "standard_normal": lambda rng: rng.standard_normal(4),
    # shapes below and above 1 take different algorithms
    "standard_gamma": lambda rng: rng.standard_gamma([0.5, 2.0, 500.0]),
    "permutation": lambda rng: rng.permutation(64),
    # a disclosure sample
    "choice": lambda rng: rng.choice(20_000, 100, replace=False),
    # pipeline.derive_seed, which seeds every stream of a block
    "SeedSequence": lambda rng: np.random.SeedSequence(
        (1, 2, 3)).generate_state(1, dtype=np.uint64),
}


@functools.cache
def stream_fingerprint() -> bytes:
    """SHA-256 of every `_STREAM_DRAWS` draw, each from a generator seeded
    0, its values as little-endian 8-byte words: two numpy releases whose
    block streams agree give equal fingerprints.  Computed once per
    process."""
    import hashlib   # ~3 ms to import, which only a session pays

    h = hashlib.sha256()
    for name, draw in _STREAM_DRAWS.items():
        values = np.asarray(draw(np.random.default_rng(0)))
        h.update(name.encode())
        h.update(values.astype("<f8" if values.dtype.kind == "f"
                               else "<i8").tobytes())
    return h.digest()


@functools.lru_cache(maxsize=16)
def _config_digest(cfg) -> bytes:
    """SHA-256 of dump_config(cfg), once per config: a dump takes ~0.5 ms."""
    import hashlib   # ~3 ms to import, which only a session pays

    return hashlib.sha256(dump_config(cfg).encode()).digest()


def _hello(cfg, block_id: int) -> Hello:
    """This end's HELLO for block `block_id` on `cfg`."""
    return Hello(PROTOCOL_VERSION, block_id, _config_digest(cfg),
                 stream_fingerprint())


# a bit field, bounded by its bit count; it arrives padded with zeros to
# whole bytes, so one value has one encoding
_BITS_ROW = (
    lambda bits: np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes(),
    lambda payload: np.unpackbits(np.frombuffer(payload, dtype=np.uint8)),
    lambda n: (n + 7) // 8,
    lambda bits, n: (bits[:n] if bits.size == (n + 7) // 8 * 8
                     and not np.count_nonzero(bits[n:]) else None))

# MsgType -> (value -> payload, payload -> value, size, check).  size is
# the exact payload length of a fixed-size type, or for a variable-size one
# the most bytes it can carry in a block of n pulses.  check(value, bound)
# returns a received value as run_chain takes it, or None if it does not
# fit the bound run_chain gives.  The payload StreamTransport decodes is a
# view into its receive buffer, which the next read overwrites, so
# payload -> value must copy what it keeps.
_CODEC = {
    MsgType.BASIS_ANNOUNCE: _BITS_ROW,
    MsgType.SAMPLE_BITS: _BITS_ROW,
    MsgType.QBER_REPORT: _struct_row(
        ">d", _passes(lambda q, _: 0.0 <= q <= 1.0), float),
    MsgType.PARITY_REQ: (_encode_ranges, _decode_ranges,
                         lambda n: 12 + 8 * n, _passes(_ranges_fit)),
    MsgType.PARITY_RSP: _BITS_ROW,
    # a tag of any other length is refused at the header
    MsgType.KEY_CONFIRM: (*_BITS_ROW[:2], CONFIRM_TAG_BITS // 8, _BITS_ROW[3]),
    MsgType.ABORT: _struct_row(">H", None, AbortReason),   # ends a session
    # the peer's must equal this end's own
    MsgType.HELLO: (_encode_hello, lambda p: Hello(*_HELLO.unpack(p)),
                    _HELLO.size, _passes(operator.eq)),
}

# a MsgType by its type byte and by its name, without an enum call per frame
_BY_CODE = {t.value: t for t in MsgType}
_BY_NAME = {t.name: t for t in MsgType}


def _checked_type(raw_type: int, length: int,
                  n_pulses: int | None = None) -> MsgType:
    """The type a header names, if its payload length fits the type and,
    given a block's pulse count, the block."""
    t = _BY_CODE.get(raw_type)
    if t is None:
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
    t = _BY_CODE[frame.msg_type]
    encode, _, size, _ = _CODEC[t]
    payload = encode(frame.value)
    if isinstance(size, int) and len(payload) != size:
        raise ProtocolError(f"{t.name} payload must be {size} bytes")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError("payload too large")
    return _HEADER.pack(len(payload), t) + payload


def decode_frame(data) -> Frame:
    """Decode one complete frame (header + payload), bytes or a memoryview."""
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

    `timeout_s` is the socket's timeout, set once here: it bounds each
    read and send.  A TCP socket gets TCP_NODELAY, so that each frame
    leaves when it is written (see the module docstring).

    Received bytes land in one buffer that the transport keeps for the
    life of the connection.  A frame costs one `recv_into` when it has
    arrived whole, and more only while it has not; bytes read past its end
    stay buffered for the next frame, whichever session reads it.  The
    buffer grows only as bytes arrive, to at most twice what has arrived
    and never past a frame whose header has passed its check."""

    def __init__(self, sock, timeout_s: float = DEFAULT_TIMEOUT_S,
                 transcript_path=None):
        self.sock = sock
        self.timeout_s = timeout_s
        self.sock.settimeout(timeout_s)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._transcript = open(transcript_path, "wb") if transcript_path else None
        self._buf = bytearray(_RECV_BUFFER)
        self._view = memoryview(self._buf)
        self._start = self._end = 0   # the unread bytes are _buf[_start:_end]

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame)
        if self._transcript:
            self._transcript.write(data)
        self.sock.sendall(data)

    def _read(self, n: int, deadline: float) -> None:
        """One read towards `n` unread bytes, which waits at most the
        socket's timeout; TIMEOUT if they are still short after
        `deadline`."""
        size = len(self._buf)
        if self._end == size or (self._start and self._start + n > size):
            self._make_room(n)
        got = self.sock.recv_into(self._view[self._end:])
        if not got:
            raise SessionFailed(AbortReason.TRANSPORT_CLOSED,
                                "peer closed the connection")
        self._end += got
        if self._end - self._start < n and time.monotonic() > deadline:
            raise socket.timeout

    def _make_room(self, n: int) -> None:
        """Move the unread bytes to the front of the buffer or, if they
        fill it, into one twice as long, but no longer than `n` bytes: the
        buffer grows only with bytes that have arrived."""
        unread = bytes(self._view[self._start:self._end])
        if not self._start:
            self._buf = bytearray(min(n, 2 * len(self._buf)))
            self._view = memoryview(self._buf)
        self._buf[:len(unread)] = unread
        self._start, self._end = 0, len(unread)

    def recv_frame(self, n_pulses: int | None = None,
                   deadline: float | None = None) -> Frame:
        """The next frame, whole by the monotonic `deadline` (one timeout
        from now by default) however its bytes trickle in; one not yet
        buffered gets a read before the deadline is checked.  Its header is
        checked before the payload is awaited: the type must be known and
        the length fit the type and, given the block's pulse count
        `n_pulses`, the block."""
        if deadline is None:
            deadline = time.monotonic() + self.timeout_s
        try:
            while self._end - self._start < _HEADER.size:
                self._read(_HEADER.size, deadline)
            length, raw_type = _HEADER.unpack_from(self._buf, self._start)
            _checked_type(raw_type, length, n_pulses)
            size = _HEADER.size + length
            while self._end - self._start < size:
                self._read(size, deadline)
        except socket.timeout:
            raise SessionFailed(AbortReason.TIMEOUT, "receive timed out")
        except OSError as exc:
            raise SessionFailed(AbortReason.TRANSPORT_CLOSED, str(exc))
        data = self._view[self._start:self._start + size]
        self._start += size
        if self._start == self._end:
            self._start = self._end = 0
        if self._transcript:
            self._transcript.write(data)
        return decode_frame(data)

    def close(self) -> None:
        if self._transcript:
            self._transcript.close()
            self._transcript = None
        self.sock.close()


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class WireLink:
    """One endpoint of a wire block: its steps, and the wire's answer to
    each, through which every value crosses as one frame and a received
    one is checked against the block before it enters the chain.  A
    failure sends ABORT (unless the peer did) and raises SessionFailed."""

    def __init__(self, role: Role, transport: StreamTransport):
        self.alice, self.bob = role == Role.ALICE, role == Role.BOB
        self.transport = transport
        self.n_pulses = None   # the block's, which bounds the peer's headers
        self.deadline = time.monotonic() + transport.timeout_s   # the block's

    def fail(self, reason: AbortReason, detail: str = "",
             notify: bool = True) -> SessionFailed:
        """ABORT the peer unless told not to; the SessionFailed to raise."""
        if notify:
            try:
                self.transport.send_frame(Frame(MsgType.ABORT, reason))
            except OSError:
                pass
        return SessionFailed(reason, detail)

    def send(self, frame: Frame) -> None:
        try:
            self.transport.send_frame(frame)
        except socket.timeout:
            # a stalled peer, not a closed one: any read or ABORT waits again
            raise self.fail(AbortReason.TIMEOUT, "send timed out",
                            notify=False)
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

    def carry(self, sender: str, kind: str, make, bound=None):
        """The wire's answer to a step: send `make()` if this end plays
        `sender`, else receive the peer's frame and run every check on it,
        in the module docstring's order; a HELLO that differs from this
        end's own names what differs."""
        t = _BY_NAME[kind]
        if getattr(self, sender):
            self.send(Frame(t, value := make()))
            return value
        try:
            frame = self.transport.recv_frame(self.n_pulses, self.deadline)
        except FrameDecodeError as exc:
            raise self.fail(AbortReason.DECODE_ERROR, str(exc))
        except SessionFailed as exc:
            raise self.fail(exc.reason, exc.detail,
                            notify=exc.reason == AbortReason.TIMEOUT)
        if frame.msg_type == MsgType.ABORT:
            raise self.fail(frame.value, "peer aborted", notify=False)
        if time.monotonic() > self.deadline:
            raise self.fail(AbortReason.TIMEOUT, "block timed out")
        if frame.msg_type != t:
            raise self.fail(AbortReason.UNEXPECTED_MESSAGE,
                            f"expected {t.name}, got {frame.msg_type.name}")
        value = _CODEC[t][3](frame.value, bound)
        if value is not None:
            return value
        if t is MsgType.HELLO:
            differ = [name for name, own, theirs in zip(
                Hello._fields, bound, frame.value) if own != theirs]
            raise self.fail(AbortReason.CONFIG_MISMATCH,
                            f"HELLO differs in {', '.join(differ)}")
        raise self.fail(AbortReason.UNEXPECTED_MESSAGE,
                        f"{t.name} does not fit the block")

    def steps(self, cfg, block_id: int):
        """This end's steps of block `block_id`, for the role it plays: the
        two HELLOs, Alice's first, each held to this end's own, then
        pipeline.run_chain's on the block each end simulates at the mean
        drift; returns its BlockResult.  Before the first step, a block id
        that a HELLO's u64 cannot carry raises ValueError, and the block's
        pulse count becomes the bound on the peer's headers.  A calibration
        frame that fails ends the session in CALIBRATION_FAILED once the
        HELLOs have crossed, and the peer hears it; each end simulates the
        same block, so each finds it alike."""
        if not 0 <= block_id < BLOCK_IDS:
            raise ValueError(f"block_id must be >= 0 and below 2**64, "
                             f"got {block_id}")
        self.n_pulses = cfg.block_size_pulses
        hello = _hello(cfg, block_id)
        # each end holds the peer's HELLO to its own before it sends more
        for sender in ("alice", "bob"):
            yield sender, "HELLO", lambda: hello, hello
        try:
            batch = simulate_quantum_exchange(cfg, block_id,
                                              cfg.drift.mean_state())
            return (yield from run_chain(cfg, block_id, batch, self.alice,
                                         self.bob))
        except CalibrationError as exc:
            raise self.fail(AbortReason.CALIBRATION_FAILED, str(exc))


def run_session(role: Role, transport: StreamTransport, cfg,
                block_id: int = 0) -> BlockResult:
    """Drive one key-distillation block end to end over `transport`: this
    end's WireLink.steps, each answered by its WireLink.carry.

    Returns the BlockResult of the chain on the quantum exchange each end
    reconstructs from the shared config seed.  Raises SessionFailed (after
    emitting ABORT) on any protocol violation, with CONFIG_MISMATCH if the
    peer is on another config, block, protocol version or numpy stream,
    with CALIBRATION_FAILED if the block's calibration frame fails, and
    with TIMEOUT if the peer's frames outlast the transport's timeout.  On
    return both ends hold the same key, but for a 2**-32 chance that
    unequal strings give equal KEY_CONFIRM tags; where the tags differ,
    that key has 0 bits.  Raises ValueError, before any frame is sent, for
    a block id that a HELLO's u64 cannot carry.
    """
    link = WireLink(role, transport)
    return drive(link.steps(cfg, block_id), link.carry)
