import math
import socket
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import postprocess as pp
from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import DriftState, PulseBatch
from cvqkdsim.pipeline import (
    LocalLink,
    derive_seed,
    distill_block,
    run_chain,
    simulate_quantum_exchange,
)
from cvqkdsim.protocol import (
    AbortReason,
    Frame,
    FrameDecodeError,
    MsgType,
    ProtocolError,
    Role,
    SessionFailed,
    decode_frame,
    encode_frame,
    loopback_pair,
    run_session,
)


def small_cfg(**kwargs) -> SystemConfig:
    # a generous sampling fraction keeps the per-block error estimate
    # usable at this reduced block size
    return SystemConfig(block_size_pulses=100_000, sample_fraction=0.2,
                        **kwargs)


def noiseless_cfg(**kwargs) -> SystemConfig:
    return small_cfg(force_sigma_snu=1e-9, **kwargs)


def mean_drift(cfg) -> DriftState:
    return cfg.drift.mean_state()


def signal_batch(kept) -> PulseBatch:
    """A block's signal pulses as a PulseBatch: the kept pulses at their
    positions, every other pulse with outcome 0, below any threshold > 0."""
    n = kept.n_signal
    phase, quad, x = np.zeros(n, np.int8), np.zeros(n, np.int8), np.zeros(n)
    phase[kept.position] = kept.alice_phase_index
    quad[kept.position] = kept.bob_quadrature
    x[kept.position] = kept.outcome_snu
    return PulseBatch(phase, quad, x)


def reference_estimation(cfg, block_id: int):
    """Sifting, post-selection and error estimation of one block by the
    reference helpers, on its signal_batch: (signal pulses, post-selected
    frame, qber, frame after disclosure)."""
    batch = signal_batch(
        simulate_quantum_exchange(cfg, block_id, mean_drift(cfg)))
    frame = pp.post_select(pp.sift(batch), cfg.x_th_snu)
    rng = np.random.default_rng(derive_seed(cfg, block_id, 1))
    qber, reduced = pp.qber_estimate(frame, cfg.sample_fraction, rng)
    return batch.count, frame, qber, reduced


class _RecordingLink(LocalLink):
    """A LocalLink that keeps the last value of each kind one role sends
    the other, and every value it passes encoded as a wire frame."""

    def __init__(self):
        self.sent = {}
        self.frames = []

    def from_bob(self, kind, make, bound=None):
        self.sent[kind] = value = make()
        self.frames.append(encode_frame(Frame(MsgType[kind], value)))
        return value

    from_alice = from_bob


def run_pair_timed(cfg):
    """run_pair over a loopback pair, and the seconds it took.  A watchdog
    shuts both sockets down if the session is still running after 5 s, so
    that a hang fails the test instead of stalling it."""
    transports = loopback_pair(timeout_s=5.0)
    watchdog = threading.Timer(5.0, lambda: [
        t.sock.shutdown(socket.SHUT_RDWR) for t in transports])
    watchdog.start()
    start = time.monotonic()
    out = run_pair(cfg, transports=transports)
    watchdog.cancel()
    return out, time.monotonic() - start


def run_pair(cfg, transports=None, **kwargs):
    """Drive both roles over a loopback pair; returns {role: result|exception}."""
    if transports is None:
        transports = loopback_pair()
    ta, tb = transports
    out = {}

    def go(role, transport):
        try:
            out[role] = run_session(role, transport, cfg, **kwargs)
        except SessionFailed as exc:
            out[role] = exc
        finally:
            transport.close()

    t = threading.Thread(target=go, args=(Role.BOB, tb))
    t.start()
    go(Role.ALICE, ta)
    t.join()
    return out


def tcp_pair(timeout_s: float = 5.0):
    """(Alice end, Bob end) over one loopback TCP connection, built as
    run-link builds it: Bob listens and Alice connects."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        alice = socket.create_connection(server.getsockname()[:2])
        bob, _ = server.accept()
    return (proto.StreamTransport(alice, timeout_s),
            proto.StreamTransport(bob, timeout_s))


_frame_strategies = st.one_of(
    st.builds(lambda bits: Frame(MsgType.BASIS_ANNOUNCE,
                                 np.array(bits, dtype=np.uint8)),
              st.lists(st.integers(0, 1), min_size=8, max_size=64).map(
                  lambda xs: xs[:len(xs) - len(xs) % 8])
              .filter(lambda xs: len(xs) >= 8)),
    st.builds(lambda idx: Frame(MsgType.SAMPLE_INDICES,
                                np.array(sorted(set(idx)), dtype=np.int64)),
              st.lists(st.integers(0, 2 ** 32 - 1), min_size=0, max_size=32)),
    st.builds(lambda v: Frame(MsgType.QBER_REPORT, value=v),
              st.floats(min_value=0.0, max_value=0.5)),
    st.builds(lambda p, starts, ends: Frame(MsgType.PARITY_REQ, (
        p, np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64))),
              st.integers(0, 2 ** 32 - 1),
              st.lists(st.integers(0, 2 ** 32 - 1), max_size=16),
              st.lists(st.integers(0, 2 ** 32 - 1), max_size=16)),
    st.builds(lambda bits: Frame(MsgType.PARITY_RSP,
                                 np.array(bits, dtype=np.uint8)),
              st.lists(st.integers(0, 1), max_size=64)),
    st.builds(lambda s, n: Frame(MsgType.HASH_SEED, (s, n)),
              st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32 - 1)),
    st.builds(lambda d: Frame(MsgType.KEY_CONFIRM, bytes(d)),
              st.binary(min_size=32, max_size=32)),
    st.builds(lambda r: Frame(MsgType.ABORT, r),
              st.sampled_from([int(r) for r in AbortReason])),
)


# (frame, its bytes in hex: length, type, payload fields)
_PINNED_FRAMES = [
    # bits 0100 1101 pack to 0x4D, pulse 0 in the MSB
    (Frame(MsgType.BASIS_ANNOUNCE,
           np.array([0, 1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)),
     "00000001 01 4d"),
    # a partial last byte is zero-padded
    (Frame(MsgType.POSTSELECT_MASK,
           np.array([1, 0, 0, 0, 0, 0, 0, 0, 1, 1], dtype=bool)),
     "00000002 02 80c0"),
    (Frame(MsgType.SAMPLE_INDICES, np.array([3, 258, 70000])),
     "00000010 03 00000003 00000003 00000102 00011170"),
    (Frame(MsgType.SAMPLE_BITS,
           np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 1], dtype=np.uint8)),
     "00000002 04 f040"),
    (Frame(MsgType.QBER_REPORT, 0.25), "00000008 05 3fd0000000000000"),
    # pass 1, then the starts and the ends, each array count-prefixed
    (Frame(MsgType.PARITY_REQ, (1, np.array([3, 258]), np.array([5, 70000]))),
     "0000001c 06 00000001 00000002 00000003 00000102"
     " 00000002 00000005 00011170"),
    (Frame(MsgType.PARITY_RSP, np.array([1, 0, 1], dtype=np.uint8)),
     "00000001 07 a0"),
    (Frame(MsgType.HASH_SEED, (0x0102030405060708, 0x0A0B0C0D)),
     "0000000c 08 0102030405060708 0a0b0c0d"),
    (Frame(MsgType.KEY_CONFIRM, bytes(range(32))),
     "00000020 09 " + bytes(range(32)).hex()),
    (Frame(MsgType.ABORT, AbortReason.TIMEOUT), "00000002 0a 0003"),
]

# (type, the bound run_chain gives it, a value at that bound, one just
# past it), for every type the chain receives.  A bit field arrives
# padded to whole bytes, so the first bit count past a bound of 10 is 17.
_PERMS = pp.CascadePermutations(50, 4, 0)
_CHECKS = [
    (MsgType.BASIS_ANNOUNCE, 10, np.ones(10, np.uint8), np.ones(17, np.uint8)),
    (MsgType.POSTSELECT_MASK, 16, np.ones(16, bool), np.ones(17, bool)),
    (MsgType.SAMPLE_INDICES, 100, np.array([3, 99]), np.array([3, 100])),
    (MsgType.SAMPLE_BITS, 8, np.ones(8, np.uint8), np.ones(9, np.uint8)),
    (MsgType.QBER_REPORT, None, 0.0, np.nextafter(0.0, -1.0)),
    (MsgType.QBER_REPORT, None, 1.0, np.nextafter(1.0, 2.0)),
    (MsgType.QBER_REPORT, None, 1.0, math.nan),
    (MsgType.PARITY_REQ, _PERMS, (3, np.array([0, 10]), np.array([10, 50])),
     (3, np.array([0, 10]), np.array([10, 51]))),
    (MsgType.PARITY_REQ, _PERMS, (3, np.array([0]), np.array([50])),
     (4, np.array([0]), np.array([50]))),
    (MsgType.PARITY_RSP, 3, np.ones(3, np.uint8), np.ones(9, np.uint8)),
    (MsgType.HASH_SEED, 1000, (7, 1000), (7, 1001)),
    (MsgType.KEY_CONFIRM, None, bytes(32), bytes(33)),
]


def _received(msg_type, value, bound):
    """`value` sent as a `msg_type` frame, as the receiver's checks pass it
    on, or None if the header check or the row's check refuses it."""
    encode, _, _, check = proto._CODEC[msg_type]
    payload = encode(value)
    try:
        frame = decode_frame(struct.pack(">IB", len(payload), msg_type)
                             + payload)
    except FrameDecodeError:
        return None
    return check(frame.value, bound)


class TestFraming:
    @settings(max_examples=200, deadline=None)
    @given(_frame_strategies)
    def test_round_trip(self, frame):
        data = encode_frame(frame)
        assert encode_frame(decode_frame(data)) == data

    def test_pinned_basis_announce(self):
        # one frame per MsgType, with the bytes the layout fixes
        assert [f.msg_type for f, _ in _PINNED_FRAMES] == list(MsgType)
        for frame, data in _PINNED_FRAMES:
            data = bytes.fromhex(data)
            assert encode_frame(frame) == data, frame.msg_type.name
            assert encode_frame(decode_frame(data)) == data

    def test_abort_frame_is_seven_bytes(self):
        data = encode_frame(Frame(MsgType.ABORT, AbortReason.TIMEOUT))
        assert len(data) == 7
        assert data == b"\x00\x00\x00\x02\x0a\x00\x03"

    def test_header_is_big_endian(self):
        data = encode_frame(Frame(MsgType.QBER_REPORT, 0.25))
        length, raw_type = struct.unpack(">IB", data[:5])
        assert length == 8
        assert raw_type == 0x05

    def test_decode_rejects_unknown_type(self):
        with pytest.raises(FrameDecodeError):
            decode_frame(b"\x00\x00\x00\x00\x7f")

    def test_decode_rejects_length_mismatch(self):
        with pytest.raises(FrameDecodeError):
            decode_frame(b"\x00\x00\x00\x05\x05\x00")

    def test_decode_rejects_unknown_abort_reason(self):
        with pytest.raises(FrameDecodeError):
            decode_frame(b"\x00\x00\x00\x02\x0a\x00\x63")

    def test_decode_rejects_truncated_parity_request(self):
        # two starts announced, one sent; no end array; one end of two
        for payload in ("00000000 00000002 00000003",
                        "00000000 00000001 00000003",
                        "00000000 00000001 00000003 00000002 00000005"):
            payload = bytes.fromhex(payload)
            with pytest.raises(FrameDecodeError):
                decode_frame(struct.pack(">IB", len(payload), 0x06) + payload)

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(FrameDecodeError):
            decode_frame(b"\x00\x00")

    def test_bit_field_padding_must_be_zero(self):
        # one payload byte carries a 1-bit PARITY_RSP; only its zero-padded
        # form is well formed, so two byte strings never carry one value
        check = proto._CODEC[MsgType.PARITY_RSP][3]
        received = lambda data: check(decode_frame(data).value, 1)
        assert received(b"\x00\x00\x00\x01\x07\x80").tolist() == [1]
        assert received(b"\x00\x00\x00\x01\x07\xff") is None
        assert received(b"\x00\x00\x00\x01\x07\x40") is None

    def test_key_confirm_digest_size_enforced(self):
        with pytest.raises(ProtocolError):
            encode_frame(Frame(MsgType.KEY_CONFIRM, b"short"))

    def test_each_check_takes_its_bound_and_refuses_past_it(self):
        # a type the chain receives cannot ship without a check here;
        # ABORT ends a session and is never checked
        assert ({t for t, *_ in _CHECKS}
                == set(proto._CODEC) - {MsgType.ABORT})
        for msg_type, bound, at, past in _CHECKS:
            got = _received(msg_type, at, bound)
            assert got is not None, msg_type.name
            encode = proto._CODEC[msg_type][0]
            assert encode(got) == encode(at), msg_type.name
            if isinstance(at, np.ndarray):   # a bit field cut to its bound
                assert len(got) == len(at), msg_type.name
            assert _received(msg_type, past, bound) is None, msg_type.name


class TestSession:
    def test_noiseless_keys_identical_and_qber_zero(self):
        out = run_pair(noiseless_cfg())
        ra, rb = out[Role.ALICE], out[Role.BOB]
        assert ra.report.qber == 0.0
        assert rb.report.qber == 0.0
        assert ra.key_bits.size > 0
        assert np.array_equal(ra.key_bits, rb.key_bits)

    def test_default_noise_keys_identical(self):
        out = run_pair(small_cfg())
        ra, rb = out[Role.ALICE], out[Role.BOB]
        assert np.array_equal(ra.key_bits, rb.key_bits)
        assert ra.report == rb.report

    def test_matches_in_process_distillation(self):
        for cfg, block_id in ((small_cfg(), 0), (small_cfg(), 1),
                              (small_cfg(), 4), (noiseless_cfg(), 2)):
            self._check_against_in_process(cfg, block_id)

    def _check_against_in_process(self, cfg, block_id):
        out = run_pair(cfg, block_id=block_id)
        local = distill_block(cfg, block_id, mean_drift(cfg))
        assert out[Role.ALICE].report == out[Role.BOB].report == local.report
        assert np.array_equal(out[Role.ALICE].key_bits, local.key_bits)
        assert (out[Role.ALICE].variance_snu == out[Role.BOB].variance_snu
                == local.variance_snu)

        # the chain's estimation step against the reference helpers; the
        # threshold applied to the drawn outcomes keeps exactly the drawn set
        link = _RecordingLink()
        batch = simulate_quantum_exchange(cfg, block_id, mean_drift(cfg))
        chained = run_chain(cfg, block_id, batch, link)
        n_sig, frame, qber, reduced = reference_estimation(cfg, block_id)
        assert chained.report == local.report
        assert chained.report.p_post == (
            (reduced.kept_indices.size + reduced.disclosed_count) / n_sig)
        assert chained.report.qber == chained.qber_raw == qber
        # sample indices count among the kept pulses
        kept = np.flatnonzero(link.sent["POSTSELECT_MASK"])
        assert np.array_equal(kept, frame.kept_indices)
        disclosed = frame.postselect_mask & ~reduced.postselect_mask
        assert np.array_equal(kept[link.sent["SAMPLE_INDICES"]],
                              np.flatnonzero(disclosed))
        assert link.sent["SAMPLE_INDICES"].size == reduced.disclosed_count

    @pytest.mark.parametrize("cfg, block_id", [
        (small_cfg(), 0), (small_cfg(), 1), (small_cfg(), 2),
        (noiseless_cfg(), 0), (SystemConfig(seed=1), 0)],
        ids=["small-0", "small-1", "small-2", "noiseless-0", "seed1-0"])
    def test_both_transports_carry_the_same_frames(self, cfg, block_id,
                                                   tmp_path):
        # every protocol step runs in run_chain, so the in-process link
        # passes exactly the frames the wire carries, in the same order
        paths = (tmp_path / "alice.bin", tmp_path / "bob.bin")
        run_pair(cfg, transports=loopback_pair(transcripts=paths),
                 block_id=block_id)
        link = _RecordingLink()
        run_chain(cfg, block_id,
                  simulate_quantum_exchange(cfg, block_id, mean_drift(cfg)),
                  link)
        wire = paths[0].read_bytes()
        assert paths[1].read_bytes() == wire
        assert b"".join(link.frames) == wire

    def test_blocks_differ_by_id(self):
        cfg = noiseless_cfg()
        a = run_pair(cfg, block_id=0)[Role.ALICE]
        b = run_pair(cfg, block_id=1)[Role.ALICE]
        assert a.key_bits.size > 0
        assert b.key_bits.size > 0
        assert not np.array_equal(a.key_bits, b.key_bits)

    @pytest.mark.parametrize("n_post, sample_fraction", [
        (0, 0.2), (1, 0.2), (2, 0.2), (2, 0.9)])
    def test_too_few_kept_pulses_yield_no_key(self, n_post, sample_fraction):
        # with one kept pulse, or a sample that takes all of them, no bit
        # is left for Cascade; with none, there is nothing to sample
        # only the kept pulses are simulated, so the threshold that keeps
        # n_post of block 0 is found by scanning it upward
        cfg = small_cfg()

        def kept_at(x_th):
            return simulate_quantum_exchange(
                replace(cfg, x_th_snu=x_th), 0, mean_drift(cfg))

        x_th = 40.0 if n_post == 0 else next(
            x for x in np.arange(4.0, 8.0, 0.01)
            if kept_at(x).position.size == n_post)
        batch = kept_at(x_th)
        assert batch.position.size == n_post
        cfg = replace(cfg, x_th_snu=x_th, sample_fraction=sample_fraction)
        out, elapsed = run_pair_timed(cfg)
        assert elapsed < 1.0
        local = distill_block(cfg, 0, mean_drift(cfg))
        for result in (out[Role.ALICE], out[Role.BOB], local):
            assert result.report == local.report
            assert result.key_bits.size == 0
        assert local.report.p_post == n_post / batch.n_signal
        assert local.report.skr_bits_per_s == 0.0

    def test_transcripts_deterministic(self, tmp_path):
        cfg = small_cfg()
        captures = []
        for run in range(2):
            pa = tmp_path / f"alice{run}.bin"
            pb = tmp_path / f"bob{run}.bin"
            run_pair(cfg, transports=loopback_pair(transcripts=(pa, pb)))
            captures.append((pa.read_bytes(), pb.read_bytes()))
        assert captures[0] == captures[1]
        assert len(captures[0][0]) > 0


class _CorruptingTransport(proto.StreamTransport):
    """Flips the type byte of the first outgoing frame to an unknown value."""

    def __init__(self, sock, timeout_s):
        super().__init__(sock, timeout_s)
        self.armed = True

    def send_frame(self, frame):
        data = encode_frame(frame)
        if self.armed and frame.msg_type != MsgType.ABORT:
            data = data[:4] + b"\x7f" + data[5:]
            self.armed = False
        self.sock.sendall(data)


class _TamperingTransport(proto.StreamTransport):
    """A peer that sends the first frame of one type as `tamper(frame,
    sent)` rewrites it; `sent` lists the frames it sent before.  It keeps
    the types of the frames it receives after that one.  With `tamper`
    None it only records."""

    def __init__(self, sock, timeout_s, msg_type, tamper):
        super().__init__(sock, timeout_s)
        self.msg_type = msg_type
        self.tamper = tamper
        self.sent = []
        self.received_after = []

    def send_frame(self, frame):
        if frame.msg_type == self.msg_type and self.tamper is not None:
            frame, self.tamper = self.tamper(frame, self.sent), None
        self.sent.append(frame)
        super().send_frame(frame)

    def recv_frame(self, n_pulses=None):
        frame = super().recv_frame(n_pulses)
        if self.tamper is None:
            self.received_after.append(frame.msg_type)
        return frame


class _OversizedHeaderTransport(proto.StreamTransport):
    """A peer that sends the first frame of one type as a bare header
    claiming a 64 MiB payload, then goes on with its session."""

    def __init__(self, sock, timeout_s, msg_type):
        super().__init__(sock, timeout_s)
        self.msg_type = msg_type

    def send_frame(self, frame):
        if frame.msg_type != self.msg_type:
            return super().send_frame(frame)
        self.msg_type = None
        self.sock.sendall(struct.pack(">IB", 2 ** 26, frame.msg_type))


class _DroppingTransport(proto.StreamTransport):
    """A peer that silently drops the first frame of one type, then goes
    on with its session."""

    def __init__(self, sock, timeout_s, msg_type):
        super().__init__(sock, timeout_s)
        self.msg_type = msg_type

    def send_frame(self, frame):
        if frame.msg_type != self.msg_type:
            return super().send_frame(frame)
        self.msg_type = None


class TestFaultInjection:
    def test_corrupted_frame_fails_both_ends_matching_reason(self):
        import socket
        sa, sb = socket.socketpair()
        ta = _CorruptingTransport(sa, 5.0)
        tb = proto.StreamTransport(sb, 5.0)
        out = run_pair(small_cfg(), transports=(ta, tb))
        assert isinstance(out[Role.ALICE], SessionFailed)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert out[Role.BOB].reason == AbortReason.DECODE_ERROR
        assert out[Role.ALICE].reason == out[Role.BOB].reason

    def test_unexpected_message_aborts_peer(self):
        ta, tb = loopback_pair(timeout_s=5.0)
        cfg = small_cfg()
        result = {}

        def bob():
            try:
                run_session(Role.BOB, tb, cfg)
            except SessionFailed as exc:
                result["bob"] = exc

        t = threading.Thread(target=bob)
        t.start()
        # consume Bob's opening frames, then answer out of order
        for _ in range(3):
            ta.recv_frame()
        ta.send_frame(Frame(MsgType.QBER_REPORT, 0.1))
        abort = ta.recv_frame()
        t.join()
        ta.close()
        tb.close()
        assert abort.msg_type == MsgType.ABORT
        assert abort.value == AbortReason.UNEXPECTED_MESSAGE
        assert result["bob"].reason == AbortReason.UNEXPECTED_MESSAGE

    @pytest.mark.parametrize("sender, msg_type, tamper", [
        (Role.BOB, MsgType.BASIS_ANNOUNCE,
         lambda f, sent, n_kept: replace(f, value=f.value[:-8])),
        # the right bases, with the padding of the partial last byte set to
        # 1s (block 0 keeps 2319 pulses, so 1 padding bit)
        (Role.BOB, MsgType.BASIS_ANNOUNCE,
         lambda f, sent, n_kept: replace(f, value=np.append(
             f.value, np.ones(-f.value.size % 8, dtype=np.uint8)))),
        (Role.BOB, MsgType.POSTSELECT_MASK,
         lambda f, sent, n_kept: replace(f, value=f.value[:-8])),
        # as many pulses kept, but not the ones Alice's block kept
        (Role.BOB, MsgType.POSTSELECT_MASK,
         lambda f, sent, n_kept: replace(f, value=np.roll(f.value, 1))),
        # the pulses Alice's block kept, and the first one it did not
        (Role.BOB, MsgType.POSTSELECT_MASK,
         lambda f, sent, n_kept: replace(f, value=f.value | (
             np.arange(f.value.size) == np.argmin(f.value)))),
        (Role.BOB, MsgType.SAMPLE_INDICES,
         lambda f, sent, n_kept: replace(
             f, value=np.append(f.value[:-1], 10 ** 9))),
        (Role.BOB, MsgType.SAMPLE_INDICES,
         lambda f, sent, n_kept: replace(f, value=f.value[::-1])),
        (Role.BOB, MsgType.SAMPLE_INDICES,
         lambda f, sent, n_kept: replace(
             f, value=np.append(f.value[:1], f.value[:-1]))),
        # index n_post, one past the last kept pulse (sent[0] is the mask)
        (Role.BOB, MsgType.SAMPLE_INDICES,
         lambda f, sent, n_kept: replace(f, value=np.append(
             f.value[:-1], np.count_nonzero(sent[0].value)))),
        (Role.ALICE, MsgType.SAMPLE_BITS,
         lambda f, sent, n_kept: replace(f, value=f.value[:8])),
        (Role.BOB, MsgType.QBER_REPORT,
         lambda f, sent, n_kept: replace(f, value=math.nan)),
        (Role.ALICE, MsgType.PARITY_REQ,
         lambda f, sent, n_kept: replace(
             f, value=(50, f.value[1], f.value[2]))),
        (Role.ALICE, MsgType.PARITY_REQ,
         lambda f, sent, n_kept: replace(
             f, value=(f.value[0], f.value[1], f.value[1]))),
        (Role.ALICE, MsgType.PARITY_REQ,
         lambda f, sent, n_kept: replace(f, value=(
             f.value[0], f.value[1], np.append(f.value[2][:-1], n_kept + 1)))),
        (Role.ALICE, MsgType.PARITY_REQ,
         lambda f, sent, n_kept: replace(
             f, value=(f.value[0], f.value[2], f.value[1]))),
        (Role.ALICE, MsgType.PARITY_REQ,
         lambda f, sent, n_kept: replace(
             f, value=(f.value[0], f.value[1], f.value[2][:-1]))),
        (Role.BOB, MsgType.PARITY_RSP,
         lambda f, sent, n_kept: replace(
             f, value=np.append(f.value, np.zeros(8, dtype=np.uint8)))),
        (Role.BOB, MsgType.HASH_SEED,
         lambda f, sent, n_kept: replace(f, value=(f.value[0], n_kept + 1))),
    ], ids=["basis-short", "basis-padded-1s", "mask-short", "mask-moved", "mask-extra",
            "index-1e9", "indices-unsorted", "index-repeated",
            "index-past-kept", "sample-bits-8",
            "qber-nan", "parity-pass-50", "parity-empty", "parity-end-past-n",
            "parity-start-past-end", "parity-arrays-unequal",
            "parity-rsp-count", "out-len-too-big"])
    def test_out_of_range_field_aborts_both_ends(self, sender, msg_type,
                                                 tamper):
        cfg = small_cfg()
        n_kept = reference_estimation(cfg, 0)[3].kept_indices.size
        sa, sb = socket.socketpair()
        socks = {Role.ALICE: sa, Role.BOB: sb}
        tamperer = _TamperingTransport(socks[sender], 5.0, msg_type,
                                       lambda f, sent: tamper(f, sent, n_kept))
        transports = [tamperer if role == sender
                      else proto.StreamTransport(socks[role], 5.0)
                      for role in (Role.ALICE, Role.BOB)]
        start = time.monotonic()
        out = run_pair(cfg, transports=transports)
        elapsed = time.monotonic() - start
        assert isinstance(out[Role.ALICE], SessionFailed)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert (out[Role.ALICE].reason == out[Role.BOB].reason
                == AbortReason.UNEXPECTED_MESSAGE)
        # the receiver rejects the tampered frame itself, not a later one
        assert tamperer.received_after == [MsgType.ABORT]
        assert elapsed < 1.0   # far inside the 5 s receive timeout

    def test_endless_parity_requests_abort_both_ends(self, monkeypatch):
        # an Alice that asks for the same parity again and again
        def ask_forever(alice_bits, oracle, initial_block, perms):
            while True:
                oracle.parities(0, np.array([0]), np.array([perms.n]))

        monkeypatch.setattr(pp, "cascade_reconcile", ask_forever)
        out, elapsed = run_pair_timed(small_cfg())
        assert elapsed < 1.0
        assert isinstance(out[Role.ALICE], SessionFailed)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert (out[Role.ALICE].reason == out[Role.BOB].reason
                == AbortReason.UNEXPECTED_MESSAGE)

    def test_random_parity_answers_end_in_one_outcome(self, monkeypatch):
        # a Bob whose parities come from no one string
        rng = np.random.default_rng(7)

        def random_parities(oracle, pass_index, starts, ends):
            oracle.query_count += len(starts)
            return rng.integers(0, 2, len(starts), dtype=np.uint8)

        monkeypatch.setattr(pp.LocalParityOracle, "parities", random_parities)
        out, elapsed = run_pair_timed(small_cfg())
        assert elapsed < 1.0
        ra, rb = out[Role.ALICE], out[Role.BOB]
        if isinstance(ra, SessionFailed) or isinstance(rb, SessionFailed):
            assert ra.reason == rb.reason
        else:
            assert ra.key_bits.size == rb.key_bits.size == 0
            assert ra.report == rb.report

    @pytest.mark.parametrize("sender, msg_type", [
        (Role.ALICE, MsgType.SAMPLE_BITS),
        (Role.BOB, MsgType.QBER_REPORT),
    ], ids=["sample-bits", "qber-report"])
    def test_oversized_length_header_aborts_both_ends(self, sender, msg_type):
        sa, sb = socket.socketpair()
        socks = {Role.ALICE: sa, Role.BOB: sb}
        transports = [_OversizedHeaderTransport(socks[role], 5.0, msg_type)
                      if role == sender
                      else proto.StreamTransport(socks[role], 5.0)
                      for role in (Role.ALICE, Role.BOB)]
        start = time.monotonic()
        out = run_pair(small_cfg(), transports=transports)
        elapsed = time.monotonic() - start
        assert isinstance(out[Role.ALICE], SessionFailed)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert (out[Role.ALICE].reason == out[Role.BOB].reason
                == AbortReason.DECODE_ERROR)
        # rejected from the header, without waiting for the payload
        assert elapsed < 1.0   # far inside the 5 s receive timeout

    @pytest.mark.parametrize("sender, msg_type, reason", [
        # the next frame arrives in the dropped one's place
        (Role.BOB, MsgType.BASIS_ANNOUNCE, AbortReason.UNEXPECTED_MESSAGE),
        (Role.BOB, MsgType.POSTSELECT_MASK, AbortReason.UNEXPECTED_MESSAGE),
        (Role.BOB, MsgType.HASH_SEED, AbortReason.UNEXPECTED_MESSAGE),
        # both ends wait on each other
        (Role.BOB, MsgType.SAMPLE_INDICES, AbortReason.TIMEOUT),
        (Role.BOB, MsgType.QBER_REPORT, AbortReason.TIMEOUT),
        (Role.BOB, MsgType.PARITY_RSP, AbortReason.TIMEOUT),
        (Role.BOB, MsgType.KEY_CONFIRM, AbortReason.TIMEOUT),
        (Role.ALICE, MsgType.SAMPLE_BITS, AbortReason.TIMEOUT),
        (Role.ALICE, MsgType.PARITY_REQ, AbortReason.TIMEOUT),
    ], ids=lambda v: v.name.lower())
    def test_dropped_frame_fails_both_ends(self, sender, msg_type, reason):
        sa, sb = socket.socketpair()
        socks = {Role.ALICE: sa, Role.BOB: sb}
        transports = [_DroppingTransport(socks[role], 0.2, msg_type)
                      if role == sender
                      else proto.StreamTransport(socks[role], 0.2)
                      for role in (Role.ALICE, Role.BOB)]
        start = time.monotonic()
        out = run_pair(small_cfg(), transports=transports)
        elapsed = time.monotonic() - start
        assert isinstance(out[Role.ALICE], SessionFailed)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert out[Role.ALICE].reason == out[Role.BOB].reason == reason
        assert elapsed < 1.0

    def test_timeout_fails_session(self):
        ta, tb = loopback_pair(timeout_s=0.2)
        cfg = SystemConfig(block_size_pulses=5000)
        with pytest.raises(SessionFailed) as exc_info:
            run_session(Role.BOB, tb, cfg)  # nobody answers
        assert exc_info.value.reason == AbortReason.TIMEOUT
        ta.close()
        tb.close()

    def test_closed_peer_fails_session(self):
        ta, tb = loopback_pair(timeout_s=5.0)
        ta.close()
        with pytest.raises(SessionFailed) as exc_info:
            run_session(Role.ALICE, tb, SystemConfig(block_size_pulses=5000))
        assert exc_info.value.reason == AbortReason.TRANSPORT_CLOSED
        tb.close()

    def test_trickled_frame_times_out(self):
        # one byte every 0.2 s keeps each recv inside a 0.3 s timeout, but
        # the frame as a whole may not take longer than that
        sa, sb = socket.socketpair()
        receiver = proto.StreamTransport(sb, 0.3)
        data = encode_frame(Frame(MsgType.SAMPLE_INDICES, np.arange(4)))
        assert len(data) == 25
        stop = threading.Event()

        def trickle():
            for byte in data:
                sa.sendall(bytes([byte]))
                if stop.wait(0.2):
                    return

        t = threading.Thread(target=trickle)
        t.start()
        start = time.monotonic()
        try:
            with pytest.raises(SessionFailed) as exc_info:
                receiver.recv_frame()
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            t.join(timeout=5.0)
        assert not t.is_alive()
        assert exc_info.value.reason == AbortReason.TIMEOUT
        assert 0.3 <= elapsed < 0.8
        # sendall shares the socket's timeout: it is the full one again
        assert receiver.sock.gettimeout() == 0.3
        receiver.close()
        sa.close()


class TestTcpTransport:
    def test_nodelay_on_tcp_only(self):
        # Bob's back-to-back frames would otherwise wait on the peer's
        # delayed ACK; AF_UNIX has no Nagle and no TCP options to set
        ends = tcp_pair()
        for end in ends:
            assert end.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            end.close()
        ta, tb = loopback_pair(timeout_s=5.0)
        assert ta.sock.family == tb.sock.family == socket.AF_UNIX
        out = run_pair(noiseless_cfg(), transports=(ta, tb))
        assert out[Role.ALICE].key_bits.size > 0
        assert np.array_equal(out[Role.ALICE].key_bits, out[Role.BOB].key_bits)

    def test_session_matches_in_process(self):
        cfg = small_cfg()
        for block_id in range(3):
            out = run_pair(cfg, transports=tcp_pair(), block_id=block_id)
            local = distill_block(cfg, block_id, mean_drift(cfg),
                                  qber_used=None)
            for role in (Role.ALICE, Role.BOB):
                assert out[role].report == local.report, (block_id, role)
                assert np.array_equal(out[role].key_bits, local.key_bits)


class TestRoundTrips:
    # Cascade asks one PARITY_REQ per bisection depth, not per parity.
    # Blocks 0-5 of small_cfg took 18-35 requests, the end marker
    # included; the one-parity-per-request search took 137-260.
    MAX_PARITY_REQUESTS = 70
    # Bob sends the keep mask, then the bases of kept pulses only: blocks
    # 0-5 of small_cfg took 13.7-13.9 KB from Bob, 11.3 KB of it the mask;
    # announcing every pulse's basis took 24.7-24.8 KB.
    MAX_BOB_BYTES = 16_000

    def test_parity_requests_per_block_bounded(self):
        cfg = small_cfg()
        for block_id in range(6):
            sa, sb = socket.socketpair()
            alice = _TamperingTransport(sa, 5.0, MsgType.PARITY_REQ, None)
            out = run_pair(cfg, block_id=block_id,
                           transports=(alice, proto.StreamTransport(sb, 5.0)))
            requests = [f for f in alice.sent
                        if f.msg_type == MsgType.PARITY_REQ]
            assert len(requests) <= self.MAX_PARITY_REQUESTS, block_id
            # Bob sizes out_len from the parities he served
            served = sum(len(f.value[1]) for f in requests)
            assert out[Role.BOB].report.leak_bits == served > 0
            assert out[Role.ALICE].report == out[Role.BOB].report

    def test_bases_of_kept_pulses_only(self):
        cfg = small_cfg()
        for block_id in range(6):
            sa, sb = socket.socketpair()
            bob = _TamperingTransport(sb, 5.0, MsgType.BASIS_ANNOUNCE, None)
            run_pair(cfg, block_id=block_id,
                     transports=(proto.StreamTransport(sa, 5.0), bob))
            mask, basis = bob.sent[:2]
            assert mask.msg_type == MsgType.POSTSELECT_MASK
            assert basis.msg_type == MsgType.BASIS_ANNOUNCE
            n_post = reference_estimation(cfg, block_id)[1].kept_indices.size
            assert np.count_nonzero(mask.value) == n_post
            assert len(encode_frame(basis)) == 5 + math.ceil(n_post / 8)
            sent = sum(len(encode_frame(f)) for f in bob.sent)
            assert sent <= self.MAX_BOB_BYTES, block_id
