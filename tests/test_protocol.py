import contextlib
import hashlib
import math
import socket
import struct
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import config
from cvqkdsim import postprocess as pp
from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import PulseBatch
from cvqkdsim.pipeline import (
    SEED_TAG_SAMPLE,
    derive_seed,
    distill_block,
    model_qber,
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
    run_session,
)

from peers import (TIMEOUT_S, Peer, Session, ends_as_expected, peer_pair,
                   socket_pair, step_pair, tcp_pair, unknown_type)


def small_cfg(**kwargs) -> SystemConfig:
    # a generous sampling fraction keeps the per-block error estimate
    # usable at this reduced block size
    return SystemConfig(block_size_pulses=100_000, sample_fraction=0.2,
                        **kwargs)


def keyed_cfg() -> SystemConfig:
    # default noise and sampling, the smallest calibration frame; blocks
    # 0-2 yield 191, 196 and 109 key bits
    return SystemConfig(f_cal=0.0, block_size_pulses=100_000)


def noiseless_cfg(**kwargs) -> SystemConfig:
    return small_cfg(force_sigma_snu=1e-9, **kwargs)


def signal_batch(kept) -> PulseBatch:
    """A block's signal pulses as a PulseBatch: the kept pulses first, in
    their order, each with the largest finite outcome of its bit's sign,
    beyond any threshold; every other pulse with outcome 0, below any
    threshold > 0.  No stage reads a kept pulse's position, so any
    ascending set would do."""
    n, k = kept.n_signal, kept.bob_bit.size
    phase, quad, x = np.zeros(n, np.int8), np.zeros(n, np.int8), np.zeros(n)
    phase[:k] = kept.alice_phase_index
    quad[:k] = kept.bob_quadrature
    x[:k] = (2.0 * kept.bob_bit - 1.0) * np.finfo(float).max
    return PulseBatch(phase, quad, x)


def reference_estimation(cfg, block_id: int):
    """Sifting, post-selection and error estimation of one block by the
    reference helpers, on its signal_batch: (signal pulses, post-selected
    frame, qber, frame after disclosure)."""
    batch = signal_batch(
        simulate_quantum_exchange(cfg, block_id, cfg.drift.mean_state()))
    frame = pp.post_select(pp.sift(batch), cfg.x_th_snu)
    rng = np.random.default_rng(derive_seed(cfg, block_id, SEED_TAG_SAMPLE))
    qber, reduced = pp.qber_estimate(frame, cfg.sample_fraction, rng)
    return batch.count, frame, qber, reduced


def _array(elements, dtype, min_size=0, max_size=64, unique=False):
    """A strategy for a numpy array of `elements`."""
    return st.lists(elements, min_size=min_size, max_size=max_size,
                    unique=unique).map(lambda xs: np.array(xs, dtype=dtype))


_BITS = st.integers(0, 1)
_U32 = st.integers(0, 2 ** 32 - 1)
# a strategy for the values of each MsgType
_FRAME_VALUES = {
    MsgType.BASIS_ANNOUNCE: _array(_BITS, np.uint8),
    MsgType.SAMPLE_BITS: _array(_BITS, np.uint8),
    MsgType.QBER_REPORT: st.floats(min_value=0.0, max_value=0.5),
    MsgType.PARITY_REQ: st.tuples(_U32, _array(_U32, np.int64, max_size=16),
                                  _array(_U32, np.int64, max_size=16)),
    MsgType.PARITY_RSP: _array(_BITS, np.uint8),
    MsgType.KEY_CONFIRM: _array(_BITS, np.uint8,
                                min_size=pp.CONFIRM_TAG_BITS,
                                max_size=pp.CONFIRM_TAG_BITS),
    MsgType.ABORT: st.sampled_from([int(r) for r in AbortReason]),
    MsgType.HELLO: st.builds(proto.Hello, st.integers(0, 2 ** 16 - 1),
                             st.integers(0, 2 ** 64 - 1),
                             st.binary(min_size=32, max_size=32),
                             st.binary(min_size=32, max_size=32)),
}


# (frame, its bytes in hex: length, type, payload fields)
_PINNED_FRAMES = [
    # bits 0100 1101 pack to 0x4D, pulse 0 in the MSB
    (Frame(MsgType.BASIS_ANNOUNCE,
           np.array([0, 1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)),
     "00000001 01 4d"),
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
    # the 32 tag bits, packed
    (Frame(MsgType.KEY_CONFIRM, np.unpackbits(np.array(
        [0x3f, 0x88, 0x7d, 0xc8], dtype=np.uint8))),
     "00000004 09 3f887dc8"),
    (Frame(MsgType.ABORT, AbortReason.TIMEOUT), "00000002 0a 0003"),
    # version 1, block 7, then the config digest and the stream fingerprint
    (Frame(MsgType.HELLO, proto.Hello(1, 7, bytes(range(32)),
                                      bytes(range(32, 64)))),
     "0000004a 0b 0001 0000000000000007 " + bytes(range(64)).hex()),
]

# (type, the bound the receiver gives it, a value at that bound, one just
# past it), for every type a session receives.  A bit field arrives
# padded to whole bytes, so the first bit count past a bound of 10 is 17.
# A parity request's bound is (permutations, parities Bob has served).
_PERMS = pp.CascadePermutations(50, 4, 0)
_OWN_HELLO = proto._hello(SystemConfig(), 0)
_CHECKS = [
    (MsgType.BASIS_ANNOUNCE, 10, np.ones(10, np.uint8), np.ones(17, np.uint8)),
    (MsgType.SAMPLE_BITS, 8, np.ones(8, np.uint8), np.ones(9, np.uint8)),
    (MsgType.QBER_REPORT, None, 0.0, np.nextafter(0.0, -1.0)),
    (MsgType.QBER_REPORT, None, 1.0, np.nextafter(1.0, 2.0)),
    (MsgType.QBER_REPORT, None, 1.0, math.nan),
    (MsgType.PARITY_REQ, (_PERMS, 0),
     (3, np.array([0, 10]), np.array([10, 50])),
     (3, np.array([0, 10]), np.array([10, 51]))),
    (MsgType.PARITY_REQ, (_PERMS, 49), (3, np.array([0]), np.array([50])),
     (4, np.array([0]), np.array([50]))),
    # once n parities are out, only the empty request that ends Cascade
    (MsgType.PARITY_REQ, (_PERMS, _PERMS.n),
     (0, np.array([], np.int64), np.array([], np.int64)),
     (0, np.array([0]), np.array([50]))),
    (MsgType.PARITY_RSP, 3, np.ones(3, np.uint8), np.ones(9, np.uint8)),
    (MsgType.KEY_CONFIRM, pp.CONFIRM_TAG_BITS,
     np.ones(pp.CONFIRM_TAG_BITS, np.uint8),
     np.ones(pp.CONFIRM_TAG_BITS + 1, np.uint8)),
    # this end's own HELLO is the bound; a 33-byte digest is refused at
    # the header, another block at the check
    (MsgType.HELLO, _OWN_HELLO, _OWN_HELLO,
     _OWN_HELLO._replace(config_digest=_OWN_HELLO.config_digest + b"\0")),
    (MsgType.HELLO, _OWN_HELLO, _OWN_HELLO, _OWN_HELLO._replace(block_id=1)),
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
    @given(st.sampled_from(list(_FRAME_VALUES)).flatmap(
        lambda t: _FRAME_VALUES[t].map(lambda value: Frame(t, value))))
    def test_round_trip(self, frame):
        # a type cannot ship without a strategy here
        assert set(_FRAME_VALUES) == set(MsgType)
        data = encode_frame(frame)
        assert encode_frame(decode_frame(data)) == data

    def test_pinned_frames(self):
        # one frame per MsgType, with the bytes the layout fixes
        assert [f.msg_type for f, _ in _PINNED_FRAMES] == list(MsgType)
        for frame, data in _PINNED_FRAMES:
            data = bytes.fromhex(data)
            assert encode_frame(frame) == data, frame.msg_type.name
            assert encode_frame(decode_frame(data)) == data

    def test_decode_rejects_unknown_type(self):
        # 0x02, 0x03 and 0x08 are unassigned, as each end draws its kept
        # pulses, its sample and its hash seed: a payload in the layout
        # each type once had (a count of kept positions, then the
        # positions; one sample index; a u64 seed and a u32 key length) is
        # refused too
        for raw_type, payload in ((0x7F, ""),
                                  (0x02, "00000002 00000000 00000008"),
                                  (0x03, "00000001 00000003"),
                                  (0x08, "0102030405060708 0a0b0c0d")):
            payload = bytes.fromhex(payload)
            with pytest.raises(FrameDecodeError):
                decode_frame(struct.pack(">IB", len(payload), raw_type)
                             + payload)

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
        # a tag is 4 bytes; a 32-byte SHA-256 digest is refused too
        for tag in (np.ones(33, np.uint8), np.ones(256, np.uint8)):
            with pytest.raises(ProtocolError):
                encode_frame(Frame(MsgType.KEY_CONFIRM, tag))

    def test_each_check_takes_its_bound_and_refuses_past_it(self):
        # a type a session receives cannot ship without a check here;
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


def _value(change):
    """A rewrite that sends `change(value)` under the frame's own type."""
    return lambda f: encode_frame(replace(f, value=change(f.value)))


def _header(length, payload=b""):
    """A rewrite that sends a header claiming `length` payload bytes under
    the frame's own type, then `payload`."""
    return lambda f: struct.pack(">IB", length, f.msg_type) + payload


def _changed(cfg, key, hint, value):
    """`cfg` with `key` changed as little as its type allows: a flag
    flipped, an integer one up, a float one ulp up, an unset float set."""
    if value is None:
        new = 1.0
    elif hint is bool:
        new = not value
    elif hint is int:
        new = value + 1
    else:
        new = math.nextafter(value, math.inf)
    return config._replace(cfg, {key: new})


def _fault(row_id, sender, msg_type, rewrite, *outcome):
    """The row of a single-frame fault on small_cfg block 0."""
    return Session(row_id, small_cfg(), outcome=outcome,
                   fault=(sender, msg_type, rewrite))


def _dropped(sender, msg_type, reason):
    """The row that drops `sender`'s first `msg_type` frame."""
    return _fault(f"{sender.value}-{msg_type.name}-{reason.name}".lower(),
                  sender, msg_type, lambda f: b"", reason)


_N_SIGNAL = small_cfg().block_size_pulses - small_cfg().calibration_pulses
_UNEXPECTED = AbortReason.UNEXPECTED_MESSAGE
_MISMATCH = AbortReason.CONFIG_MISMATCH
_SMALL = [Session(f"small-{b}", small_cfg(), b) for b in range(6)]
_KEYED = [Session(f"keyed-{b}", keyed_cfg(), b) for b in range(3)]
_DEFAULT = [Session(f"default-{b}", SystemConfig(), b) for b in range(3)]
_NOISELESS = [Session(f"noiseless-{b}", noiseless_cfg(), b) for b in range(3)]
_BLOCK_1 = Session("block-1", keyed_cfg(), outcome=(_MISMATCH, "block_id"),
                   bob_block_id=1)
# a Bob that takes Alice's HELLO but sends another block's
_BOB_HELLO_BLOCK_1 = _fault("block-id-1", Role.BOB, MsgType.HELLO,
                            _value(lambda h: h._replace(block_id=1)),
                            _MISMATCH, "block_id")
# how many pulses small_cfg block 0 keeps at each threshold
_KEEPS = {40.0: 0, 4.84: 1, 4.72: 2}

# Every two-end session of the suite, by the test that runs it: a test
# that takes `row` runs once per row, one that takes `rows` gets them all.
# ends_as_expected is the rule every row holds to.
SESSIONS = {
    "test_noiseless_keys_identical_and_qber_zero": _NOISELESS[:1],
    "test_default_noise_keys_identical": _KEYED[:1],
    "test_report_counts_are_python_ints": _KEYED[1:2],
    "test_matches_in_process_distillation": [
        _SMALL[0], _SMALL[1], _SMALL[4], _NOISELESS[2], _KEYED[0]],
    # its ~50-bit sample shows no error
    "test_error_free_sample_is_sized_at_the_model_rate": _KEYED[2:3],
    "test_both_transports_carry_the_same_frames": [
        *_SMALL[:3], _NOISELESS[0], Session("seed1-0", SystemConfig(seed=1))],
    "test_every_sent_value_crosses_one_carry": [_KEYED[0], _BLOCK_1],
    # Alice's own config keys block 0 at 191 bits; a Bob that draws a
    # larger sample must not lend her his sample, his key length or his key
    "test_peer_on_another_sample_fraction_fails_both_ends": [Session(
        "sample-fraction", keyed_cfg(), outcome=(_MISMATCH, "config_digest"),
        bob_cfg=replace(keyed_cfg(), sample_fraction=0.05))],
    "test_blocks_differ_by_id": _NOISELESS[:2],
    "test_too_few_kept_pulses_yield_no_key": [
        Session(f"{_KEEPS[x_th]}-{fraction}", replace(
            small_cfg(), x_th_snu=x_th, sample_fraction=fraction))
        for x_th, fraction in ((40.0, 0.2), (4.84, 0.2), (4.72, 0.2),
                               (4.72, 0.9))],
    "test_transcripts_deterministic": _SMALL[:1],
    "test_corrupted_frame_fails_both_ends_matching_reason": [
        # Alice's first frame, her HELLO, goes out under an unknown type
        _fault("hello-unknown-type", Role.ALICE, MsgType.HELLO, unknown_type,
               AbortReason.DECODE_ERROR)],
    "test_unexpected_message_aborts_peer": [
        # Alice answers Bob's HELLO and BASIS_ANNOUNCE out of order: a
        # QBER_REPORT in place of her SAMPLE_BITS
        _fault("qber-report-for-sample-bits", Role.ALICE, MsgType.SAMPLE_BITS,
               lambda f: encode_frame(Frame(MsgType.QBER_REPORT, 0.1)),
               _UNEXPECTED)],
    "test_out_of_range_field_aborts_both_ends": [
        _fault("basis-short", Role.BOB, MsgType.BASIS_ANNOUNCE,
               _value(lambda v: v[:-8]), _UNEXPECTED),
        # the right bases, with the padding of the partial last byte set to
        # 1s (block 0 keeps 2319 pulses, so 1 padding bit)
        _fault("basis-padded-1s", Role.BOB, MsgType.BASIS_ANNOUNCE, _value(
            lambda v: np.append(v, np.ones(-v.size % 8, np.uint8))),
            _UNEXPECTED),
        _fault("sample-bits-8", Role.ALICE, MsgType.SAMPLE_BITS,
               _value(lambda v: v[:8]), _UNEXPECTED),
        _fault("qber-nan", Role.BOB, MsgType.QBER_REPORT,
               _value(lambda v: math.nan), _UNEXPECTED),
        # (pass, starts, ends): the first request asks for pass 0's
        # top-level parities, whose last range ends at the kept bit count
        _fault("parity-pass-50", Role.ALICE, MsgType.PARITY_REQ,
               _value(lambda v: (50, v[1], v[2])), _UNEXPECTED),
        _fault("parity-empty", Role.ALICE, MsgType.PARITY_REQ,
               _value(lambda v: (v[0], v[1], v[1])), _UNEXPECTED),
        _fault("parity-end-past-n", Role.ALICE, MsgType.PARITY_REQ, _value(
            lambda v: (v[0], v[1], np.append(v[2][:-1], v[2][-1] + 1))),
            _UNEXPECTED),
        _fault("parity-start-past-end", Role.ALICE, MsgType.PARITY_REQ,
               _value(lambda v: (v[0], v[2], v[1])), _UNEXPECTED),
        _fault("parity-arrays-unequal", Role.ALICE, MsgType.PARITY_REQ,
               _value(lambda v: (v[0], v[1], v[2][:-1])), _UNEXPECTED),
        _fault("parity-rsp-count", Role.BOB, MsgType.PARITY_RSP, _value(
            lambda v: np.append(v, np.zeros(8, np.uint8))), _UNEXPECTED)],
    "test_oversized_length_header_aborts_both_ends": [
        # a bare header claiming 64 MiB
        _fault("sample-bits", Role.ALICE, MsgType.SAMPLE_BITS,
               _header(2 ** 26), AbortReason.DECODE_ERROR),
        _fault("qber-report", Role.BOB, MsgType.QBER_REPORT,
               _header(2 ** 26), AbortReason.DECODE_ERROR),
        # a whole 32-byte SHA-256 digest where a 4-byte tag belongs
        _fault("key-confirm-digest", Role.BOB, MsgType.KEY_CONFIRM,
               _header(32, bytes(range(32))), AbortReason.DECODE_ERROR)],
    "test_dropped_frame_fails_both_ends": [
        # the next frame arrives in the dropped one's place
        _dropped(Role.BOB, MsgType.HELLO, _UNEXPECTED),
        # both ends wait on each other
        _dropped(Role.ALICE, MsgType.HELLO, AbortReason.TIMEOUT),
        _dropped(Role.BOB, MsgType.BASIS_ANNOUNCE, AbortReason.TIMEOUT),
        _dropped(Role.BOB, MsgType.QBER_REPORT, AbortReason.TIMEOUT),
        _dropped(Role.BOB, MsgType.PARITY_RSP, AbortReason.TIMEOUT),
        _dropped(Role.BOB, MsgType.KEY_CONFIRM, AbortReason.TIMEOUT),
        _dropped(Role.ALICE, MsgType.SAMPLE_BITS, AbortReason.TIMEOUT),
        _dropped(Role.ALICE, MsgType.PARITY_REQ, AbortReason.TIMEOUT)],
    # a zero-variance calibration frame: each end finds it alike
    "test_degenerate_calibration_fails_both_ends": [Session(
        "sigma-0", small_cfg(force_sigma_snu=0.0),
        outcome=(AbortReason.CALIBRATION_FAILED,))],
    "test_endless_parity_requests_abort_both_ends": [
        _SMALL[0]._replace(outcome=(_UNEXPECTED,))],
    "test_random_parity_answers_end_in_one_outcome": _SMALL[:1],
    "test_unreconciled_block_yields_no_key_on_every_path": [
        Session("seed1-0", SystemConfig(seed=1)),
        Session("seed1-0-tcp", SystemConfig(seed=1), pair=tcp_pair)],
    "test_nodelay_on_tcp_only": [_NOISELESS[0]._replace(pair=socket_pair)],
    "test_session_matches_in_process": [
        row._replace(id=f"{row.id}-tcp", pair=tcp_pair) for row in _KEYED],
    "test_transcripts_follow_each_ends_event_order": _DEFAULT[:1],
    "test_transcripts_match_pinned_digests": [
        row._replace(pair=socket_pair) for row in _DEFAULT],
    # at x_th_snu = 0.5 a default block keeps 635,811 pulses, so its
    # 79.5 KB BASIS_ANNOUNCE outgrows the first receive buffer
    "test_reads_and_timeouts_per_session": [
        _DEFAULT[0], Session("x-th-0.5", SystemConfig(x_th_snu=0.5))],
    "test_stalling_peer_cannot_hold_a_block": [
        _DEFAULT[1]._replace(outcome=(AbortReason.TIMEOUT,))],
    "test_parity_requests_per_block_bounded": _SMALL,
    "test_bases_of_kept_pulses_only": _SMALL,
    # a key that no block reads (qber_smoothing), or a change that moves no
    # derived value (an f_cal one ulp up), is refused all the same
    "test_each_config_key_on_one_end_fails_both": [
        Session(key, keyed_cfg(), outcome=(_MISMATCH, "config_digest"),
                bob_cfg=_changed(keyed_cfg(), key, hint, value))
        for key, hint, value in config._walk(keyed_cfg())],
    "test_another_block_id_fails_both": [_BLOCK_1],
    "test_another_protocol_version_fails_both": [
        # an Alice whose HELLO differs only in its version: a parent peer,
        # which waits for the kept positions that no end sends any more
        _fault("version-1", Role.ALICE, MsgType.HELLO, _value(
            lambda h: h._replace(version=proto.PROTOCOL_VERSION - 1)),
            _MISMATCH, "version")],
    "test_alice_refuses_another_hello_from_bob": [_BOB_HELLO_BLOCK_1],
    "test_late_abort_finds_bobs_opening_frames_sent": [_BOB_HELLO_BLOCK_1],
    "test_early_abort_fails_bobs_opening_send": [_BOB_HELLO_BLOCK_1],
}

def pytest_generate_tests(metafunc):
    """A test that takes `row` runs on each of its SESSIONS rows, by row id
    if it has more than one."""
    rows = SESSIONS.get(metafunc.definition.originalname, ())
    if "row" in metafunc.fixturenames and len(rows) > 1:
        metafunc.parametrize("row", rows, ids=lambda row: row.id)


@pytest.fixture
def row(request):
    """The test's one SESSIONS row."""
    (row,) = SESSIONS[request.node.originalname]
    return row


@pytest.fixture
def rows(request):
    """The test's SESSIONS rows."""
    return SESSIONS[request.node.originalname]


def session_test(self, row):
    """A test that is its SESSIONS rows: ends_as_expected on each."""
    ends_as_expected(row)


class TestSession:
    def test_noiseless_keys_identical_and_qber_zero(self, row):
        result = ends_as_expected(row)[0]
        assert result.report.qber == 0.0
        assert result.key_bits.size > 0

    def test_default_noise_keys_identical(self, row):
        # every default-noise block of small_cfg yields a 0-bit key
        assert ends_as_expected(row)[0].key_bits.size > 0

    def test_report_counts_are_python_ints(self, row):
        # ends_as_expected checks the types of every agreeing row; this
        # one keys, so no count is a 0 that a shortcut returned
        assert ends_as_expected(row)[0].report.final_key_bits > 0

    def test_matches_in_process_distillation(self, rows):
        for row in rows:
            local, _ = ends_as_expected(row)
            # the chain's estimation step against the reference helpers;
            # the threshold applied to signal_batch's outcomes keeps exactly
            # the drawn pulses, where signal_batch put them
            cfg, block_id = row.cfg, row.block_id
            n_sig, frame, qber, reduced = reference_estimation(cfg, block_id)
            assert local.report.p_post == (
                (reduced.kept_indices.size + reduced.disclosed_count) / n_sig)
            assert local.qber_raw == qber
            # with no pooled estimate, the key is sized at the model rate
            # when the sample shows fewer errors
            assert local.report.qber == max(qber, model_qber(cfg))
            kept = np.arange(simulate_quantum_exchange(
                cfg, block_id, cfg.drift.mean_state()).bob_bit.size)
            assert np.array_equal(kept, frame.kept_indices)
            # the sample each end draws counts among the kept pulses
            sample = pp.disclosure_sample(
                kept.size, cfg.sample_fraction, np.random.default_rng(
                    derive_seed(cfg, block_id, SEED_TAG_SAMPLE)))
            disclosed = frame.postselect_mask & ~reduced.postselect_mask
            assert np.array_equal(kept[sample], np.flatnonzero(disclosed))
            assert sample.size == reduced.disclosed_count

    def test_error_free_sample_is_sized_at_the_model_rate(self, row):
        # both ends size the key as a runner whose pooled estimate is the
        # model rate would, not as if the block had no error
        local = ends_as_expected(row)[0]
        cfg = row.cfg
        assert local.qber_raw == 0.0 < model_qber(cfg) == local.report.qber
        pooled = distill_block(cfg, row.block_id, cfg.drift.mean_state(),
                               qber_used=model_qber(cfg))
        assert local.report == pooled.report
        assert np.array_equal(local.key_bits, pooled.key_bits)
        assert local.key_bits.size > 0

    test_both_transports_carry_the_same_frames = session_test
    test_peer_on_another_sample_fraction_fails_both_ends = session_test

    def test_every_sent_value_crosses_one_carry(self, rows, monkeypatch):
        # an end sends every value through WireLink.carry, the HELLOs
        # included; only the ABORT that ends a session goes around it
        carry, carried = proto.WireLink.carry, []

        def recorded(link, sender, kind, make, bound=None):
            value = carry(link, sender, kind, make, bound)
            if getattr(link, sender):
                carried.append((link.transport, encode_frame(
                    Frame(MsgType[kind], value))))
            return value

        monkeypatch.setattr(proto.WireLink, "carry", recorded)
        for row in rows:
            carried.clear()
            for end in ends_as_expected(row)[1]:
                sent = [data for d, data in end.events
                        if d == "sent" and data[4] != MsgType.ABORT]
                assert sent == [data for t, data in carried if t is end], (
                    row.id)

    def test_blocks_differ_by_id(self, rows):
        a, b = (ends_as_expected(row)[0].key_bits for row in rows)
        assert a.size > 0
        assert b.size > 0
        assert not np.array_equal(a, b)

    def test_too_few_kept_pulses_yield_no_key(self, row):
        # with one kept pulse, or a sample that takes all of them, no bit
        # is left for Cascade; with none, there is nothing to sample
        report = ends_as_expected(row)[0].report
        assert report.final_key_bits == 0
        assert report.skr_bits_per_s == 0.0
        assert report.p_post == _KEEPS[row.cfg.x_th_snu] / _N_SIGNAL

    def test_transcripts_deterministic(self, row):
        # a transcript records its end's events
        events = [[end.events for end in ends_as_expected(row)[1]]
                  for _ in range(2)]
        assert events[0] == events[1]


class TestFaultInjection:
    test_corrupted_frame_fails_both_ends_matching_reason = session_test
    test_unexpected_message_aborts_peer = session_test
    test_out_of_range_field_aborts_both_ends = session_test
    test_oversized_length_header_aborts_both_ends = session_test
    test_dropped_frame_fails_both_ends = session_test
    test_degenerate_calibration_fails_both_ends = session_test

    def test_endless_parity_requests_abort_both_ends(self, row, monkeypatch):
        # an Alice that asks for the same parity again and again
        def ask_forever(alice_bits, initial_block, perms):
            while True:
                yield 0, [0], [perms.n]

        # Bob serves n_kept parities, each one request, and refuses the
        # next: a count, where a wall-clock bound depends on machine speed
        served = []
        serve = pp.LocalParityOracle.parities

        def counted(oracle, pass_index, starts, ends):
            served.append(len(starts))
            return serve(oracle, pass_index, starts, ends)

        monkeypatch.setattr(pp, "cascade_steps", ask_forever)
        monkeypatch.setattr(pp.LocalParityOracle, "parities", counted)
        ends_as_expected(row)
        assert sum(served) == reference_estimation(
            row.cfg, 0)[3].kept_indices.size

    def test_random_parity_answers_end_in_one_outcome(self, row, monkeypatch):
        # a Bob whose parities are drawn from each request, so that they
        # come from no one string: the tags differ, and both ends, as the
        # chain in process, return a 0-bit key
        def random_parities(oracle, pass_index, starts, ends):
            oracle.query_count += len(starts)
            rng = np.random.default_rng([pass_index, *starts, *ends])
            return rng.integers(0, 2, len(starts), dtype=np.uint8)

        monkeypatch.setattr(pp.LocalParityOracle, "parities", random_parities)
        assert ends_as_expected(row)[0].report.final_key_bits == 0

    def test_unreconciled_block_yields_no_key_on_every_path(self, rows,
                                                            monkeypatch):
        # a Cascade that leaves one bit of Alice's string wrong: in
        # process, on the one-thread driver and over TCP, the block keeps
        # no key and the session goes on, where it keeps 350 bits otherwise
        cfg = rows[0].cfg
        clean = distill_block(cfg, 0, cfg.drift.mean_state())
        assert clean.key_bits.size == 350
        steps = pp.cascade_steps

        def one_bit_wrong(alice_bits, initial_block, perms):
            bits, leak = yield from steps(alice_bits, initial_block, perms)
            return bits ^ (np.arange(bits.size) == 0), leak

        monkeypatch.setattr(pp, "cascade_steps", one_bit_wrong)
        local = distill_block(cfg, 0, cfg.drift.mean_state())
        assert local.residual_errors == 1
        assert local.report == replace(clean.report, final_key_bits=0,
                                       skr_bits_per_s=0.0)
        for row in rows:
            ends_as_expected(row)

    def test_lost_last_frame_fails_bob_alone(self):
        # the one exception the protocol docstring names: Alice's
        # KEY_CONFIRM, the session's last frame, is lost.  She returns her
        # key, and Bob, still waiting for it, finds her end closed
        cfg = keyed_cfg()
        alice, bob = ends = peer_pair(TIMEOUT_S, Role.ALICE,
                                      MsgType.KEY_CONFIRM, lambda f: b"")
        out = step_pair(cfg, ends)
        local = distill_block(cfg, 0, cfg.drift.mean_state())
        assert local.key_bits.size > 0
        assert out[Role.ALICE].report == local.report
        assert np.array_equal(out[Role.ALICE].key_bits, local.key_bits)
        assert isinstance(out[Role.BOB], SessionFailed)
        assert out[Role.BOB].reason is AbortReason.TRANSPORT_CLOSED
        # Bob received every frame Alice sent but the lost one
        sent = [data for d, data in alice.events if d == "sent"]
        assert [data for d, data in bob.events if d == "received"] == sent
        assert alice.fault_at is not None
        assert MsgType.KEY_CONFIRM not in [f.msg_type for f in alice.sent]

    def test_timeout_fails_session(self):
        ta, tb = socket_pair(0.2)
        cfg = SystemConfig(block_size_pulses=5000)
        with pytest.raises(SessionFailed) as exc_info:
            run_session(Role.BOB, tb, cfg)  # nobody answers
        assert exc_info.value.reason == AbortReason.TIMEOUT
        # the transport's detail is passed on, not its whole message
        assert str(exc_info.value).count("session failed") == 1
        ta.close()
        tb.close()

    def test_closed_peer_fails_session(self):
        ta, tb = peer_pair()
        ta.close()
        with pytest.raises(SessionFailed) as exc_info:
            run_session(Role.ALICE, tb, SystemConfig(block_size_pulses=5000))
        assert exc_info.value.reason == AbortReason.TRANSPORT_CLOSED
        assert str(exc_info.value).count("session failed") == 1
        tb.close()
        # a peer that resets the connection (SO_LINGER 0 sends RST on
        # close): no bare ConnectionResetError, which the CLI would report
        # as a configuration error
        for read in (lambda bob: bob.recv_frame(),
                     lambda bob: run_session(Role.BOB, bob, SystemConfig(
                         block_size_pulses=5000))):
            alice, bob = tcp_pair()
            alice.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                  struct.pack("ii", 1, 0))
            alice.close()
            with pytest.raises(SessionFailed) as exc_info:
                read(bob)
            bob.close()
            assert exc_info.value.reason == AbortReason.TRANSPORT_CLOSED
            assert "reset" in exc_info.value.detail

    def test_trickled_frame_times_out(self):
        # one byte every 0.2 s keeps each recv inside a 0.3 s timeout, but
        # the frame as a whole may not take longer than that
        data = encode_frame(Frame(MsgType.PARITY_REQ, (0, [0], [1])))
        assert len(data) == 25
        stop = threading.Event()
        with receiving_pair(0.3) as (sa, receiver):
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
        # the socket keeps the timeout its constructor set, which sendall
        # shares: no read re-arms it
        assert receiver.sock.timeouts == 0


class TestTcpTransport:
    def test_nodelay_on_tcp_only(self, row):
        # Bob's back-to-back frames would otherwise wait on the peer's
        # delayed ACK; AF_UNIX has no Nagle and no TCP options to set
        ends = tcp_pair()
        for end in ends:
            assert end.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            end.close()
        result, ends = ends_as_expected(row)
        assert [end.sock.family for end in ends] == [socket.AF_UNIX] * 2
        assert result.key_bits.size > 0

    def test_session_matches_in_process(self, rows):
        for row in rows:
            result, _ = ends_as_expected(row)
            assert result.key_bits.size > 0, row.id


class _CountingSocket:
    """A socket that counts its reads, the bytes they return and its
    settimeout calls, and passes everything else through."""

    def __init__(self, sock):
        self._sock = sock
        self.reads = self.bytes_read = self.timeouts = 0

    def recv_into(self, buf, *args):
        self.reads += 1
        got = self._sock.recv_into(buf, *args)
        self.bytes_read += got
        return got

    def settimeout(self, value):
        self.timeouts += 1
        self._sock.settimeout(value)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def receiving_pair(timeout_s=TIMEOUT_S):
    """(a socket, a StreamTransport that receives what it sends, counting
    its socket calls after the constructor), both closed on exit."""
    sa, sb = socket.socketpair()
    receiver = proto.StreamTransport(sb, timeout_s)
    receiver.sock = _CountingSocket(sb)
    try:
        yield sa, receiver
    finally:
        receiver.close()
        sa.close()


# sha256sum lines for the transcripts of run_session blocks 0-2 on
# SystemConfig(), which both ends record alike; CI checks run-link's
# transcripts against block 0's line
PINNED_TRANSCRIPTS = Path(__file__).with_name("transcript_outputs.sha256")


class TestReceivePath:
    # default blocks 0-2 over a socket pair: each end received 60/58/66
    # frames, the peer's HELLO among them, in as many reads, or one fewer
    # where one read took two frames; neither end called settimeout after
    # its transport was made.  Reading header and payload apart took 2
    # reads per frame.
    MAX_EXTRA_READS = 1
    # A frame longer than the first buffer arrives in pieces as the peer's
    # sendall fills the socket, and may take a read per PIECE bytes of it.
    # At x_th_snu = 0.5, Alice's 79.5 KB BASIS_ANNOUNCE took 2 reads, and
    # Bob's 13 PARITY_REQs of 75-997 KB, 3.4 MB in all, 22-70 reads.
    PIECE = 1 << 14

    def test_two_frames_in_one_write_come_back_in_order(self):
        frames = [Frame(MsgType.QBER_REPORT, 0.25),
                  Frame(MsgType.PARITY_RSP, np.array([1, 0, 1], np.uint8))]
        with receiving_pair() as (sa, receiver):
            sa.sendall(b"".join(encode_frame(f) for f in frames))
            got = [receiver.recv_frame(), receiver.recv_frame()]
        assert [encode_frame(f) for f in got] == [encode_frame(f)
                                                   for f in frames]
        # the second frame was already buffered by the first read
        assert receiver.sock.reads == 1

    def test_header_cut_at_the_buffers_end_is_read_on(self):
        # a 65533-byte BASIS_ANNOUNCE and 3 bytes of the next header fill
        # the first buffer to its last byte; the header's other 2 bytes
        # need room that the buffer must make before it reads again
        frames = [Frame(MsgType.BASIS_ANNOUNCE,
                        np.arange(524_224, dtype=np.uint8) & 1),
                  Frame(MsgType.QBER_REPORT, 0.25)]
        data = [encode_frame(f) for f in frames]
        assert len(data[0]) + 3 == proto._RECV_BUFFER
        with receiving_pair() as (sa, receiver):
            sa.sendall(b"".join(data))
            got = [receiver.recv_frame(), receiver.recv_frame()]
        assert [encode_frame(f) for f in got] == data

    def test_received_values_outlive_the_next_read(self):
        # each decoded value is a copy: the next frame, read into the same
        # bytes of the buffer, leaves it as it was
        overwrite = encode_frame(Frame(MsgType.BASIS_ANNOUNCE,
                                       np.ones(1024, np.uint8)))
        with receiving_pair() as (sa, receiver):
            for frame, _ in _PINNED_FRAMES:
                sa.sendall(encode_frame(frame))
                got = receiver.recv_frame()
                sa.sendall(overwrite)
                receiver.recv_frame()
                assert encode_frame(got) == encode_frame(frame), frame.msg_type

    @pytest.mark.parametrize("sent", [0, 100_000])
    def test_buffer_grows_only_with_bytes_that_arrive(self, sent):
        # a PARITY_REQ header at a default block's bound (~8 MB) passes its
        # check; a peer that then sends little or nothing cannot make the
        # receiver hold the 8 MB it announced
        n_pulses = SystemConfig().block_size_pulses
        length = 12 + 8 * n_pulses
        with receiving_pair(0.3) as (sa, receiver):
            sa.sendall(struct.pack(">IB", length, MsgType.PARITY_REQ)
                       + bytes(sent))
            with pytest.raises(SessionFailed) as exc:
                receiver.recv_frame(n_pulses)
        assert exc.value.reason is AbortReason.TIMEOUT
        assert len(receiver._buf) <= max(proto._RECV_BUFFER, 2 * sent)

    def test_frame_in_three_byte_pieces_arrives_whole(self):
        data = encode_frame(Frame(MsgType.BASIS_ANNOUNCE,
                                  np.arange(480, dtype=np.uint8) % 3 & 1))
        with receiving_pair() as (sa, receiver):
            def trickle():
                for i in range(0, len(data), 3):
                    sa.sendall(data[i:i + 3])
                    time.sleep(0.005)

            t = threading.Thread(target=trickle)
            t.start()
            try:
                got = receiver.recv_frame()
            finally:
                t.join(timeout=5.0)
        assert not t.is_alive()
        assert encode_frame(got) == data
        assert 1 < receiver.sock.reads <= math.ceil(len(data) / 3)
        # each read waits at most the socket's timeout, which the
        # constructor set once; the frame's deadline is checked, not armed
        assert receiver.sock.timeouts == 0

    def test_oversized_header_refused_within_one_buffer(self):
        # a BASIS_ANNOUNCE header one byte past what the block's pulses
        # fill, 4 buffers' worth, and all of that payload behind it: a
        # receiver that awaited the payload before the check would read it
        n_pulses = 32 * proto._RECV_BUFFER
        body = bytes(n_pulses // 8 + 1)
        header = struct.pack(">IB", len(body), MsgType.BASIS_ANNOUNCE)
        with receiving_pair() as (sa, receiver):
            def flood():
                try:
                    sa.sendall(header + body)
                except OSError:
                    pass   # the receiver hung up first

            t = threading.Thread(target=flood)
            t.start()
            with pytest.raises(FrameDecodeError):
                receiver.recv_frame(n_pulses)
        # the receiver hung up, which ends the flood
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert 0 < receiver.sock.bytes_read <= proto._RECV_BUFFER
        assert len(receiver._buf) == proto._RECV_BUFFER

    def test_transcripts_follow_each_ends_event_order(self, row, tmp_path):
        # ends_as_expected checks the events; the files record them
        paths = (tmp_path / "alice.bin", tmp_path / "bob.bin")
        _, ends = ends_as_expected(row, socket_pair(transcripts=paths))
        for end, path in zip(ends, paths):
            assert path.read_bytes() == b"".join(d for _, d in end.events)

    def test_transcripts_match_pinned_digests(self, rows):
        # a change to the wire on purpose updates the digest file; a
        # transcript records its end's events
        pinned = dict(reversed(line.split()) for line in
                      PINNED_TRANSCRIPTS.read_text(encoding="utf-8")
                      .splitlines())
        assert list(pinned) == [f"block{b}.bin" for b in range(3)]
        for row in rows:
            for end in ends_as_expected(row)[1]:
                got = hashlib.sha256(b"".join(
                    data for _, data in end.events)).hexdigest()
                # a HELLO carries the stream fingerprint, which a numpy
                # release that draws otherwise changes (NEP 19)
                assert got == pinned[f"block{row.block_id}.bin"], (
                    f"{row.id} under numpy {np.__version__}, stream "
                    f"fingerprint {proto.stream_fingerprint().hex()}")
                if row.block_id:
                    continue
                # what block 0's pinned transcript, run-link's in CI, holds:
                # every frame decodes; Alice's and then Bob's 74-byte HELLO
                # and Bob's BASIS_ANNOUNCE open it, and Bob's and then
                # Alice's 4-byte KEY_CONFIRM tag end it (26.0 KB in all;
                # 124.0 KB while Bob sent the kept positions)
                frames = [(decode_frame(data).msg_type, len(data))
                          for _, data in end.events]
                assert frames[:2] == [(MsgType.HELLO, 79)] * 2
                assert frames[2][0] is MsgType.BASIS_ANNOUNCE
                assert frames[-2:] == [(MsgType.KEY_CONFIRM, 9)] * 2
                assert sum(size for _, size in frames) < 40_000

    def test_reads_and_timeouts_per_session(self, rows):
        # one read per received frame, but for the pieces of a frame past
        # the first buffer, and no settimeout after the constructor's; the
        # last row's BASIS_ANNOUNCE takes Alice's buffer past its first
        # size
        for row in rows:
            ends = socket_pair()
            for end in ends:
                end.sock = _CountingSocket(end.sock)
            ends_as_expected(row, ends)
            for end in ends:
                sizes = [len(data) for d, data in end.events
                         if d == "received"]
                assert len(sizes) > 50, row.id
                pieces = sum(-(-size // self.PIECE) for size in sizes
                             if size > proto._RECV_BUFFER)
                assert end.sock.reads <= (len(sizes) + pieces
                                          + self.MAX_EXTRA_READS), row.id
                assert end.sock.timeouts == 0, row.id
                # the buffer grows only for a frame past its first size
                assert (len(end._buf) > proto._RECV_BUFFER) == bool(pieces)
                assert bool(pieces) == (row is rows[-1]), row.id


class TestDeadline:
    # a block has one deadline, one timeout after its session starts; the
    # socket's own timeout is set once and bounds each read

    @pytest.mark.parametrize("staller", list(Role), ids=lambda r: r.value)
    def test_stalling_peer_cannot_hold_a_block(self, row, staller):
        # each frame half a timeout late keeps every wait inside the
        # timeout; with a deadline per frame, block 1 ran to its keys after
        # ~43 timeouts
        timeout_s = 0.5

        class Stalling(Peer):
            def send_frame(self, frame):
                time.sleep(timeout_s / 2)
                super().send_frame(frame)

        ends = dict((role, (Stalling if role is staller else Peer)(
            sock, timeout_s)) for role, sock in zip(Role, socket.socketpair()))
        ends_as_expected(row, ends.values())
        # the other end passed its deadline first, and told the staller
        assert ends[staller].events[-1] == ("received", encode_frame(
            Frame(MsgType.ABORT, AbortReason.TIMEOUT)))

    def test_send_that_times_out_ends_in_timeout(self):
        # an Alice that sends her HELLO and then reads nothing: at
        # x_th_snu = 1.0 Bob's ~50 KB BASIS_ANNOUNCE cannot pass 4 KB
        # buffers.  A stalled peer is not a closed one, and Bob neither
        # reads nor sends again
        timeout_s = 0.5
        cfg = SystemConfig(x_th_snu=1.0)
        alice, bob = socket_pair(timeout_s)
        for end in (alice, bob):
            for buffer in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                end.sock.setsockopt(socket.SOL_SOCKET, buffer, 4096)
        alice.send_frame(Frame(MsgType.HELLO, proto._hello(cfg, 0)))
        start = time.monotonic()
        try:
            with pytest.raises(SessionFailed) as exc_info:
                run_session(Role.BOB, bob, cfg)
            elapsed = time.monotonic() - start
        finally:
            alice.close()
            bob.close()
        assert exc_info.value.reason == AbortReason.TIMEOUT
        # one timeout in sendall, and no second wait
        assert elapsed < 1.5 * timeout_s
        assert [(d, data[4]) for d, data in bob.events] == [
            ("received", MsgType.HELLO), ("sent", MsgType.HELLO)]


class TestRoundTrips:
    # Cascade asks one PARITY_REQ per bisection depth, not per parity.
    # Blocks 0-5 of small_cfg took 18-35 requests, the end marker
    # included; the one-parity-per-request search took 137-260.
    MAX_PARITY_REQUESTS = 70
    # Bob sends the bases of kept pulses only, and neither their positions,
    # the sample nor the hash seed: blocks 0-5 of small_cfg took 438-546 B
    # from Bob after his HELLO.  Sending the positions too took 8.9-10.8
    # KB, the sample and the hash seed as well 11.7-12.9 KB, a keep mask
    # (11.3 KB) 13.7-13.9 KB, and every pulse's basis 24.7-24.8 KB.
    MAX_BOB_BYTES = 1_000

    def test_parity_requests_per_block_bounded(self, rows):
        for row in rows:
            result, (alice, _) = ends_as_expected(row)
            requests = [f for f in alice.sent
                        if f.msg_type == MsgType.PARITY_REQ]
            assert len(requests) <= self.MAX_PARITY_REQUESTS, row.id
            # each end sizes out_len from the parities Bob served
            served = sum(len(f.value[1]) for f in requests)
            assert result.report.leak_bits == served > 0

    def test_bases_of_kept_pulses_only(self, rows):
        for row in rows:
            _, (_, bob) = ends_as_expected(row)
            hello, basis = bob.sent[:2]
            assert hello.msg_type == MsgType.HELLO
            assert len(encode_frame(hello)) == 5 + 74
            assert basis.msg_type == MsgType.BASIS_ANNOUNCE
            n_post = reference_estimation(
                row.cfg, row.block_id)[1].kept_indices.size
            assert len(encode_frame(basis)) == 5 + math.ceil(n_post / 8)
            # the chain's frames, after the HELLO
            sent = sum(len(encode_frame(f)) for f in bob.sent[1:])
            assert sent <= self.MAX_BOB_BYTES, row.id


# what stream_fingerprint() gives under numpy 2.4.6; a numpy release whose
# block streams differ gives another, and so fails every pinned digest
PINNED_FINGERPRINT = ("66c71799ad929f0ccd5a42066c2ce361"
                      "011913d7b8ab272be00f22a24d9feca8")


class TestHandshake:
    def test_each_config_key_on_one_end_fails_both(self, rows):
        for row in rows:
            assert row.bob_cfg != row.cfg, row.id
            ends_as_expected(row)
        keys = [row.id for row in rows]
        assert "rep_rate_hz" in keys and "qber_smoothing" in keys

    test_another_block_id_fails_both = session_test
    test_another_protocol_version_fails_both = session_test
    test_alice_refuses_another_hello_from_bob = session_test

    @staticmethod
    def refused_hello(row, late: bool) -> list:
        """ends_as_expected on `row`, in which Alice refuses Bob's HELLO,
        over a socket pair: Alice's ABORT 50 ms late if `late`, or else
        Bob's opening frame held until Alice has sent it and hung up.
        Returns the types of the frames Bob sent."""
        _, msg_type, rewrite = row.fault
        closed = threading.Event()

        class Alice(Peer):
            def send_frame(self, frame):
                if late and frame.msg_type == MsgType.ABORT:
                    time.sleep(0.05)
                super().send_frame(frame)

            def close(self):
                super().close()
                closed.set()

        class Bob(Peer):
            def send_frame(self, frame):
                if not late and frame.msg_type == MsgType.BASIS_ANNOUNCE:
                    assert closed.wait(TIMEOUT_S)
                super().send_frame(frame)

        alice, bob = socket.socketpair()
        ends = (Alice(alice, TIMEOUT_S),
                Bob(bob, TIMEOUT_S, msg_type, rewrite))
        ends_as_expected(row, ends)
        # either way Bob's last read is Alice's ABORT
        assert ends[1].events[-1] == ("received", encode_frame(
            Frame(MsgType.ABORT, _MISMATCH)))
        return [data[4] for d, data in ends[1].events if d == "sent"]

    def test_late_abort_finds_bobs_opening_frames_sent(self, row):
        # Bob sends his opening frame, BASIS_ANNOUNCE, without waiting on
        # Alice's verdict on his HELLO, so an ABORT 50 ms late finds it
        # sent and unread
        assert self.refused_hello(row, late=True) == [
            MsgType.HELLO, MsgType.BASIS_ANNOUNCE]

    def test_early_abort_fails_bobs_opening_send(self, row):
        # an opening frame that meets Alice's closed end is not sent; Bob's
        # failed send reads her ABORT, which names why she hung up
        assert self.refused_hello(row, late=False) == [MsgType.HELLO]

    @pytest.mark.parametrize("block_id", [-1, 2 ** 64])
    def test_block_id_past_the_hello_fails_before_any_frame(self, block_id):
        for role in Role:
            ends = socket_pair(0.5)
            with pytest.raises(ValueError, match=r"below 2\*\*64"):
                run_session(role, ends[0], keyed_cfg(), block_id=block_id)
            ends[1].sock.setblocking(False)
            with pytest.raises(BlockingIOError):   # no byte was sent
                ends[1].sock.recv(1)
            for end in ends:
                end.close()
            # the link's own steps refuse it, whichever driver steps them
            ends = peer_pair()
            with pytest.raises(ValueError, match=r"below 2\*\*64"):
                next(proto.WireLink(role, ends[0]).steps(keyed_cfg(),
                                                         block_id))
            assert not ends[1].sock.inbox and not ends[0].events


class TestStreamFingerprint:
    def test_covers_each_generator_method_a_block_uses(self, monkeypatch):
        assert set(proto._STREAM_DRAWS) == {
            "multinomial", "chisquare", "standard_normal", "standard_gamma",
            "permutation", "choice", "SeedSequence"}
        fingerprint = proto.stream_fingerprint()
        assert proto.stream_fingerprint.__wrapped__() == fingerprint
        for name, draw in list(proto._STREAM_DRAWS.items()):
            # a numpy release whose one stream moves
            monkeypatch.setitem(proto._STREAM_DRAWS, name,
                                lambda rng, draw=draw: draw(rng) + 1)
            assert proto.stream_fingerprint.__wrapped__() != fingerprint, name
            monkeypatch.setitem(proto._STREAM_DRAWS, name, draw)

    def test_fingerprint_is_pinned(self):
        got = proto.stream_fingerprint().hex()
        assert got == PINNED_FINGERPRINT, (
            f"numpy {np.__version__} draws other streams than the pinned "
            f"ones: stream fingerprint {got}")
