import contextlib
import hashlib
import json
import math
import socket
import struct
import threading
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import config
from cvqkdsim import postprocess as pp
from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.physics import DriftState, KeptPulses, PulseBatch
from cvqkdsim.pipeline import (
    SEED_TAG_SAMPLE,
    BlockResult,
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
    run_session,
)

from peers import (TIMEOUT_S, Peer, both_failed, peer_pair, run_pair, tcp_pair,
                   unknown_type)


def small_cfg(**kwargs) -> SystemConfig:
    # a generous sampling fraction keeps the per-block error estimate
    # usable at this reduced block size
    return SystemConfig(block_size_pulses=100_000, sample_fraction=0.2,
                        **kwargs)


def keyed_cfg() -> SystemConfig:
    # default noise and sampling, the smallest calibration frame; blocks
    # 0-2 yield 397, 424 and 254 key bits
    return SystemConfig(f_cal=0.0, block_size_pulses=100_000)


def noiseless_cfg(**kwargs) -> SystemConfig:
    return small_cfg(force_sigma_snu=1e-9, **kwargs)


def mean_drift(cfg) -> DriftState:
    return cfg.drift.mean_state()


def signal_batch(kept) -> PulseBatch:
    """A block's signal pulses as a PulseBatch: every kept pulse at its
    position, with the largest finite outcome of its bit's sign, beyond any
    threshold; every other pulse with outcome 0, below any threshold > 0."""
    n = kept.n_signal
    phase, quad, x = np.zeros(n, np.int8), np.zeros(n, np.int8), np.zeros(n)
    phase[kept.position] = kept.alice_phase_index
    quad[kept.position] = kept.bob_quadrature
    x[kept.position] = (2.0 * kept.bob_bit - 1.0) * np.finfo(float).max
    return PulseBatch(phase, quad, x)


def reference_estimation(cfg, block_id: int):
    """Sifting, post-selection and error estimation of one block by the
    reference helpers, on its signal_batch: (signal pulses, post-selected
    frame, qber, frame after disclosure)."""
    batch = signal_batch(
        simulate_quantum_exchange(cfg, block_id, mean_drift(cfg)))
    frame = pp.post_select(pp.sift(batch), cfg.x_th_snu)
    rng = np.random.default_rng(derive_seed(cfg, block_id, SEED_TAG_SAMPLE))
    qber, reduced = pp.qber_estimate(frame, cfg.sample_fraction, rng)
    return batch.count, frame, qber, reduced


class _RecordingLink(LocalLink):
    """A LocalLink that keeps every value it passes encoded as a wire
    frame."""

    def __init__(self):
        self.frames = []

    def from_bob(self, kind, make, bound=None):
        value = make()
        self.frames.append(encode_frame(Frame(MsgType[kind], value)))
        return value

    from_alice = from_bob


_frame_strategies = st.one_of(
    st.builds(lambda bits: Frame(MsgType.BASIS_ANNOUNCE,
                                 np.array(bits, dtype=np.uint8)),
              st.lists(st.integers(0, 1), min_size=8, max_size=64).map(
                  lambda xs: xs[:len(xs) - len(xs) % 8])
              .filter(lambda xs: len(xs) >= 8)),
    st.builds(lambda idx: Frame(MsgType.POSTSELECT_MASK,
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
    st.builds(lambda bits: Frame(MsgType.KEY_CONFIRM,
                                 np.array(bits, dtype=np.uint8)),
              st.lists(st.integers(0, 1), min_size=pp.CONFIRM_TAG_BITS,
                       max_size=pp.CONFIRM_TAG_BITS)),
    st.builds(lambda r: Frame(MsgType.ABORT, r),
              st.sampled_from([int(r) for r in AbortReason])),
    st.builds(lambda *values: Frame(MsgType.HELLO, proto.Hello(*values)),
              st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 64 - 1),
              st.binary(min_size=32, max_size=32),
              st.binary(min_size=32, max_size=32)),
)


# (frame, its bytes in hex: length, type, payload fields)
_PINNED_FRAMES = [
    # bits 0100 1101 pack to 0x4D, pulse 0 in the MSB
    (Frame(MsgType.BASIS_ANNOUNCE,
           np.array([0, 1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)),
     "00000001 01 4d"),
    # a count, then the kept pulses' positions
    (Frame(MsgType.POSTSELECT_MASK, np.array([0, 8, 9])),
     "00000010 02 00000003 00000000 00000008 00000009"),
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
# The kept positions' bound is (signal pulses, pulses kept).
_PERMS = pp.CascadePermutations(50, 4, 0)
_OWN_HELLO = proto._hello(SystemConfig(), 0)
_CHECKS = [
    (MsgType.BASIS_ANNOUNCE, 10, np.ones(10, np.uint8), np.ones(17, np.uint8)),
    (MsgType.POSTSELECT_MASK, (16, 2), np.array([0, 15]), np.array([0, 16])),
    (MsgType.POSTSELECT_MASK, (16, 2), np.array([0, 15]),
     np.array([0, 1, 15])),
    # a block may keep no pulse
    (MsgType.POSTSELECT_MASK, (16, 0), np.array([], np.int64),
     np.array([0])),
    (MsgType.SAMPLE_BITS, 8, np.ones(8, np.uint8), np.ones(9, np.uint8)),
    (MsgType.QBER_REPORT, None, 0.0, np.nextafter(0.0, -1.0)),
    (MsgType.QBER_REPORT, None, 1.0, np.nextafter(1.0, 2.0)),
    (MsgType.QBER_REPORT, None, 1.0, math.nan),
    (MsgType.PARITY_REQ, _PERMS, (3, np.array([0, 10]), np.array([10, 50])),
     (3, np.array([0, 10]), np.array([10, 51]))),
    (MsgType.PARITY_REQ, _PERMS, (3, np.array([0]), np.array([50])),
     (4, np.array([0]), np.array([50]))),
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
    @given(_frame_strategies)
    def test_round_trip(self, frame):
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
        # 0x03 and 0x08 are unassigned, as each end derives its sample and
        # its hash seed: a payload in the layout either type once had (one
        # sample index; a u64 seed and a u32 key length) is refused too
        for raw_type, payload in ((0x7F, ""), (0x03, "00000001 00000003"),
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
    "test_both_transports_carry_the_same_frames": [
        *_SMALL[:3], _NOISELESS[0], Session("seed1-0", SystemConfig(seed=1))],
    # Alice's own config keys block 0 at 397 bits; a Bob that draws a
    # larger sample must not lend her his sample, his key length or his key
    "test_peer_on_another_sample_fraction_fails_both_ends": [Session(
        "sample-fraction", keyed_cfg(), outcome=(_MISMATCH, "config_digest"),
        bob_cfg=replace(keyed_cfg(), sample_fraction=0.05))],
    # two equal configs, so that each end's can be told apart
    "test_alice_draws_no_kept_position": [
        _KEYED[0]._replace(bob_cfg=keyed_cfg())],
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
        # Alice answers Bob's HELLO and opening frames out of order: a
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
        # one pulse fewer than Alice's block keeps
        _fault("mask-short", Role.BOB, MsgType.POSTSELECT_MASK,
               _value(lambda v: v[:-1]), _UNEXPECTED),
        # one pulse more: those Alice's block kept, and the first it did not
        _fault("mask-extra", Role.BOB, MsgType.POSTSELECT_MASK, _value(
            lambda v: np.union1d(v, np.setdiff1d(np.arange(v.size + 1),
                                                 v)[0])), _UNEXPECTED),
        # as many positions, but not ascending or not below n_signal
        _fault("index-1e9", Role.BOB, MsgType.POSTSELECT_MASK,
               _value(lambda v: np.append(v[:-1], 10 ** 9)), _UNEXPECTED),
        _fault("indices-unsorted", Role.BOB, MsgType.POSTSELECT_MASK,
               _value(lambda v: v[::-1]), _UNEXPECTED),
        _fault("index-repeated", Role.BOB, MsgType.POSTSELECT_MASK,
               _value(lambda v: np.append(v[:1], v[:-1])), _UNEXPECTED),
        # position n_signal, one past the last signal pulse
        _fault("index-past-signal", Role.BOB, MsgType.POSTSELECT_MASK,
               _value(lambda v: np.append(v[:-1], _N_SIGNAL)), _UNEXPECTED),
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
        _dropped(Role.BOB, MsgType.POSTSELECT_MASK, _UNEXPECTED),
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
    # as many well-formed positions as Alice's block keeps, each one pulse
    # earlier: Alice checks their number and order and never reads them
    "test_moved_kept_positions_leave_the_keys_as_they_are": [Session(
        "mask-minus-1", keyed_cfg(), fault=(
            Role.BOB, MsgType.POSTSELECT_MASK, _value(lambda v: v - 1)))],
    "test_endless_parity_requests_abort_both_ends": [
        _SMALL[0]._replace(outcome=(_UNEXPECTED,))],
    "test_random_parity_answers_end_in_one_outcome": _SMALL[:1],
    "test_unreconciled_block_yields_no_key_on_every_path": [
        Session("seed1-0", SystemConfig(seed=1)),
        Session("seed1-0-tcp", SystemConfig(seed=1), pair=tcp_pair)],
    "test_nodelay_on_tcp_only": _NOISELESS[:1],
    "test_session_matches_in_process": [
        row._replace(id=f"{row.id}-tcp", pair=tcp_pair) for row in _KEYED],
    "test_transcripts_follow_each_ends_event_order": _DEFAULT[:1],
    "test_transcripts_match_pinned_digests": _DEFAULT,
    "test_reads_and_timeouts_per_session": _DEFAULT[:1],
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
    "test_another_block_id_fails_both": [Session(
        "block-1", keyed_cfg(), outcome=(_MISMATCH, "block_id"),
        bob_block_id=1)],
    "test_another_protocol_version_fails_both": [
        # an Alice whose HELLO differs only in its version: a parent peer
        # on per-block Cascade permutations, whose tags would never match
        _fault("version-1", Role.ALICE, MsgType.HELLO, _value(
            lambda h: h._replace(version=proto.PROTOCOL_VERSION - 1)),
            _MISMATCH, "version")],
    "test_alice_refuses_another_hello_from_bob": [
        # a Bob that takes Alice's HELLO but sends another block's
        _fault("block-id-1", Role.BOB, MsgType.HELLO,
               _value(lambda h: h._replace(block_id=1)), _MISMATCH,
               "block_id")],
}

_FLIP = {"sent": "received", "received": "sent"}
# Alice's events when each end refuses the other's HELLO
_REFUSED = {
    Role.BOB: [("sent", MsgType.HELLO), ("received", MsgType.ABORT)],
    Role.ALICE: [("sent", MsgType.HELLO), ("received", MsgType.HELLO),
                 ("sent", MsgType.ABORT)]}


def ends_as_expected(row: Session, ends=None):
    """The rule of every SESSIONS row, run over `ends` (row.pair's by
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
    if agrees:
        for role in Role:
            assert isinstance(out[role], BlockResult), (role, out[role])
    else:
        both_failed(out, reason)
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
    if agrees or reason is AbortReason.CONFIG_MISMATCH:
        # each end read every frame the other sent, in the same order
        assert alice.events == [(_FLIP[d], data) for d, data in bob.events]
    else:
        for end, other in (ends, ends[::-1]):
            got = [data for d, data in end.events if d == "received"]
            sent = [data for d, data in other.events if d == "sent"]
            assert got == sent[:len(got)]
    if reason is AbortReason.CONFIG_MISMATCH:
        # refused at the handshake: Alice's events are the HELLOs until one
        # end's ABORT
        kinds = [(d, data[4]) for d, data in alice.events]
        refuser = next((r for r in Role if _REFUSED[r] == kinds), None)
        assert refuser, kinds
        assert all(d in str(out[refuser]) for d in detail), out[refuser]
    if not agrees:
        return None, ends
    cfg, block_id = row.cfg, row.block_id
    local = distill_block(cfg, block_id, mean_drift(cfg))
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
            cfg, block_id, mean_drift(cfg)), link)
        assert chained.report == local.report
        hello = encode_frame(Frame(MsgType.HELLO, proto._hello(cfg, block_id)))
        assert [data for _, data in alice.events] == [hello, hello,
                                                      *link.frames]
        assert [d for d, _ in alice.events[:2]] == ["sent", "received"]
    return local, ends


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
            # the drawn set, whose positions Bob sends
            cfg, block_id = row.cfg, row.block_id
            n_sig, frame, qber, reduced = reference_estimation(cfg, block_id)
            assert local.report.p_post == (
                (reduced.kept_indices.size + reduced.disclosed_count) / n_sig)
            assert local.report.qber == local.qber_raw == qber
            kept = simulate_quantum_exchange(
                cfg, block_id, mean_drift(cfg)).position
            assert np.array_equal(kept, frame.kept_indices)
            # the sample each end draws counts among the kept pulses
            sample = pp.disclosure_sample(
                kept.size, cfg.sample_fraction, np.random.default_rng(
                    derive_seed(cfg, block_id, SEED_TAG_SAMPLE)))
            disclosed = frame.postselect_mask & ~reduced.postselect_mask
            assert np.array_equal(kept[sample], np.flatnonzero(disclosed))
            assert sample.size == reduced.disclosed_count

    test_both_transports_carry_the_same_frames = session_test
    test_peer_on_another_sample_fraction_fails_both_ends = session_test

    def test_alice_draws_no_kept_position(self, row, monkeypatch):
        # drawing the positions takes ~0.7 ms of a default block; only Bob,
        # who sends them, reads them, so Alice's block may not have them
        simulate = proto.simulate_quantum_exchange

        class NoPositions(KeptPulses):
            @property
            def position(self):
                raise AssertionError("Alice read a kept position")

        def simulate_for(end_cfg, block_id, drift):
            batch = simulate(end_cfg, block_id, drift)
            if end_cfg is not row.cfg:
                return batch
            return NoPositions(*(getattr(batch, f.name)
                                 for f in fields(batch)))

        monkeypatch.setattr(proto, "simulate_quantum_exchange", simulate_for)
        assert ends_as_expected(row)[0].key_bits.size > 0

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

    def test_moved_kept_positions_leave_the_keys_as_they_are(self, row):
        result, (_, bob) = ends_as_expected(row)
        moved = next(f.value for f in bob.sent
                     if f.msg_type == MsgType.POSTSELECT_MASK)
        assert moved.tolist() == (simulate_quantum_exchange(
            row.cfg, 0, mean_drift(row.cfg)).position - 1).tolist()
        assert result.key_bits.size > 0

    def test_endless_parity_requests_abort_both_ends(self, row, monkeypatch):
        # an Alice that asks for the same parity again and again
        def ask_forever(alice_bits, oracle, initial_block, perms):
            while True:
                oracle.parities(0, np.array([0]), np.array([perms.n]))

        # Bob serves n_kept parities, each one request, and refuses the
        # next: a count, where a wall-clock bound depends on machine speed
        served = []
        serve = pp.LocalParityOracle.parities

        def counted(oracle, pass_index, starts, ends):
            served.append(len(starts))
            return serve(oracle, pass_index, starts, ends)

        monkeypatch.setattr(pp, "cascade_reconcile", ask_forever)
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
        # process, over a socket pair and over TCP, the block keeps no key
        # and the session goes on, where it keeps 350 bits otherwise
        cfg = rows[0].cfg
        clean = distill_block(cfg, 0, mean_drift(cfg))
        assert clean.key_bits.size == 350
        reconcile = pp.cascade_reconcile

        def one_bit_wrong(alice_bits, oracle, initial_block, perms):
            bits, leak = reconcile(alice_bits, oracle, initial_block, perms)
            return bits ^ (np.arange(bits.size) == 0), leak

        monkeypatch.setattr(pp, "cascade_reconcile", one_bit_wrong)
        local = distill_block(cfg, 0, mean_drift(cfg))
        assert local.residual_errors == 1
        assert local.report == replace(clean.report, final_key_bits=0,
                                       skr_bits_per_s=0.0)
        for row in rows:
            ends_as_expected(row)

    def test_timeout_fails_session(self):
        ta, tb = peer_pair(0.2)
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

    def test_trickled_frame_times_out(self):
        # one byte every 0.2 s keeps each recv inside a 0.3 s timeout, but
        # the frame as a whole may not take longer than that
        data = encode_frame(Frame(MsgType.POSTSELECT_MASK, np.arange(4)))
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
    # default blocks 0-2 over a socket pair: Alice received 61/59/67 frames,
    # Bob's HELLO among them, in 62/60/68 reads, and Bob 60/58/66, Alice's
    # HELLO among them, in as many reads; neither end called settimeout
    # after its transport was made.  Reading header and payload apart took
    # 2 reads per frame.
    MAX_EXTRA_READS = 4

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
        # a 65533-byte POSTSELECT_MASK and 3 bytes of the next header fill
        # the first buffer to its last byte; the header's other 2 bytes
        # need room that the buffer must make before it reads again
        frames = [Frame(MsgType.POSTSELECT_MASK, np.arange(16381)),
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
        overwrite = encode_frame(Frame(MsgType.POSTSELECT_MASK,
                                       np.full(16, 2 ** 32 - 1)))
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
        data = encode_frame(Frame(MsgType.POSTSELECT_MASK,
                                  np.arange(0, 40, 3)))
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
        # a POSTSELECT_MASK header one position past what the block can
        # keep, ~4 buffers' worth, and all of that payload behind it: a
        # receiver that awaited the payload before the check would read it
        n_pulses = proto._RECV_BUFFER
        body = bytes(4 + 4 * (n_pulses + 1))
        header = struct.pack(">IB", 4 + 4 * (n_pulses + 1),
                             MsgType.POSTSELECT_MASK)
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
        _, ends = ends_as_expected(row, peer_pair(transcripts=paths))
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

    def test_reads_and_timeouts_per_session(self, row):
        # one read per received frame, but for the extra reads of Bob's
        # POSTSELECT_MASK (~100 KB, past the first buffer), and no
        # settimeout after the constructor's
        ends = peer_pair()
        for end in ends:
            end.sock = _CountingSocket(end.sock)
        ends_as_expected(row, ends)
        received = [sum(d == "received" for d, _ in e.events) for e in ends]
        assert received[0] > 50 and received[1] > 50
        alice, bob = (end.sock for end in ends)
        assert alice.reads <= received[0] + self.MAX_EXTRA_READS
        assert bob.reads <= received[1] + self.MAX_EXTRA_READS
        assert [alice.timeouts, bob.timeouts] == [0, 0]


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
        # an Alice that sends her HELLO and then reads nothing: Bob's
        # ~100 KB POSTSELECT_MASK cannot pass 4 KB buffers.  A stalled
        # peer is not a closed one, and Bob neither reads nor sends again
        timeout_s = 0.5
        alice, bob = peer_pair(timeout_s)
        for end in (alice, bob):
            for buffer in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                end.sock.setsockopt(socket.SOL_SOCKET, buffer, 4096)
        alice.send_frame(Frame(MsgType.HELLO, proto._hello(SystemConfig(), 0)))
        start = time.monotonic()
        try:
            with pytest.raises(SessionFailed) as exc_info:
                run_session(Role.BOB, bob, SystemConfig())
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
    # Bob sends the kept pulses' positions, then the bases of kept pulses
    # only, and neither the sample nor the hash seed: blocks 0-5 of
    # small_cfg took 9.0-10.8 KB from Bob, 8.4-10.2 KB of it the positions.
    # Sending the sample and the hash seed too took 11.7-12.9 KB, a keep
    # mask (11.3 KB) 13.7-13.9 KB, and every pulse's basis 24.7-24.8 KB.
    MAX_BOB_BYTES = 11_000

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
            hello, kept, basis = bob.sent[:3]
            assert hello.msg_type == MsgType.HELLO
            assert len(encode_frame(hello)) == 5 + 74
            assert kept.msg_type == MsgType.POSTSELECT_MASK
            assert basis.msg_type == MsgType.BASIS_ANNOUNCE
            n_post = reference_estimation(
                row.cfg, row.block_id)[1].kept_indices.size
            assert len(encode_frame(kept)) == 5 + 4 + 4 * n_post
            assert len(encode_frame(basis)) == 5 + math.ceil(n_post / 8)
            # the chain's frames, after the HELLO
            sent = sum(len(encode_frame(f)) for f in bob.sent[1:])
            assert sent <= self.MAX_BOB_BYTES, row.id


# what stream_fingerprint() gives under numpy 2.4.6; a numpy release whose
# block streams differ gives another, and so fails every pinned digest
PINNED_FINGERPRINT = ("b7d1c8973a800c1b94b4cf7e6bf87523"
                      "83a4d4c54d32374cad9b2faed1dd0192")


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

    @pytest.mark.parametrize("block_id", [-1, 2 ** 64])
    def test_block_id_past_the_hello_fails_before_any_frame(self, block_id):
        for role in Role:
            ends = peer_pair(0.5)
            with pytest.raises(ValueError, match=r"below 2\*\*64"):
                run_session(role, ends[0], keyed_cfg(), block_id=block_id)
            ends[1].sock.setblocking(False)
            with pytest.raises(BlockingIOError):   # no byte was sent
                ends[1].sock.recv(1)
            for end in ends:
                end.close()


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
