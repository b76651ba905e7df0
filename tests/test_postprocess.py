import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

from cvqkdsim import postprocess as pp
from cvqkdsim.physics import PulseBatch
from cvqkdsim.quantum import binary_entropy


def make_frame(alice, bob, abs_out=None):
    alice = np.asarray(alice, dtype=np.uint8)
    bob = np.asarray(bob, dtype=np.uint8)
    if abs_out is None:
        abs_out = np.ones(alice.size)
    return pp.SiftedFrame(alice, bob, np.ones(alice.size, dtype=bool),
                          np.asarray(abs_out, dtype=float))


class TestSift:
    def test_bit_table(self):
        # Q-quadrature sign is + for phase indices {0, 3}; P for {0, 1}.
        # The per-pulse reference passes int8, the sampler and the wire
        # uint8.
        for dtype in (np.int8, np.uint8, np.intp):
            phases = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=dtype)
            quads = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=dtype)
            got = pp.sift_alice_bits(phases, quads)
            assert np.array_equal(got, [1, 0, 0, 1, 1, 1, 0, 0]), dtype
            assert got.dtype == np.uint8

    def test_bit_table_matches_geometry(self):
        # the table must agree with sign(cos(theta - phi)) of the states
        for k in range(4):
            theta = (2 * k + 1) * math.pi / 4
            for q in range(2):
                sign = math.cos(theta - q * math.pi / 2) > 0
                got = pp.sift_alice_bits(np.array([k], dtype=np.int8),
                                         np.array([q], dtype=np.int8))[0]
                assert got == int(sign)

    def test_sift_batch(self):
        outcomes = np.array([0.5, -0.2, 1.5])
        batch = PulseBatch(np.array([0, 1, 2], dtype=np.int8),
                           np.array([0, 0, 1], dtype=np.int8), outcomes)
        frame = pp.sift(batch)
        assert np.array_equal(frame.bob_bits, [1, 0, 1])
        assert np.array_equal(frame.alice_bits, [1, 0, 0])
        assert np.array_equal(frame.abs_outcomes_snu, [0.5, 0.2, 1.5])

    def test_rejects_blocked_batch(self):
        batch = PulseBatch(np.zeros(3, np.int8), np.zeros(3, np.int8),
                           np.zeros(3), blocked=True)
        with pytest.raises(ValueError):
            pp.sift(batch)


class TestPostSelect:
    def test_threshold_keeps_tails(self):
        frame = make_frame([1, 1, 0], [1, 0, 0], abs_out=[2.0, 0.5, 3.0])
        kept = pp.post_select(frame, 1.0).kept_indices
        assert np.array_equal(kept, [0, 2])

    def test_zero_threshold_keeps_all(self):
        frame = make_frame([1, 0], [1, 0], abs_out=[0.1, 0.2])
        assert pp.post_select(frame, 0.0).kept_indices.size == 2

    def test_gaussian_tail_fraction_oracle(self):
        # symmetric +-m Gaussian mixture: P(|x| >= c) known in closed form
        rng = np.random.default_rng(8)
        n = 400_000
        m, c = 0.8, 2.0
        sign = rng.integers(0, 2, n) * 2 - 1
        x = sign * m + rng.standard_normal(n)
        batch = PulseBatch(np.zeros(n, np.int8), np.zeros(n, np.int8), x)
        frame = pp.post_select(pp.sift(batch), c)
        want = norm.sf(c - m) + norm.cdf(-c - m)
        got = frame.kept_indices.size / n
        assert got == pytest.approx(want, rel=0.02)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            pp.post_select(make_frame([1], [1]), -0.5)


class TestQberEstimate:
    def test_binomial_oracle(self):
        # a frame with exactly 10% mismatches: the disclosed-sample estimate
        # is binomial; check it lands within 4 sigma of 0.1
        rng = np.random.default_rng(21)
        n = 50_000
        alice = rng.integers(0, 2, n).astype(np.uint8)
        flips = rng.random(n) < 0.1
        bob = alice ^ flips
        q, reduced = pp.qber_estimate(make_frame(alice, bob), 0.2,
                                      np.random.default_rng(5))
        m = reduced.disclosed_count
        assert m == round(0.2 * n)
        assert abs(q - 0.1) < 4.0 * math.sqrt(0.1 * 0.9 / m)

    def test_disclosed_bits_removed(self):
        frame = make_frame(np.zeros(100, np.uint8), np.zeros(100, np.uint8))
        q, reduced = pp.qber_estimate(frame, 0.25, np.random.default_rng(0))
        assert q == 0.0
        assert reduced.disclosed_count == 25
        assert reduced.kept_indices.size == 75

    def test_identical_strings_give_zero(self):
        bits = np.random.default_rng(2).integers(0, 2, 1000).astype(np.uint8)
        q, _ = pp.qber_estimate(make_frame(bits, bits), 0.1,
                                np.random.default_rng(1))
        assert q == 0.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            pp.qber_estimate(make_frame([1], [1]), 0.0,
                             np.random.default_rng(0))


class TestExpectedQber:
    def test_no_threshold_matches_phi(self):
        # P(error) = Phi(-m/sigma) without post-selection
        assert pp.expected_qber(1.0, 1.0, 0.0) == pytest.approx(
            0.15865525393145707, abs=1e-9)

    def test_monotone_decreasing_in_threshold(self):
        qs = [pp.expected_qber(0.7, 1.1, c) for c in (0.0, 0.5, 1.5, 3.0)]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_zero_mean_is_half(self):
        assert pp.expected_qber(0.0, 1.0, 1.0) == 0.5

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        m, var, c = 0.75, 1.05, 2.7
        n = 2_000_000
        x = m + math.sqrt(var) * rng.standard_normal(n)
        kept = np.abs(x) >= c
        errors = int(np.sum(x[kept] < 0))
        got = errors / int(np.sum(kept))
        # the error count is Poisson-limited; allow 4 sigma
        slack = 4.0 * math.sqrt(max(errors, 1)) / int(np.sum(kept))
        assert abs(pp.expected_qber(m, var, c) - got) < slack

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            pp.expected_qber(1.0, 0.0, 1.0)

    def test_matches_scipy_log_tails(self):
        # scipy's log tails and logistic as the oracle, wherever
        # a = (x_th + m) / sigma < 20
        rng = np.random.default_rng(21)
        for _ in range(5000):
            sig = math.sqrt(rng.uniform(0.05, 4.0))
            m = rng.uniform(0.01, 19.0) * sig
            x_th = rng.uniform(0.0, 20.0 * sig - m)
            want = special.expit(special.log_ndtr(-(x_th + m) / sig)
                                 - special.log_ndtr(-(x_th - m) / sig))
            assert pp.expected_qber(m, sig ** 2, x_th) == pytest.approx(
                min(0.5, want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m, var", [
        (0.76, 1.0), (0.76, 0.01), (0.01, 1e-6), (0.76, 1e-18)])
    def test_far_tails_finite_and_monotone(self, m, var):
        # from a = 20 out to both tails underflowing, as on a noiseless
        # config (sigma = 1e-9, a ~ 3.5e9 at x_th = 2.7): finite, and never
        # rising with the threshold
        sig = math.sqrt(var)
        x_th = np.concatenate([
            np.linspace(max(0.0, 20.0 * sig - m), 60.0 * sig, 400),
            np.geomspace(60.0 * sig, 1e10 * sig, 100)])
        qs = [pp.expected_qber(m, var, float(x)) for x in x_th]
        assert all(math.isfinite(q) and 0.0 <= q <= 0.5 for q in qs)
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("m, var", [(0.76, 1.0), (0.01, 1e-6)])
    def test_no_jump_where_the_asymptotic_form_takes_over(self, m, var):
        # at a = 37 the erfc ratio gives way to the log-space form; across
        # a 2e-6 sigma step the value falls by ~4e-6 m/sigma, relative
        sig = math.sqrt(var)
        lo, hi = (pp.expected_qber(m, var, (37.0 + d) * sig - m)
                  for d in (-1e-6, 1e-6))
        assert lo > 0.0
        assert lo * (1.0 - 1e-5 * m / sig) <= hi <= lo


def bitwise_hash(x, seed, out):
    """The multiply-add-shift hash of the bits x, bit by bit: x and the
    seed words assembled one bit at a time, a x + b by shift-and-add over
    x's bits, and each output bit read on its own: (key, tag)."""
    ell = out + pp.CONFIRM_TAG_BITS
    w = -(-len(x) // 8) * 8
    wbar = w + ell - 1
    words = -(-wbar // 64)
    gen = np.random.PCG64(seed)

    def draw():
        # words drawn one at a time, word 0 least significant, cut to wbar
        value = 0
        for i in range(words):
            word = int(gen.random_raw())
            for j in range(64):
                if 64 * i + j < wbar and word >> j & 1:
                    value |= 1 << (64 * i + j)
        return value

    a, b = draw(), draw()
    xi = 0
    for bit in list(x) + [0] * (w - len(x)):   # MSB first, zero-padded
        xi = 2 * xi + int(bit)
    acc = b
    for i in range(w):
        if xi >> i & 1:
            acc += a << i
    bits = [acc >> (wbar - 1 - k) & 1 for k in range(ell)]
    return np.array(bits[:out]), np.array(bits[out:])


def assert_hash_is(x, seed, out):
    key, tag = pp.toeplitz_hash(x, seed, out)
    want_key, want_tag = bitwise_hash(x, seed, out)
    assert np.array_equal(key, want_key), (x.size, out, seed)
    assert np.array_equal(tag, want_tag), (x.size, out, seed)


def pair_counts(w, ell, wbar):
    """For each x != x' of w bits, how often each pair of ell-bit outputs
    of ((a x + b) mod 2^wbar) >> (wbar - ell) occurs over all a, b."""
    seeds = np.arange(1 << (2 * wbar), dtype=np.int64)
    a, b = seeds >> wbar, seeds & ((1 << wbar) - 1)
    x = np.arange(1 << w, dtype=np.int64)[:, None]
    # the hash's own formula, told the width whose wbar this is
    h = pp._multiply_shift(x, a, b, wbar - ell + 1, ell)
    xs, ys = np.nonzero(~np.eye(1 << w, dtype=bool))
    joint = (h[xs] << ell) | h[ys]
    offsets = np.arange(xs.size)[:, None] << (2 * ell)
    return np.bincount((joint + offsets).ravel(),
                       minlength=xs.size << (2 * ell)).reshape(xs.size, -1)


class TestToeplitz:
    def test_pinned_vector(self):
        key, tag = pp.toeplitz_hash(np.array([1, 0, 1], dtype=np.uint8), 7, 2)
        assert np.array_equal(key, [1, 1])
        assert np.packbits(tag).tobytes().hex() == "e7bcea02"

    @pytest.mark.parametrize("w, ell", [(1, 1), (1, 5), (2, 3), (3, 3),
                                        (4, 2), (5, 1), (3, 4), (2, 4)])
    def test_strongly_universal(self, w, ell):
        # every pair x != x' takes every pair of outputs equally often over
        # all (a, b) of wbar = w + ell - 1 bits, exhaustively
        counts = pair_counts(w, ell, w + ell - 1)
        assert (counts == 1 << (2 * (w + ell - 1) - 2 * ell)).all()

    def test_one_bit_narrower_is_not(self):
        # at wbar = w + ell - 2 some pair of inputs collides more often
        counts = pair_counts(4, 3, 5)
        assert not (counts == counts[0, 0]).all()

    def test_matches_bitwise_reference(self):
        # every n <= 64, with no key, a key as long as the string, and
        # strings shorter than the tag among them
        rng = np.random.default_rng(13)
        for n in range(1, 65):
            for out in sorted({0, int(rng.integers(0, n + 1)), n}):
                seed = int(rng.integers(0, 2 ** 63))
                assert_hash_is(rng.integers(0, 2, n).astype(np.uint8),
                               seed, out)

    @pytest.mark.parametrize("n, out", [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (5, 5), (13, 13),
        (41, 41), (64, 1), (250, 1), (50, 15), (61, 60), (97, 32),
        (1000, 297)])
    def test_exact_without_padding_slack(self, n, out):
        # an out-bit key of n bits, which packing pads with up to 7 zero
        # bits, and of the string that fills its last byte, whose packing
        # pads none; all ones, and random
        rng = np.random.default_rng(n * 1000 + out)
        for size in (n, -(-n // 8) * 8):
            for x in (np.ones(size, dtype=np.uint8),
                      rng.integers(0, 2, size).astype(np.uint8)):
                for seed in (0, 1, 2024):
                    assert_hash_is(x, seed, out)

    def test_exact_at_full_block_size(self):
        # 882,000 bits are kept from a default 1e6-pulse block at
        # x_th_snu = 0 (9e5 signal pulses less the 2 % disclosed); packing
        # and unpacking must still put each bit where the integer formula
        # does, in the key bits and the tag bits alike
        n, out, t = 882_000, 441_000, pp.CONFIRM_TAG_BITS
        seed = 2024
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, n).astype(np.uint8)
        got = np.concatenate(pp.toeplitz_hash(x, seed, out))
        ell, w = out + t, n   # n is a whole number of bytes
        wbar = w + ell - 1
        words = -(-wbar // 64)
        raw = [f"{v:016x}" for v in
               np.random.PCG64(seed).random_raw(2 * words).tolist()]
        low = (1 << wbar) - 1
        a, b = (int("".join(reversed(half)), 16) & low
                for half in (raw[:words], raw[words:]))
        xi = int("".join(map(str, x.tolist())), 2)
        h = (a * xi + b) & low
        rows = np.unique(np.concatenate(
            [[0, out - 1], rng.integers(0, out, 254), out + np.arange(t)]))
        for i in rows.tolist():
            assert got[i] == h >> (wbar - 1 - i) & 1, i

    def test_output_length_and_bounds(self):
        x = np.ones(16, dtype=np.uint8)
        for out in (0, 16):
            key, tag = pp.toeplitz_hash(x, 0, out)
            assert (key.size, tag.size) == (out, pp.CONFIRM_TAG_BITS)
        for out in (-1, 17):
            with pytest.raises(ValueError):
                pp.toeplitz_hash(x, 0, out)
        # an empty string hashes to zeros
        key, tag = pp.toeplitz_hash(np.zeros(0, dtype=np.uint8), 5, 0)
        assert key.size == 0
        assert np.array_equal(tag, np.zeros(pp.CONFIRM_TAG_BITS))


class TestRates:
    def test_secret_fraction_components(self):
        q, alpha, t = 0.03, 0.68, 10.0 ** -0.2
        i_ab, chi_e = pp.secret_fraction(q, alpha, t)
        assert i_ab == pytest.approx(1.0 - binary_entropy(q))
        from cvqkdsim.quantum import CoherentStateEnsemble, holevo_bound
        want = holevo_bound(CoherentStateEnsemble.four_state(
            math.sqrt(1.0 - t) * alpha))
        assert chi_e == pytest.approx(want)

    def test_chi_e_computed_once_per_config(self, monkeypatch):
        from cvqkdsim.quantum import CoherentStateEnsemble, holevo_bound
        alpha, t = 0.61, 10.0 ** -0.25
        want = holevo_bound(CoherentStateEnsemble.four_state(
            math.sqrt(1.0 - t) * alpha))
        calls = []
        monkeypatch.setattr(pp, "holevo_bound",
                            lambda e: calls.append(e) or holevo_bound(e))
        pp._eve_holevo.cache_clear()
        chis = {pp.secret_fraction(q, alpha, t)[1] for q in (0.01, 0.02)}
        assert chis == {want}
        assert len(calls) == 1

    def test_lossless_channel_leaks_nothing_to_eve(self):
        _, chi_e = pp.secret_fraction(0.02, 0.68, 1.0)
        assert chi_e == 0.0

    def test_margin_is_the_tag_and_the_hash_security(self):
        # the published tag costs its bits; 2 log2(1/eps_PA) is the
        # leftover hash lemma's
        assert pp.DELTA_FIN_BITS == (pp.CONFIRM_TAG_BITS
                                     + 2 * pp.PA_SECURITY_BITS) == 100

    def test_final_key_length_floor(self):
        assert pp.final_key_length(1000, 0.9, 0.2, 100, 50) == int(
            1000 * 0.7 - 100 - 50 - pp.DELTA_FIN_BITS)
        assert pp.final_key_length(100, 0.5, 0.9, 0, 0) == 0

    @given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 5),
           st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
    def test_no_key_once_leak_reaches_kept_bits(self, n_kept, disclosed,
                                                margin, extra_leak):
        # Cascade stops at n_kept parities; no key is lost by stopping
        # there, since I_AB - chi_E <= 1 bit per post-selected pulse
        assert pp.final_key_length(n_kept + disclosed, margin, 0.0,
                                   n_kept + extra_leak, disclosed) == 0

    def test_cascade_block_size(self):
        assert pp.cascade_block_size(0.05, 10_000) == 15
        assert pp.cascade_block_size(0.5, 10_000) == 2
        assert pp.cascade_block_size(1e-9, 100) == 100
        assert pp.cascade_block_size(0.0, 64) == 64


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        key = np.random.default_rng(0).integers(0, 2, 1003).astype(np.uint8)
        path = tmp_path / "block0.key"
        pp.write_key_file(path, key)
        assert np.array_equal(pp.read_key_file(path), key)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "k.key"
        pp.write_key_file(path, np.array([1, 0, 1], dtype=np.uint8))
        raw = path.read_bytes()
        assert raw[:4] == b"CVQK"
        assert raw[4] == 1
        assert int.from_bytes(raw[8:16], "big") == 3
        assert raw[16] == 0b10100000

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a key file at all")
        with pytest.raises(ValueError):
            pp.read_key_file(path)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:-5],                              # truncated
        lambda raw: raw + b"\x00",                         # trailing byte
        lambda raw: raw[:-1] + bytes([raw[-1] | 0x01]),    # padding set
    ], ids=["truncated", "trailing-byte", "nonzero-padding"])
    def test_rejects_damaged_payload(self, tmp_path, damage):
        # 100 bits: 13 bytes, the last 4 bits of the last byte padding
        path = tmp_path / "k.key"
        pp.write_key_file(path, np.ones(100, dtype=np.uint8))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            pp.read_key_file(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "empty.key"
        pp.write_key_file(path, np.zeros(0, dtype=np.uint8))
        assert pp.read_key_file(path).size == 0
