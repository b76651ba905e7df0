import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import pipeline
from cvqkdsim import postprocess as pp
from cvqkdsim.config import SystemConfig


def reference_cascade(alice_bits, oracle, initial_block, perms):
    """Cascade with a full running parity of Alice's permuted string built
    on each visit to a pass: the reference cascade_reconcile must match
    call for call, flip for flip."""
    n = len(alice_bits)
    bits = np.array(alice_bits, dtype=np.uint8)
    starts = [np.arange(0, n, min(n, initial_block << p))
              for p in range(perms.passes)]
    ends = [np.append(s[1:], n) for s in starts]
    bob_top = []
    leak = flips = 0
    for p in range(perms.passes):
        bob_top.append(oracle.parities(p, starts[p], ends[p]))
        leak += starts[p].size
        q = 0
        while q <= p:
            if leak >= n or flips > n:
                return bits, leak
            c = np.bitwise_xor.accumulate(
                np.append(np.uint8(0), bits[perms.perm[q]]))
            odd = np.flatnonzero(c[ends[q]] ^ c[starts[q]] != bob_top[q])
            a, b = starts[q][odd], ends[q][odd]
            while (act := np.flatnonzero(b - a > 1)).size:
                if leak >= n:
                    return bits, leak
                lo, mid = a[act], (a[act] + b[act]) // 2
                left = c[mid] ^ c[lo] != oracle.parities(q, lo, mid)
                leak += act.size
                b[act[left]] = mid[left]
                a[act[~left]] = mid[~left]
            bits[perms.perm[q][a]] ^= 1
            flips += odd.size
            q = 0 if odd.size else q + 1
    return bits, leak


class _RecordingOracle:
    """Passes each call to `oracle` and records it as (pass, starts, ends)."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = []

    def parities(self, pass_index, starts, ends):
        self.calls.append((pass_index, starts.tolist(), ends.tolist()))
        return self.oracle.parities(pass_index, starts, ends)


def assert_matches_reference(alice, make_oracle, initial_block, perms):
    """cascade_reconcile and reference_cascade, each given a fresh oracle
    from `make_oracle`, return the same bits and leak after the same
    oracle calls."""
    runs = []
    for reconcile in (pp.cascade_reconcile, reference_cascade):
        oracle = _RecordingOracle(make_oracle())
        bits, leak = reconcile(np.asarray(alice, dtype=np.uint8), oracle,
                               initial_block, perms)
        runs.append((bits.tolist(), leak, oracle.calls))
    assert runs[0] == runs[1]


def run_cascade(alice, bob, passes, k1, seed=99):
    perms = pp.CascadePermutations(len(alice), passes, seed)
    oracle = pp.LocalParityOracle(np.asarray(bob, dtype=np.uint8), perms)
    corrected, leak = pp.cascade_reconcile(np.asarray(alice, dtype=np.uint8),
                                           oracle, k1, perms)
    assert leak == oracle.query_count
    return corrected, leak


class TestLeakAccounting:
    def test_identical_keys_leak_top_parities_only(self):
        # no errors: one parity query per block per pass;
        # n = 64, k1 = 8 over 4 passes -> 8 + 4 + 2 + 1 = 15
        bits = np.random.default_rng(0).integers(0, 2, 64).astype(np.uint8)
        corrected, leak = run_cascade(bits, bits, passes=4, k1=8)
        assert np.array_equal(corrected, bits)
        assert leak == 15

    def test_single_flip_full_block(self):
        # n = 16, k1 = 16, 2 passes: pass 0 finds the error with 1 block
        # parity + log2(16) search queries, pass 1 verifies with 1 -> 6
        rng = np.random.default_rng(1)
        bob = rng.integers(0, 2, 16).astype(np.uint8)
        alice = bob.copy()
        alice[5] ^= 1
        corrected, leak = run_cascade(alice, bob, passes=2, k1=16)
        assert np.array_equal(corrected, bob)
        assert leak == 6

    def test_identity_permutation_in_first_pass(self):
        perms = pp.CascadePermutations(32, 3, seed=5)
        assert np.array_equal(perms.perm[0], np.arange(32))
        assert not np.array_equal(perms.perm[1], np.arange(32))

    def test_permutations_deterministic_in_seed(self):
        a = pp.CascadePermutations(100, 4, seed=7)
        b = pp.CascadePermutations(100, 4, seed=7)
        for pa, pb in zip(a.perm, b.perm):
            assert np.array_equal(pa, pb)

    def test_leak_is_a_python_int(self):
        # on each way out: all passes done, n parities out, and more than
        # n flips, which only an oracle that is no one string's can cause
        rng = np.random.default_rng(6)
        bob = rng.integers(0, 2, 3000, dtype=np.uint8)
        noisy = bob ^ (rng.random(3000) < 0.05).astype(np.uint8)
        shuffled = pp.CascadePermutations(3000, 4, 6)
        for alice, oracle, k1, perms, capped in (
                (noisy, pp.LocalParityOracle(bob, shuffled), 15, shuffled,
                 False),
                (noisy, _RandomOracle(6, limit=30_000), 15, shuffled, True),
                (np.zeros(9, dtype=np.uint8), _Contradicting(), 4,
                 _identity_perms(9, 4), False)):
            _, leak = pp.cascade_reconcile(alice, oracle, k1, perms)
            assert type(leak) is int
            assert (leak >= perms.n) == capped


class TestPermutationsPerConfig:
    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025])
    def test_cut_is_the_draw_below_n(self, n):
        perms = pp.CascadePermutations(n, 4, seed=11)
        m = 1 << max(n - 1, 0).bit_length()
        assert m >= n and m // 2 < max(n, 1)   # least power of two >= n
        draw = pp._permutation_draw(11, 4, m)
        assert len(draw) == len(perms.perm) - 1 == 3
        for cut, full in zip(perms.perm[1:], draw):
            assert sorted(full.tolist()) == list(range(m))
            assert sorted(cut.tolist()) == list(range(n))
            assert cut.tolist() == [v for v in full.tolist() if v < n]

    def test_one_draw_for_many_blocks(self):
        # default blocks keep 22-25 k bits, all cut from one 2^15 draw
        cfg = SystemConfig()
        pp._permutation_draw.cache_clear()
        for block_id in range(20):
            pipeline.distill_block(cfg, block_id, cfg.drift.mean_state())
        info = pp._permutation_draw.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_draws_are_read_only_and_few(self):
        pp._permutation_draw.cache_clear()
        for seed in range(10):
            for n in (100, 1000):
                pp.CascadePermutations(n, 4, seed)
                info = pp._permutation_draw.cache_info()
                assert info.currsize <= info.maxsize <= 4
        for perm in pp._permutation_draw(9, 4, 1024):
            assert not perm.flags.writeable
            with pytest.raises(ValueError):
                perm[0] = 1

    @pytest.mark.parametrize("seed", [12345, 1])
    def test_config_seed_is_no_block_seed(self, seed):
        cfg = SystemConfig(seed=seed)
        tags = [v for k, v in vars(pipeline).items()
                if k.startswith("SEED_TAG_")]
        block_seeds = {pipeline.derive_seed(cfg, b, tag)
                       for b in range(1000) for tag in tags}
        assert (pipeline.config_seed(cfg, pipeline.SEED_TAG_CASCADE)
                not in block_seeds)
        # numpy pads entropy with zeros, so a plain (seed, tag) entropy is
        # block `tag`'s pulse stream
        plain = np.random.SeedSequence((seed, pipeline.SEED_TAG_CASCADE))
        assert (int(plain.generate_state(1, dtype=np.uint64)[0])
                == pipeline.derive_seed(cfg, pipeline.SEED_TAG_CASCADE,
                                        pipeline.SEED_TAG_PULSES))


class TestLocalParityOracle:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 500), passes=st.integers(2, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_parities_match_definition(self, n, passes, seed):
        # each pass's parity of [s, e) is the XOR of bits[perm[p]][s:e],
        # pass 0's identity order included
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        perms = pp.CascadePermutations(n, passes, seed)
        oracle = pp.LocalParityOracle(bits, perms)
        for p in range(passes):
            ends = rng.integers(1, n + 1, 20)
            starts = rng.integers(0, ends)
            want = [np.bitwise_xor.reduce(bits[perms.perm[p]][s:e])
                    for s, e in zip(starts, ends)]
            assert oracle.parities(p, starts, ends).tolist() == want


class TestRunningParity:
    """The contract _prefix_xor's boolean accumulate relies on: 0/1 bytes
    in, a uint8 running parity out."""

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), max_size=3000),
           data=st.data())
    def test_ranges_have_their_parity(self, bits, data):
        bits = np.array(bits, dtype=np.uint8)
        c = pp._prefix_xor(bits)
        assert c.dtype == np.uint8 and c.size == bits.size + 1
        assert c[0] == 0
        assert np.array_equal(c[1:], np.cumsum(bits) % 2)
        for _ in range(20):
            a = data.draw(st.integers(0, bits.size))
            b = data.draw(st.integers(a, bits.size))
            assert c[b] ^ c[a] == bits[a:b].sum() % 2

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3000), passes=st.integers(2, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_oracle_same_for_int32_and_intp_orders(self, n, passes, seed):
        # the cached draws are the narrowest unsigned type that holds m;
        # an intp order must serve the same
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        perms = pp.CascadePermutations(n, passes, seed)
        m = 1 << max(n - 1, 0).bit_length()
        assert all(p.dtype == np.min_scalar_type(m) for p in perms.perm[1:])
        wide = pp.CascadePermutations(n, passes, seed)
        wide.perm = [p.astype(np.intp) for p in perms.perm]
        narrow_oracle = pp.LocalParityOracle(bits, perms)
        wide_oracle = pp.LocalParityOracle(bits, wide)
        for p in range(passes):
            ends = rng.integers(1, n + 1, 50)
            starts = rng.integers(0, ends)
            narrow = narrow_oracle.parities(p, starts, ends)
            assert narrow.dtype == np.uint8
            assert np.array_equal(narrow,
                                  wide_oracle.parities(p, starts, ends))


class _KeepingOracle:
    """Keeps each range array it is handed, and a copy of its values."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.handed = []

    def parities(self, pass_index, starts, ends):
        self.handed += [(starts, starts.copy()), (ends, ends.copy())]
        return self.oracle.parities(pass_index, starts, ends)


class TestCorrection:
    def test_hand_traced_two_errors(self):
        bob = np.zeros(8, dtype=np.uint8)
        alice = bob.copy()
        alice[1] ^= 1
        alice[6] ^= 1
        corrected, leak = run_cascade(alice, bob, passes=3, k1=4)
        assert np.array_equal(corrected, bob)
        assert leak > 0

    def test_converges_at_five_percent(self):
        # acceptance setting: qber 0.05, n = 1e4, 4 passes
        failures = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            bob = rng.integers(0, 2, 10_000).astype(np.uint8)
            flips = rng.random(10_000) < 0.05
            alice = bob ^ flips.astype(np.uint8)
            k1 = pp.cascade_block_size(0.05, 10_000)
            corrected, _ = run_cascade(alice, bob, passes=4, k1=k1,
                                       seed=2000 + trial)
            if not np.array_equal(corrected, bob):
                failures += 1
        assert failures <= 1

    def test_requests_never_modified_once_handed(self):
        # the oracle may read a request after Alice has moved on, as a
        # wire send of it does
        rng = np.random.default_rng(5)
        bob = rng.integers(0, 2, 3000, dtype=np.uint8)
        alice = bob ^ (rng.random(3000) < 0.05).astype(np.uint8)
        perms = pp.CascadePermutations(3000, 4, 5)
        oracle = _KeepingOracle(pp.LocalParityOracle(bob, perms))
        pp.cascade_reconcile(alice, oracle, 15, perms)
        assert len(oracle.handed) > 20
        assert all(np.array_equal(kept, copy) for kept, copy in oracle.handed)

    def test_bob_never_modified(self):
        rng = np.random.default_rng(3)
        bob = rng.integers(0, 2, 500).astype(np.uint8)
        snapshot = bob.copy()
        alice = bob ^ (rng.random(500) < 0.05).astype(np.uint8)
        run_cascade(alice, bob, passes=4, k1=15)
        assert np.array_equal(bob, snapshot)

    def test_measured_efficiency_reasonable(self):
        # leak / (n * H2(q)) should sit near the known Cascade range
        from cvqkdsim.quantum import binary_entropy
        rng = np.random.default_rng(4)
        bob = rng.integers(0, 2, 10_000).astype(np.uint8)
        alice = bob ^ (rng.random(10_000) < 0.05).astype(np.uint8)
        _, leak = run_cascade(alice, bob, passes=4,
                              k1=pp.cascade_block_size(0.05, 10_000))
        f = leak / (10_000 * binary_entropy(0.05))
        assert 1.0 < f < 1.6


class TestValidation:
    def test_rejects_single_pass(self):
        with pytest.raises(ValueError):
            pp.CascadePermutations(16, 1, 0)

    def test_rejects_empty_frame(self):
        perms = pp.CascadePermutations(4, 2, 0)
        oracle = pp.LocalParityOracle(np.zeros(4, dtype=np.uint8), perms)
        with pytest.raises(ValueError):
            pp.cascade_reconcile(np.zeros(0, dtype=np.uint8), oracle, 4, perms)


class _RandomOracle:
    """Parities of no one string: each answer is a fresh coin flip.  It
    fails the test past `limit` parities instead of answering forever."""

    def __init__(self, seed: int, limit: int):
        self.rng = np.random.default_rng(seed)
        self.limit = limit
        self.query_count = 0

    def parities(self, pass_index, starts, ends):
        self.query_count += len(starts)
        assert self.query_count <= self.limit, "Cascade does not stop"
        return self.rng.integers(0, 2, len(starts), dtype=np.uint8)


class TestInconsistentOracle:
    def test_random_answers_end_with_bounded_leak(self):
        # without a cap, n = 2000 was still asking after 20,000 calls
        n = 2000
        for seed in range(5):
            perms = pp.CascadePermutations(n, 4, seed)
            oracle = _RandomOracle(seed, limit=10 * n)
            _, leak = pp.cascade_reconcile(
                np.zeros(n, dtype=np.uint8), oracle,
                pp.cascade_block_size(0.05, n), perms)
            assert leak == oracle.query_count < 2 * n

    def test_contradicting_one_bit_blocks_end(self):
        # n = 9, k1 = 4, identity permutations: bit 8 is a block of its own
        # in passes 0 and 1.  An oracle that calls it 0 in pass 0 and 1 in
        # pass 1 has Alice flip it back and forth without asking anything.
        perms = _identity_perms(9, 4)
        done = threading.Event()
        thread = threading.Thread(daemon=True, target=lambda: (
            pp.cascade_reconcile(np.zeros(9, dtype=np.uint8),
                                 _Contradicting(), 4, perms), done.set()))
        thread.start()
        assert done.wait(5.0), "Cascade does not stop"


def _identity_perms(n, passes):
    perms = pp.CascadePermutations(n, passes, 0)
    perms.perm = [np.arange(n)] * passes
    return perms


class _Contradicting:
    """Calls bit 8 a block of parity 0 in even passes and 1 in odd ones."""

    def parities(self, pass_index, starts, ends):
        return ((pass_index % 2 == 1) & (starts == 8)).astype(np.uint8)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3000), rate=st.floats(0.0, 0.3),
           k1=st.integers(2, 200), passes=st.integers(2, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bob_oracle(self, n, rate, k1, passes, seed):
        rng = np.random.default_rng(seed)
        bob = rng.integers(0, 2, n, dtype=np.uint8)
        alice = bob ^ (rng.random(n) < rate).astype(np.uint8)
        perms = pp.CascadePermutations(n, passes, seed)
        assert_matches_reference(
            alice, lambda: pp.LocalParityOracle(bob, perms), k1, perms)

    @pytest.mark.parametrize("n", [9, 100, 2000])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_answers(self, n, seed):
        perms = pp.CascadePermutations(n, 4, seed)
        assert_matches_reference(
            np.zeros(n, dtype=np.uint8),
            lambda: _RandomOracle(seed, limit=10 * n),
            pp.cascade_block_size(0.05, n), perms)

    def test_contradicting_one_bit_blocks(self):
        assert_matches_reference(np.zeros(9, dtype=np.uint8), _Contradicting,
                                 4, _identity_perms(9, 4))

    @pytest.mark.parametrize("n", [256, 65_536])
    def test_whole_string_blocks_at_a_dtype_boundary(self, n):
        # n = m is the least value that its order's dtype holds and the
        # dtype below does not.  With every block the whole string, a flip
        # found in a later pass indexes pass 0's blocks as pos // n in that
        # dtype.  Only answers of no one string find such a flip, and they
        # go on to the leak cap at n, so both runs are cut at 200 answers.
        perms = pp.CascadePermutations(n, 4, 3)
        assert perms.perm[1].dtype == np.min_scalar_type(n)
        calls = []
        for reconcile in (pp.cascade_reconcile, reference_cascade):
            oracle = _RecordingOracle(_RandomOracle(3, limit=200))
            with pytest.raises(AssertionError, match="does not stop"):
                reconcile(np.zeros(n, dtype=np.uint8), oracle, n, perms)
            calls.append(oracle.calls)
        assert calls[0] == calls[1]
