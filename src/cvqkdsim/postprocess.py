"""Key distillation: sifting, post-selection, error estimation, Cascade
reverse reconciliation, privacy amplification by a strongly universal
multiply-add-shift hash, and the key-length arithmetic under a collective
beam-splitter-attack bound.

Bit conventions (pinned for interoperability):
  * Alice's bit for a pulse depends on Bob's announced quadrature: with the
    four states at phases (2k+1)*pi/4, the Q-quadrature sign is +1 for
    k in {0, 3} and the P-quadrature sign is +1 for k in {0, 1};
    alice_bit = (sign + 1) / 2.
  * bob_bit = 1 iff the homodyne outcome is positive.

The numerics need numpy and the standard library only: normal tails come
from math.erfc, and the hash is one product of Python integers.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .physics import PulseBatch
from .quantum import CoherentStateEnsemble, binary_entropy, holevo_bound

__all__ = [
    "SiftedFrame",
    "KeySessionReport",
    "CascadePermutations",
    "LocalParityOracle",
    "CONFIRM_TAG_BITS",
    "PA_SECURITY_BITS",
    "DELTA_FIN_BITS",
    "KEY_FILE_MAGIC",
    "sift",
    "sift_alice_bits",
    "post_select",
    "qber_estimate",
    "disclosure_sample",
    "expected_qber",
    "cascade_block_size",
    "cascade_reconcile",
    "toeplitz_hash",
    "secret_fraction",
    "final_key_length",
    "write_key_file",
    "read_key_file",
]

CONFIRM_TAG_BITS = 32       # key confirmation tag: the hash's last bits
PA_SECURITY_BITS = 34       # log2(1/eps_PA) of privacy amplification
# finite-size margin per block: the published tag, and the leftover hash
# lemma's 2 log2(1/eps_PA); 32 + 68 = 100 bits
DELTA_FIN_BITS = CONFIRM_TAG_BITS + 2 * PA_SECURITY_BITS
KEY_FILE_MAGIC = b"CVQK"
KEY_FILE_VERSION = 1

# Q-sign is +1 for phase indices {0, 3}; P-sign is +1 for {0, 1}.  Flat:
# the bit of (phase k, quadrature q) is entry 4q + k.
_ALICE_BIT_TABLE = np.array([1, 0, 0, 1,    # quadrature Q
                             1, 1, 0, 0],   # quadrature P
                            dtype=np.uint8)


@dataclass
class SiftedFrame:
    alice_bits: np.ndarray        # uint8
    bob_bits: np.ndarray          # uint8
    postselect_mask: np.ndarray   # bool, True = kept
    abs_outcomes_snu: np.ndarray  # float64
    disclosed_count: int = 0

    def __post_init__(self):
        n = len(self.alice_bits)
        if not (len(self.bob_bits) == len(self.postselect_mask)
                == len(self.abs_outcomes_snu) == n):
            raise ValueError("frame arrays must have equal length")
        if self.disclosed_count > n:
            raise ValueError("disclosed_count exceeds frame length")

    def __len__(self) -> int:
        return len(self.alice_bits)

    @property
    def kept_indices(self) -> np.ndarray:
        return np.nonzero(self.postselect_mask)[0]


@dataclass(frozen=True)
class KeySessionReport:
    p_post: float
    qber: float
    leak_bits: int
    final_key_bits: int
    skr_bits_per_s: float


def sift_alice_bits(phase_index: np.ndarray,
                    quadrature: np.ndarray) -> np.ndarray:
    """Alice's key bit per pulse given Bob's announced quadrature."""
    return np.take(_ALICE_BIT_TABLE, (quadrature << 2) | phase_index)


def sift(batch: PulseBatch) -> SiftedFrame:
    """Turn a signal batch into aligned bit strings.

    No pulses are discarded here; the post-selection mask starts all-kept.
    """
    if batch.blocked:
        raise ValueError("cannot sift a blocked calibration batch")
    alice = sift_alice_bits(batch.alice_phase_index, batch.bob_quadrature)
    bob = (batch.outcome_snu > 0.0).astype(np.uint8)
    mask = np.ones(batch.count, dtype=bool)
    return SiftedFrame(alice, bob, mask, np.abs(batch.outcome_snu))


def post_select(frame: SiftedFrame, x_th_snu: float) -> SiftedFrame:
    """Keep only pulses whose |outcome| reaches the threshold."""
    if x_th_snu < 0.0:
        raise ValueError(f"threshold must be >= 0, got {x_th_snu!r}")
    mask = frame.postselect_mask & (frame.abs_outcomes_snu >= x_th_snu)
    return replace(frame, postselect_mask=mask)


def qber_estimate(frame: SiftedFrame, sample_fraction: float,
                  rng: np.random.Generator) -> tuple[float, SiftedFrame]:
    """Disclose a pseudo-random subset of the kept bits and compare.

    The disclosed positions are removed from the key material and counted
    in disclosed_count.  Returns (qber, reduced frame).
    """
    kept = frame.kept_indices
    sample = kept[disclosure_sample(kept.size, sample_fraction, rng)]
    mismatches = int(np.sum(frame.alice_bits[sample] != frame.bob_bits[sample]))
    mask = frame.postselect_mask.copy()
    mask[sample] = False
    reduced = replace(frame, postselect_mask=mask,
                      disclosed_count=frame.disclosed_count + len(sample))
    return mismatches / len(sample), reduced


def disclosure_sample(n: int, sample_fraction: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Sorted pseudo-random subset, a `sample_fraction` share (at least
    one), of the positions 0..n-1, drawn without replacement."""
    if not 0.0 < sample_fraction < 1.0:
        raise ValueError(f"sample_fraction {sample_fraction!r} outside (0, 1)")
    if n < 1:
        raise ValueError("no kept bits to sample from")
    m = max(1, int(round(sample_fraction * n)))
    sample = rng.choice(n, size=m, replace=False)
    sample.sort()
    return sample


_SQRT1_2 = math.sqrt(0.5)
_SQRT1_2_LO = -4.833646656726457e-17    # sqrt(1/2) - _SQRT1_2
_ASYMPTOTIC_Z = 20.0
_NORMAL_TAIL_Z = 37.0    # Q(z) is a normal float below this


def _erfc_scaled(z: float) -> float:
    """erfc(z / sqrt 2), 2 Q(z), for finite z.  The rounding of z / sqrt 2
    to t, exact by Fraction, is taken back to first order; where erfc is
    steep that rounding, not erfc, dominates math.erfc(t)'s error."""
    t = z * _SQRT1_2
    err = (float(Fraction(z) * Fraction(_SQRT1_2) - Fraction(t))
           + z * _SQRT1_2_LO)
    return math.erfc(t) - err * 2.0 / math.sqrt(math.pi) * math.exp(-t * t)


def _log_scaled_tail(z: float) -> float:
    """log Q(z) + z^2 / 2 for z >= _ASYMPTOTIC_Z, from the asymptotic series
    Q(z) = phi(z) / z * (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...), whose terms
    fall below 1e-17 long before they start to grow (at k ~ z^2 / 2)."""
    total = term = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) / (z * z)
        total += term
        k += 1
    return math.log(total / (z * math.sqrt(2.0 * math.pi)))


def expected_qber(m_snu: float, var_snu: float, x_th: float) -> float:
    """Sign-decision error probability between N(+m, var) and N(-m, var)
    conditioned on |outcome| >= x_th: Q(a) / (Q(a) + Q(b)) with
    a = (x_th + m)/sigma and b = (x_th - m)/sigma.

    The tails come from math.erfc while the smaller one, Q(a), is a normal
    float.  Past that (noiseless configs) the ratio is a logistic of
    log Q(a) - log Q(b), with log Q(a) from the asymptotic series, so that
    it stays finite and falls monotonically with x_th where both tails
    underflow."""
    if var_snu <= 0.0:
        raise ValueError(f"variance must be > 0, got {var_snu!r}")
    if m_snu == 0.0:
        return 0.5
    m = abs(m_snu)
    sig = math.sqrt(var_snu)
    a, b = (x_th + m) / sig, (x_th - m) / sig
    if a < _NORMAL_TAIL_Z:
        wrong, right = _erfc_scaled(a), _erfc_scaled(b)
        return min(0.5, wrong / (wrong + right))
    if b >= _ASYMPTOTIC_Z:
        # a^2 - b^2 as (a - b)(a + b), which neither overflows nor cancels
        log_ratio = (_log_scaled_tail(a) - _log_scaled_tail(b)
                     - (a - b) * 0.5 * (a + b))
    else:
        log_ratio = (_log_scaled_tail(a) - 0.5 * a * a
                     - math.log(0.5 * math.erfc(b * _SQRT1_2)))
    ratio = math.exp(log_ratio)   # Q(a) <= Q(b), so this cannot overflow
    return min(0.5, ratio / (1.0 + ratio))


def cascade_block_size(qber: float, n: int) -> int:
    """First-pass block size ceil(0.73 / qber), clamped into [2, n]."""
    if qber <= 0.0:
        return n
    return max(2, min(n, math.ceil(0.73 / qber)))


class CascadePermutations:
    """Per-pass shuffles shared by both endpoints, fixed by a seed.

    Pass 0 uses the identity.  Pass p >= 1 cuts the p-th permutation of
    _permutation_draw(seed, passes, m), m the least power of two >= n, to
    its entries below n, in order: the cut of a uniform permutation of
    range(m) is a uniform permutation of range(n).  The draw is made once
    per (seed, passes, m), so blocks of one config whose sizes share m
    share it; each block's errors are fresh and independent of these
    public orders (Martinez-Mateo et al., "Demystifying the information
    reconciliation protocol Cascade", QIC 15 (2015)).  A block in pass p
    is a half-open range [start, end) of `perm[p]`, the order in which
    that pass reads the string.
    """

    def __init__(self, n: int, passes: int, seed: int):
        if passes < 2:
            raise ValueError(f"cascade needs >= 2 passes, got {passes}")
        self.n = n
        self.passes = passes
        m = 1 << max(n - 1, 0).bit_length()
        self.perm = [np.arange(n)] + [np.compress(p < n, p) for p in
                                      _permutation_draw(seed, passes, m)]


@functools.lru_cache(maxsize=4)
def _permutation_draw(seed: int, passes: int,
                      m: int) -> tuple[np.ndarray, ...]:
    """passes - 1 permutations of range(m) as read-only arrays of the
    narrowest unsigned type that holds m itself, drawn from
    default_rng(seed).  Holding m lets a block index pos // size with
    size <= n <= m be computed in that type.  A default block's entry,
    m = 32768, is uint16 and 192 KB; one of 1e8 pulses ~48 MB, hence the
    few entries."""
    rng = np.random.default_rng(seed)
    dtype = np.min_scalar_type(m)
    draw = tuple(rng.permutation(m).astype(dtype)
                 for _ in range(1, passes))
    for perm in draw:
        perm.flags.writeable = False
    return draw


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Running parity c with a leading 0: bits[a:b] has parity c[b] ^ c[a].
    Every string the chain builds is 0/1, so the uint8 bytes may be read
    and written as booleans, whose xor-accumulate runs ~2x faster."""
    c = np.zeros(bits.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits.view(bool), out=c[1:].view(bool))
    return c


class LocalParityOracle:
    """Serves Bob's block parities for in-process reconciliation."""

    def __init__(self, bob_bits: np.ndarray, perms: CascadePermutations):
        bits = np.asarray(bob_bits, dtype=np.uint8)
        # pass 0's order is the identity, the string's own; a gather
        # through a narrow order is ~2x faster by take than by indexing
        self.prefix = [_prefix_xor(bits)] + [_prefix_xor(bits.take(perm))
                                             for perm in perms.perm[1:]]
        self.query_count = 0

    def parities(self, pass_index: int, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
        """The parity of each range [starts[i], ends[i]) of the pass."""
        self.query_count += len(starts)
        c = self.prefix[pass_index]
        return c[ends] ^ c[starts]


def cascade_reconcile(alice_bits: np.ndarray, oracle, initial_block: int,
                      perms: CascadePermutations) -> tuple[np.ndarray, int]:
    """Cascade with binary search and back-propagation, in lockstep.

    Reverse reconciliation: Alice corrects her string toward Bob's, whose
    parities `oracle.parities(pass, starts, ends)` serves for many ranges
    of one pass per call.  Each pass asks for all its top-level parities
    at once.  While a block of a pass seen so far has odd parity, the odd
    blocks of the first such pass are bisected together, one call per
    depth; they are disjoint, so each flips a different error.  Returns
    the corrected string and the number of parities disclosed.

    Alice keeps her own top-level parity of each block of every pass
    started, so finding the odd blocks reads no bit.  A flip toggles one
    block per pass, found through the pass's inverse permutation.  To
    bisect, only the odd blocks' bits are laid end to end under a running
    parity; the rest of the string is not read.  Pass 0's order is the
    identity, so it is read without a gather and has no inverse to build;
    a later pass's inverse is built at the first flip that needs it, and
    a block corrected before that pass starts builds none.
    An array handed to the oracle is never changed afterwards.

    It stops once n parities are out, as no key can come of the string
    then, or once it has flipped more than n bits, which only an oracle
    that is no one string's can make it do.
    """
    n = len(alice_bits)
    if n == 0:
        raise ValueError("empty frame")
    if initial_block < 2:
        raise ValueError(f"initial block size must be >= 2, got {initial_block}")
    bits = np.array(alice_bits, dtype=np.uint8)
    sizes = [min(n, initial_block << p) for p in range(perms.passes)]
    starts = [np.arange(0, n, size) for size in sizes]
    ends = [np.append(s[1:], n) for s in starts]
    bob_top, alice_top = [], []
    inverse = [None] * perms.passes
    leak = flips = 0
    for p in range(perms.passes):
        bob_top.append(oracle.parities(p, starts[p], ends[p]))
        leak += starts[p].size
        alice_top.append(np.bitwise_xor.reduceat(
            bits.take(perms.perm[p]) if p else bits, starts[p]))
        q = 0
        while q <= p:
            if leak >= n or flips > n:
                return bits, leak
            odd = np.flatnonzero(alice_top[q] != bob_top[q])
            if not odd.size:
                q += 1
                continue
            a, b = starts[q][odd], ends[q][odd]
            # block i's bit at pass position x sits at c[x + shift[i]]
            length = b - a
            shift = np.cumsum(length) - length - a
            x = np.arange(length.sum()) - np.repeat(shift, length)
            c = _prefix_xor(bits.take(perms.perm[q][x] if q else x))
            # one count_nonzero stands for any() and all(); leak adds
            # sizes, which are Python ints, and never a count, which is a
            # numpy int that would reach the reports
            while long_count := np.count_nonzero(long := b - a > 1):
                if leak >= n:
                    return bits, leak
                if long_count == long.size:
                    # every block halves: a and mid go to the oracle whole,
                    # so a and b are rebound, not changed
                    mid = (a + b) >> 1
                    left = (c[mid + shift] ^ c[a + shift]
                            != oracle.parities(q, a, mid))
                    leak += a.size
                    a, b = np.where(left, a, mid), np.where(left, mid, b)
                    continue
                act = np.flatnonzero(long)
                lo, hi = a[act], b[act]
                mid = (lo + hi) >> 1
                s = shift[act]
                left = c[mid + s] ^ c[lo + s] != oracle.parities(q, lo, mid)
                leak += act.size
                a[act] = np.where(left, lo, mid)
                b[act] = np.where(left, mid, hi)
            flipped = perms.perm[q][a] if q else a
            bits[flipped] ^= 1
            for r in range(p + 1):
                if r and inverse[r] is None:
                    inverse[r] = np.empty(n, dtype=np.int32)
                    inverse[r][perms.perm[r]] = np.arange(n, dtype=np.int32)
                pos = inverse[r][flipped] if r else flipped
                # each flip toggles its block: the parity of its count
                alice_top[r] ^= (np.bincount(
                    pos // sizes[r], minlength=alice_top[r].size)
                    & 1).astype(np.uint8)
            flips += odd.size
            q = 0
    return bits, leak


def _multiply_shift(x, a, b, w: int, ell: int):
    """Dietzfelbinger's multiply-add-shift hash of a w-bit x to ell bits:
    ((a x + b) mod 2^wbar) >> (wbar - ell), the top ell bits of the low
    wbar = w + ell - 1 bits of a x + b, for a, b in [0, 2^wbar).  Works
    on Python ints and on numpy integer arrays alike."""
    return ((a * x + b) & ((1 << (w + ell - 1)) - 1)) >> (w - 1)


def toeplitz_hash(bits: np.ndarray, seed: int,
                  out_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Privacy amplification: (key, tag), the first out_len and the last
    CONFIRM_TAG_BITS bits of one ell = out_len + t bit output of the
    multiply-add-shift family (Dietzfelbinger, STACS 1996; Thorup, "High
    speed hashing for integers and strings", 2015).  The name is kept
    from the Toeplitz product it replaced.

    The n bits, packed MSB-first and zero-padded to w = 8 ceil(n / 8), are
    read as one big-endian integer x.  With wbar = w + ell - 1, a and b
    are two wbar-bit integers drawn from PCG64(seed)'s raw stream, 2 wbar
    bits in all (Toeplitz drew n + ell - 1): ceil(wbar / 64) 64-bit words
    each, a's first, word 0 least significant, cut to their low wbar bits.
    The output is _multiply_shift(x, a, b, w, ell), MSB first.

    At wbar >= w + ell - 1 the family is strongly universal: for any
    x != x' of w bits, the pair of outputs is uniform on all 2^(2 ell)
    pairs over (a, b).  b makes h(x) uniform; with x - x' = 2^s u, u odd
    and s < w, a (x - x') mod 2^wbar is uniform on the multiples of 2^s,
    which leaves h(x') uniform given h(x) while wbar - ell >= s.  So it is
    a universal hash for the leftover hash lemma, and any t output bits,
    the tag, agree for unequal strings with probability 2^-t.  Exact
    integer arithmetic; an empty string hashes to zeros.
    """
    x = np.asarray(bits, dtype=np.uint8)
    n = x.size
    if not 0 <= out_len <= n:
        raise ValueError(f"out_len {out_len} outside [0, {n}]")
    if n == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(CONFIRM_TAG_BITS,
                                                     dtype=np.uint8)
    ell = out_len + CONFIRM_TAG_BITS
    w = -(-n // 8) * 8
    wbar = w + ell - 1
    words = -(-wbar // 64)
    raw = np.random.PCG64(seed).random_raw(2 * words).astype("<u8")
    mask = (1 << wbar) - 1
    a, b = (int.from_bytes(half.tobytes(), "little") & mask
            for half in (raw[:words], raw[words:]))
    h = _multiply_shift(int.from_bytes(np.packbits(x).tobytes(), "big"),
                        a, b, w, ell)
    out = np.frombuffer((h << (-ell % 8)).to_bytes(-(-ell // 8), "big"),
                        dtype=np.uint8)
    rows = np.unpackbits(out, count=ell)
    return rows[:out_len], rows[out_len:]


def secret_fraction(qber: float, alpha: float,
                    transmittance: float) -> tuple[float, float]:
    """(I_AB, chi_E) in bits per post-selected pulse.

    I_AB = 1 - H2(qber).  Eve's information is bounded by the Holevo
    quantity of the beam-splitter ensemble {sqrt(1-T) * alpha * e^{i(2k+1)pi/4}},
    equiprobable, ignoring post-selection conditioning (the bound is
    evaluated on the unconditioned ensemble).
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance {transmittance!r} outside [0, 1]")
    return 1.0 - binary_entropy(qber), _eve_holevo(alpha, transmittance)


@functools.lru_cache(maxsize=16)
def _eve_holevo(alpha: float, transmittance: float) -> float:
    """secret_fraction's chi_E, computed once per config, not per block."""
    eve_modulus = math.sqrt(1.0 - transmittance) * alpha
    if eve_modulus == 0.0:
        return 0.0
    return holevo_bound(CoherentStateEnsemble.four_state(eve_modulus))


def final_key_length(n_post_selected: int, i_ab: float, chi_e: float,
                     leak_bits: int, disclosed_count: int) -> int:
    """Secret bits extractable from one block, floored at zero.

    The key and the published confirmation tag are one toeplitz_hash
    output of out_len + t bits, t = CONFIRM_TAG_BITS, from a strongly, and
    so 2-, universal family.  By the leftover hash lemma that output is
    eps_PA-close to uniform given Eve's information while
    out_len + t <= H_min - 2 log2(1/eps_PA), so DELTA_FIN_BITS
    charges t + 2 PA_SECURITY_BITS against the entropy left once Eve's
    Holevo bound, Cascade's leak and the disclosed sample are taken out."""
    budget = (n_post_selected * max(0.0, i_ab - chi_e)
              - leak_bits - disclosed_count - DELTA_FIN_BITS)
    return max(0, int(math.floor(budget)))


def write_key_file(path, key_bits: np.ndarray) -> None:
    """Binary key file: 16-byte header (magic 'CVQK', version u8, reserved,
    bit length as u64 big-endian) followed by the packed key."""
    key_bits = np.asarray(key_bits, dtype=np.uint8)
    header = KEY_FILE_MAGIC + struct.pack(">B3xQ", KEY_FILE_VERSION,
                                          key_bits.size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.packbits(key_bits).tobytes())


def read_key_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != KEY_FILE_MAGIC:
            raise ValueError("not a key file")
        version, nbits = struct.unpack(">B3xQ", header[4:])
        if version != KEY_FILE_VERSION:
            raise ValueError(f"unsupported key file version {version}")
        packed = np.frombuffer(fh.read(), dtype=np.uint8)
    bits = np.unpackbits(packed)
    # exactly the packed key, its padding bits zero, as in a wire bit field
    if packed.size != -(-nbits // 8) or bits[nbits:].any():
        raise ValueError(f"key file payload is not {nbits} zero-padded bits")
    return bits[:nbits]
