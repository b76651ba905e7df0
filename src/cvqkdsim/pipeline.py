"""Per-block simulation and the distillation chain.

The quantum exchange of a block is reproducible from (config seed,
block id) alone, which is what lets the two protocol endpoints in
protocol.py reconstruct the same physics without quantum data on the
wire.  The same seed and block id fix the disclosed error sample and
the privacy-amplification hash's a and b.  The config seed alone fixes
Cascade's permutations, drawn once per config and cut to each block's
kept bits.  So each end derives them too, and each sizes the final key
from values both ends hold.  A block draws only what the chain reads:
the pulses that pass post-selection (physics.KeptPulses), ~2.5 % of a
default block, each as its class and tail (Bob's bit) in one byte each,
and the block's signal variance from per-class statistics.  Both ends
draw the kept pulses in the same order, so indices count them and no end
needs their positions.  run_chain() distills a block into a
BlockResult, which distill_block() returns in process for the experiment
runners and protocol.run_session() over the wire.

run_chain is one end's chain as a generator of steps, and does no I/O.
It is told which roles the end plays (`alice`, `bob`), and so which data
it holds.  Each value that the role named `sender` ("alice" or "bob")
sends the other is one step, `(sender, kind, make, bound)`, `kind` being
its MsgType name: the sender's value is `make()`, and a received one must
fit `bound`.  The chain is sent the value that crosses, and it returns
the BlockResult.  postprocess.drive runs the steps, and the drivers
differ only in how a step crosses: distill_block plays both roles and
answers each step with `make()`; run_session answers it with one frame,
sent or received, where a value that does not fit ends both ends.

A block's SKR is its final key bits over its duration, calibration frames
included.  A block yields a 0-bit key and SKR 0 on both paths, and the
session goes on, if it keeps no pulse, if its error sample leaves no bit
to reconcile, or if Cascade leaves the two strings unequal: the key
confirmation tags, the last 32 bits of the privacy-amplification hash
whose first bits are the key, then differ.  A malformed frame from the
peer ends both ends in SessionFailed with matching AbortReasons, and so
does a frame that does not fit this end's own block.  A peer on another
config never reaches the chain: run_session refuses its HELLO first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import postprocess as pp
from .physics import (
    DriftState,
    KeptPulses,
    draw_kept_pulses,
    draw_signal_statistics,
    fiber_transmittance,
    signal_model,
)
# The per-pulse reference model: not called here, but perfbench's tracer
# patches these names on this module.
from .physics import calibrate_shot_noise, prepare_and_measure  # noqa: F401

__all__ = [
    "BlockResult",
    "derive_seed",
    "config_seed",
    "model_qber",
    "signal_variance",
    "simulate_quantum_exchange",
    "run_chain",
    "distill_block",
    "local_answer",
]


# seed tags, one per random stream, for derive_seed (per block) or
# config_seed (per config); a new stream takes the next
SEED_TAG_PULSES = 0     # a block's pulses, or a calibration frame
SEED_TAG_SAMPLE = 1     # the disclosed error sample
SEED_TAG_CASCADE = 2    # Cascade's permutations, by config_seed
SEED_TAG_HASH = 3       # the hash's a and b, drawn raw from PCG64
SEED_TAG_DRIFT = 4      # an experiment's drift walk
SEED_TAG_EYE = 5        # a classical channel's eye-diagram noise


def derive_seed(cfg, block_id: int, tag: int) -> int:
    """Deterministic per-block sub-seed shared by both endpoints."""
    ss = np.random.SeedSequence((cfg.seed, block_id, tag))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def config_seed(cfg, tag: int) -> int:
    """Deterministic sub-seed that the config alone fixes, shared by every
    block.  The tag is a spawn key: SeedSequence((cfg.seed, tag)) would
    be derive_seed's entropy for block `tag`'s pulses, since numpy pads
    entropy with zeros."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(tag,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class BlockResult:
    report: pp.KeySessionReport
    key_bits: np.ndarray
    variance_snu: float      # normalized signal variance, modulation included
    qber_raw: float          # this block's own sample estimate; 0.5
                             # if it kept no pulse
    residual_errors: int     # bits Cascade left unequal, counted only by
                             # an end that holds both strings


@functools.lru_cache(maxsize=16)
def model_qber(cfg) -> float:
    """The error rate the model expects of a kept pulse at the mean drift.
    BlockRunner's pooled estimate starts here, and Cascade's first block
    size assumes no lower rate, however few errors a block's sample shows.
    A config is immutable, so each is computed once."""
    table, sigma = signal_model(cfg, cfg.drift.mean_state())
    return pp.expected_qber(float(np.mean(np.abs(table))), sigma ** 2,
                            cfg.x_th_snu)


def _signal_statistics(cfg, block_id: int, drift: DriftState):
    """The block's random stream and its physics.SignalStatistics: blocked
    calibration frames first, then the signal frames."""
    rng = np.random.default_rng(derive_seed(cfg, block_id, SEED_TAG_PULSES))
    n_cal = cfg.calibration_pulses
    return rng, draw_signal_statistics(cfg.block_size_pulses - n_cal, n_cal,
                                       cfg, drift, rng)


def signal_variance(cfg, block_id: int, drift: DriftState) -> float:
    """The normalized variance of all of a block's signal outcomes, as
    distill_block reports it, without drawing a kept pulse."""
    return _signal_statistics(cfg, block_id, drift)[1].variance_snu


def simulate_quantum_exchange(cfg, block_id: int,
                              drift: DriftState) -> KeptPulses:
    """One block's signal pulses that reach cfg.x_th_snu after
    normalization by the measured shot noise, and the variance of all of
    them; physics.draw_kept_pulses says how they are drawn."""
    rng, stats = _signal_statistics(cfg, block_id, drift)
    return draw_kept_pulses(stats, cfg.x_th_snu, rng)


def local_answer(sender: str, kind: str, make, bound):
    """The in-process answer to a step: both roles are here, so a sent
    value is the sender's own."""
    return make()


def _reconcile(alice_key, bob_key, perms, k1):
    """Cascade's steps: each PARITY_REQ of Alice's, which advances her
    cascade_steps, and Bob's PARITY_RSP from his LocalParityOracle, until
    her empty request; a `None` key is a role this end does not play.
    Returns (Alice's corrected string, or None at Bob's end; the parities
    Bob served).  Alice asks nothing once n_kept parities are out, so a
    request's bound holds the parities served, and Bob, serving across
    the wire, refuses a further one."""
    oracle = None if bob_key is None else pp.LocalParityOracle(bob_key, perms)
    corrected, parities, served = None, None, 0

    def alice_requests():
        # cascade_steps', then the empty request that ends Cascade
        nonlocal corrected
        corrected, _ = yield from pp.cascade_steps(alice_key, k1, perms)
        yield 0, [], []

    requests = alice_requests()
    while True:
        p, starts, ends = yield "alice", "PARITY_REQ", lambda: requests.send(
            parities), (perms, served)
        if not len(starts):
            return corrected, served
        served += len(starts)
        parities = yield "bob", "PARITY_RSP", lambda: oracle.parities(
            p, starts, ends), len(starts)


def run_chain(cfg, block_id: int, batch: KeptPulses, alice: bool = True,
              bob: bool = True, qber_used: float | None = None):
    """Distill one simulated block, from post-selection to key confirmation,
    as the steps of an end that plays the roles `alice` and `bob`.

    An end computes what the roles it plays hold, and yields every value
    one role sends the other (see the module docstring); it returns the
    block's BlockResult.

    `qber_used` replaces the block's sampled error rate in the key-length
    arithmetic; Cascade still corrects the real errors.  Without one (every
    wire session), the key is sized at the sample's rate or model_qber,
    whichever is higher, so that a small sample that happens to show few
    errors does not size the key above what the model supports.
    """
    # Both ends draw the kept pulses in the same order, and indices count
    # them: a wire session's HELLOs have checked that both ends simulate
    # the same block.
    n_post = batch.bob_bit.size
    p_post = n_post / batch.n_signal

    # Sifting: Bob announces the quadratures he measured the kept pulses in.
    quad = yield "bob", "BASIS_ANNOUNCE", lambda: batch.bob_quadrature, n_post
    alice_bits = (pp.sift_alice_bits(batch.alice_phase_index, quad)
                  if alice else None)
    bob_bits = batch.bob_bit if bob else None

    # Error estimation on a disclosed pseudo-random subset of the kept bits,
    # which each end draws from the shared seed.  With none kept, there is
    # no sample, and 0.5, the error rate that certifies no key, stands in
    # for the estimate.
    if n_post:
        rng = np.random.default_rng(derive_seed(cfg, block_id,
                                                SEED_TAG_SAMPLE))
        sample = pp.disclosure_sample(n_post, cfg.sample_fraction, rng)
        sample_bits = yield ("alice", "SAMPLE_BITS",
                             lambda: alice_bits[sample], sample.size)
        qber_raw = yield "bob", "QBER_REPORT", lambda: int(np.count_nonzero(
            sample_bits != bob_bits[sample])) / sample.size, None
    else:
        sample, qber_raw = np.empty(0, dtype=np.intp), 0.5
    qber = max(qber_raw, model_qber(cfg)) if qber_used is None else qber_used
    disclosed = sample.size
    n_kept = n_post - disclosed

    # Reverse reconciliation: Alice corrects her string toward Bob's, if the
    # sample left a bit to correct.
    keep = np.ones(n_post, dtype=bool)
    keep[sample] = False
    alice_key = alice_bits[keep] if alice else None
    bob_key = bob_bits[keep] if bob else None
    perms = pp.CascadePermutations(n_kept, cfg.cascade_passes,
                                   config_seed(cfg, SEED_TAG_CASCADE))
    k1 = pp.cascade_block_size(max(qber, model_qber(cfg), 1e-3), n_kept)
    corrected, leak = ((yield from _reconcile(alice_key, bob_key, perms, k1))
                       if n_kept else (alice_key, 0))
    # a diagnostic of an end that holds both strings; the tags decide
    residual = (int(np.count_nonzero(corrected != bob_key))
                if alice and bob else 0)

    # Privacy amplification and key confirmation.  Each end sizes the key
    # from values both hold (Alice's leak is the parities Bob served) and
    # hashes the string it holds; the last 32 bits of the same output
    # confirm it.  Equal strings give equal tags, so an end that holds both
    # hashes Alice's only if they differ; unequal ones give equal tags with
    # probability 2^-32, the hash being strongly universal.  Unequal tags
    # leave the block no key.
    i_ab, chi_e = pp.secret_fraction(qber, cfg.alpha,
                                     fiber_transmittance(cfg.fiber))
    out_len = pp.final_key_length(n_post, i_ab, chi_e, leak, disclosed)
    hash_seed = derive_seed(cfg, block_id, SEED_TAG_HASH)
    key, tag = pp.toeplitz_hash(corrected if bob_key is None else bob_key,
                                hash_seed, out_len)
    bob_tag = yield "bob", "KEY_CONFIRM", lambda: tag, tag.size
    alice_tag = yield "alice", "KEY_CONFIRM", lambda: (pp.toeplitz_hash(
        corrected, hash_seed, out_len)[1] if residual else tag), tag.size
    if not np.array_equal(alice_tag, bob_tag):
        key = key[:0]

    report = pp.KeySessionReport(
        p_post=p_post, qber=qber, leak_bits=leak, final_key_bits=int(key.size),
        skr_bits_per_s=key.size * cfg.rep_rate_hz / cfg.block_size_pulses)
    return BlockResult(report=report, key_bits=key,
                       variance_snu=batch.variance_snu, qber_raw=qber_raw,
                       residual_errors=residual)


def distill_block(cfg, block_id: int, drift: DriftState,
                  qber_used: float | None = None) -> BlockResult:
    """Full distillation of one block in process; `qber_used` substitutes
    a pooled error-rate estimate (e.g. the experiment runner's running
    average) for the block's own noisy sample, and without one the key is
    sized no lower than model_qber, as in run_chain."""
    return pp.drive(run_chain(cfg, block_id, simulate_quantum_exchange(
        cfg, block_id, drift), qber_used=qber_used), local_answer)
