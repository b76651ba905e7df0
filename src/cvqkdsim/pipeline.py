"""Per-block simulation and the distillation chain.

The quantum exchange of a block is reproducible from (config seed,
block id) alone, which is what lets the two protocol endpoints in
protocol.py reconstruct the same physics without quantum data on the
wire.  It draws only what the chain reads: the pulses that pass
post-selection (physics.KeptPulses), ~2.5 % of a default block, and the
block's signal variance from per-class statistics.  run_chain() distills
a block into a BlockResult, which distill_block() returns in process for
the experiment runners and protocol.run_session() over the wire.

The transports differ only in the link run_chain is given:
  * `alice`, `bob`: whether this end plays each role and holds its data;
  * `from_bob(kind, make, bound)`, `from_alice(...)`: a value one role
    sends the other, under its MsgType name.  The sender calls `make`,
    the receiver gets the peer's value, checked against `bound`;
  * `fail(reason, detail)`, wire only: abort both ends with an
    AbortReason name and return the SessionFailed to raise.

A block that keeps no pulse, or whose error sample leaves no bit to
reconcile, yields a 0-bit key and SKR 0 on both paths.  The two paths
differ in one behaviour: a block that Cascade leaves with residual errors
yields no key and SKR 0 in process, while over the wire it fails
KEY_CONFIRM and both ends abort with KEY_MISMATCH.  A malformed frame from
the peer ends both ends in SessionFailed with matching AbortReasons.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import SimpleNamespace

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
    "LocalLink",
    "derive_seed",
    "model_qber",
    "signal_variance",
    "simulate_quantum_exchange",
    "run_chain",
    "distill_block",
]


def derive_seed(cfg, block_id: int, tag: int) -> int:
    """Deterministic per-block sub-seed shared by both endpoints."""
    ss = np.random.SeedSequence((cfg.seed, block_id, tag))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class BlockResult:
    report: pp.KeySessionReport
    key_bits: np.ndarray
    variance_snu: float      # normalized signal variance, modulation included
    qber_raw: float          # this block's own sample estimate; 0.5
                             # if it kept no pulse
    residual_errors: int


def model_qber(cfg) -> float:
    """The error rate the model expects of a kept pulse at the mean drift.
    BlockRunner's pooled estimate starts here, and Cascade's first block
    size assumes no lower rate, however few errors a block's sample shows."""
    table, sigma = signal_model(cfg, cfg.drift.mean_state())
    return pp.expected_qber(float(np.mean(np.abs(table))), sigma ** 2,
                            cfg.x_th_snu)


def _signal_statistics(cfg, block_id: int, drift: DriftState):
    """The block's random stream and its physics.SignalStatistics: blocked
    calibration frames first, then the signal frames."""
    rng = np.random.default_rng(derive_seed(cfg, block_id, 0))
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


class LocalLink:
    """Both roles in one process: a sent value is the sender's own."""

    alice = bob = True   # this end holds each role's data

    def from_bob(self, kind: str, make, bound=None):
        return make()

    from_alice = from_bob


def _reconcile(link, alice_key, bob_key, perms, k1):
    """Cascade, one PARITY_REQ/PARITY_RSP exchange per call of Alice's
    oracle, until her empty request.  Returns (Alice's corrected string or
    None, parities disclosed).  Alice asks nothing once n_kept parities are
    out, so Bob, serving across the wire, takes a further request as a
    protocol violation."""
    oracle = pp.LocalParityOracle(bob_key, perms) if link.bob else None
    if link.alice:
        def parities(p, starts, ends):
            link.from_alice("PARITY_REQ", lambda: (p, starts, ends))
            return link.from_bob("PARITY_RSP", lambda: oracle.parities(
                p, starts, ends), len(starts))

        result = pp.cascade_reconcile(
            alice_key, SimpleNamespace(parities=parities), k1, perms)
        link.from_alice("PARITY_REQ", lambda: (0, [], []))
        return result
    while True:
        p, starts, ends = link.from_alice("PARITY_REQ", None, perms)
        if starts.size == 0:
            return None, oracle.query_count
        if oracle.query_count >= perms.n:
            raise link.fail("UNEXPECTED_MESSAGE",
                            "parity request after n_kept parities")
        link.from_bob("PARITY_RSP", lambda: oracle.parities(p, starts, ends))


def run_chain(cfg, block_id: int, batch: KeptPulses, link,
              qber_used: float | None = None) -> BlockResult:
    """Distill one simulated block, from the keep mask to key confirmation.

    An end computes what the roles it plays hold, and every value one role
    sends the other passes through the link (see the module docstring).
    `qber_used` replaces the block's sampled error rate in the key-length
    arithmetic; Cascade still corrects the real errors.
    """
    # Bob sends the keep mask first; from here on, indices count kept pulses.
    # Alice's share of the simulated block holds the kept pulses only, so
    # an end that plays her alone checks that the mask is her block's.
    mask = link.from_bob("POSTSELECT_MASK", batch.keep_mask, batch.n_signal)
    if not link.bob and not np.array_equal(mask, batch.keep_mask()):
        raise link.fail("UNEXPECTED_MESSAGE", "keep mask differs from block")
    n_post = batch.position.size
    p_post = n_post / batch.n_signal

    # Sifting: Bob announces the quadratures he measured the kept pulses in.
    quad = link.from_bob("BASIS_ANNOUNCE", lambda: batch.bob_quadrature,
                         n_post)
    alice_bits = (pp.sift_alice_bits(batch.alice_phase_index, quad)
                  if link.alice else None)
    bob_bits = ((batch.outcome_snu > 0.0).astype(np.uint8)
                if link.bob else None)

    # Error estimation on a disclosed pseudo-random subset of the kept bits.
    # With none kept, both ends know there is no sample, and 0.5, the error
    # rate that certifies no key, stands in for the estimate.
    if n_post:
        sample = link.from_bob("SAMPLE_INDICES", lambda: pp.disclosure_sample(
            n_post, cfg.sample_fraction,
            np.random.default_rng(derive_seed(cfg, block_id, 1))), n_post)
        sample_bits = link.from_alice("SAMPLE_BITS",
                                      lambda: alice_bits[sample], sample.size)
        qber_raw = link.from_bob("QBER_REPORT", lambda: float(
            np.mean(sample_bits != bob_bits[sample])))
    else:
        sample, qber_raw = batch.position, 0.5
    qber = qber_raw if qber_used is None else qber_used
    disclosed = sample.size
    n_kept = n_post - disclosed

    # Reverse reconciliation: Alice corrects her string toward Bob's, if the
    # sample left a bit to correct.
    alice_key = np.delete(alice_bits, sample) if link.alice else None
    bob_key = np.delete(bob_bits, sample) if link.bob else None
    perms = pp.CascadePermutations(n_kept, cfg.cascade_passes,
                                   derive_seed(cfg, block_id, 2))
    k1 = pp.cascade_block_size(max(qber, model_qber(cfg), 1e-3), n_kept)
    corrected, leak = (_reconcile(link, alice_key, bob_key, perms, k1)
                       if n_kept else (alice_key, 0))
    # Only an end holding both strings can count residual errors, and it
    # keeps no key from such a block; over the wire, key confirmation fails.
    residual = (int(np.sum(corrected != bob_key))
                if link.alice and link.bob else 0)

    # Privacy amplification and key confirmation.
    i_ab, chi_e = pp.secret_fraction(qber, cfg.alpha,
                                     fiber_transmittance(cfg.fiber))
    hash_seed, out_len = link.from_bob("HASH_SEED", lambda: (
        derive_seed(cfg, block_id, 3),
        0 if residual else min(n_kept, pp.final_key_length(
            n_post, i_ab, chi_e, leak, disclosed))), n_kept)
    key = pp.toeplitz_hash(corrected if bob_key is None else bob_key,
                           hash_seed, out_len)
    digest = hashlib.sha256(np.packbits(key).tobytes()).digest()
    bob_digest = link.from_bob("KEY_CONFIRM", lambda: digest)
    if link.from_alice("KEY_CONFIRM", lambda: digest) != bob_digest:
        raise link.fail("KEY_MISMATCH", "final keys differ")

    skr = 0.0 if residual else pp.compute_skr(
        cfg.block_size_pulses, cfg.rep_rate_hz, cfg.f_cal, p_post,
        i_ab, chi_e, leak, disclosed)
    report = pp.KeySessionReport(
        n_pulses=cfg.block_size_pulses, p_post=p_post, qber=qber,
        i_ab_bits=i_ab, chi_e_bits=chi_e, leak_bits=leak,
        final_key_bits=int(key.size), skr_bits_per_s=skr)
    return BlockResult(report=report, key_bits=key,
                       variance_snu=batch.variance_snu, qber_raw=qber_raw,
                       residual_errors=residual)


def distill_block(cfg, block_id: int, drift: DriftState,
                  qber_used: float | None = None) -> BlockResult:
    """Full distillation of one block in process; `qber_used` substitutes
    a pooled error-rate estimate (e.g. the experiment runner's running
    average) for the block's own noisy sample, as in run_chain."""
    return run_chain(cfg, block_id,
                     simulate_quantum_exchange(cfg, block_id, drift),
                     LocalLink(), qber_used)
