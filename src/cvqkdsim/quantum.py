"""Small-dimension coherent-state math.

Overlaps, Gram matrices and the Holevo quantity for finite ensembles of
pure coherent states.  Everything here works in the span of the ensemble,
so the matrices involved are at most n x n for n states.

All entropies are in bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentStateEnsemble",
    "binary_entropy",
    "coherent_overlap",
    "gram_matrix",
    "holevo_bound",
]

# Eigenvalues of a density operator may come out slightly negative from
# roundoff; anything below -EIG_NEGATIVE_TOL is treated as a bug.
EIG_NEGATIVE_TOL = 1e-10
ENTROPY_CLIP = 1e-15
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CoherentStateEnsemble:
    """A finite ensemble of pure coherent states |a_i> with weights p_i."""

    amplitudes: tuple[complex, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        probs = tuple(float(p) for p in self.probabilities)
        if len(amps) < 1:
            raise ValueError("ensemble needs at least one state")
        if len(amps) != len(probs):
            raise ValueError("amplitudes and probabilities differ in length")
        for a in amps:
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite amplitude {a!r}")
        for p in probs:
            if not math.isfinite(p) or p < 0.0 or p > 1.0:
                raise ValueError(f"probability {p!r} outside [0, 1]")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def four_state(cls, modulus: float) -> "CoherentStateEnsemble":
        """Equiprobable states at phases (2k+1)*pi/4, k = 0..3."""
        amps = tuple(
            modulus * cmath.exp(1j * (2 * k + 1) * math.pi / 4) for k in range(4)
        )
        return cls(amps, (0.25,) * 4)


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states.

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b), so |<a|b>| <= 1 with
    equality iff a == b.
    """
    a = complex(a)
    b = complex(b)
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


def gram_matrix(ensemble: CoherentStateEnsemble) -> np.ndarray:
    """Pairwise overlap matrix G[i, j] = <a_i|a_j> (Hermitian, unit diagonal)."""
    n = len(ensemble)
    g = np.empty((n, n), dtype=complex)
    for i, ai in enumerate(ensemble.amplitudes):
        g[i, i] = 1.0
        for j in range(i + 1, n):
            g[i, j] = coherent_overlap(ai, ensemble.amplitudes[j])
            g[j, i] = g[i, j].conjugate()
    return g


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy H2(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    lam = np.asarray(eigenvalues, dtype=float).copy()
    if np.any(lam < -EIG_NEGATIVE_TOL):
        raise ValueError(f"eigenvalue {lam.min()} below tolerated roundoff")
    lam[lam < ENTROPY_CLIP] = 0.0
    nz = lam[lam > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def holevo_bound(ensemble: CoherentStateEnsemble) -> float:
    """Holevo quantity (bits) of a pure-state ensemble.

    For pure states the conditional entropies vanish, so the bound equals
    S(rho_bar) with rho_bar = sum_i p_i |a_i><a_i|.  The nonzero spectrum
    of rho_bar equals that of K[i, j] = sqrt(p_i p_j) <a_i|a_j>, which is
    diagonalized in the span of the ensemble.
    """
    g = gram_matrix(ensemble)
    w = np.sqrt(np.asarray(ensemble.probabilities, dtype=float))
    k = g * np.outer(w, w)
    lam = np.linalg.eigvalsh(k)
    return _entropy_bits(lam)
