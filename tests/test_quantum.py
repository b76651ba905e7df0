import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim.quantum import (
    CoherentStateEnsemble,
    binary_entropy,
    coherent_overlap,
    gram_matrix,
    holevo_bound,
)

# Independent check of the four-state Holevo quantity, which acceptance
# criterion 7 holds holevo_bound to: build the average state in a
# truncated Fock basis and take its entropy directly.
FOCK_CUTOFF = 40


def _fock_coherent(a: complex, cutoff: int = FOCK_CUTOFF) -> np.ndarray:
    amp = np.empty(cutoff, dtype=complex)
    term = cmath.exp(-abs(a) ** 2 / 2.0)
    for k in range(cutoff):
        amp[k] = term
        term *= a / math.sqrt(k + 1)
    return amp


def _holevo_fock(ensemble: CoherentStateEnsemble) -> float:
    rho = sum(
        p * np.outer(s, s.conj())
        for p, s in ((p, _fock_coherent(a))
                     for a, p in zip(ensemble.amplitudes,
                                     ensemble.probabilities))
    )
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log2(lam)))


def _four_state_closed_form(modulus: float) -> float:
    """Exact spectrum of the equiprobable four-state average state."""
    x = modulus ** 2
    e2, e1 = math.exp(-2.0 * x), math.exp(-x)
    lams = [
        (1.0 + e2 + 2.0 * e1 * math.cos(x)) / 4.0,
        (1.0 + e2 - 2.0 * e1 * math.cos(x)) / 4.0,
        (1.0 - e2 + 2.0 * e1 * math.sin(x)) / 4.0,
        (1.0 - e2 - 2.0 * e1 * math.sin(x)) / 4.0,
    ]
    return -sum(l * math.log2(l) for l in lams if l > 0.0)


class TestOverlap:
    def test_self_overlap_is_one(self):
        assert coherent_overlap(0.3 + 0.4j, 0.3 + 0.4j) == pytest.approx(1.0)

    def test_vacuum_overlap(self):
        a = 0.7
        assert coherent_overlap(0.0, a) == pytest.approx(math.exp(-a * a / 2))

    def test_conjugate_symmetry(self):
        a, b = 0.2 + 0.9j, -0.4 + 0.1j
        assert coherent_overlap(a, b) == pytest.approx(
            coherent_overlap(b, a).conjugate())

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False))
    def test_magnitude_at_most_one(self, a, b):
        assert abs(coherent_overlap(a, b)) <= 1.0 + 1e-12


class TestEnsemble:
    def test_four_state_phases(self):
        ens = CoherentStateEnsemble.four_state(0.68)
        expected = [0.68 * cmath.exp(1j * (2 * k + 1) * math.pi / 4)
                    for k in range(4)]
        assert ens.amplitudes == pytest.approx(expected)
        assert ens.probabilities == (0.25,) * 4

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            CoherentStateEnsemble((0.1, 0.2), (0.6, 0.6))
        with pytest.raises(ValueError):
            CoherentStateEnsemble((0.1,), (-1.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CoherentStateEnsemble((0.1, 0.2), (1.0,))


class TestGram:
    def test_unit_diagonal_and_hermitian(self):
        g = gram_matrix(CoherentStateEnsemble.four_state(0.9))
        assert np.allclose(np.diag(g), 1.0)
        assert np.allclose(g, g.conj().T)

    def test_trace_equals_size(self):
        for m in (0.1, 0.68, 2.0):
            g = gram_matrix(CoherentStateEnsemble.four_state(m))
            assert np.trace(g).real == pytest.approx(4.0)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestHolevo:
    def test_two_state_closed_form(self):
        # chi = H2((1 - s) / 2) with s = <a|-a> = exp(-2|a|^2)
        ens = CoherentStateEnsemble((0.5, -0.5), (0.5, 0.5))
        assert holevo_bound(ens) == pytest.approx(0.7153491667107217,
                                                  abs=1e-9)

    def test_four_state_closed_form(self):
        for m in (0.3, 0.68, 1.1):
            got = holevo_bound(CoherentStateEnsemble.four_state(m))
            assert got == pytest.approx(_four_state_closed_form(m), abs=1e-12)

    def test_four_state_fock_oracle(self):
        for m in (0.5, 0.68, 1.0):
            ens = CoherentStateEnsemble.four_state(m)
            assert holevo_bound(ens) == pytest.approx(_holevo_fock(ens),
                                                      abs=1e-8)

    def test_pinned_values(self):
        assert holevo_bound(
            CoherentStateEnsemble.four_state(0.5)) == pytest.approx(
                0.8889948191004737, abs=1e-8)
        assert holevo_bound(
            CoherentStateEnsemble.four_state(0.68)) == pytest.approx(
                1.2680365207588613, abs=1e-8)

    def test_single_state_is_zero(self):
        ens = CoherentStateEnsemble((0.8,), (1.0,))
        assert holevo_bound(ens) == 0.0

    def test_global_phase_invariance(self):
        base = CoherentStateEnsemble.four_state(0.68)
        for phi in (0.3, 1.0, 2.5):
            rot = CoherentStateEnsemble(
                tuple(a * cmath.exp(1j * phi) for a in base.amplitudes),
                base.probabilities)
            assert holevo_bound(rot) == pytest.approx(holevo_bound(base),
                                                      abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=2.0))
    def test_bounded_by_log_n_states(self, modulus):
        chi = holevo_bound(CoherentStateEnsemble.four_state(modulus))
        assert 0.0 <= chi <= 2.0 + 1e-12

    def test_monotone_in_modulus_at_small_amplitude(self):
        values = [holevo_bound(CoherentStateEnsemble.four_state(m))
                  for m in (0.1, 0.3, 0.5, 0.7)]
        assert all(a < b for a, b in zip(values, values[1:]))
