"""State constructors: photon statistics and phase structure."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from antibunch import cli, fock, states
from antibunch.beamsplitter import g2_from_coeffs
from antibunch.errors import ConfigError, TruncationError
from antibunch.states import CatParams, KerrParams


class TestCoherent:
    def test_poissonian_probabilities(self):
        alpha = 0.6
        psi = states.coherent(alpha, 32)
        n = np.arange(32)
        factorials = np.array([math.factorial(int(k)) for k in n], dtype=float)
        expected = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / factorials
        assert np.max(np.abs(psi.probabilities() - expected)) < 1e-12

    def test_mean_photon_number(self):
        psi = states.coherent(0.9 + 0.4j, 48)
        assert psi.mean_n() == pytest.approx(0.9**2 + 0.4**2, rel=1e-10)

    def test_g2_is_unity(self):
        psi = states.coherent(0.5, 32)
        assert g2_from_coeffs(psi) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(alphas=st.lists(st.one_of(st.floats(0.0, 3.0), st.complex_numbers(max_magnitude=3.0)),
                           min_size=1, max_size=5),
           dim=st.integers(2, 60))
    def test_cumulative_product_rounds_as_the_recursion(self, alphas, dim):
        # c_n = c_{n-1} * alpha / sqrt(n), one complex scalar step at a time
        for alpha, terms in zip(alphas, states._coherent_terms(np.array(alphas), dim)):
            loop = [np.complex128(1.0)]
            for n in range(1, dim):
                loop.append(loop[-1] * alpha / math.sqrt(n))
            assert np.array_equal(terms, np.array(loop) * math.exp(-0.5 * abs(alpha) ** 2))


class TestPhaseModified:
    def test_only_two_photon_amplitude_rotated(self):
        alpha = 0.4
        base = states.coherent(alpha, 24)
        mod = states.phase_modified_coherent(alpha, 24)
        ratio = mod.amps / base.amps
        assert ratio[2] == pytest.approx(1.0j)
        mask = np.ones(24, dtype=bool)
        mask[2] = False
        assert np.allclose(ratio[mask], 1.0, atol=1e-12)

    def test_needs_three_levels(self):
        with pytest.raises(Exception):
            states.phase_modified_coherent(0.3, 2)


class TestKerrCoherent:
    def test_amplitude_magnitudes_preserved(self):
        base = states.coherent(0.3, 20)
        kerr = states.kerr_coherent(KerrParams(0.3, 0.05), 20)
        assert np.allclose(np.abs(kerr.amps), np.abs(base.amps), atol=1e-14)

    def test_phase_pattern(self):
        chi_t = 0.07
        kerr = states.kerr_coherent(KerrParams(0.5, chi_t), 16)
        base = states.coherent(0.5, 16)
        n = np.arange(16)
        expected = base.amps * np.exp(-1j * chi_t * (n**2 - n))
        assert np.max(np.abs(kerr.amps - expected)) < 1e-13

    def test_zero_interaction_is_coherent(self):
        kerr = states.kerr_coherent(KerrParams(0.4, 0.0), 16)
        assert np.array_equal(kerr.amps, states.coherent(0.4, 16).amps)


class TestVacuumTwoPhoton:
    def test_amplitudes(self):
        psi = states.vacuum_two_photon(0.3)
        assert psi.amps[0] == pytest.approx(np.sqrt(1 - 0.09))
        assert psi.amps[1] == 0.0
        assert psi.amps[2] == pytest.approx(0.3)

    def test_g2_law(self):
        # pure vacuum + two-photon superposition: g2 = 1 / (2 c2^2)
        for c2 in (0.1, 0.25, 0.5, 0.9):
            psi = states.vacuum_two_photon(c2)
            assert g2_from_coeffs(psi) == pytest.approx(1 / (2 * c2**2), rel=1e-12)
        assert g2_from_coeffs(states.vacuum_two_photon(0.5)) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            states.vacuum_two_photon(1.2)
        with pytest.raises(ValueError):
            states.vacuum_two_photon(-0.1)


class TestCatStates:
    def test_even_cat_support(self):
        psi = states.cat_state(CatParams(0.8, +1), 24)
        assert np.allclose(psi.amps[1::2], 0.0, atol=1e-14)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_odd_cat_support(self):
        psi = states.cat_state(CatParams(0.8, -1), 24)
        assert np.allclose(psi.amps[0::2], 0.0, atol=1e-14)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_superposition_structure(self):
        # even cat ~ |alpha> + |-alpha> up to normalization
        alpha = 0.6
        psi = states.cat_state(CatParams(alpha, +1), 32)
        plus = states.coherent(alpha, 32).amps
        minus = states.coherent(-alpha, 32).amps
        target = plus + minus
        target = target / np.linalg.norm(target)
        assert np.max(np.abs(psi.amps - target)) < 1e-10

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            CatParams(0.5, 0)

    def test_odd_cat_at_zero_amplitude(self):
        with pytest.raises(ValueError):
            states.cat_state(CatParams(0.0, -1), 16)

    @pytest.mark.parametrize("alpha_sch", [1e-3, 1e-5, 1e-7, 1e-9])
    def test_odd_cat_stays_normalized_near_zero_amplitude(self, alpha_sch):
        # 1 - e^{-2|alpha|^2} cancels as alpha_sch -> 0; the norm must not.
        psi = states.cat_state(CatParams(alpha_sch, -1), 16)
        assert abs(psi.norm() - 1.0) <= 1e-15


class TestSqueezedStates:
    def test_squeezed_vacuum_even_support(self):
        psi = states.squeezed_vacuum(0.3, 40)
        assert np.allclose(psi.amps[1::2], 0.0, atol=1e-14)

    def test_squeezed_vacuum_mean_n(self):
        r = 0.3
        psi = states.squeezed_vacuum(r, 48)
        assert psi.mean_n() == pytest.approx(np.sinh(r) ** 2, rel=1e-8)

    def test_squeezed_coherent_mean_n(self):
        # displacement then squeeze ordering D(alpha) S(xi) |0>
        alpha, r = 0.5, 0.2
        psi = states.squeezed_coherent(alpha, r, 48)
        assert psi.mean_n() == pytest.approx(abs(alpha) ** 2 + np.sinh(r) ** 2, rel=1e-7)

    def test_squeezed_coherent_reduces_to_coherent(self):
        psi = states.squeezed_coherent(0.4, 0.0, 32)
        assert np.max(np.abs(psi.amps - states.coherent(0.4, 32).amps)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(r=st.floats(0.0, 1.5), omega=st.floats(0.0, 2.0 * math.pi),
           alpha=st.complex_numbers(max_magnitude=2.0))
    def test_matches_expm_reference_and_wick_moments(self, r, omega, alpha):
        # Checked at the first dim the truncation rule allows above which less
        # than 1e-14 of the population lies.  The 200-level reference is itself
        # converged to 1e-14 only for states that fit in its lowest 100 levels
        # (r up to about 1 here); broader squeezes are discarded.
        xi = cmath.rect(r, omega)
        reference = expm_reference(alpha, xi)
        tail = np.cumsum(np.abs(reference[::-1]) ** 2)[::-1]
        floor = fock.truncated(states._squeezed_terms, (alpha, xi)).size
        fits = np.flatnonzero(tail[floor:101] < 1e-14)
        assume(fits.size > 0)
        dim = floor + int(fits[0])
        psi = states.squeezed_coherent(alpha, xi, dim)
        assert np.max(np.abs(psi.amps - reference[:dim])) < 1e-12
        a = fock.annihilation(dim)
        moments = [fock.expectation(psi, op) for op in (a, a.conj().T @ a, a @ a)]
        wick = [alpha, abs(alpha) ** 2 + math.sinh(r) ** 2,
                alpha**2 - cmath.exp(1j * omega) * math.sinh(r) * math.cosh(r)]
        assert np.max(np.abs(np.subtract(moments, wick))) < 1e-10


def expm_reference(alpha, xi, levels=200):
    """D(alpha) S(xi)|0> from scipy's expm of both generators on `levels` levels."""
    a = fock.annihilation(levels)
    ad = a.conj().T
    squeezed = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))[:, 0]
    return expm(alpha * ad - np.conj(alpha) * a) @ squeezed


def _amplitude(magnitude, least=0.0):
    """An [re, im] spec value of modulus in [least, magnitude], at any phase."""
    return st.tuples(st.floats(least, magnitude), st.floats(0.0, 2.0 * math.pi)).map(
        lambda p: [p[0] * math.cos(p[1]), p[0] * math.sin(p[1])])


def _c(spec, key):
    return complex(*spec[key])


# Every kind of unbounded photon number: a strategy for its spec's parameters,
# and its state rebuilt from the spec at a given truncation.
TAIL_KINDS = {
    "coherent": (st.fixed_dictionaries({"alpha": _amplitude(11.0)}),
                 lambda s, d: states.coherent(_c(s, "alpha"), d)),
    "phase_modified": (st.fixed_dictionaries({"alpha": _amplitude(11.0)}),
                       lambda s, d: states.phase_modified_coherent(_c(s, "alpha"), d)),
    "kerr_coherent": (st.fixed_dictionaries({"alpha": _amplitude(11.0),
                                             "chi_t": st.floats(-1.0, 1.0)}),
                      lambda s, d: states.kerr_coherent(KerrParams(_c(s, "alpha"), s["chi_t"]), d)),
    "cat": (st.fixed_dictionaries({"alpha_sch": _amplitude(11.0, least=1e-3),
                                   "parity": st.sampled_from([1, -1])}),
            lambda s, d: states.cat_state(CatParams(_c(s, "alpha_sch"), s["parity"]), d)),
    "squeezed_vacuum": (st.fixed_dictionaries({"xi": _amplitude(1.5)}),
                        lambda s, d: states.squeezed_vacuum(_c(s, "xi"), d)),
    "squeezed_coherent": (st.fixed_dictionaries({"alpha": _amplitude(3.0), "xi": _amplitude(1.5)}),
                          lambda s, d: states.squeezed_coherent(_c(s, "alpha"), _c(s, "xi"), d)),
}


class TestTailRule:
    @pytest.mark.parametrize("kind", sorted(TAIL_KINDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_no_accepted_truncation_cuts_more_than_the_tail(self, kind, data):
        # Every dim the CLI accepts leaves at most fock._TAIL of the population
        # and of <a^dag^2 a^2> above it, summed on 2048 levels; one level fewer
        # than its default is refused.
        params, rebuild = TAIL_KINDS[kind]
        spec = {"kind": kind, **data.draw(params)}
        try:
            default = cli.build_state(spec).dim
        except ConfigError:  # a default truncation above cli.MAX_DIM
            assume(False)
        if default > 3:  # 3 levels hold a state of no pairs at all
            with pytest.raises(TruncationError):
                cli.build_state({**spec, "dim": default - 1})
        dim = data.draw(st.integers(default, cli.MAX_DIM))
        assert cli.build_state({**spec, "dim": dim}).dim == dim
        p = rebuild(spec, 2048).probabilities()
        pairs = np.arange(p.size) * np.arange(-1, p.size - 1) * p
        assert p[dim:].sum() <= fock._TAIL
        assert pairs[dim:].sum() <= fock._TAIL * pairs.sum()

    @pytest.mark.parametrize("kind", sorted(TAIL_KINDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_accepted_truncation_is_the_factorys_state(self, kind, data):
        # The rule's amplitudes are the public factory's at the same dim, bit for bit.
        params, rebuild = TAIL_KINDS[kind]
        spec = {"kind": kind, **data.draw(params)}
        try:
            default = cli.build_state(spec)
        except ConfigError:  # a default truncation above cli.MAX_DIM
            assume(False)
        dim = data.draw(st.integers(default.dim, cli.MAX_DIM))
        for psi in (default, cli.build_state({**spec, "dim": dim})):
            assert np.array_equal(psi.amps, rebuild(spec, psi.dim).amps)
