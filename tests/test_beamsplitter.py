"""Beamsplitter mixing: the mode map, conservation laws, and g2 extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import eigh_tridiagonal, expm

from antibunch import beamsplitter, fock, states
from antibunch.beamsplitter import (
    BeamsplitterParams,
    _ladder_moments,
    _mode_map_residual,
    _sectors,
    g2_from_coeffs,
    mix,
    output_g2,
    output_g2_b,
    output_moments,
)
from antibunch.errors import VacuumOutputError
from antibunch.fock import FockVector, TwoModeState


def random_state(rng, dim, support=None):
    """Random pure state; a small support keeps mixed photons inside the
    truncation so identities hold at full precision."""
    amps = np.zeros(dim, dtype=complex)
    k = support or dim
    amps[:k] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return FockVector(amps).normalize()


class TestParams:
    def test_transmission_and_phase(self):
        params = BeamsplitterParams(0.3, 0.5)
        assert params.T == pytest.approx(0.7)
        assert params.phase_rad == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("bad_r", [-0.1, 1.1])
    def test_reflectivity_domain(self, bad_r):
        with pytest.raises(ValueError):
            BeamsplitterParams(bad_r)


def dense_mix(amps_a, amps_b, params):
    """Reference mixer: expm of the dense truncated joint generator."""
    a = fock.annihilation(amps_a.size)
    b = fock.annihilation(amps_b.size)
    generator = np.kron(a.conj().T, b) - np.kron(a, b.conj().T)
    theta = np.arctan2(np.sqrt(params.R), np.sqrt(params.T))
    phase_b = np.exp(1j * params.phase_rad * np.arange(amps_b.size))
    return expm(theta * generator) @ np.kron(amps_a, amps_b * phase_b)


unequal_dims = st.tuples(st.integers(2, 10), st.integers(2, 10)).filter(lambda d: d[0] != d[1])
splitters = st.builds(
    BeamsplitterParams, st.floats(0.0, 1.0), st.floats(0.0, 2.0, exclude_max=True)
)


@st.composite
def random_states(draw, dim, levels=None):
    """A random state on the lowest `levels` of dim levels (all of them by default)."""
    levels = levels or dim
    parts = draw(hnp.arrays(float, (2, levels), elements=st.floats(-1.0, 1.0)))
    amps = np.zeros(dim, dtype=complex)
    amps[:levels] = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(amps)
    return FockVector(amps / norm if norm > 1e-3 else np.eye(dim)[min(1, levels - 1)])


class TestSectorMixing:
    @settings(max_examples=60, deadline=None)
    @given(dims=unequal_dims, params=splitters, data=st.data())
    def test_mix_matches_dense_expm(self, dims, params, data):
        psi_a = data.draw(random_states(dims[0]))
        psi_b = data.draw(random_states(dims[1]))
        joint = mix(psi_a, psi_b, params)
        assert (joint.dim_a, joint.dim_b) == dims
        reference = dense_mix(psi_a.amps, psi_b.amps, params)
        assert np.max(np.abs(joint.amps - reference)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dims=unequal_dims, params=splitters, data=st.data())
    def test_mix_obeys_the_mode_map(self, dims, params, data):
        # a mix(psi_a, psi_b) = sqrt(T) mix(a psi_a, psi_b) + sqrt(R) e^{i phi pi}
        # mix(psi_a, b psi_b), and likewise for b, wherever every sector the
        # inputs fill fits: inputs on k_a and k_b levels with k_a + k_b - 1 <= min(dims).
        k_a = data.draw(st.integers(1, min(dims)))
        k_b = data.draw(st.integers(1, min(dims) + 1 - k_a))
        psi_a = data.draw(random_states(dims[0], k_a))
        psi_b = data.draw(random_states(dims[1], k_b))
        assert _mode_map_residual(psi_a, psi_b, params) < 1e-12

    def test_mode_map_residual_sees_a_wrong_phase(self, monkeypatch):
        # mix with phi negated breaks the map, and the residual says so.
        rng = np.random.default_rng(4)
        psi_a, psi_b = random_state(rng, 9, support=3), random_state(rng, 7, support=3)
        params = BeamsplitterParams(0.37, 0.31)
        assert _mode_map_residual(psi_a, psi_b, params) < 1e-12
        mirrored = lambda a, b, p: mix(a, b, BeamsplitterParams(p.R, -p.phi))  # noqa: E731
        monkeypatch.setattr(beamsplitter, "mix", mirrored)
        assert _mode_map_residual(psi_a, psi_b, params) > 0.1


def sectors_one_by_one(dim_a, dim_b):
    """_sectors' arrays built one sector at a time with eigh_tridiagonal."""
    count, width = dim_a + dim_b - 1, min(dim_a, dim_b)
    index = np.full((count, width), dim_a * dim_b)
    evals = np.zeros((count, width))
    vecs = np.zeros((count, width, width), dtype=complex)
    for total in range(count):
        m = np.arange(max(0, total - dim_b + 1), min(total, dim_a - 1) + 1)
        size = m.size
        index[total, :size] = m * dim_b + (total - m)
        w, v = eigh_tridiagonal(np.zeros(size), np.sqrt((m[:-1] + 1.0) * (total - m[:-1])))
        evals[total, :size] = w
        vecs[total, :size, :size] = (1j ** np.arange(size))[:, np.newaxis] * v
    return index, evals, vecs


class TestSectors:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 7), (7, 2), (5, 5), (9, 16), (16, 9), (24, 24),
                                      (1, 4)])
    def test_bit_for_bit_one_sector_at_a_time(self, dims):
        got = _sectors(*dims)
        index, evals, vecs = sectors_one_by_one(*dims)
        assert np.array_equal(got.index, index)
        assert got.evals.tobytes() == evals.tobytes()  # signed zeros included
        assert got.vecs.tobytes() == vecs.tobytes()


class TestConservation:
    def test_energy_conservation_random_inputs(self):
        rng = np.random.default_rng(11)
        params = BeamsplitterParams(0.42, 0.77)
        n_a_op = np.kron(np.diag(np.arange(8.0)), np.eye(8))
        n_b_op = np.kron(np.eye(8), np.diag(np.arange(8.0)))
        for _ in range(10):
            psi_a = random_state(rng, 8)
            psi_b = random_state(rng, 8)
            joint = mix(psi_a, psi_b, params)
            n_in = psi_a.mean_n() + psi_b.mean_n()
            n_out = fock.expectation(joint, n_a_op) + fock.expectation(joint, n_b_op)
            assert abs(n_out - n_in) < 1e-9

    def test_hom_coincidence_vanishes(self):
        joint = mix(fock.basis(4, 1), fock.basis(4, 1), BeamsplitterParams(0.5))
        coincidence = abs(joint.as_matrix()[1, 1]) ** 2
        assert coincidence < 1e-10


class TestOutputStatistics:
    def test_coherent_inputs_stay_coherent(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r = rng.uniform(0.05, 0.95)
            phi = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            beta = rng.uniform(0.1, 0.8)
            psi_a = states.coherent(alpha, 24)
            psi_b = states.coherent(beta, 24)
            g2, _ = output_g2(psi_a, psi_b, BeamsplitterParams(r, phi))
            assert g2 == pytest.approx(1.0, abs=1e-8)

    def test_mix_agrees_with_moment_path(self):
        rng = np.random.default_rng(21)
        params = BeamsplitterParams(0.31, 0.84)
        for _ in range(5):
            psi_a = random_state(rng, 8, support=3)
            psi_b = random_state(rng, 8, support=3)
            g2_joint, n_joint = output_g2(psi_a, psi_b, params)
            g2_mom, n_mom = output_moments(psi_a, psi_b, params)
            assert g2_mom == pytest.approx(g2_joint, rel=1e-9)
            assert n_mom == pytest.approx(n_joint, rel=1e-9)

    def test_output_b_maps_onto_output_a(self):
        # swapping outputs is the same as swapping T<->R and advancing the
        # phase by half a period: g2_B(R, phi) = g2_A(1-R, (1+phi) mod 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            psi_a = random_state(rng, 8, support=3)
            psi_b = random_state(rng, 8, support=3)
            r = rng.uniform(0.1, 0.9)
            phi = rng.uniform(0.0, 2.0)
            g2_b, n_b = output_g2_b(psi_a, psi_b, BeamsplitterParams(r, phi))
            mirrored = BeamsplitterParams(1.0 - r, (1.0 + phi) % 2.0)
            g2_a, n_a = output_g2(psi_a, psi_b, mirrored)
            assert g2_b == pytest.approx(g2_a, rel=1e-9)
            assert n_b == pytest.approx(n_a, rel=1e-9)


class TestLadderMoments:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(3, 200), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_lowering_operator(self, dim, seed):
        psi = random_state(np.random.default_rng(seed), dim)
        a = fock.annihilation(dim)
        vecs = (psi.amps, a @ psi.amps, a @ a @ psi.amps)
        dense = np.array([[np.vdot(vp, vq) for vq in vecs] for vp in vecs])
        fast = _ladder_moments(psi.amps)
        assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


class TestG2FromCoeffs:
    def test_accepts_fock_vector_and_array(self):
        psi = states.coherent(0.4, 24)
        assert g2_from_coeffs(psi.amps) == pytest.approx(g2_from_coeffs(psi))

    def test_normalizes_internally(self):
        assert g2_from_coeffs([0.0, 0.0, 3.0]) == pytest.approx(
            g2_from_coeffs([0.0, 0.0, 1.0])
        )

    def test_fock_state_values(self):
        assert g2_from_coeffs([0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        # |n>: g2 = n(n-1)/n^2
        assert g2_from_coeffs([0.0, 0.0, 1.0]) == pytest.approx(0.5)
        assert g2_from_coeffs([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_vacuum_is_undefined(self):
        with pytest.raises(VacuumOutputError):
            g2_from_coeffs([1.0, 0.0, 0.0])
        with pytest.raises(VacuumOutputError):
            g2_from_coeffs([0.0, 0.0, 0.0])

    def test_vacuum_inputs_to_splitter_are_undefined(self):
        with pytest.raises(VacuumOutputError):
            output_g2(fock.basis(4, 0), fock.basis(4, 0), BeamsplitterParams(0.5))
