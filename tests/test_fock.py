"""Fock-space primitives: operators, state containers, expectations."""

import numpy as np
import pytest

from antibunch import fock, states
from antibunch.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    TruncationError,
)
from antibunch.fock import DensityMatrix, FockVector, TwoModeState


class TestLadderOperators:
    def test_annihilation_matrix_elements(self):
        a = fock.annihilation(5)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_number_operator(self):
        a = fock.annihilation(4)
        np.testing.assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]), rtol=0, atol=1e-15)

    def test_commutator_identity_below_truncation(self):
        # [a, a+] = 1 exactly except in the top level, where truncation bites
        dim = 9
        a = fock.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-12)
        assert comm[dim - 1, dim - 1].real == pytest.approx(1 - dim)

    @pytest.mark.parametrize("bad", [0, 1, -3])
    def test_dimension_validation(self, bad):
        with pytest.raises(InvalidDimensionError):
            fock.annihilation(bad)


class TestFockVector:
    def test_basis_state(self):
        psi = fock.basis(5, 3)
        assert psi.amps[3] == 1.0
        assert psi.mean_n() == pytest.approx(3.0)

    def test_basis_index_out_of_range(self):
        with pytest.raises(InvalidDimensionError):
            fock.basis(4, 4)

    def test_amplitudes_are_frozen(self):
        psi = fock.basis(4, 0)
        with pytest.raises(ValueError):
            psi.amps[0] = 2.0

    def test_normalize_is_idempotent(self):
        psi = FockVector([3.0, 4.0j, 0.0]).normalize()
        assert psi.norm() == pytest.approx(1.0)
        assert psi.normalize() is psi

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            FockVector([0.0, 0.0]).normalize()

    def test_needs_two_levels(self):
        with pytest.raises(InvalidDimensionError):
            FockVector([1.0])

    def test_padded(self):
        psi = FockVector([1.0, 2.0]).normalize()
        big = psi.padded(5)
        assert big.dim == 5
        assert np.array_equal(big.amps[:2], psi.amps)
        assert not big.amps[2:].any()
        with pytest.raises(InvalidDimensionError):
            big.padded(3)


class TestTwoModeState:
    def test_product_layout(self):
        # flat index is n_a * dim_b + n_b, the np.kron order
        joint = TwoModeState(np.kron(fock.basis(3, 1).amps, fock.basis(4, 2).amps), 3, 4)
        assert joint.amps[1 * 4 + 2] == 1.0
        assert np.count_nonzero(joint.amps) == 1

    def test_as_matrix(self):
        joint = TwoModeState(np.kron(fock.basis(3, 0).amps, fock.basis(4, 3).amps), 3, 4)
        m = joint.as_matrix()
        assert m.shape == (3, 4)
        assert m[0, 3] == 1.0

    def test_length_validation(self):
        with pytest.raises(DimensionMismatchError):
            TwoModeState(np.zeros(5, dtype=complex), 2, 3)


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        assert fock.expectation(rho, np.diag([0.0, 1.0])) == pytest.approx(0.4)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.9, 0.3]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))


class TestGaussianUnitaries:
    # fock's truncation rules for D(alpha) and S(xi), as the states that
    # apply them (antibunch.states) enforce them.
    def test_displacement_matches_coherent_state(self):
        alpha = 0.7 - 0.2j
        psi = states.squeezed_coherent(alpha, 0.0, 32).amps
        target = states.coherent(alpha, 32).amps
        assert np.max(np.abs(psi - target)) < 1e-10

    def test_displacement_truncation_guard(self):
        with pytest.raises(TruncationError) as err:
            states.squeezed_coherent(2.0, 0.0, 8)
        assert err.value.recommended_dim >= 8

    def test_squeeze_range_and_truncation(self):
        with pytest.raises(ValueError):
            states.squeezed_vacuum(2.0, 64)
        with pytest.raises(TruncationError):
            states.squeezed_vacuum(0.5, 16)
        # refused in order: the squeeze range, then the tail rule
        with pytest.raises(ValueError) as err:
            states.squeezed_coherent(2.0, 2.0, 8)
        assert not isinstance(err.value, TruncationError)
        with pytest.raises(TruncationError):
            states.squeezed_coherent(2.0, 0.5, 8)

    @pytest.mark.parametrize("xi", [0.0, 0.05, 0.3j, 0.5 - 0.2j, 1.5])
    def test_truncated_is_the_squeeze_guard(self, xi):
        for alpha in (0.0, 0.5) if xi else (0.5,):  # the vacuum holds no pair to cut
            dim = fock.truncated(states._squeezed_terms, (alpha, xi)).size
            states.squeezed_coherent(alpha, xi, dim)
            with pytest.raises(TruncationError) as err:
                states.squeezed_coherent(alpha, xi, dim - 1)
            assert err.value.recommended_dim == dim

    def test_truncated(self):
        coherent = states._coherent_terms
        assert fock.truncated(coherent, (0.0,)).size == 3  # the two-photon level is kept
        assert fock.truncated(coherent, (0.0,), 2).size == 2  # the vacuum holds no pair to cut
        assert fock.truncated(coherent, (1.0,)).size == 16
        assert fock.truncated(coherent, (1.0,), 16).size == 16
        with pytest.raises(TruncationError) as err:
            fock.truncated(coherent, (1.0,), 15)
        assert err.value.recommended_dim == 16
        with pytest.raises(ValueError, match="no finite truncation"):
            fock.truncated(coherent, (1e200,))
        # amplitudes that under- or overflow a float get the search's depth
        deepest = [fock.truncated(coherent, (alpha,)).size for alpha in (40.0, 1e30)]
        assert deepest == [4096, 4096]


class TestTensorAndExpectation:
    def test_expectation_paths(self):
        psi = fock.basis(4, 2)
        n = np.diag(np.arange(4.0))
        assert fock.expectation(psi, n) == pytest.approx(2.0)
        rho = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
        assert fock.expectation(rho, n) == pytest.approx(0.5)
        with pytest.raises(DimensionMismatchError):
            fock.expectation(psi, np.diag(np.arange(5.0)))
