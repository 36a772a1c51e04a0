"""Closed-form optima for coherent/squeezed interference."""

import numpy as np
import pytest

from antibunch import analytic, states
from antibunch.analytic import effective_split, optimal_amplitude_k
from antibunch.beamsplitter import BeamsplitterParams, g2_from_coeffs, output_moments
from antibunch.errors import DegenerateSplitterError
from antibunch.optimize import refine_min


class TestOptimalAmplitudeK:
    def test_reference_value(self):
        assert optimal_amplitude_k(0.1) == pytest.approx(0.23527, abs=2e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_amplitude_k(0.0)
        with pytest.raises(ValueError):
            optimal_amplitude_k(-0.2)

    @pytest.mark.parametrize("s", [0.05, 0.1])
    def test_matches_numeric_optimum_of_displaced_squeezed_state(self, s):
        # the closed form takes the full squeeze exponent: for a state built
        # from S(s)|0> the minimizing displacement is optimal_amplitude_k(2*s)
        def objective(k):
            return g2_from_coeffs(states.squeezed_coherent(k, s, 64))

        ks = np.linspace(0.05, 0.8, 151)
        vals = [objective(k) for k in ks]
        k_seed = ks[int(np.argmin(vals))]
        (k_numeric,), _ = refine_min(lambda x: objective(x[0]), [k_seed], fatol=1e-14)
        # the closed form is an effective-parameter compression; 5% is its
        # documented accuracy contract
        assert k_numeric == pytest.approx(optimal_amplitude_k(2 * s), rel=5e-2)


class TestEffectiveSplit:
    def test_displacement_matches_output_amplitude(self):
        # mixing two coherent beams leaves output A coherent with amplitude
        # sqrt(T) a + sqrt(R) e^{i phi} b; the effective-split bookkeeping
        # must reproduce it
        params = BeamsplitterParams(0.2, 0.6)
        alpha_a, alpha_b = 0.5 + 0.1j, 0.3 - 0.2j
        eff = effective_split(alpha_a, alpha_b, params.phase_rad, params)
        expected = (
            np.sqrt(params.T) * alpha_a
            + np.sqrt(params.R) * np.exp(1j * params.phase_rad) * alpha_b
        )
        assert eff.displacement_a == pytest.approx(expected, rel=1e-12)

        psi_a = states.coherent(alpha_a, 24)
        psi_b = states.coherent(alpha_b, 24)
        _, n_mean = output_moments(psi_a, psi_b, params)
        assert n_mean == pytest.approx(abs(expected) ** 2, rel=1e-9)

    def test_zero_secondary_beam_rejected(self):
        params = BeamsplitterParams(0.2)
        with pytest.raises(ZeroDivisionError):
            effective_split(0.5, 0.0, params.phase_rad, params)


class TestOptimalVacuumSqueezingCondition:
    def test_reference_values(self):
        phi_opt, alpha_b_opt = analytic.optimal_vacuum_squeezing_condition(
            0.05, BeamsplitterParams(0.1)
        )
        assert phi_opt == pytest.approx(0.5 * np.arccos(np.sqrt(0.9)), rel=1e-12)
        assert phi_opt == pytest.approx(0.160875, abs=1e-6)
        assert alpha_b_opt == pytest.approx(0.734241, abs=1e-5)

    def test_degenerate_splitter_rejected(self):
        for r in (0.0, 1.0):
            with pytest.raises(DegenerateSplitterError):
                analytic.optimal_vacuum_squeezing_condition(0.05, BeamsplitterParams(r))

    def test_squeezing_domain(self):
        with pytest.raises(ValueError):
            analytic.optimal_vacuum_squeezing_condition(0.0, BeamsplitterParams(0.1))
