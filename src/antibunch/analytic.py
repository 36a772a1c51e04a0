"""Closed-form results for coherent/squeezed mixing, used as approximate oracles.

These formulas compress the exact two-mode physics into single-mode
effective parameters; the numerical splitter pipeline is the ground truth
and the agreement contract is 5%.  Phases in this module are plain radians
(the normalized-to-pi convention applies to beamsplitter params and file
I/O only).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .beamsplitter import BeamsplitterParams
from .errors import DegenerateSplitterError


@dataclass(frozen=True)
class EffectiveSplit:
    """Single effective splitter equivalent to two coherent inputs.

    Stores the complex square roots the defining relations produce:
    sqrt(R') = (alpha_a/alpha_b') sqrt(T) + sqrt(R),
    sqrt(T') = sqrt(T) - (alpha_a/alpha_b') sqrt(R),
    alpha_b' = alpha_b e^{i phi}.
    """

    sqrt_r_prime: complex
    sqrt_t_prime: complex
    alpha_b_prime: complex

    @property
    def displacement_a(self) -> complex:
        """Coherent amplitude landing in output mode A."""
        return self.alpha_b_prime * self.sqrt_r_prime


def effective_split(
    alpha_a: complex, alpha_b: complex, phi: float, params: BeamsplitterParams
) -> EffectiveSplit:
    """Collapse two coherent drives into one effective splitter.

    phi is the relative phase on arm b in radians (pass params.phase_rad to
    match a mix() call).  alpha_b = 0 leaves the defining ratio undefined.
    """
    if alpha_b == 0:
        raise ZeroDivisionError("effective split undefined for alpha_b = 0")
    sqrt_t, sqrt_r = math.sqrt(params.T), math.sqrt(params.R)
    alpha_b_prime = alpha_b * cmath.exp(1j * phi)
    ratio = alpha_a / alpha_b_prime
    return EffectiveSplit(
        sqrt_r_prime=ratio * sqrt_t + sqrt_r,
        sqrt_t_prime=sqrt_t - ratio * sqrt_r,
        alpha_b_prime=alpha_b_prime,
    )


def optimal_amplitude_k(r: float) -> float:
    """Displacement magnitude minimizing g2 of a displaced squeezed vacuum.

    |k| = sqrt( sinh(r/2) sinh(r) / (e^{-3r/2} (e^r - 1)) ).  The r here is
    the doubled-magnitude squeezing convention: against the numerical
    optimum for S(s)|0> displaced along the squeezed axis, this expression
    agrees to ~5% when evaluated at r = 2s (resolved empirically; see the
    cross-check tests).
    """
    if r <= 0.0:
        raise ValueError(f"squeezing must be positive, got {r}")
    return math.sqrt(
        math.sinh(0.5 * r) * math.sinh(r) / (math.exp(-1.5 * r) * math.expm1(r))
    )


def optimal_vacuum_squeezing_condition(
    r: float, params: BeamsplitterParams, Phi: float = 0.0
) -> tuple[float, float]:
    """Optimal (phi, |alpha_b|) for a squeezed-vacuum input mixed with a coherent state.

    phi_opt = arccos(sqrt(T))/2 - Phi   (radians; Phi = arg alpha_b)
    |alpha_b|_opt = (1/sqrt(R)) e^{r' sqrt(R/T)}
                    * sqrt( sinh(r') sinh(2r') / (e^{-3r'} (e^{2r'} - 1)) )
    with r' = r sqrt(T).

    The phase condition aligns the reflected displacement with the squeezed
    quadrature when the input squeezing angle is arccos(sqrt(T)); the
    magnitude is the effective-splitter transcription of optimal_amplitude_k.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing must be positive, got {r}")
    if params.R <= 0.0 or params.R >= 1.0:
        raise DegenerateSplitterError(
            f"closed-form optimum needs 0 < R < 1, got R = {params.R}"
        )
    phi_opt = 0.5 * math.acos(math.sqrt(params.T)) - Phi
    rp = r * math.sqrt(params.T)
    alpha_b_opt = (
        (1.0 / math.sqrt(params.R))
        * math.exp(rp * math.sqrt(params.R / params.T))
        * math.sqrt(
            math.sinh(rp) * math.sinh(2.0 * rp) / (math.exp(-3.0 * rp) * math.expm1(2.0 * rp))
        )
    )
    return phi_opt, alpha_b_opt
