"""Input-state factories.

Every factory returns a normalized FockVector in a caller-chosen truncation.
Amplitude conventions:

* coherent:            c_n = alpha^n e^{-|alpha|^2/2} / sqrt(n!)
* phase-modified:      coherent with c_2 multiplied by e^{i pi/2}
* Kerr-evolved:        coherent with c_n multiplied by e^{-i chi_t (n^2 - n)}
* two-photon doublet:  (sqrt(1 - c2^2), 0, c2, 0, ...)
* cat:                 N (|alpha> + parity |-alpha>), exact N
* squeezed coherent:   D(alpha) S(xi) |0>, from its three-term amplitude recursion
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, TruncationError
from .fock import FockVector, amplitude_dim, squeeze_dim


@dataclass(frozen=True)
class KerrParams:
    """Coherent amplitude and accumulated Kerr phase chi*t (radians)."""

    alpha: complex
    chi_t: float


@dataclass(frozen=True)
class CatParams:
    """Superposition amplitude and relative parity (+1 even, -1 odd)."""

    alpha_sch: complex
    parity: int

    def __post_init__(self):
        if self.parity not in (+1, -1):
            raise ValueError(f"parity must be +1 or -1, got {self.parity}")


def _coherent_amps(alpha: complex, dim: int) -> np.ndarray:
    # c_n = c_{n-1} * alpha / sqrt(n); stable for every amplitude this
    # package is meant for (|alpha| of order unity).
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    return amps


def coherent(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state, renormalized after truncation."""
    return FockVector(_coherent_amps(alpha, dim)).normalize()


def phase_modified_coherent(alpha: complex, dim: int) -> FockVector:
    """Coherent state whose two-photon amplitude is rotated by pi/2."""
    if dim < 3:
        raise InvalidDimensionError("phase-modified state needs dim >= 3")
    amps = _coherent_amps(alpha, dim)
    amps[2] *= 1j
    return FockVector(amps).normalize()


def kerr_coherent(params: KerrParams, dim: int) -> FockVector:
    """Coherent state after a Kerr medium: c_n -> c_n e^{-i chi_t (n^2 - n)}."""
    n = np.arange(dim)
    amps = _coherent_amps(params.alpha, dim) * np.exp(-1j * params.chi_t * (n * n - n))
    return FockVector(amps).normalize()


def vacuum_two_photon(c2: float, dim: int = 3) -> FockVector:
    """Superposition of vacuum and a two-photon pair with real weight c2."""
    if not 0.0 <= c2 <= 1.0:
        raise ValueError(f"c2 must lie in [0, 1], got {c2}")
    if dim < 3:
        raise InvalidDimensionError("vacuum/two-photon superposition needs dim >= 3")
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.sqrt(1.0 - c2 * c2)
    amps[2] = c2
    return FockVector(amps)


def cat_state(params: CatParams, dim: int) -> FockVector:
    """Normalized |alpha> + parity |-alpha> with the exact closed-form norm.

    Only the parity's photon-number branch survives (even n for +1, odd n
    for -1).  The odd cat is undefined at alpha_sch = 0.
    """
    alpha, p = params.alpha_sch, params.parity
    overlap = math.exp(-2.0 * abs(alpha) ** 2)
    norm_sq = 2.0 * (1.0 + p * overlap)
    if norm_sq <= 0.0 or (p == -1 and alpha == 0):
        raise ValueError("odd cat is unnormalizable at alpha_sch = 0")
    # _coherent_amps(-alpha) is (-1)^n _coherent_amps(alpha): the parity's branch doubles.
    keep = np.arange(dim) % 2 == (1 - p) // 2
    return FockVector(np.where(keep, 2.0 * _coherent_amps(alpha, dim), 0.0) / math.sqrt(norm_sq))


def squeezed_vacuum(xi: complex, dim: int) -> FockVector:
    """S(xi)|0>: squeezed_coherent at alpha = 0."""
    return squeezed_coherent(0.0, xi, dim)


def squeezed_coherent(alpha: complex, xi: complex, dim: int) -> FockVector:
    """Displaced squeezed vacuum D(alpha) S(xi) |0> (order is binding), xi = r e^{i omega}.

    With mu = cosh r, nu = e^{i omega} sinh r and gamma = mu alpha + nu conj(alpha),
    (mu a + nu a^dag) psi = gamma psi gives c_{n+1} = (gamma c_n - nu sqrt(n) c_{n-1})
    / (mu sqrt(n+1)) (Gerry & Knight, Introductory Quantum Optics, ch. 7).  c_0 takes
    only the phase of <0|D(alpha) S(xi)|0> = exp(-|alpha|^2/2 - conj(alpha)^2 e^{i omega}
    tanh(r)/2) / sqrt(cosh r), so no large |alpha| overflows it; the truncated vector
    is normalized.  Refused in order: fock.amplitude_dim, |xi| > 1.5, fock.squeeze_dim.
    """
    if dim < 2:
        raise InvalidDimensionError(f"squeezed states need dim >= 2, got {dim}")
    amplitude_dim(alpha, dim)
    r = abs(xi)
    if r > 1.5:
        raise ValueError(f"squeeze magnitude {r:.4g} outside supported range |xi| <= 1.5")
    if dim < squeeze_dim(xi):
        raise TruncationError(f"squeeze |xi|={r:.4g} unsafe at dim={dim}",
                              recommended_dim=squeeze_dim(xi))
    mu, nu = math.cosh(r), cmath.rect(math.sinh(r), cmath.phase(xi))
    gamma = mu * alpha + nu * alpha.conjugate()
    amps = [0j, cmath.exp(-0.5j * (alpha.conjugate() ** 2 * nu / mu).imag)]  # c_{-1}, c_0
    for n in range(dim - 1):
        amps.append((gamma * amps[-1] - nu * math.sqrt(n) * amps[-2]) / (mu * math.sqrt(n + 1)))
    return FockVector(np.array(amps[1:])).normalize()
