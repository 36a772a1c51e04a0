"""Input-state factories.

Every factory returns a normalized FockVector in a caller-chosen truncation.
Amplitude conventions:

* coherent:            c_n = alpha^n e^{-|alpha|^2/2} / sqrt(n!)
* phase-modified:      coherent with c_2 multiplied by e^{i pi/2}
* Kerr-evolved:        coherent with c_n multiplied by e^{-i chi_t (n^2 - n)}
* two-photon doublet:  (sqrt(1 - c2^2), 0, c2, 0, ...)
* cat:                 N (|alpha> + parity |-alpha>), exact N
* squeezed coherent:   D(alpha) S(xi) |0>, from its three-term amplitude recursion

Every kind has a private array form (_coherent_terms and its siblings): it
takes 1-D parameter arrays and one truncation, returns the (cells, dim)
amplitudes of every cell and refuses as the factory does.  The factory is its
one-cell case over fock._normalized, so a state built alone and the same cell
of a batch agree bit for bit.  A form's first levels do not depend on the
truncation, so fock.truncated cuts one build of it where the state's tail
allows.  Only the squeezed states check their truncation by it; the CLI
applies it to the others.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .fock import FockVector, _normalized, truncated


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


def _coherent_terms(alpha: np.ndarray, dim: int) -> np.ndarray:
    """(cells, dim) amplitudes alpha^n e^{-|alpha|^2/2} / sqrt(n!), before renormalization.

    The recursion c_n = c_{n-1} * alpha / sqrt(n) is stable for every amplitude
    this package is meant for (|alpha| of order unity).  numpy divides a complex
    number by a real one as a product with the rounded reciprocal, so one
    cumulative product over 1, alpha, 1/sqrt(1), alpha, 1/sqrt(2), ... rounds
    each step as the recursion does, for every cell at once.
    """
    if dim < 2:
        raise InvalidDimensionError(f"single-mode states need dim >= 2, got {dim}")
    steps = np.empty((alpha.size, 2 * dim - 1), dtype=complex)
    steps[:, 0] = 1.0
    steps[:, 1::2] = alpha[:, np.newaxis]
    steps[:, 2::2] = 1.0 / np.sqrt(np.arange(1.0, dim))
    scale = np.array([math.exp(-0.5 * abs(a) ** 2) for a in alpha.tolist()])
    return np.cumprod(steps, axis=1)[:, ::2] * scale[:, np.newaxis]


def _phase_modified_terms(alpha: np.ndarray, dim: int) -> np.ndarray:
    if dim < 3:
        raise InvalidDimensionError("phase-modified state needs dim >= 3")
    amps = _coherent_terms(alpha, dim)
    amps[:, 2] *= 1j
    return amps


def _kerr_terms(alpha: np.ndarray, chi_t: np.ndarray, dim: int) -> np.ndarray:
    n = np.arange(dim)
    return _coherent_terms(alpha, dim) * np.exp(-1j * chi_t[:, np.newaxis] * (n * n - n))


def _two_photon_rows(c2: np.ndarray, dim: int) -> np.ndarray:
    outside = c2[~((0.0 <= c2) & (c2 <= 1.0))]
    if outside.size:
        raise ValueError(f"c2 must lie in [0, 1], got {outside[0]}")
    if dim < 3:
        raise InvalidDimensionError("vacuum/two-photon superposition needs dim >= 3")
    amps = np.zeros((c2.size, dim), dtype=complex)
    amps[:, 0] = np.sqrt(1.0 - c2 * c2)
    amps[:, 2] = c2
    return amps


def _cat_rows(alpha_sch: np.ndarray, parity: np.ndarray, dim: int) -> np.ndarray:
    # The odd norm 2 (1 - e^{-2|alpha|^2}) cancels as alpha_sch -> 0, so it is
    # formed by expm1; the even one, 2 (1 + e^{-2|alpha|^2}), cannot cancel.
    wrong = parity[(parity != 1) & (parity != -1)]
    if wrong.size:
        raise ValueError(f"parity must be +1 or -1, got {wrong[0]}")
    norm_sq = np.array([2.0 * (1.0 + math.exp(-2.0 * abs(a) ** 2)) if p == 1
                        else -2.0 * math.expm1(-2.0 * abs(a) ** 2)
                        for a, p in zip(alpha_sch.tolist(), parity.tolist())])
    if (norm_sq <= 0.0).any():
        raise ValueError("odd cat is unnormalizable at alpha_sch = 0")
    # The coherent terms of -alpha are (-1)^n those of alpha: the parity's branch doubles.
    keep = np.arange(dim) % 2 == (1 - parity[:, np.newaxis]) // 2
    terms = np.where(keep, 2.0 * _coherent_terms(alpha_sch, dim), 0.0)
    return terms / np.sqrt(norm_sq)[:, np.newaxis]


@functools.lru_cache(maxsize=64)
def _roots(dim: int) -> tuple:  # sqrt(n) for n = 0, ..., dim - 1
    return tuple(np.sqrt(np.arange(dim)).tolist())


def _squeezed_terms(alpha: np.ndarray, xi: np.ndarray, dim: int) -> np.ndarray:
    """(cells, dim) amplitudes of D(alpha) S(xi) |0>, xi = r e^{i omega}, before renormalization.

    With mu = cosh r, nu = e^{i omega} sinh r and gamma = mu alpha + nu conj(alpha),
    (mu a + nu a^dag) psi = gamma psi gives c_{n+1} = (gamma c_n - nu sqrt(n) c_{n-1})
    / (mu sqrt(n+1)) (Gerry & Knight, Introductory Quantum Optics, ch. 7).  c_0 takes
    only the phase of <0|D(alpha) S(xi)|0> = exp(-|alpha|^2/2 - conj(alpha)^2 e^{i omega}
    tanh(r)/2) / sqrt(cosh r), so no large |alpha| overflows it.
    """
    cells, roots, amps = list(zip(alpha.tolist(), xi.tolist())), _roots(dim), []
    for a, x in cells:
        mu, nu = math.cosh(abs(x)), cmath.rect(math.sinh(abs(x)), cmath.phase(x))
        gamma = mu * a + nu * a.conjugate()
        c, before = cmath.exp(-0.5j * (a.conjugate() ** 2 * nu / mu).imag), 0j  # c_0, c_{-1}
        amps.append(c)
        for n, n_plus in zip(roots, roots[1:]):  # sqrt(n), sqrt(n + 1)
            c, before = (gamma * c - nu * n * before) / (mu * n_plus), c
            amps.append(c)
    return np.array(amps, dtype=complex).reshape(len(cells), dim)


def _squeezed_rows(alpha: np.ndarray, xi: np.ndarray, dim: int) -> np.ndarray:
    """fock.truncated's _squeezed_terms; refuses dim < 2, then |xi| > 1.5, then a cut tail."""
    if dim < 2:
        raise InvalidDimensionError(f"squeezed states need dim >= 2, got {dim}")
    outside = np.abs(xi)[np.abs(xi) > 1.5]
    if outside.size:
        raise ValueError(f"squeeze magnitude {outside[0]:.4g} outside supported range |xi| <= 1.5")
    cells = zip(alpha.tolist(), xi.tolist())
    return np.array([truncated(_squeezed_terms, cell, dim) for cell in cells]).reshape(-1, dim)


def coherent(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state, renormalized after truncation."""
    return FockVector(_normalized(_coherent_terms(np.array([alpha]), dim))[0])


def phase_modified_coherent(alpha: complex, dim: int) -> FockVector:
    """Coherent state whose two-photon amplitude is rotated by pi/2."""
    return FockVector(_normalized(_phase_modified_terms(np.array([alpha]), dim))[0])


def kerr_coherent(params: KerrParams, dim: int) -> FockVector:
    """Coherent state after a Kerr medium: c_n -> c_n e^{-i chi_t (n^2 - n)}."""
    amps = _kerr_terms(np.array([params.alpha]), np.array([params.chi_t]), dim)
    return FockVector(_normalized(amps)[0])


def vacuum_two_photon(c2: float, dim: int = 3) -> FockVector:
    """Superposition of vacuum and a two-photon pair with real weight c2."""
    return FockVector(_two_photon_rows(np.array([c2]), dim)[0])


def cat_state(params: CatParams, dim: int) -> FockVector:
    """Normalized |alpha> + parity |-alpha> with the exact closed-form norm.

    Only the parity's photon-number branch survives (even n for +1, odd n
    for -1).  The odd cat is undefined at alpha_sch = 0.
    """
    amps = _cat_rows(np.array([params.alpha_sch]), np.array([params.parity]), dim)
    return FockVector(_normalized(amps)[0])


def squeezed_vacuum(xi: complex, dim: int) -> FockVector:
    """S(xi)|0>: squeezed_coherent at alpha = 0."""
    return squeezed_coherent(0.0, xi, dim)


def squeezed_coherent(alpha: complex, xi: complex, dim: int) -> FockVector:
    """Displaced squeezed vacuum D(alpha) S(xi) |0> (order is binding): one _squeezed_rows cell."""
    return FockVector(_squeezed_rows(np.array([alpha]), np.array([xi]), dim)[0])
