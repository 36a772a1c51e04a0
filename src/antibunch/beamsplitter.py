"""Lossless two-mode beamsplitter: mixing and output-mode statistics.

The Heisenberg map is fixed to

    A = sqrt(T) a + sqrt(R) e^{i phi pi} b
    B = -sqrt(R) a + sqrt(T) e^{i phi pi} b

with phi expressed in units of pi throughout.  mix realizes the Schroedinger
unitary as a number-operator phase rotation on mode b followed by the real
rotation exp(theta (a^dag b - a b^dag)), theta = atan2(sqrt(R), sqrt(T)).

The rotation conserves the total photon number N = n_a + n_b, so it is
block-diagonal over photon-number sectors (Campos, Saleh & Teich, PRA 40,
1371 (1989)).  In the truncated joint basis sector N holds the states
|m, N-m> that fit both truncations, and the generator restricted to it is a
real tridiagonal matrix with off-diagonals sqrt((m+1)(N-m)).  Each block is
diagonalized once per truncation pair by one LAPACK dstevd call, and mixing
applies the small blocks to their slices of the joint vector.  Sectors with
N >= min(dim) are cut short by the truncation: mix stays unitary, and obeys
the Heisenberg map (_mode_map_residual checks it) on inputs whose sectors fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dstevd

from .errors import INTENSITY_FLOOR, VacuumOutputError
from .fock import FockVector, TwoModeState, annihilation


@dataclass(frozen=True)
class BeamsplitterParams:
    """Reflectance R (transmittance T = 1 - R) and phase phi in units of pi."""

    R: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.R <= 1.0:
            raise ValueError(f"reflectance must lie in [0, 1], got {self.R}")

    @property
    def T(self) -> float:
        return 1.0 - self.R

    @property
    def phase_rad(self) -> float:
        return math.pi * self.phi


@dataclass(frozen=True)
class _Sectors:
    """Photon-number sectors of a (dim_a, dim_b) joint basis, zero-padded.

    Row N lists the joint indices of the states |m, N-m> that fit the
    truncation, in increasing m; the rest of the row is padding and points
    at index dim_a*dim_b, one past the joint vector.  vecs[N] and evals[N]
    diagonalize the Hermitian generator i(a^dag b - a b^dag) on sector N,
    with zero rows and columns in the padding.
    """

    index: np.ndarray  # (sectors, width) joint indices
    evals: np.ndarray  # (sectors, width)
    vecs: np.ndarray  # (sectors, width, width), complex


@lru_cache(maxsize=64)
def _sectors(dim_a: int, dim_b: int) -> _Sectors:
    count, width = dim_a + dim_b - 1, min(dim_a, dim_b)
    total = np.arange(count)[:, np.newaxis]
    m = np.maximum(0, total - dim_b + 1) + np.arange(width)  # m of |m, N-m>, increasing
    sizes = np.minimum(total[:, 0], dim_a - 1) - m[:, 0] + 1
    fits = np.arange(width) < sizes[:, np.newaxis]
    index = np.where(fits, m * dim_b + (total - m), dim_a * dim_b)
    # On sector N the generator is real antisymmetric tridiagonal with
    # entries +-sqrt((m+1)(N-m)); conjugating i times it by diag(i^k)
    # makes it real symmetric with the same off-diagonal magnitudes.
    off = np.sqrt(np.where(fits[:, 1:], (m[:, :-1] + 1.0) * (total - m[:, :-1]), 0.0))
    phase = (1j ** np.arange(width))[:, np.newaxis]
    evals = np.zeros((count, width))
    vecs = np.zeros((count, width, width), dtype=complex)
    for n, size in enumerate(sizes.tolist()):
        if size == 1:  # already diagonal, and dstevd wants an off-diagonal
            vecs[n, 0, 0] = 1.0
            continue
        w, v, info = dstevd(np.zeros(size), off[n, :size - 1])
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed on photon-number sector {n}: info {info}")
        evals[n, :size] = w
        vecs[n, :size, :size] = phase[:size] * v
    for arr in (index, evals, vecs):
        arr.setflags(write=False)
    return _Sectors(index, evals, vecs)


def _mixed_amps(amps_a: np.ndarray, amps_b: np.ndarray, params: BeamsplitterParams) -> np.ndarray:
    dim_a, dim_b = amps_a.size, amps_b.size
    sectors = _sectors(dim_a, dim_b)
    psi = np.zeros(dim_a * dim_b + 1, dtype=complex)
    psi[:-1] = np.kron(amps_a, amps_b * np.exp(1j * params.phase_rad * np.arange(dim_b)))
    # Row-vector form of vecs diag(exp(-i theta lambda)) vecs^dag psi, one row per sector.
    coeffs = np.conj(np.conj(psi[sectors.index])[:, np.newaxis, :] @ sectors.vecs)
    theta = math.atan2(math.sqrt(params.R), math.sqrt(params.T))
    coeffs *= np.exp(-1j * theta * sectors.evals)[:, np.newaxis, :]
    out = np.empty_like(psi)
    out[sectors.index] = (coeffs @ sectors.vecs.swapaxes(1, 2))[:, 0, :]
    return out[:-1]


def mix(state_a: FockVector, state_b: FockVector, params: BeamsplitterParams) -> TwoModeState:
    """Send psi_a (x) psi_b through the splitter; dims may differ per mode."""
    out = _mixed_amps(state_a.amps, state_b.amps, params)
    return TwoModeState(out, state_a.dim, state_b.dim)


def _mode_map_residual(psi_a: FockVector, psi_b: FockVector, params: BeamsplitterParams) -> float:
    """Largest deviation of mix from the mode map, as a substitution rule.

    With out = mix(psi_a, psi_b), x = mix(a psi_a, psi_b), y = mix(psi_a, b psi_b)
    and e = e^{i phi pi}, the map gives a out = sqrt(T) x + sqrt(R) e y and
    b out = -sqrt(R) x + sqrt(T) e y.  Both hold to rounding when every sector
    the inputs fill fits: inputs on k_a and k_b levels need k_a + k_b - 1 <= min(dim).
    """
    low_a, low_b = annihilation(psi_a.dim), annihilation(psi_b.dim)
    a, b = psi_a.amps, psi_b.amps
    out, x, y = (mix(FockVector(u), FockVector(v), params).as_matrix()
                 for u, v in ((a, b), (low_a @ a, b), (a, low_b @ b)))
    t, r, e = math.sqrt(params.T), math.sqrt(params.R), np.exp(1j * params.phase_rad)
    res_a = np.abs(low_a @ out - (t * x + r * e * y)).max()
    res_b = np.abs(out @ low_b.T - (-r * x + t * e * y)).max()
    return float(max(res_a, res_b))


def _weighted_g2(p: np.ndarray) -> tuple[float, float]:
    """(g2, n_mean) of a photon-number distribution p over 0, 1, ..., p.size - 1."""
    occ = np.arange(p.size, dtype=float)
    n_mean = float(p @ occ)
    if n_mean < INTENSITY_FLOOR:
        raise VacuumOutputError(
            f"mean photon number {n_mean:.3e} below floor {INTENSITY_FLOOR:g}; g2 undefined"
        )
    numerator = float(p @ (occ * (occ - 1.0)))
    return numerator / (n_mean * n_mean), n_mean


def output_g2(
    state_a: FockVector, state_b: FockVector, params: BeamsplitterParams
) -> tuple[float, float]:
    """(g2, n_mean) of output mode A.

    g2 = <A+ A+ A A> / <A+ A>^2; both moments are diagonal in the joint
    number basis, so only one mixing matvec is needed per call: they are
    read off the row marginal of the joint distribution.
    """
    amps = _mixed_amps(state_a.amps, state_b.amps, params).reshape(state_a.dim, state_b.dim)
    return _weighted_g2((np.abs(amps) ** 2).sum(axis=1))


def output_g2_b(
    state_a: FockVector, state_b: FockVector, params: BeamsplitterParams
) -> tuple[float, float]:
    """(g2, n_mean) of the complementary output mode B, from the column marginal."""
    amps = _mixed_amps(state_a.amps, state_b.amps, params).reshape(state_a.dim, state_b.dim)
    return _weighted_g2((np.abs(amps) ** 2).sum(axis=0))


def g2_from_coeffs(coeffs) -> float:
    """Equal-time g2 from photon-number amplitudes.

    g2 = sum n(n-1)|c_n|^2 / (sum n|c_n|^2)^2, the coefficient form of the
    operator expression <a+ a+ a a>/<a+ a>^2 on a pure state.
    """
    c = coeffs.amps if isinstance(coeffs, FockVector) else np.asarray(coeffs, dtype=complex)
    p = np.abs(c) ** 2
    total = p.sum()
    if total == 0.0:
        raise VacuumOutputError("all-zero amplitude list; g2 undefined")
    return _weighted_g2(p / total)[0]


def _ladder_moments(amps: np.ndarray) -> np.ndarray:
    """Tables m[..., p, q] = <a+^p a^q>, p, q < 3, of pure single-mode states amps[..., :].

    The truncated lowering operator acts exactly on a truncated state, so
    these moments carry no truncation error beyond the state's own.  a^q c
    is c shifted down by q levels and scaled by sqrt(n+1)...sqrt(n+q), so
    the table costs O(dim) with no operator matrix.  Leading axes are
    states, each rounded as alone: one row p of products at a time, so the
    temporaries are (..., 3, dim).
    """
    c = np.asarray(amps, dtype=complex)
    root = np.sqrt(np.arange(1.0, c.shape[-1]))
    shifted = np.zeros(c.shape[:-1] + (3, c.shape[-1]), dtype=complex)  # rows c, a c, a^2 c
    shifted[..., 0, :] = c
    shifted[..., 1, :-1] = root * c[..., 1:]  # (a c)[n] = sqrt(n+1) c[n+1]
    shifted[..., 2, :-2] = root[:-1] * shifted[..., 1, 1:-1]  # (a^2 c)[n] = sqrt(n+1) (a c)[n+1]
    return np.stack([(np.conj(shifted[..., p, np.newaxis, :]) * shifted).sum(axis=-1)
                     for p in range(3)], axis=-2)


def _times(xr, xi, y):
    """(xr + i xi) y as (real, imaginary) parts, for y a complex number or array."""
    return xr * y.real - xi * y.imag, xr * y.imag + xi * y.real


def _moment_sums(a, b, u, vr, vi):
    """(<A+^2 A^2>, <A+ A>) of A = u a + v b, v = vr + i vi, in real arithmetic.

    a[p][q] and b[p][q] are the inputs' <a+^p a^q>, as Python complex
    numbers or complex arrays; only their .real and .imag are read, so the
    same lines run on floats and on arrays.  The tables are Hermitian, so
    the two cross terms of n_mean, and terms (j, k) and (k, j) of the
    numerator, are complex conjugates (to rounding): each pair is formed
    once and its real part used twice.
    """
    cross = _times(*_times(u * vr, u * vi, a[1][0]), b[0][1])[0]
    n_mean = u * u * a[1][1].real + (vr * vr + vi * vi) * b[1][1].real + cross + cross
    # A^2 = u^2 a^2 + 2uv ab + v^2 b^2: weight j has degrees (2 - j, j) in (a, b).
    w = ((u * u, 0.0), (2.0 * u * vr, 2.0 * u * vi), (vr * vr - vi * vi, 2.0 * vr * vi))
    terms = []
    for j, (wr, wi) in enumerate(w):
        for k in range(j, 3):
            # Re(conj(w_j) w_k <a+^(2-j) a^(2-k)> <b+^j b^k>), multiplied left to right
            xr, xi = w[k]
            yr, yi = _times(wr * xr + wi * xi, wr * xi - wi * xr, a[2 - j][2 - k])
            y = b[j][k]
            terms.append(yr * y.real - yi * y.imag)
    t00, t01, t02, t11, t12, t22 = terms
    # The nine terms in row order, term (k, j) standing for (j, k).
    return t00 + t01 + t02 + t01 + t11 + t12 + t02 + t12 + t22, n_mean


def _moment_g2(ma: np.ndarray, mb: np.ndarray, R, phi) -> tuple[np.ndarray, np.ndarray]:
    """(g2, n_mean) of output mode A from input moment tables, broadcast.

    ma and mb are <a+^p a^q> tables of shape (..., 3, 3); R and phi are
    scalars or arrays.  All leading shapes broadcast together, so a map
    over (R, phi) or over input amplitudes is one array expression.  Both
    outputs are NaN where n_mean is below INTENSITY_FLOOR.  _scalar_g2 is
    the same formula on Python floats, for one pair of (3, 3) tables.

    The arithmetic (_moment_sums) is real: every complex product is written
    out as real and imaginary parts.  numpy's complex multiply loops on
    arrays use fused multiply-add, while its scalar path and Python's
    complex do not, so complex arithmetic would round a cell of a map
    differently from the same cell evaluated alone; real + - * / and sqrt
    round identically on floats and arrays.
    """
    R, phi = np.asarray(R, dtype=float), np.asarray(phi, dtype=float)
    if not ((0.0 <= R) & (R <= 1.0)).all():
        raise ValueError(f"reflectance must lie in [0, 1], got {R}")
    r, turn = np.sqrt(R), np.pi * phi
    # Table entries first: ma[p][q] is one entry across all tables.
    ma = ma.transpose(ma.ndim - 2, ma.ndim - 1, *range(ma.ndim - 2))
    mb = mb.transpose(mb.ndim - 2, mb.ndim - 1, *range(mb.ndim - 2))
    num, n_mean = _moment_sums(ma, mb, np.sqrt(1.0 - R), r * np.cos(turn), r * np.sin(turn))
    n_mean = np.where(n_mean < INTENSITY_FLOOR, np.nan, n_mean)
    return num / (n_mean * n_mean), n_mean


def output_moments(
    state_a: FockVector, state_b: FockVector, params: BeamsplitterParams
) -> tuple[float, float]:
    """(g2, n_mean) of output mode A from factorized input moments.

    For product inputs every output moment of A = u a + v b (u = sqrt(T),
    v = sqrt(R) e^{i phi pi}) expands into products of single-mode moments,
    so the cost is linear in dim and independent of the joint-space size.
    Agrees with output_g2 to roundoff; exists because the joint space for a
    large coherent amplitude would be prohibitively big to rotate.
    """
    return _scalar_g2(
        _ladder_moments(state_a.amps), _ladder_moments(state_b.amps), params.R, params.phi
    )


def _scalar_g2(ma: np.ndarray, mb: np.ndarray, R, phi) -> tuple[float, float]:
    """_moment_g2 of one pair of (3, 3) tables as floats; a dark output raises."""
    R, phi = float(R), float(phi)
    if not 0.0 <= R <= 1.0:
        raise ValueError(f"reflectance must lie in [0, 1], got {R}")
    # numpy's cos and sin, as in _moment_g2: math's need not round alike.
    r, turn = math.sqrt(R), math.pi * phi
    num, n_mean = _moment_sums(ma.tolist(), mb.tolist(), math.sqrt(1.0 - R),
                               r * float(np.cos(turn)), r * float(np.sin(turn)))
    if not n_mean >= INTENSITY_FLOOR:
        raise VacuumOutputError(f"output intensity below floor {INTENSITY_FLOOR:g}; g2 undefined")
    return num / (n_mean * n_mean), n_mean
