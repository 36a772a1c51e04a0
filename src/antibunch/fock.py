"""Truncated Fock-space primitives: states, ladder operators, the truncation rule.

All objects live in a photon-number basis truncated at ``dim`` levels
(occupations 0 .. dim-1).  Operators are plain complex numpy arrays; state
containers are immutable.  Two-mode amplitudes are stored flat, row-major
over mode a: index = n_a * dim_b + n_b (the np.kron convention).  truncated
is the one truncation rule for states of unbounded photon number, cutting one
build of their amplitudes, and _normalized the one place they are normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    TruncationError,
)

# Relative tolerance below which a state counts as already normalized; keeps
# normalize() exactly idempotent (second call returns the same object).
_NORM_SLACK = 1e-12


def _normalized(amps: np.ndarray) -> np.ndarray:
    """Each row over its norm, in place; a row within _NORM_SLACK of norm 1 is kept as is."""
    norms = np.sqrt(np.add.reduce((amps.conj() * amps).real, axis=1)).tolist()
    scale = [n if abs(n - 1.0) >= _NORM_SLACK else 1.0 for n in norms]  # x / 1.0 is x
    if 0.0 in scale:
        raise ValueError("cannot normalize the zero vector")
    amps /= np.array(scale)[:, np.newaxis]
    return amps


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockVector:
    """Pure single-mode state: complex amplitudes over photon numbers 0..dim-1."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidDimensionError(
                f"FockVector needs a 1-D amplitude array with dim >= 2, got shape {arr.shape}"
            )
        object.__setattr__(self, "amps", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if abs(n - 1.0) < _NORM_SLACK:
            return self
        return FockVector(self.amps / n)

    def probabilities(self) -> np.ndarray:
        """Photon-number distribution |c_n|^2 of the normalized state."""
        p = np.abs(self.amps) ** 2
        return p / p.sum()

    def mean_n(self) -> float:
        return float(np.dot(np.arange(self.dim), self.probabilities()))

    def padded(self, dim: int) -> "FockVector":
        """Embed into a larger truncation by appending zero amplitudes."""
        if dim < self.dim:
            raise InvalidDimensionError(f"cannot shrink dim {self.dim} -> {dim}")
        if dim == self.dim:
            return self
        out = np.zeros(dim, dtype=complex)
        out[: self.dim] = self.amps
        return FockVector(out)


@dataclass(frozen=True)
class TwoModeState:
    """Pure two-mode state, flat amplitudes with index n_a * dim_b + n_b."""

    amps: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex).ravel()
        if self.dim_a < 2 or self.dim_b < 2:
            raise InvalidDimensionError("both mode dims must be >= 2")
        if arr.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"amplitude length {arr.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        object.__setattr__(self, "amps", _freeze(arr))

    def as_matrix(self) -> np.ndarray:
        """(dim_a, dim_b) amplitude matrix view (copy)."""
        return self.amps.reshape(self.dim_a, self.dim_b).copy()


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state; validated Hermitian, unit trace, spectrum >= -1e-9."""

    mat: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise InvalidDimensionError(f"density matrix must be square, got {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-9:
            raise ValueError("density matrix is not Hermitian within 1e-9")
        tr = np.trace(arr).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-9")
        if np.linalg.eigvalsh((arr + arr.conj().T) / 2).min() < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        object.__setattr__(self, "mat", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a[n-1, n] = sqrt(n).

    Creation is the conjugate transpose; the truncated commutator
    [a, a^dag] equals identity except in the top level.
    """
    if dim < 2:
        raise InvalidDimensionError(f"annihilation needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def basis(dim: int, n: int = 0) -> FockVector:
    """Photon-number eigenstate |n> in a dim-level truncation."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"basis index {n} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


# The largest share of <a^dag^2 a^2> = sum_n n(n-1)|c_n|^2 a truncation may cut.
# Levels n >= dim then also hold at most that share of the population and of
# <n>, so renormalizing moves the state's g2, <n> and each p_n by at most about
# 2 * _TAIL, relative: five times below 1e-10, the closest agreement at which the
# package compares two paths to one g2 (interference in a mixed output can magnify
# it).  A population share bounds no g2: coherent alpha = 0.001 cut at dim 3
# leaves out 1.7e-19 of its population, and its g2 1e-6 off.
_TAIL = 1e-11
# The tail search builds at most this many levels, or a given dim beyond them.  A
# state still populated there (|xi| far beyond 1.5), or whose amplitudes under- or
# overflow, gets this many.
_DEEPEST = 4096


def truncated(form, params: tuple, dim: int | None = None) -> np.ndarray:
    """A state's first dim levels, normalized; dim defaults to the fewest that cut at most _TAIL.

    form, an amplitude form of antibunch.states, maps 1-element parameter arrays and a
    truncation to (1, truncation) amplitudes whose first levels do not depend on it.  It is
    built at twice dim (or 32), doubling until the top half holds under 1e-3 of _TAIL, and
    the share of <a^dag^2 a^2> above each level is summed from the smallest terms up.  The
    default keeps the two-photon level, where g2 is read; a given dim cutting more is
    refused, naming the default.  Under- or overflowing amplitudes get _DEEPEST levels.
    """
    size = min(2 * max(dim or 0, 16), max(dim or 0, _DEEPEST))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            while True:
                amps = form(*map(np.atleast_1d, params), size)
                p = np.abs(amps[0]) ** 2
                above = np.cumsum((np.arange(size) * np.arange(-1.0, size - 1) * p)[::-1])[::-1]
                settled = ((above[0] > 0 or p.any())  # not on an under- or overflow
                           and above[size // 2] <= 1e-3 * _TAIL * above[0] < np.inf)
                if settled or size >= _DEEPEST:
                    break
                size = min(2 * size, _DEEPEST)
            need = max(3, int(np.count_nonzero(above > _TAIL * above[0]))) if settled else _DEEPEST
            if dim is not None and (not settled or dim < size and above[dim] > _TAIL * above[0]):
                raise TruncationError(f"dim={dim} cuts over {_TAIL:g} of the state's "
                                      "<a^dag^2 a^2>", recommended_dim=need)
            return _normalized(amps[:, :need if dim is None else dim])[0]
    except OverflowError:
        raise ValueError(f"amplitude {max(params, key=abs)} has no finite truncation") from None


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def expectation(state, op: np.ndarray) -> complex:
    """<op> for a FockVector, TwoModeState (joint operator), or DensityMatrix."""
    op = np.asarray(op)
    if isinstance(state, FockVector):
        if op.shape != (state.dim, state.dim):
            raise DimensionMismatchError(f"operator {op.shape} vs state dim {state.dim}")
        return complex(np.vdot(state.amps, op @ state.amps))
    if isinstance(state, TwoModeState):
        n = state.dim_a * state.dim_b
        if op.shape != (n, n):
            raise DimensionMismatchError(f"operator {op.shape} vs joint dim {n}")
        return complex(np.vdot(state.amps, op @ state.amps))
    if isinstance(state, DensityMatrix):
        if op.shape != state.mat.shape:
            raise DimensionMismatchError(f"operator {op.shape} vs density dim {state.mat.shape}")
        return complex(np.trace(state.mat @ op))
    raise TypeError(f"unsupported state type {type(state).__name__}")
