"""Truncated Fock-space primitives: states, ladder operators, truncation rules.

All objects live in a photon-number basis truncated at ``dim`` levels
(occupations 0 .. dim-1).  Operators are plain complex numpy arrays; state
containers are immutable.  Two-mode amplitudes are stored flat, row-major
over mode a: index = n_a * dim_b + n_b (the np.kron convention).  The
truncation rules default_dim, amplitude_dim and squeeze_dim guard antibunch.states.
"""

from __future__ import annotations

import math
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


def number(dim: int) -> np.ndarray:
    if dim < 2:
        raise InvalidDimensionError(f"number needs dim >= 2, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def basis(dim: int, n: int = 0) -> FockVector:
    """Photon-number eigenstate |n> in a dim-level truncation."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"basis index {n} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


def default_dim(alpha: complex) -> int:
    """Adaptive truncation start for amplitude-|alpha| fields: max(16, ceil(8(1+|alpha|)^2)).

    An amplitude whose truncation overflows a float is refused with a ValueError.
    """
    try:
        return max(16, math.ceil(8.0 * (1.0 + abs(alpha)) ** 2))
    except OverflowError:
        raise ValueError(f"amplitude {alpha} has no finite truncation") from None


def amplitude_dim(alpha: complex, dim: int | None = None) -> int:
    """dim (default_dim(alpha) if None), refused unless |alpha|^2 <= dim/4."""
    recommended = default_dim(alpha)  # first, so that |alpha|^2 below is finite
    if dim is not None and abs(alpha) ** 2 > dim / 4.0:
        raise TruncationError(f"amplitude |alpha|={abs(alpha):.4g} unsafe at dim={dim}",
                              recommended_dim=recommended)
    return recommended if dim is None else dim


def squeeze_dim(xi: complex) -> int:
    """Smallest truncation the squeezed states accept for S(xi): ceil(20(1+|xi|)).

    A squeeze whose truncation overflows a float is refused with a ValueError.
    """
    try:
        return math.ceil(20.0 * (1.0 + abs(xi)))
    except OverflowError:
        raise ValueError(f"squeeze {xi} has no finite truncation") from None


def lift_a(op: np.ndarray, dim_b: int) -> np.ndarray:
    """Embed a mode-a operator into the two-mode space: op (x) I_b."""
    return np.kron(op, np.eye(dim_b, dtype=complex))


def lift_b(op: np.ndarray, dim_a: int) -> np.ndarray:
    """Embed a mode-b operator into the two-mode space: I_a (x) op."""
    return np.kron(np.eye(dim_a, dtype=complex), op)


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
