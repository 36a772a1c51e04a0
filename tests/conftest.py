"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import splu

from antibunch import lindblad


def _trace_row_lu(model):
    """Steady state of L + w |e_0><trace| by a sparse LU, as a reference.

    The library's own kernels are the banded LU of one mode and the
    operator-form GMRES; this is a third, independent solve of the full
    superoperator with the trace row the operator kernel uses, symmetrized,
    trace-normalized and gated at max |L rho| <= 1e-10 like steady_state.
    Its fill-in grows fast with two modes (coupled (12, 12): tens of
    seconds), and at the coupled dip it is the less accurate of the two
    (README, "Cavity steady states"), so it is trusted off the dip.
    """
    n = model.hilbert_dim
    drift = lindblad._drift(model)
    weight = lindblad._bump_weight(model, drift)
    trace_row = scipy.sparse.csc_matrix(
        (np.full(n, weight), (np.zeros(n, dtype=int), np.arange(n) * (n + 1))), shape=(n * n, n * n)
    )
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = weight
    rho = splu(lindblad.liouvillian(model) + trace_row).solve(rhs).reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    assert lindblad._residual(model, drift, rho) <= 1e-10
    return rho


@pytest.fixture
def trace_row_lu():
    """The sparse trace-row LU reference: a function of a CavityModel."""
    return _trace_row_lu
