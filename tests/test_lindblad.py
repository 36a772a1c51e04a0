"""Driven-dissipative cavity models: steady states, g2(tau), tuning."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import expm_multiply, splu

from antibunch import beamsplitter, lindblad
from antibunch.errors import (
    InvalidDimensionError,
    SteadyStateError,
    VacuumOutputError,
)
from antibunch.fock import annihilation
from antibunch.lindblad import (
    CavityModel,
    CorrelationCurve,
    build_coupled_cavities,
    build_single_kerr,
    g2_tau,
    liouvillian,
    oscillation_frequency,
    static_g2,
    steady_state,
    tune_for_antibunching,
)


# U at the unconventional-blockade optimum for J = 6.2 (decay rate 1)
U_OPT = 2.0 / (3.0 * np.sqrt(3.0) * 6.2**2)


def weak_drive_g2(U, J, Delta):
    """g2(0) of the driven mode of the coupled model to leading order in F.

    Amplitude equations of H - (i/2)(a+a + b+b) with C00 = 1 and the drive
    scaled out (Bamba, Imamoglu, Carusotto and Ciuti, PRA 83, 021802(R)
    (2011)): first order fixes (C10, C01), second order (C20, C11, C02).
    """
    d, r2 = Delta - 0.5j, np.sqrt(2.0)
    c10, c01 = np.linalg.solve([[d, J], [J, d]], [-1.0, 0.0])
    c20, _, _ = np.linalg.solve(
        [[2 * d, r2 * J, 0.0], [r2 * J, 2 * d, r2 * J], [0.0, r2 * J, 2 * d + 2 * U]],
        [-r2 * c10, -c01, 0.0],
    )
    return 2.0 * abs(c20) ** 2 / abs(c10) ** 4


def linear_cavity_amplitude(F, Delta):
    # steady state of the undriven-nonlinearity cavity is the coherent state
    # <a> = -i F / (1/2 + i Delta)  (decay rate 1)
    return -1j * F / (0.5 + 1j * Delta)


class TestBuilders:
    def test_single_dim_floor(self):
        with pytest.raises(InvalidDimensionError):
            build_single_kerr(0.1, 0.1, 0.0, 6)

    def test_coupled_dim_floor(self):
        with pytest.raises(InvalidDimensionError):
            build_coupled_cavities(0.1, 1.0, 0.1, 0.0, (4, 8))

    def test_model_validates_hermiticity(self):
        a = annihilation(8)
        with pytest.raises(ValueError, match="Hermitian"):
            CavityModel(
                hamiltonian=a,  # not Hermitian
                collapse_ops=(a,),
                monitored=a,
                dims=(8,),
            )

    def test_hilbert_dim(self):
        assert build_single_kerr(0.1, 0.1, 0.0, 9).hilbert_dim == 9
        assert build_coupled_cavities(0.1, 1.0, 0.1, 0.0, (6, 7)).hilbert_dim == 42

    @pytest.mark.parametrize("U, J, F, Delta", [(0.3, 1.7, 0.2 + 0.1j, -0.4), (0.0, 0.0, 0.0, 0.0)])
    def test_hamiltonians_equal_the_inline_expressions(self, U, J, F, Delta):
        # The builders form H from products cached per truncation, in the
        # order of these expressions, so H is equal bit for bit.
        a = annihilation(10)
        ad = a.conj().T
        inline = Delta * (ad @ a) + U * (ad @ ad @ a @ a) + F * ad + np.conjugate(F) * a
        assert np.array_equal(build_single_kerr(U, F, Delta, 10).hamiltonian, inline)
        a = np.kron(annihilation(6), np.eye(7, dtype=complex))
        b = np.kron(np.eye(6, dtype=complex), annihilation(7))
        ad, bd = a.conj().T, b.conj().T
        inline = (Delta * (ad @ a + bd @ b) + U * (bd @ bd @ b @ b) + J * (ad @ b + bd @ a)
                  + F * ad + np.conjugate(F) * a)
        assert np.array_equal(build_coupled_cavities(U, J, F, Delta, (6, 7)).hamiltonian, inline)

    def test_operator_arrays_are_read_only(self):
        # Every model of one truncation shares them.
        for model in (build_single_kerr(0.1, 0.1, 0.0, 9),
                      build_coupled_cavities(0.1, 1.0, 0.1, 0.0, (6, 7))):
            for op in (model.monitored, *model.collapse_ops):
                with pytest.raises(ValueError, match="read-only"):
                    op[0, 1] = 0.0


def dense_superoperator(drift, collapse_ops):
    # The reference: A kron 1 + 1 kron conj(A) + sum c kron conj(c), dense.
    ident = np.eye(drift.shape[0])
    lio = np.kron(drift, ident) + np.kron(ident, drift.conj())
    for c in collapse_ops:
        lio = lio + np.kron(c, c.conj())
    return lio


def unpack_band(band, lower, upper):
    # Dense matrix of LAPACK band storage band[upper + i - j, j] = M[i, j].
    size = band.shape[1]
    assert band.shape[0] == lower + upper + 1
    i, j = np.indices((size, size))
    inside = (i - j <= lower) & (j - i <= upper)
    dense = np.zeros((size, size), dtype=band.dtype)
    dense[inside] = band[(upper + i - j)[inside], j[inside]]
    return dense


@st.composite
def sparse_dyadic(draw, n):
    # Complex entries on a quarter-integer grid with a random zero pattern.
    # Every product and sum of such entries is exact in floating point, so
    # the sparse assembly must equal the dense reference bit for bit,
    # whatever order it sums duplicates in.
    parts = draw(hnp.arrays(np.int8, (2, n, n), elements=st.integers(-8, 8)))
    mask = draw(hnp.arrays(bool, (n, n)))
    return (parts[0] + 1j * parts[1]) / 4 * mask


@st.composite
def random_operators(draw):
    n = draw(st.integers(2, 12))
    drift = draw(sparse_dyadic(n))
    return drift, [draw(sparse_dyadic(n)) for _ in range(draw(st.integers(0, 2)))]


@st.composite
def ladder_restricted_models(draw):
    # A model's A and c restricted to a random subset of at most 12 states,
    # as g2_tau restricts them to the excitation ladder.
    coupled = draw(st.booleans())
    U, F = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    Delta = draw(st.floats(-1.0, 1.0))
    if coupled:
        model = build_coupled_cavities(U, draw(st.floats(0.0, 7.0)), F, Delta, (6, 6))
    else:
        model = build_single_kerr(U, F, Delta, draw(st.integers(8, 12)))
    states = draw(st.sets(st.integers(0, model.hilbert_dim - 1), min_size=2, max_size=12))
    ix = np.ix_(sorted(states), sorted(states))
    return lindblad._drift(model)[ix], [c[ix] for c in model.collapse_ops]


class TestAssembly:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.one_of(random_operators(), ladder_restricted_models()))
    def test_superoperator_equals_dense_kron(self, ops):
        drift, collapse_ops = ops
        lio = lindblad._superoperator(drift, collapse_ops)
        assert np.array_equal(lio.toarray(), dense_superoperator(drift, collapse_ops))

    @pytest.mark.parametrize(
        "model",
        [build_single_kerr(0.3, 0.6, 0.1, 10), build_coupled_cavities(0.3, 1.0, 0.2, 0.0, (6, 6))],
        ids=["single", "coupled"],
    )
    def test_direct_kernel_factors_the_bumped_liouvillian(self, model, monkeypatch):
        # One mode: the band of L + weight * |e_0><e_0| goes to LAPACK's
        # banded LU.  Several: L + weight * |e_0><trace| goes to SuperLU.
        factored = []

        def recording_zgbsv(kl, ku, ab, b, **kwargs):
            # zgbsv's band has kl rows of LU fill-in above the matrix's band
            factored.append(((kl, ku), ab[kl:].copy()))
            return scipy.linalg.lapack.zgbsv(kl, ku, ab, b, **kwargs)

        def recording_splu(matrix):
            factored.append(matrix)
            return splu(matrix)

        monkeypatch.setattr(lindblad, "zgbsv", recording_zgbsv)
        monkeypatch.setattr(lindblad, "splu", recording_splu)
        drift = lindblad._drift(model)
        weight = lindblad._bump_weight(model, drift)
        lindblad._kernel_direct(model, drift, weight)
        n = model.hilbert_dim
        expected = dense_superoperator(drift, model.collapse_ops)
        assert len(factored) == 1
        if len(model.dims) == 1:
            expected[0, 0] += weight
            (lower, upper), band = factored[0]
            assert (lower, upper) == (n, n + 1)
            assert np.array_equal(unpack_band(band, lower, upper), expected)
        else:
            expected[0, :: n + 1] += weight
            assert factored[0].format == "csc"
            assert np.array_equal(factored[0].toarray(), expected)


class TestLiouvillian:
    def test_trace_preservation(self):
        model = build_single_kerr(0.3, 0.2, 0.1, 10)
        lio = liouvillian(model)
        n = model.hilbert_dim
        trace_functional = np.eye(n, dtype=complex).reshape(-1)
        assert np.max(np.abs(trace_functional @ lio)) < 1e-12

    def test_evolution_preserves_trace_and_positivity(self):
        model = build_single_kerr(0.5, 0.3, 0.0, 10)
        lio = liouvillian(model)
        rho_ss = steady_state(model).mat
        d = model.monitored
        seed = d @ rho_ss @ d.conj().T
        seed = seed / np.trace(seed).real
        sol = solve_ivp(
            lambda _t, y: lio @ y,
            (0.0, 5.0),
            seed.reshape(-1),
            t_eval=[0.0, 1.0, 5.0],
            rtol=1e-9,
            atol=1e-12,
        )
        assert sol.success
        for k in range(sol.y.shape[1]):
            rho = sol.y[:, k].reshape(model.hilbert_dim, model.hilbert_dim)
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-7


class TestSteadyState:
    def test_requires_decay_channel(self):
        a = annihilation(8)
        model = CavityModel(
            hamiltonian=(a + a.conj().T),
            collapse_ops=(),
            monitored=a,
            dims=(8,),
        )
        with pytest.raises(SteadyStateError):
            steady_state(model)

    def test_linear_cavity_matches_closed_form(self):
        F, Delta = 0.1, 0.3
        model = build_single_kerr(0.0, F, Delta, 12)
        rho = steady_state(model).mat
        a_avg = np.trace(annihilation(12) @ rho)
        assert abs(a_avg - linear_cavity_amplitude(F, Delta)) < 1e-9
        assert static_g2(model) == pytest.approx(1.0, abs=1e-8)

    def test_undriven_cavity_relaxes_to_vacuum(self):
        rho = steady_state(build_single_kerr(0.4, 0.0, 0.1, 8)).mat
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["magic", "graded", "march"])
    def test_unknown_method(self, method):
        model = build_single_kerr(0.1, 0.1, 0.0, 8)
        with pytest.raises(ValueError, match="method"):
            steady_state(model, method=method)

    def test_methods_agree_on_coupled_model(self):
        # weakly excited coupled cavities: the operator kernel must reproduce
        # the full direct solve up to the direct solve's own double-precision
        # floor on this observable (n_ss ~ 3.6e-7: rescaling the LU's trace
        # bump by 0.1-10 moves its g2 by up to 3.6e-7)
        model = build_coupled_cavities(
            0.01, 6.2, 0.04, 1.0 / (2.0 * np.sqrt(3.0)), (8, 8)
        )
        g2_direct = static_g2(model, rho_ss=steady_state(model, method="direct").mat)
        g2_operator = static_g2(model, rho_ss=steady_state(model, method="operator").mat)
        assert g2_operator == pytest.approx(g2_direct, rel=1e-6)

    @pytest.mark.parametrize("F", [0.04, 0.2, 0.5])
    @pytest.mark.parametrize("U, J", [(U_OPT, 6.2), (0.3, 1.0)], ids=["U_opt-J6.2", "U0.3-J1"])
    @pytest.mark.parametrize("dims", [(6, 6), (8, 8)], ids=["6x6", "8x8"])
    def test_operator_kernel_matches_direct(self, dims, U, J, F):
        # Off the dip bottom: at the tuned point (Delta = 0.2852, g2 ~ 4.5e-6)
        # the direct LU's own g2 at (8, 8) is 1.5e-5 relative off a
        # long-double refinement of it.
        model = build_coupled_cavities(U, J, F, 1.0 / (2.0 * np.sqrt(3.0)), dims)
        rho_op = steady_state(model, method="operator").mat
        rho_direct = steady_state(model, method="direct").mat
        assert lindblad._residual(model, lindblad._drift(model), rho_op) <= 1e-10
        assert static_g2(model, rho_ss=rho_op) == pytest.approx(
            static_g2(model, rho_ss=rho_direct), rel=1e-6
        )

    def test_auto_picks_lu_for_one_mode_and_operator_for_several(self):
        single = build_single_kerr(0.3, 0.6, 0.1, 12)
        coupled = build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, (6, 6))
        for model, forced in ((single, "direct"), (coupled, "operator")):
            auto = steady_state(model).mat
            assert np.array_equal(auto, steady_state(model, method=forced).mat)

    @pytest.mark.parametrize(
        "dim, U, F, Delta",
        [(8, 0.0, 2.0, 0.0), (8, 1.0, 0.02, -1.0), (12, 0.01, 0.158, 0.05), (12, 0.3, 1.0, -0.4),
         (20, 1.0, 2.0, 1.0), (28, 0.01, 0.3, -0.05), (40, 0.3, 0.02, 0.3), (60, 0.0, 0.02, 0.0),
         (60, 1.0, 1.0, -1.0)],
    )
    def test_banded_kernel_matches_trace_row_lu(self, dim, U, F, Delta):
        # The single-mode band bumps only rho[0, 0]; the trace-row sparse LU
        # is the reference.  Over 576 models on this range they differed by
        # at most 2.7e-14, with band residuals <= 3.3e-15 against the sparse
        # LU's 9.0e-14.
        model = build_single_kerr(U, F, Delta, dim)
        drift = lindblad._drift(model)
        weight = lindblad._bump_weight(model, drift)
        rhs = np.zeros(dim * dim, dtype=complex)
        rhs[0] = weight
        pattern, vals = lindblad._triplets(drift, model.collapse_ops, trace_bump=weight)
        lio = scipy.sparse.csc_matrix((vals, (pattern.rows, pattern.cols)), shape=(dim**2, dim**2))
        ref = splu(lio).solve(rhs).reshape(dim, dim)
        ref = 0.5 * (ref + ref.conj().T)
        ref = ref / np.trace(ref).real
        rho = steady_state(model).mat  # passes the 1e-10 gate or raises
        assert np.max(np.abs(rho - ref)) <= 1e-13

    def test_banded_kernel_failure_names_kernel(self, monkeypatch):
        def singular(kl, ku, ab, b, **kwargs):
            return ab, np.arange(1, b.size + 1, dtype=np.int32), b, 1  # info > 0: U[0, 0] = 0

        monkeypatch.setattr(lindblad, "zgbsv", singular)
        lindblad._solve.cache_clear()  # an earlier solve of this model would skip the kernel
        with pytest.raises(SteadyStateError, match="banded Liouvillian solve failed: singular"):
            steady_state(build_single_kerr(0.3, 0.6, 0.1, 10))

    def test_nan_drive_fails_the_gate(self):
        # LAPACK's band solve returns NaN with no zero pivot; the gate refuses it.
        lindblad._solve.cache_clear()
        with np.errstate(invalid="ignore"), pytest.raises(SteadyStateError, match="residual nan"):
            steady_state(build_single_kerr(0.1, float("nan"), 0.0, 12))

    def test_operator_kernel_failure_names_kernel_info_and_residual(self, monkeypatch):
        monkeypatch.setattr(lindblad, "gmres", lambda op, b, **kw: (np.zeros_like(b), 7))
        model = build_coupled_cavities(0.01, 6.2, 0.04, 0.2, (6, 6))
        lindblad._solve.cache_clear()
        with pytest.raises(SteadyStateError, match=r"operator kernel: GMRES info 7 .*residual"):
            steady_state(model)

    @pytest.mark.parametrize("dim, F", [(18, 0.8), (24, 0.8), (24, 1.0)])
    def test_operator_kernel_refines_past_a_stalled_first_round(self, dim, F):
        # The first GMRES round stops short of 1e-12 here (relative residual
        # 1.9e-12 to 2.4e-10); the refinement round takes its iterate on.
        model = build_single_kerr(0.01, F, 0.02, dim)
        rho_op = steady_state(model, method="operator").mat
        rho_direct = steady_state(model, method="direct").mat
        assert lindblad._residual(model, lindblad._drift(model), rho_op) <= 1e-12
        assert abs(static_g2(model, rho_ss=rho_op) - static_g2(model, rho_ss=rho_direct)) <= 1e-12

    def test_auto_solves_strongly_driven_coupled_model_above_full_space_limit(self):
        # Strong drive above _FULL_SPACE_LIMIT, where a ladder truncated once
        # its low-order moments converge fails the 1e-10 gate (residual
        # 5.6e-9): auto must solve the whole space.
        model = build_coupled_cavities(0.3, 1.0, 0.2, 0.0, (11, 10))
        assert model.hilbert_dim**2 > lindblad._FULL_SPACE_LIMIT
        g2_auto = static_g2(model, rho_ss=steady_state(model).mat)
        # method="direct" gives 1.18446547895633 here, in 8.5 s
        assert g2_auto == pytest.approx(1.18446547895633, rel=1e-8)


class TestSteadyStateMemo:
    @pytest.fixture
    def kernel_runs(self, monkeypatch):
        # Names of the kernels run, in order, from an empty memo.
        runs = []
        for name in ("_kernel_direct", "_kernel_operator"):
            def counted(*args, _kernel=getattr(lindblad, name), _name=name):
                runs.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(lindblad, name, counted)
        lindblad._solve.cache_clear()
        return runs

    def test_equal_model_is_solved_once(self, kernel_runs):
        first = steady_state(build_single_kerr(0.3, 0.6, 0.1, 10))
        again = steady_state(build_single_kerr(0.3, 0.6, 0.1, 10))  # a new, equal model
        assert again is first
        assert kernel_runs == ["_kernel_direct"]

    def test_delta_one_ulp_away_is_solved_again(self, kernel_runs):
        first = steady_state(build_single_kerr(0.3, 0.6, 0.1, 10))
        moved = steady_state(build_single_kerr(0.3, 0.6, np.nextafter(0.1, 1.0), 10))
        assert moved is not first
        assert kernel_runs == ["_kernel_direct"] * 2

    def test_auto_and_a_forced_method_are_separate_entries(self, kernel_runs):
        model = build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, (6, 6))
        auto = steady_state(model)
        forced = steady_state(model, method="operator")
        assert forced is not auto
        assert steady_state(model) is auto and steady_state(model, method="operator") is forced
        assert kernel_runs == ["_kernel_operator"] * 2

    def test_failed_solve_is_never_stored(self, kernel_runs):
        model = build_single_kerr(0.1, float("nan"), 0.0, 12)
        for _ in range(2):
            with np.errstate(invalid="ignore"):
                with pytest.raises(SteadyStateError, match="residual nan"):
                    steady_state(model)
        assert kernel_runs == ["_kernel_direct"] * 2
        assert lindblad._solve.cache_info().currsize == 0

    def test_memo_holds_at_most_its_bound(self, kernel_runs):
        bound = lindblad._solve.cache_info().maxsize
        deltas = np.linspace(-0.5, 0.5, bound + 3)
        models = [build_single_kerr(0.3, 0.6, delta, 8) for delta in deltas]
        for model in models:
            steady_state(model)
            assert lindblad._solve.cache_info().currsize <= bound
        steady_state(models[-bound])  # the oldest entry kept, now the most recent
        steady_state(models[-1])
        assert len(kernel_runs) == len(models)
        steady_state(models[0])  # dropped, so solved again; it drops models[-bound + 1]
        steady_state(models[-bound])
        assert len(kernel_runs) == len(models) + 1

    def test_solves_in_sequence_equal_solves_alone(self):
        # F = 0 leaves the drive's off-diagonals out of the drift, so the
        # triplet pattern cache must tell it from F != 0; U = 0 keeps the
        # pattern of U != 0.
        models = [build_single_kerr(0.3, 0.0, 0.1, 10), build_single_kerr(0.3, 0.6, 0.1, 10),
                  build_single_kerr(0.0, 0.6, 0.1, 10)]
        alone = []
        for model in models:
            lindblad._pattern.cache_clear()
            lindblad._solve.cache_clear()
            alone.append(steady_state(model).mat)
        lindblad._pattern.cache_clear()
        lindblad._solve.cache_clear()
        for model, rho in zip(models, alone):
            assert np.array_equal(steady_state(model).mat, rho)
        assert lindblad._pattern.cache_info().currsize == 2


class TestStaticG2:
    def test_undriven_intensity_is_undefined(self):
        with pytest.raises(VacuumOutputError):
            static_g2(build_single_kerr(0.4, 0.0, 0.1, 8))

    def test_homodyne_cancellation_is_undefined(self):
        F, Delta = 0.2, 0.1
        model = build_single_kerr(0.0, F, Delta, 16)
        beta = -linear_cavity_amplitude(F, Delta)
        with pytest.raises(VacuumOutputError):
            static_g2(model, mix={"beta": beta})

    def test_homodyne_offset_keeps_coherent_statistics(self):
        model = build_single_kerr(0.0, 0.2, 0.1, 16)
        assert static_g2(model, mix={"beta": 0.3 + 0.1j}) == pytest.approx(1.0, abs=1e-8)

    def test_decoupled_partner_mode_has_no_effect(self):
        # with the hopping off, the monitored cavity is exactly linear no
        # matter how nonlinear its dark partner is
        F, Delta = 0.1, 0.2
        coupled = build_coupled_cavities(0.37, 0.0, F, Delta, (12, 6))
        single = build_single_kerr(0.0, F, Delta, 12)
        g2_c = static_g2(coupled)
        g2_s = static_g2(single)
        assert g2_c == pytest.approx(1.0, abs=1e-9)
        assert abs(g2_c - g2_s) < 1e-9

    def test_intensity_floor_shared_with_splitter_pipeline(self):
        assert lindblad.INTENSITY_FLOOR == beamsplitter.INTENSITY_FLOOR


class TestCorrelationCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.array([0.5, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            CorrelationCurve(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_arrays_readonly(self):
        curve = CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            curve.g2_values[0] = 2.0


class TestG2Tau:
    def test_grid_must_start_at_zero(self, monkeypatch):
        # refused up front, before any steady-state solve
        monkeypatch.setattr(lindblad, "steady_state", None)
        model = build_single_kerr(0.5, 0.3, 0.0, 10)
        for tau in ([0.5, 1.0], [], [0.0], [0.0, 0.5, 2.0]):
            with pytest.raises(ValueError, match="tau grid"):
                g2_tau(model, None, tau)

    def test_undriven_cavity_is_undefined(self):
        with pytest.raises(VacuumOutputError):
            g2_tau(build_single_kerr(0.4, 0.0, 0.1, 8), None, np.linspace(0.0, 1.0, 5))

    def test_one_propagation_call_per_curve(self, monkeypatch):
        # A small ladder on a fine enough grid (N <= 2 (n - 1)) builds its step
        # on the identity in its one call; a ladder above the limit, or the
        # 64-unknown one on 21 points, takes one interval call over the grid.
        calls = []

        def counted(A, B, **kwargs):
            calls.append((A.shape[0], B.shape, kwargs.get("num")))
            return expm_multiply(A, B, **kwargs)

        monkeypatch.setattr(lindblad, "expm_multiply", counted)
        small, large = build_single_kerr(0.5, 0.3, 0.0, 10), build_single_kerr(0.01, 0.8, 0.02, 24)
        for model, points, formed in ((small, 21, False), (small, 33, True), (large, 21, False)):
            calls.clear()
            g2_tau(model, None, np.linspace(0.0, 5.0, points))
            assert len(calls) == 1
            n, b_shape, num = calls[0]
            assert (n <= min(lindblad._FORMED_STEP_LIMIT, 2 * (points - 1))) == formed
            assert (b_shape, num) == (((n, n), None) if formed else ((n,), points))

    def test_linear_cavity_curve_is_flat(self):
        model = build_single_kerr(0.0, 0.2, 0.1, 12)
        curve = g2_tau(model, None, np.linspace(0.0, 5.0, 21))
        assert np.max(np.abs(curve.g2_values - 1.0)) < 1e-7

    @pytest.mark.parametrize(
        "model",
        [
            build_single_kerr(0.5, 0.3, 0.0, 12),
            build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, (11, 10)),
        ],
        ids=["single", "coupled-blockade"],
    )
    def test_zero_delay_matches_static_g2(self, model):
        curve = g2_tau(model, None, np.array([0.0, 0.5, 1.0]))
        assert abs(curve.g2_values[0] - static_g2(model)) < 1e-10

    def test_correlations_factorize_at_long_delay(self):
        model = build_single_kerr(0.5, 0.3, 0.0, 12)
        curve = g2_tau(model, None, np.linspace(0.0, 20.0, 41))
        assert curve.g2_values[-1] == pytest.approx(1.0, abs=1e-6)

    # Coupled cavities at the tuned unconventional-blockade point.  The curve
    # is read off an intensity n_ss ~ 3e-7, far below any absolute tolerance
    # an integrator would put on rho, so these references are exponentials.
    @staticmethod
    def _blockade_model(dims):
        return build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, dims)

    @staticmethod
    def _seed_and_readout(model, rho_ss, mix=None):
        beta = mix["beta"] if mix else 0.0
        d = model.monitored + beta * np.eye(model.hilbert_dim)
        n_ss = np.trace(d.conj().T @ d @ rho_ss).real
        seed = d @ rho_ss @ d.conj().T
        seed = seed.reshape(-1) / np.trace(seed).real
        return seed, (d.conj().T @ d).T.reshape(-1) / n_ss

    def test_coupled_curve_matches_dense_exponential_steps(self):
        model = self._blockade_model((6, 6))  # direct-LU state, dense steps
        tau = np.linspace(0.0, 10.0, 51)
        y, readout = self._seed_and_readout(model, steady_state(model, method="direct").mat)
        step = scipy.linalg.expm(liouvillian(model).toarray() * (tau[1] - tau[0]))
        reference = []
        for _ in tau:
            reference.append((readout @ y).real)
            y = step @ y
        curve = g2_tau(model, None, tau)
        assert np.max(np.abs(curve.g2_values - reference)) < 1e-9

    def test_fig7_coupled_curve_matches_one_step_per_interval(self):
        # fig7's coupled dip on its default grid.  The reference takes one
        # expm_multiply call per tau interval on the same excitation ladder;
        # a long-double propagation of that ladder is 1.1e-12 from it.  The
        # formed step is 1.5e-12 from it, one interval-mode call 1.1e-11.
        model = build_coupled_cavities(0.01, 6.2, 0.04, 0.2852256774902344, (12, 12))
        tau = np.linspace(0.0, 10.0, 201)
        rho_ss = steady_state(model).mat
        y, readout = self._seed_and_readout(model, rho_ss)
        total = np.add.outer(np.arange(12), np.arange(12)).reshape(-1)
        shells = np.bincount(total, weights=np.diag(rho_ss).real)
        above = np.cumsum(shells[::-1])[::-1] - shells
        n_ss = np.trace(model.monitored.conj().T @ model.monitored @ rho_ss).real
        keep = np.flatnonzero(total <= np.argmax(above <= lindblad._LADDER_TAIL * n_ss))
        ladder = (keep[:, None] * model.hilbert_dim + keep[None, :]).reshape(-1)
        lio = liouvillian(model)[ladder][:, ladder]
        y, readout = y[ladder], readout[ladder]
        reference = []
        for _ in tau:
            reference.append((readout @ y).real)
            y = expm_multiply(lio * tau[1], y)
        curve = g2_tau(model, None, tau)
        assert np.max(np.abs(curve.g2_values - reference)) < 3e-12

    @pytest.mark.parametrize(
        "model, mix",
        [
            (build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, (11, 10)), None),
            (build_coupled_cavities(0.3, 1.0, 0.2, 0.0, (11, 10)), None),
            (build_single_kerr(0.01, 0.15, 0.0, 12), {"beta": -0.27}),
        ],
        ids=["coupled-blockade", "coupled-strong", "single-homodyne"],
    )
    def test_ladder_curve_matches_full_space_propagation(self, model, mix):
        tau = np.linspace(0.0, 3.0, 7)
        y, readout = self._seed_and_readout(model, steady_state(model).mat, mix)
        states = expm_multiply(
            liouvillian(model), y, start=0.0, stop=3.0, num=7, endpoint=True
        )
        curve = g2_tau(model, mix, tau)
        assert np.max(np.abs(curve.g2_values - (states @ readout).real)) < 1e-9

    @pytest.mark.parametrize(
        "model, mix, points",
        [
            (build_coupled_cavities(U_OPT, 6.2, 0.04, 0.2852, (11, 10)), None, 121),
            (build_single_kerr(0.01, 0.15, 0.0, 12), {"beta": -0.27}, 61),
        ],
        ids=["coupled-blockade", "single-homodyne"],
    )
    def test_formed_step_matches_full_space_propagation(self, monkeypatch, model, mix, points):
        # The 7-point grids above take the interval call; these grids are fine
        # enough for the formed step on the same ladders (225 and 81 unknowns).
        tau = np.linspace(0.0, 3.0, points)
        y, readout = self._seed_and_readout(model, steady_state(model).mat, mix)
        states = expm_multiply(
            liouvillian(model), y, start=0.0, stop=3.0, num=points, endpoint=True
        )
        seeds = []
        monkeypatch.setattr(lindblad, "expm_multiply", lambda A, B, **kwargs:
                            seeds.append(B.shape) or expm_multiply(A, B, **kwargs))
        curve = g2_tau(model, mix, tau)
        assert len(seeds) == 1 and len(seeds[0]) == 2  # one step, formed on the identity
        assert np.max(np.abs(curve.g2_values - (states @ readout).real)) < 1e-9


class TestOscillationFrequency:
    def test_monotone_curve_has_none(self):
        tau = np.linspace(0.0, 10.0, 101)
        curve = CorrelationCurve(tau, 1.0 - np.exp(-tau))
        assert oscillation_frequency(curve) is None

    def test_damped_cosine(self):
        omega = 3.0
        tau = np.linspace(0.0, 20.0, 401)
        curve = CorrelationCurve(tau, 1.0 + 0.1 * np.exp(-tau / 5.0) * np.cos(omega * tau))
        assert oscillation_frequency(curve) == pytest.approx(omega, rel=1e-3)


class TestTuner:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            tune_for_antibunching("triple")

    def test_homodyne_dial_needs_nonlinearity(self, monkeypatch):
        # with U = 0 the output stays coherent up to the displacement, which
        # cannot synthesize antibunching below the documented 0.9 floor
        import warnings

        deltas = []

        def recording_build(U, F, Delta, dim):
            deltas.append(Delta)
            return build_single_kerr(U, F, Delta, dim)

        monkeypatch.setattr(lindblad, "build_single_kerr", recording_build)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = tune_for_antibunching("single", U=0.0)
        assert result["g2"] >= 0.9
        # the search never leaves the near-resonant slab |Delta| <= 0.05
        assert deltas and max(abs(d) for d in deltas) <= 0.05


class TestWeakDriveOracle:
    def test_lindblad_approaches_it_as_F_squared(self):
        delta = 1.0 / (2.0 * np.sqrt(3.0))
        weak = weak_drive_g2(0.01, 6.2, delta)
        gaps = [abs(static_g2(build_coupled_cavities(0.01, 6.2, F, delta, (8, 8))) / weak - 1.0)
                for F in (0.04, 0.02, 0.01)]
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5 and 3.5 <= gaps[1] / gaps[2] <= 4.5

    def test_coupled_tuner_reaches_the_dip_of_the_closed_form(self):
        argmin = minimize_scalar(lambda d: weak_drive_g2(0.01, 6.2, d), bounds=(0.2, 0.4),
                                 method="bounded", options={"xatol": 1e-12}).x
        at_argmin = static_g2(build_coupled_cavities(0.01, 6.2, 0.04, argmin, (12, 12)))
        tuned = tune_for_antibunching("coupled", U=0.01, J=6.2)
        assert tuned["F"] == 0.04 and tuned["dims"] == (12, 12)
        assert tuned["g2"] <= at_argmin
