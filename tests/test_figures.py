"""Figure dataset builders and their CSV round trip."""

import csv
import gc
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antibunch import figures, states
from antibunch.beamsplitter import _ladder_moments
from antibunch.errors import InvalidDimensionError, TruncationError, VacuumOutputError
from antibunch.states import CatParams, KerrParams
from antibunch.optimize import Axis, SweepSpec, min_curve, refine_min, sweep
from antibunch.figures import (
    FIGURES,
    fig2,
    fig3a,
    fig3b,
    fig4,
    fig5,
    fig6,
    fig7,
    format_cell,
    write_csv,
)


class TestRegistry:
    def test_all_builders_registered(self):
        assert set(FIGURES) == {"fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7"}

    def test_objectives_registered(self):
        from antibunch.optimize import OBJECTIVE_REGISTRY

        for name in (
            "phase_modified_mix",
            "kerr_mix",
            "two_photon_mix",
            "cat_mix",
            "squeezed_mix",
        ):
            assert name in OBJECTIVE_REGISTRY

    def test_every_entry_is_the_figures_function_of_its_name(self):
        from antibunch.optimize import OBJECTIVE_REGISTRY

        for registry in (FIGURES, OBJECTIVE_REGISTRY):
            for name, fn in registry.items():
                assert fn is getattr(figures, name)


# Two swept axes (name, largest value) and fixed parameters per objective;
# every axis may start at 0, where alpha = 0 or alpha_sch = 0 gives vacuum
# inputs and undefined cells.
BROADCAST_CASES = {
    "phase_modified_mix": (("alpha", 0.6), ("R", 1.0), {"phi": 0.7}),
    "kerr_mix": (("alpha", 0.6), ("phi", 2.0), {"R": 0.4, "chi_t": 0.05}),
    "two_photon_mix": (("alpha", 1.0), ("c2", 1.0), {"R": 0.3, "phi": 1.2}),
    "cat_mix": (("alpha_sch", 0.4), ("alpha", 0.4), {}),
    "squeezed_mix": (("r", 0.05), ("alpha", 1.5), {}),
}


@st.composite
def axes_of(draw, name, top):
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, top / 2)))
    hi = lo + draw(st.floats(top / 100, top / 2))
    return Axis(name, lo, hi, draw(st.integers(1, 4)))


def _sweep_or_dark(spec):
    try:
        return sweep(spec)
    except VacuumOutputError:
        return None


class TestBroadcastSweep:
    @pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_cell_calls(self, name, data):
        (name_0, top_0), (name_1, top_1), fixed = BROADCAST_CASES[name]
        axes = (data.draw(axes_of(name_0, top_0)), data.draw(axes_of(name_1, top_1)))
        objective = getattr(figures, name)
        wide = _sweep_or_dark(SweepSpec(axes=axes, objective=objective, fixed=fixed))
        # The reference is one scalar call per cell; a scalar call raises
        # VacuumOutputError on a dark cell.
        values_0, values_1 = (ax.values() for ax in axes)
        loop = np.full((values_0.size, values_1.size, 2), np.nan)
        for i, v_0 in enumerate(values_0):
            for j, v_1 in enumerate(values_1):
                try:
                    loop[i, j] = objective(**{name_0: float(v_0), name_1: float(v_1)}, **fixed)
                except VacuumOutputError:
                    pass
        defined = np.isfinite(loop[..., 0])
        assert (wide is None) == (not defined.any())
        if wide is None:
            return
        np.testing.assert_allclose(wide.g2, loop[..., 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(wide.n_mean, loop[..., 1], rtol=1e-12, atol=0.0)
        assert np.array_equal(wide.defined, defined)
        masked = np.where(defined, loop[..., 0], np.inf)
        assert wide.argmin_indices() == np.unravel_index(np.argmin(masked), masked.shape)

    def test_scalar_call_keeps_float_contract(self):
        g2, n_mean = figures.cat_mix(alpha_sch=0.2, alpha=0.1)
        assert type(g2) is float and type(n_mean) is float
        with pytest.raises(VacuumOutputError):
            figures.cat_mix(alpha_sch=0.0, alpha=0.0)


class TestMapMeta:
    @pytest.mark.parametrize("build, kwargs", [
        (fig2, {"grid": 5}),
        (fig3a, {"grid": 5}),
        (fig5, {"sch_count": 5, "alpha_count": 4}),
        (fig6, {"r_count": 3, "alpha_count": 4}),
    ])
    def test_argmin_meta_names_the_best_row(self, build, kwargs):
        res = build(**kwargs)
        best = min((r for r in res.rows if r[4]), key=lambda r: r[2])
        assert res.meta["argmin"] == dict(zip(res.columns[:2], best[:2]))
        assert (res.meta["min_g2"], res.meta["n_at_min"]) == best[2:4]

    @pytest.mark.parametrize("collecting", [True, False])
    def test_rows_leave_the_collector_as_they_found_it(self, collecting):
        # A map pauses the garbage collector while it builds its rows.
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert len(fig2(grid=5).rows) == 25
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()


def per_value_curve(objective, scan_name, values, inner, fixed):
    """min_curve rows built one scan value at a time on a one-point axis."""
    rows = []
    for v in values:
        try:
            rows += min_curve(objective, Axis(scan_name, v, v, 1), inner, fixed=fixed)
        except VacuumOutputError:
            rows.append((v, np.nan, np.nan, (np.nan,) * len(inner)))
    return np.array([(s, g2, n, *x) for s, g2, n, x in rows])


class TestScanCurves:
    def test_fig3b_matches_per_value_scan(self):
        # alpha = 0 leaves both arms in the vacuum: an undefined first row
        res = fig3b(alpha_lo=0.0, alpha_hi=0.2, count=3, inner_grid=5)
        inner = (Axis("R", 0.01, 0.5, 5), Axis("phi", 0.0, 2.0, 5))
        want = per_value_curve("kerr_mix", "alpha", np.linspace(0.0, 0.2, 3), inner,
                               {"chi_t": 0.05, "dim": 16})
        got = np.array(res.rows)
        np.testing.assert_array_equal(got[:, :5], want)
        assert got[:, 5].tolist() == [0, 1, 1]

    def test_fig4_matches_per_value_scan(self):
        res = fig4(c2_lo=0.05, c2_hi=0.2, count=3, inner_count=8)
        want = per_value_curve("two_photon_mix", "c2", np.linspace(0.05, 0.2, 3),
                               (Axis("alpha", 0.02, 2.0, 8),),
                               {"R": 0.5, "phi": 0.5, "dim": 16})
        got = np.array(res.rows)
        np.testing.assert_array_equal(got[:, :4], want)
        np.testing.assert_array_equal(got[:, 4], 0.5 / want[:, 0] ** 2)
        assert got[:, 5].tolist() == [1, 1, 1]

    @pytest.mark.parametrize("build, objective, scan, inner, fixed", [
        (fig3b, "kerr_mix", Axis("alpha", 0.05, 0.5, 10),
         (Axis("R", 0.01, 0.5, 41), Axis("phi", 0.0, 2.0, 41)), {"chi_t": 0.05, "dim": 16}),
        (fig4, "two_photon_mix", Axis("c2", 0.01, 0.5, 50), (Axis("alpha", 0.02, 2.0, 80),),
         {"R": 0.5, "phi": 0.5, "dim": 16}),
    ], ids=["fig3b", "fig4"])
    def test_default_curve_matches_one_scalar_refinement_per_row(self, build, objective, scan,
                                                                inner, fixed):
        # min_curve refines every row in one batched simplex; here each row
        # is a 1-D refine_min on scalar calls, seeded from the same sweep.
        fn, names = getattr(figures, objective), [ax.name for ax in inner]
        coarse = sweep(SweepSpec(axes=(scan, *inner), objective=objective, fixed=fixed))
        want = []
        for s, cells in zip(scan.values(), np.where(coarse.defined, coarse.g2, np.inf)):
            idx = np.unravel_index(int(np.argmin(cells)), cells.shape)
            base = {scan.name: float(s), **fixed}
            x, g2 = refine_min(lambda x: fn(**dict(zip(names, map(float, x))), **base)[0],
                               [float(ax.values()[i]) for ax, i in zip(inner, idx)],
                               bounds=[(ax.lo, ax.hi) for ax in inner])
            want.append((float(s), g2, fn(**dict(zip(names, x)), **base)[1], *x))
        got = np.array(build().rows)[:, :3 + len(inner)]
        np.testing.assert_array_equal(got, np.array(want))

    def test_fig4_vacuum_input_g2_is_undefined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fig4(c2_lo=0.0, c2_hi=0.1, count=2, inner_count=5)
        c2, min_g2, _, _, input_g2, defined = res.rows[0]
        assert c2 == 0.0 and np.isnan(input_g2)
        # coherent light alone, up to its truncation at dim 16
        assert defined == 1 and min_g2 == pytest.approx(1.0, abs=1e-3)
        assert res.rows[1][4] == pytest.approx(50.0)

    def test_optimum_on_the_search_bound_is_flagged(self):
        # at c2 = 0 the alpha search runs to alpha_hi = 2.0, where the sub-1
        # g2 is dim-16 truncation; c2 = 0.1 has an interior optimum
        res = fig4(c2_lo=0.0, c2_hi=0.1, count=2, inner_count=5)
        assert res.rows[0][3] == pytest.approx(2.0, abs=1e-5)
        assert res.meta["on_bound"] == [0.0]
        # the undefined alpha = 0 row has no argmin to flag
        assert fig3b(alpha_lo=0.0, alpha_hi=0.2, count=3, inner_grid=5).meta["on_bound"] == []

    def test_reversed_scan_range_is_refused(self):
        with pytest.raises(ValueError, match="axis c2"):
            fig4(c2_lo=0.2, c2_hi=0.1, count=2)


class TestArmTables:
    def test_fig3b_builds_each_arm_once_per_alpha(self, monkeypatch):
        # (R, phi) move neither arm, so the coarse sweep and every simplex
        # evaluation of a row share one Kerr and one coherent table.
        built = {figures._kerr: [], figures._coherent: []}
        build = figures._build
        monkeypatch.setattr(figures, "_build",
                            lambda factory, cells: built[factory].extend(cells)
                            or build(factory, cells))
        figures._cached.cache.clear()
        res = fig3b(count=2, inner_grid=5)
        assert built[figures._kerr] == [(0.05, 0.05, 16), (0.5, 0.05, 16)]
        assert built[figures._coherent] == [(0.05, 16), (0.5, 16)]
        assert [row[0] for row in res.rows] == [0.05, 0.5]

    def test_cached_tables_are_read_only(self):
        table = figures._cached(figures._kerr, [(0.3, 0.05, 16)])[0]
        assert table.shape == (3, 3) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 1] = 0.0
        assert figures._cached(figures._kerr, [(0.3, 0.05, 16)])[0] is table


# Each array form of states the figures use, with a strategy for one cell of
# its arguments (truncation last) and the public factory of that cell.
_DIMS = st.sampled_from([3, 16, 24, 33])
BATCHED_ARMS = {
    "coherent": (figures._coherent, st.tuples(st.floats(0.0, 2.0), _DIMS), states.coherent),
    "phase_modified": (figures._phase_modified, st.tuples(st.floats(0.0, 2.0), _DIMS),
                       states.phase_modified_coherent),
    "kerr": (figures._kerr, st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0), _DIMS),
             lambda alpha, chi_t, dim: states.kerr_coherent(KerrParams(alpha, chi_t), dim)),
    "two_photon": (figures._two_photon, st.tuples(st.floats(0.0, 1.0), _DIMS),
                   states.vacuum_two_photon),
    "cat": (figures._cat, st.tuples(st.floats(1e-9, 1.5), st.sampled_from([1, -1]), _DIMS),
            lambda alpha_sch, parity, dim: states.cat_state(CatParams(alpha_sch, parity), dim)),
    # fock.truncated asks at most 76 levels of a cell with |alpha| <= 2 and |xi| <= 0.6
    "squeezed": (figures._squeezed, st.tuples(st.complex_numbers(max_magnitude=2.0),
                                              st.complex_numbers(max_magnitude=0.6),
                                              st.sampled_from([96, 112])),
                 states.squeezed_coherent),
}


class TestBatchedArms:
    @pytest.mark.parametrize("name", sorted(BATCHED_ARMS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_each_cell_matches_its_state_factory(self, name, data):
        form, cell, factory = BATCHED_ARMS[name]
        cells = data.draw(st.lists(cell, min_size=1, max_size=12))
        for table, args in zip(figures._build(form, cells), cells):
            np.testing.assert_allclose(table, _ladder_moments(factory(*args).amps),
                                       rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(BATCHED_ARMS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_cell_rounds_alike_alone_and_anywhere_in_a_batch(self, name, data):
        form, cell, _ = BATCHED_ARMS[name]
        size = data.draw(st.integers(1, 200))
        cells = data.draw(st.lists(cell, min_size=size, max_size=size, unique=True)
                          .flatmap(st.permutations))
        for table, args in zip(figures._build(form, cells), cells):
            assert np.array_equal(table, figures._build(form, [args])[0])

    @pytest.mark.parametrize("form, arrays, scalar", [
        (figures._two_photon, (np.array([0.3, 1.5]), 16), lambda: states.vacuum_two_photon(1.5, 16)),
        (figures._two_photon, (np.array([-0.1]), 16), lambda: states.vacuum_two_photon(-0.1, 16)),
        (figures._two_photon, (np.array([0.3]), 2), lambda: states.vacuum_two_photon(0.3, 2)),
        (figures._phase_modified, (np.array([0.3, 0.4]), 2),
         lambda: states.phase_modified_coherent(0.3, 2)),
        (figures._coherent, (np.array([0.3]), 1), lambda: states.coherent(0.3, 1)),
        (figures._kerr, (np.array([0.3]), 0.05, 1),
         lambda: states.kerr_coherent(KerrParams(0.3, 0.05), 1)),
        (figures._cat, (np.array([0.3]), 1, 1), lambda: states.cat_state(CatParams(0.3, 1), 1)),
        (figures._cat, (0.3, np.array([1, 2]), 16), lambda: states.cat_state(CatParams(0.3, 2), 16)),
        (figures._cat, (np.array([0.2, 0.0]), -1, 16),
         lambda: states.cat_state(CatParams(0.0, -1), 16)),
        (figures._squeezed, (0.0, np.array([0.1]), 1), lambda: states.squeezed_vacuum(0.1, 1)),
        (figures._squeezed, (0.0, np.array([0.1, 1.6]), 60),
         lambda: states.squeezed_vacuum(1.6, 60)),
        (figures._squeezed, (0.0, np.array([0.1, 0.5]), 24),
         lambda: states.squeezed_vacuum(0.5, 24)),
        (figures._squeezed, (np.array([0.5, 3.0]), 0.1, 24),
         lambda: states.squeezed_coherent(3.0, 0.1, 24)),
    ], ids=["c2-above-1", "c2-below-0", "two_photon-dim-2", "phase_modified-dim-2",
            "coherent-dim-1", "kerr-dim-1", "cat-dim-1", "parity-2", "odd-cat-at-0",
            "squeezed-dim-1", "squeeze-above-1.5", "squeezed-below-its-squeeze-tail",
            "squeezed-below-its-amplitude-tail"])
    def test_refusals_match_the_factory_and_cache_nothing(self, form, arrays, scalar):
        with pytest.raises(Exception) as refused:
            scalar()
        assert refused.type in (ValueError, InvalidDimensionError, TruncationError)
        figures._cached.cache.clear()
        with pytest.raises(refused.type) as batched:
            figures._tables(form, *arrays)
        assert batched.type is refused.type
        assert not figures._cached.cache


def _mp_moment_g2(ma, mb, R, phi):
    """The nine-term moment expansion of g2 evaluated by mpmath on the same tables."""
    import mpmath

    ma, mb = ([[mpmath.mpc(complex(x)) for x in row] for row in m] for m in (ma, mb))
    u = mpmath.sqrt(1 - mpmath.mpf(R))
    v = mpmath.sqrt(mpmath.mpf(R)) * mpmath.expjpi(mpmath.mpf(phi))
    n_mean = (u * u * ma[1][1] + abs(v) ** 2 * mb[1][1]
              + u * v * ma[1][0] * mb[0][1] + u * mpmath.conj(v) * ma[0][1] * mb[1][0]).real
    weights, deg_a, deg_b = (u * u, 2 * u * v, v * v), (2, 1, 0), (0, 1, 2)
    num = sum(mpmath.conj(weights[j]) * weights[k] * ma[deg_a[j]][deg_a[k]] * mb[deg_b[j]][deg_b[k]]
              for j in range(3) for k in range(3))
    return num.real / n_mean ** 2


class TestMomentG2Accuracy:
    # chi_t and alpha_hi of perfbench's interferometric_maps fig3b at seeds
    # 7 and 1902.  The optima there have g2 down to 5e-4, where the
    # numerator cancels: about ten digits survive in double arithmetic.
    @pytest.mark.parametrize("chi_t, alpha_hi", [(0.047107583928007096, 0.5182080137952835),
                                                 (0.05416843368635287, 0.5091397782503961)])
    def test_fig3b_optima_match_a_40_digit_evaluation(self, chi_t, alpha_hi):
        mpmath = pytest.importorskip("mpmath")
        for alpha, _, _, R, phi, _ in fig3b(chi_t=chi_t, alpha_hi=alpha_hi).rows:
            ma = figures._cached(figures._kerr, [(alpha, chi_t, 16)])[0]
            mb = figures._cached(figures._coherent, [(alpha, 16)])[0]
            g2 = float(figures._moment_g2(ma, mb, R, phi)[0])
            with mpmath.workdps(40):
                want = float(_mp_moment_g2(ma, mb, R, phi))
            assert g2 == pytest.approx(want, rel=2e-10, abs=0.0)

    def test_fig4_optima_match_a_40_digit_evaluation(self):
        # No deep cancellation on fig4's curve: g2 stays above 0.2.
        mpmath = pytest.importorskip("mpmath")
        for c2, min_g2, _, alpha, _, _ in fig4().rows:
            ma = figures._cached(figures._two_photon, [(c2, 16)])[0]
            mb = figures._cached(figures._coherent, [(alpha, 16)])[0]
            g2 = float(figures._moment_g2(ma, mb, 0.5, 0.5)[0])
            with mpmath.workdps(40):
                want = float(_mp_moment_g2(ma, mb, 0.5, 0.5))
            assert g2 == min_g2
            assert g2 == pytest.approx(want, rel=1e-14, abs=0.0)


# Per objective: two swept axes of three values and the fixed parameters.
# Each first cell has both arms in the vacuum, so it is dark.
EXACT_CASES = {
    "phase_modified_mix": (("alpha", (0.0, 0.17, 0.3)), ("R", (0.0, 0.3873, 0.9)), {"phi": 0.7}),
    "kerr_mix": (("alpha", (0.0, 0.2, 0.45)), ("phi", (0.0, 0.911, 1.7)),
                 {"R": 0.3906, "chi_t": 0.05}),
    "two_photon_mix": (("c2", (0.0, 0.1, 0.45)), ("alpha", (0.0, 0.3, 1.1)),
                       {"R": 0.3, "phi": 1.2}),
    "cat_mix": (("alpha_sch", (0.0, 0.1, 0.25)), ("alpha", (0.0, 0.05, 0.3)),
                {"R": 0.37, "phi": 0.8}),
    "squeezed_mix": (("r", (0.0, 0.006, 0.018)), ("alpha", (0.0, 0.5, 3.0)),
                     {"R": 0.15, "phi": 0.7, "omega": 0.4}),
}


class TestScalarCallEqualsMapCell:
    # The moment kernel runs one body of real arithmetic on arrays and on
    # Python floats, so a scalar call is the same cell of a map, bit for bit.
    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_every_cell_bit_for_bit(self, name):
        (name_0, values_0), (name_1, values_1), fixed = EXACT_CASES[name]
        objective = getattr(figures, name)
        g2_map, n_map = objective(**dict(zip((name_0, name_1), np.ix_(values_0, values_1))),
                                  **fixed)
        assert np.isnan(g2_map[0, 0]) and np.isnan(n_map[0, 0])
        assert np.isfinite(g2_map[1:, 1:]).all()
        for (i, v_0), (j, v_1) in itertools.product(enumerate(values_0), enumerate(values_1)):
            cell = {name_0: v_0, name_1: v_1, **fixed}
            if np.isnan(g2_map[i, j]):
                assert np.isnan(n_map[i, j])
                with pytest.raises(VacuumOutputError):
                    objective(**cell)
            else:
                assert objective(**cell) == (g2_map[i, j], n_map[i, j])


class TestPhaseModifiedMap:
    def test_small_grid(self):
        res = fig2(grid=11)
        assert res.columns == ("R", "phi", "g2", "n_mean", "defined")
        assert len(res.rows) == 121
        assert res.meta["figure"] == "fig2"
        assert set(res.meta) >= {"parameters", "version", "walltime_s", "argmin", "min_g2"}
        assert res.meta["min_g2"] < 1.0  # the rotated two-photon arm antibunches


class TestAmplitudeScan:
    def test_reference_row(self):
        res = fig3b()
        assert res.columns == ("alpha", "min_g2", "n_mean", "R_opt", "phi_opt", "defined")
        rows = {round(r[0], 3): r for r in res.rows}
        alpha, min_g2, n_mean, r_opt, phi_opt, defined = rows[0.2]
        assert defined == 1
        assert min_g2 == pytest.approx(0.00822449, rel=1e-4)
        assert n_mean == pytest.approx(0.00245154, rel=1e-4)
        assert r_opt == pytest.approx(0.3906, abs=2e-3)
        assert phi_opt == pytest.approx(0.9110, abs=2e-3)
        # deeper antibunching costs less light at smaller drive
        mins = [r[1] for r in res.rows]
        assert all(a < b for a, b in zip(mins, mins[1:]))


class TestTwoPhotonCurve:
    def test_single_weight(self):
        res = fig4(c2_lo=0.1, c2_hi=0.1, count=1)
        assert res.columns == ("c2", "min_g2", "n_mean", "alpha_opt", "input_g2", "defined")
        c2, min_g2, n_mean, alpha_opt, input_g2, defined = res.rows[0]
        assert defined == 1
        assert input_g2 == pytest.approx(50.0)
        assert min_g2 == pytest.approx(0.40350403, rel=1e-4)
        assert alpha_opt == pytest.approx(0.42705, abs=2e-3)


class TestCatMap:
    def test_small_grid(self):
        res = fig5(sch_count=9, alpha_count=9)
        assert res.columns == ("alpha_sch", "alpha", "g2", "n_mean", "defined")
        assert len(res.rows) == 81
        assert "argmin" in res.meta


class TestSqueezedMap:
    def test_reference_extrema(self):
        res = fig6()
        data = np.array([r[:4] for r in res.rows])
        r_vals, alphas, g2, n_mean = data.T
        # the deepest dip sits at the weakest squeezing of the scanned range
        assert res.meta["argmin"]["r"] == pytest.approx(0.002)
        assert res.meta["min_g2"] == pytest.approx(0.0094788, rel=1e-4)
        # strong coherent drive swamps the squeezing: g2 -> 1
        strip = g2[alphas >= 2.0]
        assert np.max(np.abs(strip - 1.0)) == pytest.approx(0.07088, abs=2e-4)

    def test_non_positive_geometric_bound_is_refused(self):
        with pytest.raises(ValueError, match="axis r"):
            fig6(r_lo=-0.002, r_count=3, alpha_count=3)


class TestDelayedCorrelations:
    def test_structure_and_meta(self):
        res = fig7(
            tau_max=2.0,
            n_tau=21,
            dim_single=8,
            dims_coupled=(8, 8),
        )
        assert res.columns == ("tau", "g2_single", "g2_coupled")
        assert res.meta["parameters"] == {"tau_max": 2.0, "n_tau": 21, "U": 0.01, "J": 6.2,
                                          "dim_single": 8, "dims_coupled": (8, 8)}
        assert len(res.rows) == 21
        assert res.rows[0][0] == 0.0
        assert res.meta["single"]["g2_0"] < 1.0
        assert res.meta["coupled"]["g2_0"] < 1.0
        for family in ("single", "coupled"):
            assert set(res.meta[family]["on_bound"]) <= {"F", "Delta", "beta"}
        assert "coupled_oscillation_frequency" in res.meta


class TestCsvPlumbing:
    def test_format_cell(self):
        assert format_cell(3) == "3"
        assert float(format_cell(0.1 + 0.2)) == 0.1 + 0.2

    def test_round_trip_is_exact(self, tmp_path):
        res = fig2(grid=7)
        path = tmp_path / "fig2.csv"
        write_csv(path, res.columns, res.rows)
        with open(path, newline="") as fh:
            columns, *rows = csv.reader(fh)
        assert tuple(columns) == res.columns
        assert len(rows) == len(res.rows)
        for got, want in zip(rows, res.rows):
            for g, w in zip(got, want):
                assert float(g) == float(w)  # bit-exact float round trip
