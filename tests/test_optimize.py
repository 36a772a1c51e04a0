"""Sweep/refinement machinery plus sensitivity-trend properties."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import antibunch
from antibunch import optimize
from antibunch.errors import VacuumOutputError
from antibunch.optimize import (
    XATOL,
    Axis,
    SweepSpec,
    min_curve,
    on_bound,
    refine_min,
    resolve_objective,
    sweep,
)

# simple analytic objective with minimum at (0.3, 0.7)
def bowl(x=0.0, y=0.0, offset=0.0):
    g2 = (x - 0.3) ** 2 + (y - 0.7) ** 2 + offset
    return g2, x + y


def sensitivity(objective, point, step=1e-4) -> float:
    """L2 norm of the central-difference gradient at a point."""
    x = np.asarray(point, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (objective(up) - objective(dn)) / (2.0 * step)
    return float(np.linalg.norm(grad))


class TestAxis:
    def test_linear_values(self):
        ax = Axis("x", 0.0, 1.0, 5)
        assert np.allclose(ax.values(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point_axis(self):
        assert Axis("x", 0.4, 0.4, 1).values().tolist() == [0.4]

    def test_geometric_spacing(self):
        vals = Axis("x", 0.01, 1.0, 3, spacing="geom").values()
        assert vals[1] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Axis("x", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Axis("x", 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            Axis("x", 0.0, 1.0, 5, spacing="log")

    @pytest.mark.parametrize("lo, hi, count", [(-0.002, 0.018, 3), (0.0, 1.0, 3), (0.0, 0.0, 1)])
    def test_geometric_bounds_must_be_positive(self, lo, hi, count):
        with pytest.raises(ValueError, match="axis r"):
            Axis("r", lo, hi, count, spacing="geom")


class TestSweep:
    def test_finds_grid_minimum(self):
        spec = SweepSpec(
            axes=(Axis("x", 0.0, 1.0, 11), Axis("y", 0.0, 1.0, 11)),
            objective=bowl,
        )
        res = sweep(spec)
        assert res.argmin == pytest.approx((0.3, 0.7))
        assert res.min_g2 == pytest.approx(0.0, abs=1e-15)
        assert res.n_at_min == pytest.approx(1.0)
        assert res.g2.shape == (11, 11)
        assert res.argmin_indices() == (3, 7)

    def test_deterministic(self):
        spec = SweepSpec(axes=(Axis("x", 0.0, 1.0, 7),), objective=bowl)
        a, b = sweep(spec), sweep(spec)
        assert np.array_equal(a.g2, b.g2)
        assert a.argmin == b.argmin

    def test_fixed_parameters(self):
        spec = SweepSpec(
            axes=(Axis("x", 0.0, 1.0, 5),), objective=bowl, fixed={"offset": 2.0}
        )
        assert sweep(spec).min_g2 >= 2.0

    def test_undefined_cells_are_masked(self):
        # an objective marks a dark cell NaN, as the figure objectives do
        # below the intensity floor; sweep masks its n_mean too
        def partial(x=0.0):
            return np.where(x < 0.5, np.nan, x), x

        res = sweep(SweepSpec(axes=(Axis("x", 0.0, 1.0, 5),), objective=partial))
        assert not res.defined[:2].any()
        assert np.isnan(res.g2[0]) and np.isnan(res.n_mean[0])
        assert res.argmin == (0.5,)

    def test_non_finite_cells_are_undefined(self):
        def holes(x=0.0):
            g2 = np.where(x < 0.3, np.nan, np.where(x > 0.8, np.inf, x))
            return g2, x

        res = sweep(SweepSpec(axes=(Axis("x", 0.0, 1.0, 5),), objective=holes))
        assert res.defined.tolist() == [False, False, True, True, False]
        assert np.isnan(res.g2[4]) and np.isnan(res.n_mean[0])
        assert res.argmin == (0.5,)

    def test_broadcasting_objective_is_called_once_on_the_open_grid(self):
        shapes = []

        def wide(x=0.0, y=0.0, offset=0.0):
            shapes.append((np.shape(x), np.shape(y)))
            return bowl(x, y, offset)

        axes = (Axis("x", 0.0, 1.0, 11), Axis("y", 0.0, 1.0, 7))
        res = sweep(SweepSpec(axes=axes, objective=wide, fixed={"offset": 0.5}))
        assert shapes == [((11, 1), (1, 7))]
        xs, ys = (ax.values() for ax in axes)
        loop = np.array([[bowl(float(x), float(y), 0.5) for y in ys] for x in xs])
        assert np.array_equal(res.g2, loop[..., 0])
        assert np.array_equal(res.n_mean, loop[..., 1])
        assert res.argmin_indices() == np.unravel_index(np.argmin(loop[..., 0]), (11, 7))

    def test_all_undefined_raises(self):
        def dark(x=0.0):
            raise VacuumOutputError("dark")

        with pytest.raises(VacuumOutputError):
            sweep(SweepSpec(axes=(Axis("x", 0.0, 1.0, 3),), objective=dark))

    def test_result_arrays_are_readonly(self):
        res = sweep(SweepSpec(axes=(Axis("x", 0.0, 1.0, 3),), objective=bowl))
        with pytest.raises(ValueError):
            res.g2[0] = 5.0


class TestRegistryAndSerialization:
    def test_unknown_objective(self):
        with pytest.raises(KeyError):
            resolve_objective("no_such_objective")

    def test_callable_passthrough(self):
        assert resolve_objective(bowl) is bowl


class TestRefineMin:
    def test_quadratic(self):
        x, fun = refine_min(lambda v: (v[0] - 0.3) ** 2, [0.25])
        assert x[0] == pytest.approx(0.3, abs=1e-4)
        assert fun < 1e-8

    def test_respects_bounds(self):
        x, _ = refine_min(lambda v: (v[0] - 2.0) ** 2, [0.5], bounds=[(0.0, 1.0)])
        assert x[0] <= 1.0 + 1e-12

    def test_never_worse_than_start(self):
        # pathological objective that punishes every move away from start
        def spiky(v):
            return 0.0 if abs(v[0] - 1.0) < 1e-12 else 10.0

        x, fun = refine_min(spiky, [1.0])
        assert x == (1.0,)
        assert fun == 0.0

    def test_undefined_treated_as_inf(self):
        def partial(v):
            if v[0] < 0.0:
                raise VacuumOutputError("dark")
            return (v[0] - 0.2) ** 2

        x, fun = refine_min(partial, [0.1])
        assert x[0] == pytest.approx(0.2, abs=1e-4)

    def test_budget_exhaustion_warns(self):
        with pytest.warns(UserWarning, match="refine_min stopped early"):
            refine_min(lambda v: (v[0] - 7.0) ** 2, [0.0], maxfev=3)


def scipy_refine_min(objective, start, bounds=None, *, fatol=1e-10, maxfev=8000):
    """refine_min as it was written on scipy.optimize.minimize: the oracle."""
    def guarded(x):
        try:
            return float(objective(x))
        except VacuumOutputError:
            return np.inf

    x0 = np.asarray(start, dtype=float)
    f0 = guarded(x0)
    res = minimize(guarded, x0, method="Nelder-Mead", bounds=bounds,
                   options={"xatol": XATOL, "fatol": fatol, "maxiter": 4000, "maxfev": maxfev})
    if not res.success:
        warnings.warn(f"refine_min stopped early: {res.message}; returning best found")
    if res.fun <= f0:
        return tuple(float(v) for v in res.x), float(res.fun)
    return tuple(float(v) for v in x0), f0


def run_recorded(refine, objective, *args, **kwargs):
    """(x, f, every point evaluated, warnings), floats as exact hex strings.

    A warning is its text and whether it is a UserWarning: scipy's
    out-of-bounds warning is an OptimizeWarning, a UserWarning subclass.
    RuntimeWarnings are left out: scipy's stopping test warns on inf - inf
    between undefined vertices, and refine_min does not.
    """
    points = []

    def recorded(x):
        points.append(tuple(map(float.hex, x)))
        return objective(x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, f = refine(recorded, *args, **kwargs)
    warned = [(issubclass(w.category, UserWarning), str(w.message)) for w in caught
              if not issubclass(w.category, RuntimeWarning)]
    return tuple(map(float.hex, x)), float.hex(f), points, warned


def landscape(centers, weights, step, dark, nan_above):
    """A bowl with a ripple; optionally terraced (ties), dark (inf) or NaN in places."""
    def fn(x):
        if x[0] < dark:
            raise VacuumOutputError("dark")
        if x[-1] > nan_above:
            return np.nan
        q = float(np.dot(weights, (x - centers) ** 2)) + 0.1 * float(np.prod(np.sin(3 * x)))
        return q if step == 0 else step * round(q / step)

    return fn


@st.composite
def refine_case(draw):
    n = draw(st.integers(1, 4))
    bounded = draw(st.booleans())
    bounds, start = [], []
    for _ in range(n):
        if not bounded:
            start.append(draw(st.sampled_from([0.0, 0.3, -1.7]) | st.floats(-3, 3)))
            continue
        lo = draw(st.floats(-3, 0))
        hi = lo + draw(st.sampled_from([0.0, 1e-4]) | st.floats(0.5, 4))
        # 0, on a bound, outside, just under the upper bound (whose default
        # simplex vertex lands above it and is reflected), or inside.
        start.append(draw(st.sampled_from([0.0, lo, hi, lo - 0.5, hi + 0.5, hi - 1e-3 * abs(hi)])
                          | st.floats(lo, hi)))
        bounds.append(draw(st.sampled_from([(lo, hi), (None, hi), (lo, None)])))
    objective = landscape(
        centers=np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))),
        weights=np.array(draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))),
        step=draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5])),
        dark=draw(st.sampled_from([-np.inf, -np.inf, 0.0, -1.0])),
        nan_above=draw(st.sampled_from([np.inf, np.inf, 1.0])),
    )
    kwargs = {"fatol": draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-4])),
              "maxfev": draw(st.integers(0, n) | st.integers(0, 300) | st.just(8000))}
    return objective, start, bounds if bounded else None, kwargs


class TestRefineMinTakesScipysSteps:
    """refine_min's in-house Nelder–Mead against scipy's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=refine_case())
    def test_same_points_result_and_warnings(self, case):
        objective, start, bounds, kwargs = case
        got = run_recorded(refine_min, objective, start, bounds, **kwargs)
        assert got == run_recorded(scipy_refine_min, objective, start, bounds, **kwargs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_budget_spent_inside_a_shrink(self, n):
        # Only the start scores 0, so the search keeps shrinking towards it;
        # for every n, these budgets include one that runs out inside a
        # shrink just before each of its n evaluations, which leaves a moved
        # vertex with the value of where it was.
        start = np.linspace(0.2, 0.8, n)

        def spiky(x):
            return 0.0 if np.array_equal(x, start) else 1.0 + float(np.sum(np.abs(x)))

        for maxfev in range(3 * (n + 3)):
            got = run_recorded(refine_min, spiky, start, [(0.0, 1.0)] * n, maxfev=maxfev)
            assert got == run_recorded(scipy_refine_min, spiky, start, [(0.0, 1.0)] * n,
                                       maxfev=maxfev)

    def test_iteration_limit(self):
        # NaN everywhere: every iteration is a contraction and a shrink, the
        # stopping test never passes, and 4,000 iterations come before the budget.
        got = run_recorded(refine_min, lambda v: np.nan, [0.5], maxfev=20000)
        assert got == run_recorded(scipy_refine_min, lambda v: np.nan, [0.5], maxfev=20000)
        assert got[3] == [(True, "refine_min stopped early: Maximum number of iterations "
                                 "has been exceeded.; returning best found")]

    @pytest.mark.parametrize("bounds", [[(1.0, 0.0)], [(0.0, 1.0), (0.0, 1.0)]],
                             ids=["lower-above-upper", "more-bounds-than-coordinates"])
    def test_bad_bounds_are_refused(self, bounds):
        for refine in (refine_min, scipy_refine_min):
            with pytest.raises(ValueError):
                refine(lambda v: v[0] ** 2, [0.5], bounds=bounds)

    def test_one_bound_pair_serves_every_coordinate(self):
        got = run_recorded(refine_min, lambda v: float(np.sum((v - 0.3) ** 2)), [0.9, 0.1],
                           [(0.0, 1.0)])
        assert got == run_recorded(scipy_refine_min, lambda v: float(np.sum((v - 0.3) ** 2)),
                                   [0.9, 0.1], [(0.0, 1.0)])


def run_rows(objectives, starts, bounds=None, **kwargs):
    """Each row as refine_min's 2-D form and as a 1-D refine_min run on it alone.

    objectives[i] is row i's scalar objective, which raises VacuumOutputError
    where it is undefined; the batched objective gives NaN there instead.
    Returns (batched, alone): per row (x, f, points), floats as exact hex
    strings, and the UserWarning texts, the 1-D runs' in row order with
    every out-of-bounds warning before every early stop, as the batch emits
    them.  numpy's RuntimeWarnings (inf - inf in the stopping test) are left
    out: an array operation over many rows warns once.
    """
    def dark_as_nan(fn, x):
        try:
            return fn(x)
        except VacuumOutputError:
            return np.nan

    def as_raise(fn):
        def strict(x):
            v = fn(x)
            if np.isnan(v):
                raise VacuumOutputError("dark")
            return v
        return strict

    points = [[] for _ in objectives]

    def batched(xs, rows):
        assert xs.shape == (len(rows), len(starts[0]))
        for x, row in zip(xs, rows):
            points[row].append(tuple(map(float.hex, x)))
        return np.array([dark_as_nan(objectives[row], x) for x, row in zip(xs, rows)])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, f = refine_min(batched, np.array(starts, dtype=float), bounds, **kwargs)
    assert x.shape == (len(starts), len(starts[0])) and f.shape == (len(starts),)
    got = [(tuple(map(float.hex, x[i])), float.hex(f[i]), points[i]) for i in range(len(starts))]
    want, warned = [], []
    for fn, start in zip(objectives, starts):
        xi, fi, pts, w = run_recorded(refine_min, as_raise(fn), start, bounds, **kwargs)
        want.append((xi, fi, pts))
        warned += [text for user, text in w if user]
    warned.sort(key=lambda text: "stopped early" in text)
    batch_warned = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    return (got, batch_warned), (want, warned)


@st.composite
def batch_case(draw):
    objective, start, bounds, kwargs = draw(refine_case())
    n = len(start)
    # A row undefined everywhere spends all of its budget: keep budgets small.
    kwargs["maxfev"] = min(kwargs["maxfev"], 1000)
    rows = draw(st.integers(1, 12))
    starts, objectives = [start], [objective]
    for _ in range(rows - 1):
        if bounds is None:
            starts.append([draw(st.sampled_from([0.0, 0.3, -1.7]) | st.floats(-3, 3))
                           for _ in range(n)])
        else:
            row = []
            for b in bounds:
                lo = -3.0 if b[0] is None else b[0]
                hi = 3.0 if b[1] is None else b[1]
                row.append(draw(st.sampled_from([lo, hi, hi - 1e-3 * abs(hi), lo - 0.5])
                                | st.floats(lo, hi)))
            starts.append(row)
        # dark=inf: a row undefined everywhere; nan_above: NaN in part
        objectives.append(landscape(
            centers=np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))),
            weights=np.array(draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))),
            step=draw(st.sampled_from([0.0, 1e-3, 0.5])),
            dark=draw(st.sampled_from([-np.inf, -np.inf, 0.0, np.inf])),
            nan_above=draw(st.sampled_from([np.inf, 1.0, 0.0])),
        ))
    return objectives, starts, bounds, kwargs


class TestBatchedRefineTakesEachRowsSteps:
    """refine_min's 2-D form against a 1-D refine_min per row, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(case=batch_case())
    def test_same_points_result_and_warnings(self, case):
        objectives, starts, bounds, kwargs = case
        batched, alone = run_rows(objectives, starts, bounds, **kwargs)
        assert batched == alone

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_budgets_spent_inside_shrinks(self, n):
        # As TestRefineMinTakesScipysSteps's shrink test, with rows whose
        # shrinks begin at different evaluation counts under one budget.
        starts = [np.linspace(0.2, 0.8, n) * (1 + 0.1 * k) for k in range(5)]

        def spiky(start):
            return lambda x: 0.0 if np.array_equal(x, start) else 1.0 + float(np.sum(np.abs(x)))

        objectives = [spiky(s) for s in starts]
        for maxfev in range(3 * (n + 3)):
            batched, alone = run_rows(objectives, starts, [(0.0, 1.0)] * n, maxfev=maxfev)
            assert batched == alone

    def test_iteration_limit(self):
        batched, alone = run_rows([lambda v: np.nan, lambda v: (v[0] - 0.3) ** 2],
                                  [[0.5], [0.5]], maxfev=20000)
        assert batched == alone
        assert batched[1] == ["refine_min stopped early: Maximum number of iterations "
                              "has been exceeded.; returning best found"]

    def test_finished_rows_leave_the_batch(self):
        sizes = []

        def fn(xs, rows):
            sizes.append(len(rows))
            return np.sum((xs - np.array([0.3, 0.7])) ** 2, axis=1) * (1 + rows)

        refine_min(fn, [[0.5, 0.5], [0.31, 0.69], [0.0, 1.0]], maxfev=400)
        assert sizes[:2] == [3, 3 * 3]  # the starts, then every first simplex
        assert sizes[-1] < 3

    def test_bad_bounds_are_refused(self):
        with pytest.raises(ValueError):
            refine_min(lambda xs, rows: xs[:, 0], [[0.5]], bounds=[(1.0, 0.0)])


@pytest.mark.parametrize("dark_above", [-np.inf, 0.4], ids=["everywhere", "in-part"])
def test_undefined_objective_raises_no_runtime_warning(dark_above):
    # Two undefined vertices are inf - inf in the stopping test; that must
    # not warn, from a 1-D start or from the rows of a 2-D one.
    def scalar(v):
        if v[0] > dark_above:
            raise VacuumOutputError("dark")
        return (v[0] - 0.3) ** 2

    def batched(xs, rows):
        return np.where(xs[:, 0] > dark_above, np.nan, (xs[:, 0] - 0.3) ** 2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # early stops of the dark searches
        warnings.simplefilter("error", RuntimeWarning)
        x, f = refine_min(scalar, [0.5], bounds=[(0.0, 1.0)], maxfev=300)
        xs, fs = refine_min(batched, [[0.5], [0.6], [0.2]], bounds=[(0.0, 1.0)], maxfev=300)
    # A search that starts in the dark keeps its start; one that starts in
    # the light finds the minimum.
    assert (x, f) == ((0.5,), np.inf) and fs[:2].tolist() == [np.inf] * 2
    if dark_above > 0:
        assert xs[2, 0] == pytest.approx(0.3, abs=1e-4)


def test_scipy_optimize_is_never_imported():
    # A fresh interpreter: importing the CLI, a refined figure and a
    # refinement load everything they need, and scipy.optimize is not part of it.
    script = (
        "import sys, antibunch.cli\n"
        "from antibunch import figures, optimize\n"
        "figures.fig4(count=2, inner_count=5)\n"
        "optimize.refine_min(lambda v: (v[0] - 0.3) ** 2, [0.25], bounds=[(0.0, 1.0)])\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(Path(antibunch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestOnBound:
    BOUNDS = [(-1.0, 2.0)]

    @pytest.mark.parametrize("v", [-1.0, 2.0, -1.0 + XATOL / 2, 2.0 - XATOL / 2],
                             ids=["on-lo", "on-hi", "within-xatol-lo", "within-xatol-hi"])
    def test_within_xatol_counts(self, v):
        assert on_bound(["x"], [v], self.BOUNDS) == ["x"]

    @pytest.mark.parametrize("v", [-1.0 + 2 * XATOL, 2.0 - 2 * XATOL, 0.5, np.nan],
                             ids=["2xatol-inside-lo", "2xatol-inside-hi", "interior", "nan"])
    def test_farther_inside_or_nan_does_not(self, v):
        assert on_bound(["x"], [v], self.BOUNDS) == []

    def test_names_each_parameter_once_in_order(self):
        bounds = [(0.0, 1.0), (-3.0, 3.0), (-3.0, 3.0), (0.0, 1.0)]
        x = (0.5, 3.0, -3.0, 1.0)
        assert on_bound(("F", "beta", "beta", "G"), x, bounds) == ["beta", "G"]

    def test_bounded_refinement_at_the_bound_is_flagged(self):
        # a minimum 2 xatol outside the bound: the bounded simplex ends on it
        x, _ = refine_min(lambda v: (v[0] - 1.0 - 2 * XATOL) ** 2, [0.5], bounds=[(0.0, 1.0)])
        assert on_bound(["x"], x, [(0.0, 1.0)]) == ["x"]


class TestMinCurve:
    def test_tracks_parametrized_minimum(self):
        def fn(s=0.0, x=0.0):
            return (x - s) ** 2 + 0.1 * s, s + x

        rows = min_curve(fn, Axis("s", 0.0, 1.0, 3), [Axis("x", 0.0, 1.0, 11)])
        assert len(rows) == 3
        for s, g2, n_at, argmin in rows:
            assert g2 == pytest.approx(0.1 * s, abs=1e-8)
            assert argmin[0] == pytest.approx(s, abs=1e-4)
            assert n_at == pytest.approx(s + argmin[0], rel=1e-9)

    def test_refine_never_hurts(self):
        def fn(s=0.0, x=0.0):
            return (x - 0.37) ** 2, x

        axes = (Axis("s", 0.0, 0.0, 1), Axis("x", 0.0, 1.0, 5))
        coarse = sweep(SweepSpec(axes=axes, objective=fn))
        fine = min_curve(fn, axes[0], axes[1:])
        assert fine[0][1] <= coarse.min_g2
        assert fine[0][3][0] == pytest.approx(0.37, abs=1e-4)

    def test_dark_scan_value_gives_undefined_row(self):
        def fn(s=0.0, x=0.0, y=0.0):
            return np.where(s == 0.0, np.nan, (x - s) ** 2 + y), s

        inner = [Axis("x", 0.0, 1.0, 5), Axis("y", 0.0, 1.0, 3)]
        rows = min_curve(fn, Axis("s", 0.0, 1.0, 3), inner)
        s, g2, n_at, argmin = rows[0]
        assert s == 0.0 and np.isnan(g2) and np.isnan(n_at)
        assert len(argmin) == 2 and np.isnan(argmin).all()
        for s, g2, n_at, argmin in rows[1:]:
            assert g2 == pytest.approx(0.0, abs=1e-8)
            assert n_at == s
            assert argmin == pytest.approx((s, 0.0), abs=1e-4)

    def test_one_coarse_sweep_per_curve(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return sweep(spec)

        monkeypatch.setattr(optimize, "sweep", counted)
        scan, inner = Axis("s", 0.0, 1.0, 3), [Axis("x", 0.0, 1.0, 5), Axis("y", 0.0, 1.0, 3)]
        rows = min_curve(lambda s, x, y: ((x - s) ** 2 + y, s), scan, inner)
        assert len(rows) == 3
        assert [c.axes for c in calls] == [(scan, *inner)]


class TestSensitivity:
    def test_gradient_norm_of_quadratic(self):
        fn = lambda v: v[0] ** 2 + v[1] ** 2
        assert sensitivity(fn, [1.0, 2.0]) == pytest.approx(np.sqrt(20.0), rel=1e-6)

    def test_zero_at_stationary_point(self):
        fn = lambda v: (v[0] - 0.5) ** 2
        assert sensitivity(fn, [0.5]) < 1e-10


class TestSharpeningOptimaTrends:
    """Deeper antibunching dips come with steeper parameter sensitivity.

    The probe sits a fixed 0.005 off the refined optimum: right at the
    optimum the central difference only measures refinement noise, while the
    displaced probe measures the curvature scale that actually governs
    experimental tolerance.
    """

    def test_cat_interference_family(self):
        from antibunch.figures import cat_mix

        mins, grads = [], []
        for alpha in (0.2, 0.1, 0.05, 0.02):
            fn = lambda x: cat_mix(
                alpha_sch=float(x[0]), alpha=alpha, parity=1, R=0.5, phi=0.5, dim=16
            )[0]
            grid = np.linspace(0.005, 0.5, 100)
            seed = grid[int(np.argmin([fn([s]) for s in grid]))]
            (x_star,), g2 = refine_min(fn, [seed], fatol=1e-14)
            mins.append(g2)
            grads.append(sensitivity(fn, [x_star + 0.005]))
        assert all(a > b for a, b in zip(mins, mins[1:]))
        assert all(a < b for a, b in zip(grads, grads[1:]))

    def test_squeezed_vacuum_family(self):
        from antibunch.figures import squeezed_mix

        omega = np.arccos(np.sqrt(0.9))
        mins, grads = [], []
        for r in (0.018, 0.012, 0.008, 0.005, 0.002):
            fn = lambda x: squeezed_mix(
                r=r, phi=float(x[0]), alpha=float(x[1]), R=0.1, omega=omega
            )[0]
            spec = SweepSpec(
                axes=(Axis("phi", 0.9, 1.1, 41), Axis("alpha", 0.05, 1.5, 41)),
                objective=lambda phi, alpha: squeezed_mix(
                    r=r, phi=phi, alpha=alpha, R=0.1, omega=omega
                ),
            )
            coarse = sweep(spec)
            x_star, g2 = refine_min(fn, coarse.argmin, fatol=1e-14)
            mins.append(g2)
            grads.append(sensitivity(fn, [x_star[0] + 0.005, x_star[1] + 0.005]))
        assert all(a > b for a, b in zip(mins, mins[1:]))
        assert all(a < b for a, b in zip(grads, grads[1:]))
