"""Sweep/refinement machinery plus sensitivity-trend properties."""

import numpy as np
import pytest

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
