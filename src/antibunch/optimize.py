"""Grid sweeps and derivative-free refinement of correlation objectives.

An objective is a pure function taking named parameters and returning
(g2, n_mean).  It accepts its swept parameters as open-grid arrays
(``np.ix_`` shapes) and returns the whole grid from one call; min_curve's
refinement passes it equal-shape 1-D arrays, one entry per point, and
called with scalars it returns floats.  A cell whose
g2 is undefined is one the objective returns as NaN or inf (a dark output);
such cells are stored as explicit markers, never fabricated numbers, and
are excluded from argmin.  Identical specs produce bit-identical results.
refine_min runs one Nelder–Mead core, _simplex, for one start and for every
row of a curve alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import VacuumOutputError

Objective = Callable[..., tuple[float, float]]

# Figure pipelines register their objectives here so that a SweepSpec can
# name its objective.
OBJECTIVE_REGISTRY: dict[str, Objective] = {}

# refine_min's simplex tolerance on the parameters: the resolution of every
# refined optimum, and so the distance within which one counts as on a bound.
XATOL = 1e-5


def resolve_objective(objective) -> Objective:
    if callable(objective):
        return objective
    try:
        return OBJECTIVE_REGISTRY[objective]
    except KeyError:
        raise KeyError(f"unknown objective {objective!r}; registered: {sorted(OBJECTIVE_REGISTRY)}")


@dataclass(frozen=True)
class Axis:
    """One sweep axis: name, inclusive range, point count, linear or geometric."""

    name: str
    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1")
        if self.count > 1 and not self.lo < self.hi:
            raise ValueError(f"axis {self.name}: need lo < hi, got [{self.lo}, {self.hi}]")
        if self.spacing not in ("linear", "geom"):
            raise ValueError(f"axis {self.name}: spacing must be 'linear' or 'geom'")
        if self.spacing == "geom" and not (self.lo > 0 and self.hi > 0):
            raise ValueError(
                f"axis {self.name}: geometric spacing needs lo, hi > 0, got [{self.lo}, {self.hi}]"
            )

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo], dtype=float)
        if self.spacing == "geom":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[Axis, ...]
    objective: str | Objective
    fixed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    axis_values: tuple[np.ndarray, ...]
    g2: np.ndarray          # nan where undefined
    n_mean: np.ndarray      # nan where undefined
    defined: np.ndarray     # bool mask

    def argmin_indices(self) -> tuple[int, ...]:
        """Grid indices of the least g2 among the defined cells."""
        masked = np.where(self.defined, self.g2, np.inf)
        return np.unravel_index(int(np.argmin(masked)), self.g2.shape)

    @property
    def argmin(self) -> tuple[float, ...]:
        return tuple(float(v[i]) for v, i in zip(self.axis_values, self.argmin_indices()))

    @property
    def min_g2(self) -> float:
        return float(self.g2[self.argmin_indices()])

    @property
    def n_at_min(self) -> float:
        return float(self.n_mean[self.argmin_indices()])


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the objective on the full Cartesian grid in one call."""
    fn = resolve_objective(spec.objective)
    values = tuple(ax.values() for ax in spec.axes)
    shape = tuple(v.size for v in values)
    grid = dict(zip((ax.name for ax in spec.axes), np.ix_(*values)))
    g2, n_mean = (np.broadcast_to(out, shape).astype(float) for out in fn(**grid, **spec.fixed))
    defined = np.isfinite(g2)
    g2[~defined] = np.nan
    n_mean[~defined] = np.nan
    if not defined.any():
        raise VacuumOutputError("g2 undefined on every grid cell")
    for arr in (g2, n_mean, defined):
        arr.setflags(write=False)
    return SweepResult(axis_values=values, g2=g2, n_mean=n_mean, defined=defined)


def _clip(x, lo, hi, keep_ties):
    """np.clip(x, lo, hi) on float lists; NaN stays NaN.

    A tie with a bound (0.0 against -0.0) goes to the bound, as np.clip does
    against bound arrays, or with keep_ties to x, as against one broadcast pair.
    """
    if keep_ties:
        return [l if v < l else h if v > h else v for v, l, h in zip(x, lo, hi)]
    return [v if v != v else (v if v < h else h) if v > l else (l if l < h else h)
            for v, l, h in zip(x, lo, hi)]


def _ordered(sim, fsim):
    """The vertices and their values in np.argsort's order: NaN last, ties as it leaves them."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _simplex(x0, lo, hi, fatol, maxfev, maxiter=4000):
    """Bounded Nelder–Mead (Nelder & Mead, Comput. J. 7, 308 (1965)) as a generator.

    Takes exactly the steps of scipy 1.17's ``minimize(method="Nelder-Mead")``
    with its default simplex and coefficients, on float lists; lo and hi
    hold one bound for all coordinates or one each, ±inf where none.  Yields
    the points it needs next (the first simplex within budget, then one
    point, or up to n shrink points) and is sent their values; a budget
    spent inside the first simplex or a shrink leaves the values not yet
    evaluated as they were, as in scipy.  Returns (x, f, reason): reason
    says why the search stopped early, None on convergence.
    """
    n = len(x0)
    # Where one bound pair serves every coordinate, scipy clips against it
    # broadcast, and np.clip then leaves a coordinate that ties a bound as it is.
    ties = len(lo) == 1
    if ties:
        lo, hi = lo * n, hi * n
    if any(l > v for l, v in zip(lo, x0)) or any(v > h for v, h in zip(x0, hi)):
        warnings.warn("Initial guess is not within the specified bounds")
    x0 = _clip(x0, lo, hi, ties)
    sim = [x0] + [[((1 + 0.05) * v if v != 0 else 0.00025) if j == k else v
                   for j, v in enumerate(x0)] for k in range(n)]
    # A start just under an upper bound puts vertices above it; they are
    # reflected into the interior, so that clipping does not collapse the simplex.
    sim = [_clip([2 * h - v if v > h else v for v, h in zip(x, hi)], lo, hi, ties)
           for x in sim]
    fsim = [np.inf] * (n + 1)
    calls = min(n + 1, max(maxfev, 0))
    if calls:
        fsim[:calls] = yield sim[:calls]
    sim, fsim = _ordered(*_ordered(sim, fsim))  # twice, as scipy: argsort may move ties
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        best = sim[0]
        if (all(abs(v - v0) <= XATOL for x in sim[1:] for v, v0 in zip(x, best))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        # In vertex order from 0.0, as np.add.reduce sums: a sum of -0.0 is 0.0.
        xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = _clip([2.0 * c - w for c, w in zip(xbar, worst)], lo, hi, ties)  # reflection
        (fxr,) = yield [xr]
        calls += 1
        if fsim[0] <= fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
            iterations += 1
        elif calls < maxfev:
            # Expansion, outside contraction or inside contraction.
            expand, outside = fxr < fsim[0], fxr < fsim[-1]
            a, b = (3.0, -2.0) if expand else (1.5, -0.5) if outside else (0.5, 0.5)
            x2 = _clip([a * c + b * w for c, w in zip(xbar, worst)], lo, hi, ties)
            (f2,) = yield [x2]
            calls += 1
            if expand or (f2 <= fxr if outside else f2 < fsim[-1]):
                sim[-1], fsim[-1] = (xr, fxr) if expand and not f2 < fxr else (x2, f2)
                iterations += 1
            else:
                # Shrink towards the best vertex while budget lasts: the vertex
                # at which it runs out moves but keeps its value, as in scipy.
                left = maxfev - calls
                moved, scored = min(n, left + 1), min(n, left)
                sim[1:moved + 1] = [_clip([v0 + 0.5 * (v - v0) for v, v0 in zip(x, best)],
                                          lo, hi, ties) for x in sim[1:moved + 1]]
                if scored:
                    fsim[1:scored + 1] = yield sim[1:scored + 1]
                    calls += scored
                iterations += scored == n
        sim, fsim = _ordered(sim, fsim)
    reason = ("Maximum number of function evaluations has been exceeded." if calls >= maxfev
              else "Maximum number of iterations has been exceeded." if iterations >= maxiter
              else None)
    return sim[0], float(np.min(fsim)), reason


def refine_min(
    objective: Callable,
    start,
    bounds: Sequence[tuple[float, float]] | None = None,
    *,
    fatol: float = 1e-10,
    maxfev: int = 8000,
):
    """Simplex refinement from a grid argmin; never returns worse than start.

    The objective takes a parameter vector and returns scalar g2; undefined
    cells may raise VacuumOutputError and are treated as +inf.  Callers with
    expensive objectives can trade precision for budget via fatol/maxfev.
    A start outside the bounds is clipped into them, with a warning.

    A 2-D start (rows x n) refines every row at once: the objective is then
    called as objective(points, rows) on a (k, n) array of points and the
    (k,) indices of their rows, returns k values, and marks an undefined
    point with NaN or inf; returns the (rows, n) points and (rows,) values.

    Either form runs one _simplex per row, each round scoring every row's
    pending points in one objective call (a 1-D start: one call per point),
    so each row gets exactly the points, result and warnings of a 1-D
    refinement from it alone; out-of-bounds warnings precede early stops.
    """
    x0 = np.asarray(start, dtype=float)
    starts = np.atleast_2d(x0).tolist()
    pairs = [(None, None)] if bounds is None else bounds
    lo = [-np.inf if b is None else float(b) for b, _ in pairs]
    hi = [np.inf if b is None else float(b) for _, b in pairs]
    if any(h < l for l, h in zip(lo, hi)) or len(lo) not in (1, len(starts[0])):
        raise ValueError("bounds need lo <= hi, and one (lo, hi) pair or one per coordinate")
    if x0.ndim == 1:
        def guarded(x) -> float:
            try:
                return float(objective(np.array(x)))
            except VacuumOutputError:
                return np.inf

        def evaluate(points, rows):
            return [guarded(x) for x in points]
    else:
        def evaluate(points, rows):
            rows = np.array(rows)
            f = np.broadcast_to(np.asarray(objective(np.array(points), rows), dtype=float),
                                rows.shape)
            return np.where(np.isnan(f), np.inf, f).tolist()

    f0 = evaluate(starts, list(range(len(starts))))
    searches = dict(enumerate(_simplex(x, lo, hi, fatol, maxfev) for x in starts))
    results, values = [None] * len(starts), dict.fromkeys(searches)
    while searches:
        pending = {}
        for row, search in list(searches.items()):
            try:
                pending[row] = search.send(values[row])
            except StopIteration as stop:
                results[row] = stop.value
                del searches[row]
        if pending:
            f, at = evaluate([x for points in pending.values() for x in points],
                             [row for row, points in pending.items() for _ in points]), 0
            for row, points in pending.items():
                values[row], at = f[at:at + len(points)], at + len(points)
    for reason in filter(None, (reason for _, _, reason in results)):
        warnings.warn(f"refine_min stopped early: {reason}; returning best found")
    x = [xi if fi <= gi else si for (xi, fi, _), gi, si in zip(results, f0, starts)]
    fun = [fi if fi <= gi else gi for (_, fi, _), gi in zip(results, f0)]
    if x0.ndim == 1:
        return tuple(x[0]), fun[0]
    return np.array(x), np.array(fun)


def on_bound(names: Sequence[str], x: Sequence[float],
             bounds: Sequence[tuple[float, float]]) -> list[str]:
    """Names of the coordinates of x within XATOL of their search bound, each once.

    A refined optimum there is set by the search range, not by the
    objective.  A NaN coordinate is never on a bound.
    """
    hits = [name for name, v, (lo, hi) in zip(names, x, bounds)
            if min(abs(v - lo), abs(hi - v)) <= XATOL]
    return list(dict.fromkeys(hits))


def min_curve(
    objective: str | Objective,
    scan: Axis,
    inner: Sequence[Axis],
    fixed: dict | None = None,
) -> list[tuple[float, float, float, tuple[float, ...]]]:
    """For each scan value: its slice of one coarse sweep, then simplex refinement.

    One sweep over (scan, *inner) gives every scan value's inner grid, and
    each row's argmin among its defined cells seeds its refinement; one
    batched refine_min refines every row at once, calling the objective on
    arrays as the sweep does.  Returns (scan value, min g2, n_mean at min,
    inner argmin) tuples.  A scan value whose inner grid is undefined on
    every cell gives an undefined row: NaN g2, NaN n_mean and a NaN argmin.
    """
    fn = resolve_objective(objective)
    fixed = dict(fixed or {})
    names = [ax.name for ax in inner]
    try:
        coarse = sweep(SweepSpec(axes=(scan, *inner), objective=fn, fixed=fixed))
        masked = np.where(coarse.defined, coarse.g2, np.inf)
    except VacuumOutputError:
        masked = np.full([ax.count for ax in (scan, *inner)], np.inf)
    scan_values = scan.values()
    cells = masked.reshape(scan.count, -1)
    best = np.argmin(cells, axis=1)
    lit = np.flatnonzero(np.isfinite(cells[np.arange(scan.count), best]))
    idx = np.unravel_index(best[lit], masked.shape[1:])
    start = np.stack([ax.values()[i] for ax, i in zip(inner, idx)], axis=1)

    def at(points, rows):
        """(g2, n_mean) at each point for the scan value of its row of lit."""
        return fn(**dict(zip(names, points.T)), **{scan.name: scan_values[lit[rows]], **fixed})

    curve = [(float(s), np.nan, np.nan, (np.nan,) * len(names)) for s in scan_values]
    if lit.size:
        x, g2 = refine_min(lambda points, rows: at(points, rows)[0], start,
                           bounds=[(ax.lo, ax.hi) for ax in inner])
        n_at = np.broadcast_to(at(x, np.arange(lit.size))[1], lit.shape)
        for i, row in enumerate(lit):
            curve[row] = (curve[row][0], float(g2[i]), float(n_at[i]), tuple(x[i].tolist()))
    return curve
