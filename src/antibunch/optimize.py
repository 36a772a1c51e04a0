"""Grid sweeps and derivative-free refinement of correlation objectives.

An objective is a pure function taking named parameters and returning
(g2, n_mean).  It accepts its swept parameters as open-grid arrays
(``np.ix_`` shapes) and returns the whole grid from one call; min_curve's
refinement passes it equal-shape 1-D arrays, one entry per point, and
called with scalars it returns floats.  A cell whose
g2 is undefined is one the objective returns as NaN or inf (a dark output);
such cells are stored as explicit markers, never fabricated numbers, and
are excluded from argmin.  Identical specs produce bit-identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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


class _Budget(Exception):
    """The simplex's evaluation budget is spent."""


def _nelder_mead(fn, x0, bounds, fatol, maxfev, maxiter=4000):
    """Bounded Nelder–Mead (Nelder & Mead, Comput. J. 7, 308 (1965)).

    Takes exactly the steps of scipy 1.17's ``minimize(method="Nelder-Mead")``
    with its default simplex and coefficients: the same numpy operations in
    the same order, vertices clipped to the bounds, and the budget counted
    alike, so a budget spent inside the first simplex or a shrink leaves the
    values not yet evaluated as they were.  Returns (x, f, reason), where
    reason says why the search stopped early and is None on convergence.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    pairs = [(None, None)] * n if bounds is None else bounds  # clipping to ±inf changes nothing
    lo = np.array([-np.inf if b is None else float(b) for b, _ in pairs])
    hi = np.array([np.inf if b is None else float(b) for _, b in pairs])
    if np.any(hi < lo):
        raise ValueError("a lower bound is greater than its upper bound")
    lo, hi = np.broadcast_to(lo, x0.shape), np.broadcast_to(hi, x0.shape)  # one pair serves all
    if np.any(lo > x0) or np.any(x0 > hi):
        warnings.warn("Initial guess is not within the specified bounds", stacklevel=2)

    def clip(x):
        return np.clip(x, lo, hi)

    x0 = clip(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    # A start just under an upper bound puts vertices above it; they are
    # reflected into the interior, so that clipping does not collapse the simplex.
    sim = clip(np.where(sim > hi, 2 * hi - sim, sim))
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Budget
        calls += 1
        return fn(np.copy(x))

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Budget:
        pass
    sim, fsim = ordered(*ordered(sim, fsim))  # twice, as scipy: argsort may move ties
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = clip((1 + rho) * xbar - rho * sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip((1 + rho * chi) * xbar - rho * chi * sim[-1])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = clip((1 + psi * rho) * xbar - psi * rho * sim[-1])
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = clip((1 - psi) * xbar + psi * sim[-1])
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = clip(sim[0] + sigma * (sim[j] - sim[0]))
                        fsim[j] = f(sim[j])
            iterations += 1
        except _Budget:
            pass
        sim, fsim = ordered(sim, fsim)
    reason = None
    if calls >= maxfev:
        reason = "Maximum number of function evaluations has been exceeded."
    elif iterations >= maxiter:
        reason = "Maximum number of iterations has been exceeded."
    return sim[0], np.min(fsim), reason


def _nelder_mead_rows(fn, x0, bounds, fatol, maxfev, maxiter=4000):
    """_nelder_mead on every row of x0 at once, each row taking its own steps.

    fn(points, rows) takes a (k, n) array of points and the (k,) indices of
    their rows and returns their k values.  Each row keeps its own simplex,
    evaluation count and iteration count and takes exactly the steps that
    _nelder_mead takes from that row alone, budget cuts included; a finished
    row leaves the batch.  An iteration calls fn at most three times: the
    reflections, then the expansions and contractions, then the shrinks,
    each for just the rows that need it.  Returns (x, f, reasons): the
    (rows, n) best points, their (rows,) values and each row's reason.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    m, n = x0.shape
    pairs = [(None, None)] * n if bounds is None else bounds
    lo = np.array([-np.inf if b is None else float(b) for b, _ in pairs])
    hi = np.array([np.inf if b is None else float(b) for _, b in pairs])
    if np.any(hi < lo):
        raise ValueError("a lower bound is greater than its upper bound")
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    for _ in range(np.count_nonzero(np.any((lo > x0) | (x0 > hi), axis=1))):
        warnings.warn("Initial guess is not within the specified bounds", stacklevel=2)

    def clip(x):
        return np.clip(x, lo, hi)

    def ordered(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)

    x0 = clip(x0)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    sim = clip(np.where(sim > hi, 2 * hi - sim, sim))
    fsim = np.full((m, n + 1), np.inf)
    first = max(0, min(maxfev, n + 1))  # the first simplex's vertices within budget
    if first:
        points = sim[:, :first].reshape(-1, n)
        fsim[:, :first] = fn(points, np.repeat(np.arange(m), first)).reshape(m, first)
    calls = np.full(m, first)
    iterations = np.ones(m, dtype=int)
    sim, fsim = ordered(*ordered(sim, fsim))
    live = np.flatnonzero((calls < maxfev) & (iterations < maxiter))
    while live.size:
        sim_l, fsim_l = sim[live], fsim[live]
        done = ((np.max(np.abs(sim_l[:, 1:] - sim_l[:, :1]), axis=(1, 2)) <= XATOL)
                & (np.max(np.abs(fsim_l[:, :1] - fsim_l[:, 1:]), axis=1) <= fatol))
        go = live[~done]
        if not go.size:
            break
        sim_g, fsim_g = sim_l[~done], fsim_l[~done]
        worst = sim_g[:, -1]
        xbar = np.add.reduce(sim_g[:, :-1], 1) / n
        xr = clip((1 + rho) * xbar - rho * worst)
        fxr = fn(xr, go)
        calls[go] += 1
        expand = fxr < fsim_g[:, 0]
        accept_r = ~expand & (fxr < fsim_g[:, -2])
        outside = ~expand & ~accept_r & (fxr < fsim_g[:, -1])
        inside = ~expand & ~accept_r & ~outside
        # Expansion or contraction: one more point for every row with budget left.
        second = ~accept_r & (calls[go] < maxfev)
        x2 = np.where(expand[:, None], clip((1 + rho * chi) * xbar - rho * chi * worst),
                      np.where(outside[:, None],
                               clip((1 + psi * rho) * xbar - psi * rho * worst),
                               clip((1 - psi) * xbar + psi * worst)))
        f2 = np.full_like(fxr, np.nan)
        if second.any():
            f2[second] = fn(x2[second], go[second])
            calls[go[second]] += 1
        take_2 = second & ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                           | (inside & (f2 < fsim_g[:, -1])))
        take_r = accept_r | (second & expand & ~take_2)
        sim_g[take_r, -1], fsim_g[take_r, -1] = xr[take_r], fxr[take_r]
        sim_g[take_2, -1], fsim_g[take_2, -1] = x2[take_2], f2[take_2]
        shrink = second & ~expand & ~take_2
        # A shrink moves vertex j and then evaluates it, while budget lasts:
        # the vertex at which the budget runs out moves but keeps its value.
        left = maxfev - calls[go]
        j = np.arange(1, n + 1)
        moved = shrink[:, None] & (j <= left[:, None] + 1)
        scored = shrink[:, None] & (j <= left[:, None])
        if moved.any():
            best = sim_g[:, :1]
            sim_g[:, 1:] = np.where(moved[:, :, None],
                                    clip(best + sigma * (sim_g[:, 1:] - best)), sim_g[:, 1:])
        if scored.any():
            at = np.nonzero(scored)
            fsim_g[:, 1:][at] = fn(sim_g[:, 1:][at], go[at[0]])
            calls[go] += scored.sum(axis=1)
        cut = (~accept_r & ~second) | (shrink & (left < n))
        iterations[go[~cut]] += 1
        sim[go], fsim[go] = ordered(sim_g, fsim_g)
        live = go[(calls[go] < maxfev) & (iterations[go] < maxiter)]
    reasons = [None] * m
    for row in range(m):
        if calls[row] >= maxfev:
            reasons[row] = "Maximum number of function evaluations has been exceeded."
        elif iterations[row] >= maxiter:
            reasons[row] = "Maximum number of iterations has been exceeded."
    return sim[:, 0], np.min(fsim, axis=1), reasons


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
    point with NaN or inf.  Each row gets exactly the points, result and
    warning of a 1-D refinement from that row alone, with its own budget;
    returns the (rows, n) points and (rows,) values.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim == 2:
        return _refine_rows(objective, x0, bounds, fatol, maxfev)

    def guarded(x: np.ndarray) -> float:
        try:
            return float(objective(x))
        except VacuumOutputError:
            return np.inf

    f0 = guarded(x0)
    x, fun, reason = _nelder_mead(guarded, x0, bounds, fatol, maxfev)
    if reason:
        warnings.warn(f"refine_min stopped early: {reason}; returning best found")
    if fun <= f0:
        return tuple(float(v) for v in x), float(fun)
    return tuple(float(v) for v in x0), f0


def _refine_rows(objective, x0, bounds, fatol, maxfev):
    """refine_min's 2-D form: one batched simplex over the rows of x0."""
    def values(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
        f = np.broadcast_to(np.asarray(objective(points, rows), dtype=float), rows.shape)
        return np.where(np.isnan(f), np.inf, f)

    f0 = values(x0.copy(), np.arange(len(x0)))
    x, fun, reasons = _nelder_mead_rows(values, x0, bounds, fatol, maxfev)
    for reason in filter(None, reasons):
        warnings.warn(f"refine_min stopped early: {reason}; returning best found")
    better = fun <= f0
    return np.where(better[:, None], x, x0), np.where(better, fun, f0)


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
