"""Result datasets behind each shipped figure: grids and curves of g2(0).

Each builder returns a FigureResult (column names, rows, reproducibility
metadata); file writing lives in the CLI.  meta's parameters are the
builder's own keyword arguments, so they are a valid config for it.  The
g2 pipelines are registered in the optimizer's objective registry under
stable names so sweep specs can name them.  Each input arm's moment table
is built once per distinct argument tuple and cached, so a refinement that
moves only the splitter, or only one arm, rebuilds nothing else.  The
tables an objective call lacks are built together, one array pass per
truncation, by the arm's array form in states normalized by fock._normalized;
an arm without a dim takes the one fock.truncated picks per cell.  Given
open-grid arrays the objectives evaluate the whole map as one array
expression, with NaN on dark cells; given scalars they return floats and
raise VacuumOutputError on a dark output.  A scalar call is a batch of one,
and both run the beamsplitter's one real-arithmetic moment kernel, so a
scalar call returns its map cell bit for bit.

Phases follow the normalized-to-pi convention of the beamsplitter module in
all inputs and outputs; radians never appear in emitted data.
"""

from __future__ import annotations

import csv
import gc
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lindblad, optimize, states
from .beamsplitter import _ladder_moments, _moment_g2, _scalar_g2
from .beamsplitter import output_moments  # noqa: F401  (still importable from here)
from .fock import _normalized, truncated
from .optimize import Axis, SweepSpec


@dataclass(frozen=True)
class FigureResult:
    name: str
    columns: tuple[str, ...]
    rows: list
    meta: dict


def _meta(name: str, params: dict, t0: float, extra: dict | None = None) -> dict:
    from . import __version__

    meta = {
        "figure": name,
        "parameters": params,
        "version": __version__,
        "walltime_s": round(time.perf_counter() - t0, 3),
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------- objectives

# Input arms: the array forms of states, each taking 1-D parameter arrays and one
# truncation.  A cell is the arm's argument tuple, truncation last.
_coherent, _phase_modified, _kerr, _two_photon, _cat, _squeezed = (
    states._coherent_terms, states._phase_modified_terms, states._kerr_terms,
    states._two_photon_rows, states._cat_rows, states._squeezed_rows)


def _build(form, cells: list) -> list:
    """Read-only moment tables of form's input states at cells, one array pass per truncation."""
    tables = {}
    for dim in dict.fromkeys(cell[-1] for cell in cells):
        group = [cell for cell in cells if cell[-1] == dim]
        amps = _normalized(form(*map(np.array, list(zip(*group))[:-1]), int(dim)))
        moments = _ladder_moments(amps)
        moments.setflags(write=False)
        tables.update(zip(group, moments))
    return [tables[cell] for cell in cells]


def _table_cache(maxsize: int) -> Callable:
    """_build behind a cache of at most maxsize tables, the oldest dropped first.

    The cells the cache lacks are built in one _build call before any is
    stored, so a refused cell stores nothing.  .cache is the cache itself.
    """
    cache = {}

    def tables(form, cells: list) -> list:
        found = {cell: cache.get((form, *cell)) for cell in cells}
        new = [cell for cell, table in found.items() if table is None]
        if new:
            found.update(zip(new, _build(form, new)))
            cache.update(((form, *cell), found[cell]) for cell in new)
            for key in list(cache)[:len(cache) - maxsize]:
                del cache[key]
        return [found[cell] for cell in cells]

    tables.cache = cache
    return tables


_cached = _table_cache(256)


def _tables(form, *args) -> np.ndarray:
    """Moment tables of form's input states, one per cell of the broadcast args: (..., 3, 3)."""
    args = np.broadcast_arrays(*args)
    cells = list(zip(*(a.ravel().tolist() for a in args)))
    return np.array(_cached(form, cells)).reshape(args[0].shape + (3, 3))


def _output(form_a, args_a, form_b, args_b, R, phi):
    """(g2, n_mean) of output mode A for inputs form_a(*args_a), form_b(*args_b).

    All-scalar inputs give floats and raise VacuumOutputError on a dark
    output; otherwise the arrays broadcast and dark cells are NaN.
    """
    tables = _tables(form_a, *args_a), _tables(form_b, *args_b)
    # np.ndim alone costs microseconds on a Python number.
    if all(type(x) in (int, float) or np.ndim(x) == 0 for x in (*args_a, *args_b, R, phi)):
        return _scalar_g2(*tables, R, phi)
    return _moment_g2(*tables, R, phi)


def phase_modified_mix(R, phi, alpha=0.3, dim=16):
    """g2 of output A: coherent state with rotated two-photon amplitude vs coherent."""
    return _output(_phase_modified, (alpha, dim), _coherent, (alpha, dim), R, phi)


def kerr_mix(R, phi, alpha=0.3, chi_t=0.05, dim=16):
    """g2 of output A: Kerr-evolved coherent vs coherent of the same alpha."""
    return _output(_kerr, (alpha, chi_t, dim), _coherent, (alpha, dim), R, phi)


def two_photon_mix(alpha, c2, R=0.5, phi=0.5, dim=16):
    """g2 of output A: vacuum+two-photon superposition vs coherent."""
    return _output(_two_photon, (c2, dim), _coherent, (alpha, dim), R, phi)


def cat_mix(alpha_sch, alpha, parity=1, R=0.5, phi=0.5, dim=16):
    """g2 of output A: even/odd cat vs coherent."""
    return _output(_cat, (alpha_sch, parity, dim), _coherent, (alpha, dim), R, phi)


def squeezed_mix(r=0.05, alpha=0.5, phi=1.0, R=0.1, omega=0.0, dim_a=None, dim_b=None):
    """g2 of output A: squeezed vacuum (xi = r e^{i omega}) vs coherent.

    omega is in radians (an internal state parameter, not an I/O phase).  An arm
    whose dim is None takes, per cell, the truncation fock.truncated picks for it.
    """
    xi = r * np.exp(1j * omega)
    if dim_a is None:
        dim_a = np.frompyfunc(lambda x: truncated(states._squeezed_terms, (0.0, x)).size, 1, 1)(xi)
    if dim_b is None:
        dim_b = np.frompyfunc(lambda a: truncated(states._coherent_terms, (a,)).size, 1, 1)(alpha)
    return _output(_squeezed, (0.0, xi, dim_a), _coherent, (alpha, dim_b), R, phi)


optimize.OBJECTIVE_REGISTRY.update(
    phase_modified_mix=phase_modified_mix, kerr_mix=kerr_mix, two_photon_mix=two_photon_mix,
    cat_mix=cat_mix, squeezed_mix=squeezed_mix,
)


# ------------------------------------------------------------------ builders

def _map(name: str, axes: tuple[Axis, Axis], objective: str, fixed: dict,
         params: dict) -> FigureResult:
    """One row per cell of the sweep over axes; meta carries the argmin."""
    t0 = time.perf_counter()
    res = optimize.sweep(SweepSpec(axes=axes, objective=objective, fixed=fixed))
    x, y = np.meshgrid(*res.axis_values, indexing="ij")
    columns = (x, y, res.g2, res.n_mean, res.defined.astype(int))
    # The rows are one new tuple per cell (10,201 at the default grid).  They
    # hold only numbers, so they form no cycle for the collector to find, but
    # with it running they set off a young-generation collection every 700
    # and, soon after numpy and scipy are imported, a full one.
    collecting = gc.isenabled()
    gc.disable()
    try:
        rows = list(zip(*(c.ravel().tolist() for c in columns)))
    finally:
        if collecting:
            gc.enable()
    extra = {"argmin": {ax.name: v for ax, v in zip(axes, res.argmin)},
             "min_g2": res.min_g2, "n_at_min": res.n_at_min}
    return FigureResult(name, (axes[0].name, axes[1].name, "g2", "n_mean", "defined"),
                        rows, _meta(name, params, t0, extra))


def _curve(name: str, columns: tuple[str, ...], scan: Axis, inner: tuple[Axis, ...],
           objective: str, fixed: dict, params: dict,
           extra: Callable[[float], tuple] = lambda s: ()) -> FigureResult:
    """One row per scan value of min_curve, as _map gives one per cell.

    A row is (scan value, min g2, n_mean there, *inner argmin,
    *extra(scan value), defined).  meta's on_bound lists the scan values
    whose argmin sits within optimize.XATOL, the refinement's tolerance, of
    a search bound: such an optimum is set by the search range (or by the
    truncation it reaches), not by interference.
    """
    t0 = time.perf_counter()
    curve = optimize.min_curve(objective, scan, inner, fixed=fixed)
    rows = [(s, g2, n_at, *x, *extra(s), int(np.isfinite(g2))) for s, g2, n_at, x in curve]
    names, bounds = [ax.name for ax in inner], [(ax.lo, ax.hi) for ax in inner]
    on_bound = [s for s, _, _, x in curve if optimize.on_bound(names, x, bounds)]
    return FigureResult(name, columns, rows, _meta(name, params, t0, {"on_bound": on_bound}))


def fig2(alpha=0.3, dim=16, grid=101, r_lo=0.01, r_hi=0.5, phi_lo=0.0, phi_hi=2.0):
    """g2 map over (R, phi) for the phase-modified coherent state."""
    params = dict(locals())
    return _map("fig2", (Axis("R", r_lo, r_hi, grid), Axis("phi", phi_lo, phi_hi, grid)),
                "phase_modified_mix", {"alpha": alpha, "dim": dim}, params)


def fig3a(alpha=0.3, chi_t=0.05, dim=16, grid=101,
          r_lo=0.01, r_hi=0.5, phi_lo=0.0, phi_hi=2.0):
    """g2 map over (R, phi) for the Kerr-evolved coherent state."""
    params = dict(locals())
    return _map("fig3a", (Axis("R", r_lo, r_hi, grid), Axis("phi", phi_lo, phi_hi, grid)),
                "kerr_mix", {"alpha": alpha, "chi_t": chi_t, "dim": dim}, params)


def fig3b(alpha_lo=0.05, alpha_hi=0.5, count=10, chi_t=0.05, dim=16,
          inner_grid=41):
    """Optimal g2 and the photon number it costs, versus the amplitude of both inputs."""
    params = dict(locals())
    return _curve("fig3b", ("alpha", "min_g2", "n_mean", "R_opt", "phi_opt", "defined"),
                  Axis("alpha", alpha_lo, alpha_hi, count),
                  (Axis("R", 0.01, 0.5, inner_grid), Axis("phi", 0.0, 2.0, inner_grid)),
                  "kerr_mix", {"chi_t": chi_t, "dim": dim}, params)


def fig4(c2_lo=0.01, c2_hi=0.5, count=50, R=0.5, phi=0.5, dim=16,
         alpha_lo=0.02, alpha_hi=2.0, inner_count=80):
    """Optimal g2 versus two-photon weight on a 50:50 splitter, alpha optimized.

    input_g2 = 1/(2 c2^2) is the two-photon arm's own g2; it is NaN at
    c2 = 0, where that arm is the vacuum.
    """
    params = dict(locals())
    return _curve("fig4", ("c2", "min_g2", "n_mean", "alpha_opt", "input_g2", "defined"),
                  Axis("c2", c2_lo, c2_hi, count),
                  (Axis("alpha", alpha_lo, alpha_hi, inner_count),),
                  "two_photon_mix", {"R": R, "phi": phi, "dim": dim}, params,
                  extra=lambda c2: (0.5 / (c2 * c2) if c2 else np.nan,))


def fig5(sch_lo=0.02, sch_hi=0.3, sch_count=57, alpha_lo=0.01, alpha_hi=0.3,
         alpha_count=59, parity=1, R=0.5, phi=0.5, dim=16):
    """g2 map over (cat amplitude, coherent amplitude) on a 50:50 splitter."""
    params = dict(locals())
    return _map("fig5", (Axis("alpha_sch", sch_lo, sch_hi, sch_count),
                         Axis("alpha", alpha_lo, alpha_hi, alpha_count)),
                "cat_mix", {"parity": parity, "R": R, "phi": phi, "dim": dim}, params)


def fig6(r_lo=0.002, r_hi=0.018, r_count=13, alpha_lo=0.1, alpha_hi=4.0,
         alpha_count=41, T=0.9, phi=1.0, omega=0.0, dim_a=24, dim_b=None):
    """g2 map over (squeezing r, coherent alpha) at fixed high transmission."""
    params = dict(locals())
    return _map("fig6", (Axis("r", r_lo, r_hi, r_count, spacing="geom"),
                         Axis("alpha", alpha_lo, alpha_hi, alpha_count, spacing="geom")),
                "squeezed_mix",
                {"R": 1.0 - T, "phi": phi, "omega": omega, "dim_a": dim_a, "dim_b": dim_b},
                params)


def fig7(tau_max=10.0, n_tau=201, U=0.01, J=6.2, dim_single=12, dims_coupled=(12, 12)):
    """Delayed correlations of the two cavity schemes at their tuned optima."""
    params = dict(locals())
    t0 = time.perf_counter()
    dims_coupled = tuple(int(d) for d in dims_coupled)
    tuned_s = lindblad.tune_for_antibunching("single", U=U, dims=(int(dim_single),))
    tuned_c = lindblad.tune_for_antibunching("coupled", U=U, J=J, dims=dims_coupled)
    tau = np.linspace(0.0, float(tau_max), int(n_tau))
    model_s = lindblad.build_single_kerr(U, tuned_s["F"], tuned_s["Delta"], int(dim_single))
    curve_s = lindblad.g2_tau(model_s, tuned_s["mix"], tau)
    model_c = lindblad.build_coupled_cavities(U, J, tuned_c["F"], tuned_c["Delta"], dims_coupled)
    curve_c = lindblad.g2_tau(model_c, None, tau)
    rows = [
        (float(t), float(gs), float(gc))
        for t, gs, gc in zip(tau, curve_s.g2_values, curve_c.g2_values)
    ]
    beta = tuned_s["beta"]
    extra = {
        "single": {"F": tuned_s["F"], "Delta": tuned_s["Delta"],
                   "beta": [beta.real, beta.imag], "g2_0": tuned_s["g2"],
                   "on_bound": tuned_s["on_bound"]},
        "coupled": {"F": tuned_c["F"], "Delta": tuned_c["Delta"], "g2_0": tuned_c["g2"],
                    "on_bound": tuned_c["on_bound"]},
        "coupled_oscillation_frequency": lindblad.oscillation_frequency(curve_c),
    }
    return FigureResult("fig7", ("tau", "g2_single", "g2_coupled"),
                        rows, _meta("fig7", params, t0, extra))


FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig2": fig2, "fig3a": fig3a, "fig3b": fig3b, "fig4": fig4,
    "fig5": fig5, "fig6": fig6, "fig7": fig7,
}


# ----------------------------------------------------------------- CSV plumbing

def format_cell(value) -> str:
    """Full double precision: 17 significant digits survive a float round-trip."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
