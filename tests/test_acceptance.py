"""End-to-end acceptance gate for the whole toolbox.

Eleven numbered checks, each printing one PASS/FAIL line with the measured
numbers (visible under `pytest -rA` or on failure).  Tolerances and runtime
budgets are asserted, never loosened: the one check known to be numerically
unattainable (the off-diagonal cat optimum, 7a) is marked strict-xfail with
the measured evidence in its reason string rather than weakened.
"""

import time
import warnings

import numpy as np
import pytest

from antibunch import analytic, fock, states
from antibunch.beamsplitter import (
    BeamsplitterParams,
    _mode_map_residual,
    g2_from_coeffs,
    mix,
    output_g2,
)
from antibunch.figures import (
    cat_mix,
    fig3b,
    fig6,
    kerr_mix,
    squeezed_mix,
    two_photon_mix,
)
from antibunch.fock import FockVector, truncated
from antibunch.lindblad import (
    build_coupled_cavities,
    build_single_kerr,
    g2_tau,
    static_g2,
    tune_for_antibunching,
)
from antibunch.optimize import Axis, SweepSpec, min_curve, refine_min, sweep

CANONICAL_COUPLED = dict(U=0.01, J=6.2, F=0.04, Delta=1.0 / (2.0 * np.sqrt(3.0)))


def report(index, name, ok, detail):
    line = f"[{index:>2}/11] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tuned_single():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = tune_for_antibunching("single")
    result["tune_walltime"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def tuned_coupled():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = tune_for_antibunching("coupled")
    result["tune_walltime"] = time.perf_counter() - t0
    return result


def test_01_g2_formula_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(100):
        dim = 2 + k % 7  # dims 2..8
        psi = FockVector(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        ).normalize()
        a = fock.annihilation(dim)
        num = fock.expectation(psi, a.conj().T @ a.conj().T @ a @ a)
        den = fock.expectation(psi, a.conj().T @ a) ** 2
        worst = max(worst, abs(g2_from_coeffs(psi) - num / den))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "coefficient vs operator g2",
        worst < 1e-12 and elapsed < 1.0,
        f"max |diff| = {worst:.2e} over 100 random states (dim <= 8), {elapsed:.2f} s",
    )


def test_02_beamsplitter_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n_a_op = np.kron(np.diag(np.arange(8.0)), np.eye(8))
    n_b_op = np.kron(np.eye(8), np.diag(np.arange(8.0)))
    drift = 0.0
    for _ in range(50):
        psi_a = FockVector(rng.standard_normal(8) + 1j * rng.standard_normal(8)).normalize()
        psi_b = FockVector(rng.standard_normal(8) + 1j * rng.standard_normal(8)).normalize()
        params = BeamsplitterParams(rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0))
        joint = mix(psi_a, psi_b, params)
        n_out = fock.expectation(joint, n_a_op) + fock.expectation(joint, n_b_op)
        drift = max(drift, abs(n_out - (psi_a.mean_n() + psi_b.mean_n())))

    def low_levels(dim, levels):
        amps = np.zeros(dim, dtype=complex)
        amps[:levels] = rng.standard_normal(levels) + 1j * rng.standard_normal(levels)
        return FockVector(amps).normalize()

    # On mix itself, with inputs whose sectors all fit (4 + 3 - 1 <= min(dims)).
    resid = max(
        _mode_map_residual(low_levels(dims[0], 4), low_levels(dims[1], 3),
                           BeamsplitterParams(r, phi))
        for r, phi, dims in [(0.5, 0.0, (10, 10)), (0.37, 0.31, (7, 12)), (0.82, 1.43, (12, 6))]
    )
    hom = abs(mix(fock.basis(4, 1), fock.basis(4, 1), BeamsplitterParams(0.5)).as_matrix()[1, 1]) ** 2
    elapsed = time.perf_counter() - t0
    report(
        2,
        "beamsplitter contract",
        resid < 1e-9 and drift < 1e-9 and hom < 1e-10 and elapsed < 5.0,
        f"mode-map residual {resid:.2e}, energy drift {drift:.2e} (50 random), "
        f"HOM coincidence {hom:.2e}, {elapsed:.2f} s",
    )


def test_03_coherent_baseline():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        params = BeamsplitterParams(rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0))
        alpha = rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        beta = rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g2, _ = output_g2(states.coherent(alpha, 20), states.coherent(beta, 20), params)
        worst = max(worst, abs(g2 - 1.0))
    report(
        3,
        "coherent inputs stay coherent",
        worst < 1e-8,
        f"max |g2 - 1| = {worst:.2e} over 20 random (R, phi, alpha, beta)",
    )


def test_04_kerr_optimum():
    t0 = time.perf_counter()
    res = sweep(
        SweepSpec(
            axes=(Axis("R", 0.01, 0.5, 101), Axis("phi", 0.0, 2.0, 101)),
            objective="kerr_mix",
            fixed={"alpha": 0.3, "chi_t": 0.05, "dim": 16},
        )
    )
    elapsed = time.perf_counter() - t0
    ok = res.min_g2 <= 0.05 and 0.003 <= res.n_at_min <= 0.012 and elapsed < 120.0
    report(
        4,
        "Kerr-state optimum on 101x101 grid",
        ok,
        f"min g2 = {res.min_g2:.6f} at (R, phi) = {res.argmin}, "
        f"n = {res.n_at_min:.6f}, {elapsed:.1f} s",
    )


def test_05_amplitude_scan():
    t0 = time.perf_counter()
    res = fig3b()
    elapsed = time.perf_counter() - t0
    rows = {round(r[0], 3): r for r in res.rows}
    all_below_half = all(r[1] < 0.5 for r in res.rows)
    small_alpha_deep = all(r[1] < 0.01 for r in res.rows if r[0] <= 0.2 + 1e-12)
    n_at_02 = rows[0.2][2]
    n_in_band = 0.0015 <= n_at_02 <= 0.0045
    ok = all_below_half and small_alpha_deep and n_in_band and elapsed < 600.0
    report(
        5,
        "optimal g2 vs drive amplitude",
        ok,
        f"g2 < 0.5 everywhere: {all_below_half}; g2 < 0.01 for alpha <= 0.2: "
        f"{small_alpha_deep}; n(alpha=0.2) = {n_at_02:.6f} in [0.0015, 0.0045]: "
        f"{n_in_band}; {elapsed:.1f} s",
    )


def test_06_two_photon_optimum():
    c2 = 0.1
    input_g2 = g2_from_coeffs(states.vacuum_two_photon(c2))
    # package answer: coarse grid + simplex refinement
    _, g2_pkg, _, _ = min_curve(
        "two_photon_mix",
        Axis("c2", c2, c2, 1),
        [Axis("alpha", 0.02, 2.0, 80)],
        fixed={"R": 0.5, "phi": 0.5, "dim": 16},
    )[0]
    # independent brute-force oracle on a dense amplitude grid
    alphas = np.linspace(0.02, 2.0, 2001)
    g2_oracle = min(two_photon_mix(alpha=a, c2=c2, dim=16)[0] for a in alphas)
    ok = (
        abs(input_g2 - 50.0) < 1e-9 * 50.0
        and g2_pkg <= 0.5
        and abs(g2_pkg - g2_oracle) <= 0.05 * g2_oracle
    )
    report(
        6,
        "two-photon suppression at c2 = 0.1",
        ok,
        f"input g2 = {input_g2:.9f}, optimized g2 = {g2_pkg:.6f} "
        f"(oracle {g2_oracle:.6f}, deviation {abs(g2_pkg - g2_oracle) / g2_oracle:.2%})",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the measured optimum tracks the alpha_sch = alpha diagonal "
    "(alpha_sch* = 0.0399 at alpha = 0.04, g2 = 0.0063) for every phase and "
    "parity tried; no regime reproduces an off-diagonal optimum near "
    "sqrt(alpha)/2 = 0.1, where g2 >= 24 at this drive",
)
def test_07a_cat_optimum_location():
    fn = lambda x: cat_mix(alpha_sch=float(x[0]), alpha=0.04, parity=1, R=0.5, phi=0.5, dim=16)[0]
    grid = np.linspace(0.015, 0.35, 200)
    seed = grid[int(np.argmin([fn([s]) for s in grid]))]
    (sch_star,), g2 = refine_min(fn, [seed], fatol=1e-14)
    report(
        7,
        "cat amplitude at the optimum",
        abs(sch_star - 0.1) <= 0.02,
        f"alpha_sch* = {sch_star:.4f} (target 0.1 +- 0.02), g2 = {g2:.4g}",
    )


def test_07b_cat_bunching_flips_across_diagonal():
    flips = []
    for a in (0.05, 0.1, 0.2):
        below = cat_mix(alpha_sch=0.5 * a, alpha=a, parity=1, R=0.5, phi=1.5, dim=16)[0]
        above = cat_mix(alpha_sch=1.5 * a, alpha=a, parity=1, R=0.5, phi=1.5, dim=16)[0]
        flips.append((a, below, above, below < 1.0 < above))
    ok = all(f[3] for f in flips)
    detail = "; ".join(f"alpha={a}: {b:.3f} < 1 < {ab:.3f}" for a, b, ab, _ in flips)
    report(7, "bunching sign flips across alpha_sch = alpha", ok, detail)


def test_08_squeezed_closed_forms():
    r, R = 0.05, 0.1
    omega = np.arccos(np.sqrt(1.0 - R))
    phi_f, ab_f = analytic.optimal_vacuum_squeezing_condition(r, BeamsplitterParams(R))

    def fn(phi_pi, alpha_b):
        return squeezed_mix(r=r, phi=phi_pi, alpha=alpha_b, R=R, omega=omega)

    # numeric optimum (the infinite-order pipeline) near the working branch
    coarse = sweep(
        SweepSpec(
            axes=(Axis("phi_pi", 0.9, 1.2, 61), Axis("alpha_b", 0.3, 1.2, 61)),
            objective=fn,
        )
    )
    x_star, g2_star = refine_min(
        lambda x: fn(float(x[0]), float(x[1]))[0], coarse.argmin, fatol=1e-14
    )
    phi_num = (x_star[0] - 1.0) * np.pi  # radian offset from the half-period branch
    phi_dev = abs(phi_num - phi_f) / phi_f
    ab_dev = abs(x_star[1] - ab_f) / ab_f

    # the closed-form point must be locally optimal under +-10% perturbations
    phi_f_pi = 1.0 + phi_f / np.pi
    center = fn(phi_f_pi, ab_f)[0]
    locally_optimal = all(
        fn(1.0 + (phi_f / np.pi) * (1.0 + dp), ab_f * (1.0 + da))[0] >= center
        for dp in (-0.1, 0.0, 0.1)
        for da in (-0.1, 0.0, 0.1)
        if (dp, da) != (0.0, 0.0)
    )
    ok = locally_optimal and phi_dev <= 0.05 and ab_dev <= 0.05
    report(
        8,
        "squeezed-vacuum closed forms",
        ok,
        f"locally optimal at +-10%: {locally_optimal}; numeric optimum "
        f"g2 = {g2_star:.6f}: phi deviates {phi_dev:.2%}, alpha_b deviates "
        f"{ab_dev:.2%} (systematic, logged) from ({phi_f:.6f} rad, {ab_f:.6f})",
    )


def test_09_strong_drive_washout():
    res = fig6()
    data = np.array([row[:4] for row in res.rows])
    r_vals, alphas, g2 = data[:, 0], data[:, 1], data[:, 2]
    strip_dev = float(np.max(np.abs(g2[alphas >= 2.0] - 1.0)))
    min_at_smallest_r = res.meta["argmin"]["r"] == pytest.approx(float(r_vals.min()))
    ok = strip_dev <= 0.1 and min_at_smallest_r
    report(
        9,
        "strong coherent drive washes out squeezing",
        ok,
        f"max |g2 - 1| = {strip_dev:.4f} on alpha >= 2; global min "
        f"{res.meta['min_g2']:.6f} at r = {res.meta['argmin']['r']} (smallest scanned)",
    )


def test_10_cavity_antibunching(tuned_single, tuned_coupled):
    t0 = time.perf_counter()
    tau = np.linspace(0.0, 20.0, 201)

    model_s = build_single_kerr(
        tuned_single["U"], tuned_single["F"], tuned_single["Delta"], tuned_single["dims"][0]
    )
    curve_s = g2_tau(model_s, tuned_single["mix"], tau)
    g2s = curve_s.g2_values
    single_ok = (
        tuned_single["g2"] < 0.1
        and np.all(np.diff(g2s) > -1e-9)
        and np.max(g2s) <= 1.0 + 1e-6
    )
    tau0_s = abs(g2s[0] - static_g2(model_s, mix=tuned_single["mix"]))

    model_c = build_coupled_cavities(
        tuned_coupled["U"], tuned_coupled["J"], tuned_coupled["F"],
        tuned_coupled["Delta"], tuned_coupled["dims"],
    )
    curve_c = g2_tau(model_c, None, tau)
    g2c = curve_c.g2_values
    early = g2c[tau <= 5.0]
    sign = np.sign(early - 1.0)
    crossings = int(np.count_nonzero(sign[:-1] * sign[1:] < 0))
    coupled_ok = (
        tuned_coupled["g2"] < 1.0
        and crossings >= 2
        and abs(g2c[-1] - 1.0) <= 1e-3
    )
    tau0_c = abs(g2c[0] - static_g2(model_c))

    elapsed = (
        time.perf_counter() - t0
        + tuned_single["tune_walltime"]
        + tuned_coupled["tune_walltime"]
    )
    ok = single_ok and coupled_ok and tau0_s <= 1e-10 and tau0_c <= 1e-10 and elapsed < 300.0
    report(
        10,
        "tuned cavity antibunching",
        ok,
        f"single g2(0) = {tuned_single['g2']:.3e}, curve max {np.max(g2s):.7f}, "
        f"monotone: {bool(np.all(np.diff(g2s) > -1e-9))}; coupled g2(0) = "
        f"{tuned_coupled['g2']:.3e}, {crossings} crossings of 1 in (0, 5], "
        f"|g2(20) - 1| = {abs(g2c[-1] - 1.0):.2e}; tau0 consistency "
        f"{tau0_s:.1e}/{tau0_c:.1e}; {elapsed:.0f} s including tuning",
    )


def test_10_tuners_report_parameters_on_their_search_bound(tuned_single, tuned_coupled):
    # At U = 0.01 the single tuner's Delta sits on the edge of its
    # |Delta| <= 0.05 slab and the coupled tuner's F on its 0.04 floor: each
    # tuned g2(0) is set by that bound, and the tuner says so.
    assert "Delta" in tuned_single["on_bound"]
    assert "F" in tuned_coupled["on_bound"]


def test_11_truncation_convergence(tuned_single, trace_row_lu):
    # Headline numbers from the numbered checks above, re-evaluated with
    # every truncation dimension raised by 8 at fixed parameters.  The
    # identity checks (1-3) hold exactly at any dimension and have no
    # headline number to track.
    t0 = time.perf_counter()
    checks = []

    g2_base, n_base = kerr_mix(R=0.3873, phi=0.9, alpha=0.3, chi_t=0.05, dim=16)
    g2_up, n_up = kerr_mix(R=0.3873, phi=0.9, alpha=0.3, chi_t=0.05, dim=24)
    checks.append(("kerr g2", g2_base, g2_up))
    checks.append(("kerr n", n_base, n_up))

    checks.append(
        (
            "two-photon g2",
            two_photon_mix(alpha=0.42705, c2=0.1, dim=16)[0],
            two_photon_mix(alpha=0.42705, c2=0.1, dim=24)[0],
        )
    )

    phi_f, ab_f = analytic.optimal_vacuum_squeezing_condition(0.05, BeamsplitterParams(0.1))
    omega = np.arccos(np.sqrt(0.9))
    sq = lambda da, db: squeezed_mix(
        r=0.05, phi=1.0 + phi_f / np.pi, alpha=ab_f, R=0.1, omega=omega,
        dim_a=da, dim_b=db,
    )[0]
    checks.append(("squeezed g2", sq(24, 24), sq(32, 32)))

    res6 = fig6()
    r_star, a_star = res6.meta["argmin"]["r"], res6.meta["argmin"]["alpha"]
    f6 = lambda da, db: squeezed_mix(
        r=r_star, alpha=a_star, phi=1.0, R=0.1, omega=0.0, dim_a=da, dim_b=db
    )[0]
    db = truncated(states._coherent_terms, (a_star,)).size
    checks.append(("squeezed-map min g2", f6(24, db), f6(32, db + 8)))

    mix_s = tuned_single["mix"]
    upb = lambda dim: static_g2(
        build_single_kerr(tuned_single["U"], tuned_single["F"], tuned_single["Delta"], dim),
        mix=mix_s,
    )
    checks.append(("single-cavity g2(0)", upb(12), upb(20)))

    # coupled headline at the dimension-robust operating point, solved by
    # two different kernels as a cross-check: the trace-row sparse LU at
    # (12, 12), steady_state's operator kernel at (20, 20)
    cpl = lambda dims: build_coupled_cavities(
        CANONICAL_COUPLED["U"], CANONICAL_COUPLED["J"],
        CANONICAL_COUPLED["F"], CANONICAL_COUPLED["Delta"], dims,
    )
    lu, operator = cpl((12, 12)), cpl((20, 20))
    checks.append(("coupled-cavity g2(0)", static_g2(lu, rho_ss=trace_row_lu(lu)), static_g2(operator)))

    rels = [(name, abs(up - base) / abs(base)) for name, base, up in checks]
    worst_name, worst = max(rels, key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    ok = all(rel < 1e-6 for _, rel in rels)
    report(
        11,
        "headline numbers at +8 truncation",
        ok,
        f"worst rel change {worst:.2e} ({worst_name}); "
        + ", ".join(f"{name} {rel:.1e}" for name, rel in rels)
        + f"; {elapsed:.0f} s",
    )
