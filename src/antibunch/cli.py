"""Command-line front end: ad-hoc g2 evaluation, figure datasets, selftest.

Exit codes: 0 success, 2 usage error (argparse), 3 configuration error
(a malformed config, a value the library refuses, a pair whose truncation
cuts the printed p_n away from its g2, or a figure too large to allocate),
4 selftest failure, 5 undefined g2 (output below the intensity floor).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import beamsplitter, figures, fock, lindblad, states
from .beamsplitter import BeamsplitterParams
from .errors import AntibunchError, ConfigError, TruncationError, VacuumOutputError

# kind -> required fields (every spec may also carry an optional "dim")
_STATE_FIELDS = {
    "fock": {"n"},
    "coherent": {"alpha"},
    "phase_modified": {"alpha"},
    "kerr_coherent": {"alpha", "chi_t"},
    "vacuum_two_photon": {"c2"},
    "cat": {"alpha_sch", "parity"},
    "squeezed_vacuum": {"xi"},
    "squeezed_coherent": {"alpha", "xi"},
}


# The most Fock states the CLI takes for one truncated space: --dim, a spec's
# dim or the levels fock.truncated returns for it, a figure's dim, dim_a, dim_b
# or dim_single or fig6's picked coherent arm, and the joint space of fig7's
# dims_coupled.  A g2 pair at this dim holds 256 MB of sector eigenvectors; a
# much larger one would exhaust memory before the library could refuse it.
MAX_DIM = 200


def _check_dim(dim, field: str) -> int:
    """Refuse a truncation that is not an integer in [2, MAX_DIM]; return it."""
    if type(dim) is not int or not 2 <= dim <= MAX_DIM:
        raise ConfigError(f"{field} must be an integer in [2, {MAX_DIM}], got {_brief(dim)}")
    return dim


def _brief(value) -> str:
    """repr(value), but an integer of over 12 digits as its first three and exponent: 2.00e+301."""
    digits = str(abs(value)) if type(value) is int else ""
    if len(digits) <= 12:
        return repr(value)
    return f"{'-' * (value < 0)}{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"


def _as_complex(value, field: str) -> complex:
    if type(value) in (int, float):
        return complex(_as_float(value, field))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_float(value[0], field), _as_float(value[1], field))
    raise ConfigError(f"{field!r} must be a number or an [re, im] pair, got {value!r}")


def _as_float(value, field: str) -> float:
    """A JSON number that fits a float; a string or boolean is refused, never coerced."""
    if type(value) not in (int, float) or abs(value) > sys.float_info.max:
        raise ConfigError(f"{field!r} must be a finite number, got {_brief(value)}")
    return float(value)


def _as_int(value, field: str) -> int:
    """A JSON integer; a fractional or boolean value is refused, never truncated."""
    if type(value) is not int:
        raise ConfigError(f"{field!r} must be an integer, got {value!r}")
    return value


def _matches(value, default) -> bool:
    """Whether a JSON override has the type of a builder's default; an int passes for a float."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_matches, value, default)))
    if default is None:  # an optional truncation (fig6's dim_b)
        return value is None or type(value) is int
    return type(value) in {float: (int, float)}.get(type(default), (type(default),))


def _check_keys(obj, required, optional, where: str) -> None:
    """Refuse obj unless it is a JSON object with every required key and no other."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"accepted: {sorted({*required, *optional})}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def build_state(spec: dict, dim_override: int | None = None) -> fock.FockVector:
    """Construct a pure state from a JSON spec; unknown keys are rejected."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _STATE_FIELDS:
        raise ConfigError(f"unknown state kind in {spec!r}; known: {sorted(_STATE_FIELDS)}")
    _check_keys(spec, _STATE_FIELDS[kind] | {"kind"}, {"dim"}, f"{kind!r} state spec")
    dim = dim_override if dim_override is not None else spec.get("dim")
    if dim is not None:
        _check_dim(dim, "dim")
    # dim is now None or an int >= 2, so `dim or default` defaults only a missing dim.
    # A default truncation is bounded too, before a state is made of it.
    field = f"truncation of the {kind!r} state"

    if kind == "fock":
        n = _as_int(spec["n"], "n")
        dim = _check_dim(dim or max(n + 1, 4), field)
        if not 0 <= n < dim:
            raise ConfigError(f"'n' must be a photon number in [0, {dim - 1}], got {_brief(n)}")
        return fock.basis(dim, n)
    if kind == "vacuum_two_photon":
        return states.vacuum_two_photon(_as_float(spec["c2"], "c2"), dim or 3)
    if kind == "cat":
        alpha_sch = _as_complex(spec["alpha_sch"], "alpha_sch")
        parity = _as_int(spec["parity"], "parity")
        if parity not in (1, -1):
            raise ConfigError(f"'parity' must be +1 or -1, got {_brief(parity)}")
        form, params = states._cat_rows, (alpha_sch, parity)
    elif kind.startswith("squeezed"):  # the vacuum is alpha = 0
        alpha = _as_complex(spec["alpha"], "alpha") if kind == "squeezed_coherent" else 0.0
        xi = _as_complex(spec["xi"], "xi")
        if dim is not None:  # refused in states' order: the squeeze range, then the tail
            return fock.FockVector(states._squeezed_rows(np.array([alpha]), np.array([xi]), dim)[0])
        form, params = states._squeezed_terms, (alpha, xi)
    else:  # coherent, phase-modified or Kerr
        form, params = states._coherent_terms, (_as_complex(spec["alpha"], "alpha"),)
        if kind == "phase_modified":
            form = states._phase_modified_terms
        elif kind == "kerr_coherent":
            form, params = states._kerr_terms, (*params, _as_float(spec["chi_t"], "chi_t"))
    amps = fock.truncated(form, params, dim)
    _check_dim(amps.size, field)
    return fock.FockVector(amps)


def _load_config(path: Path | None) -> object:
    if path is None:
        raise ConfigError("this command requires --config FILE")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    def refuse(constant: str):
        raise ConfigError(f"config holds the non-finite number {constant}")

    def finite(literal: str) -> float:
        value = float(literal)
        if np.isinf(value):  # a literal beyond the float range, such as 1e400
            refuse(literal)
        return value

    try:
        return json.loads(text, parse_constant=refuse, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _cmd_g2(args) -> int:
    cfg = _load_config(args.config)
    if isinstance(cfg, dict) and "state" in cfg:
        _check_keys(cfg, {"state"}, (), "config")
        psi = build_state(cfg["state"], args.dim)
        g2 = beamsplitter.g2_from_coeffs(psi)
        p_n = psi.probabilities()
        n_mean = float(np.arange(p_n.size) @ p_n)
    else:
        _check_keys(cfg, {"state_a", "state_b", "beamsplitter"}, (), "config")
        bs = cfg["beamsplitter"]
        _check_keys(bs, {"R"}, {"phi"}, "beamsplitter spec")
        params = BeamsplitterParams(R=_as_float(bs["R"], "R"),
                                    phi=_as_float(bs.get("phi", 0.0), "phi"))
        specs = cfg["state_a"], cfg["state_b"]
        psi_a, psi_b = (build_state(spec, args.dim) for spec in specs)
        # The truncated rotation cuts every photon-number sector at the smaller
        # arm, so both arms share the larger truncation.  A populated sector cut
        # there leaves p_n normalized but wrong, so p_n must carry the moment g2.
        exact = psi_a.dim + psi_b.dim - 1  # holds every sector the arms populate
        # A dim fock.truncated picks holds its arm, not the longer tail two arms sum
        # to, so such an arm is rebuilt at the exact truncation and the other padded.
        picked = [args.dim is None and spec.get("dim") is None and spec["kind"] not in
                  ("fock", "vacuum_two_photon") for spec in specs]
        dim = min(exact, MAX_DIM) if any(picked) else max(psi_a.dim, psi_b.dim)
        psi_a, psi_b = (build_state(spec, dim) if pick else psi.padded(dim)
                        for spec, pick, psi in zip(specs, picked, (psi_a, psi_b)))
        g2, n_mean = beamsplitter.output_moments(psi_a, psi_b, params)
        joint = beamsplitter.mix(psi_a, psi_b, params)
        p_n = (np.abs(joint.as_matrix()) ** 2).sum(axis=1)
        p_n /= p_n.sum()
        g2_p = beamsplitter._weighted_g2(p_n)[0]
        if not abs(g2_p - g2) <= 1e-9 * abs(g2):
            raise TruncationError(f"p_n at dim={dim} gives g2 {g2_p:.6g}, not {g2:.6g}",
                                  recommended_dim=exact)
    report = {
        "g2": float(g2),
        "n_mean": float(n_mean),
        "p_n": [float(p) for p in p_n],
    }
    print(json.dumps(report, indent=2 if args.pretty else None))
    return 0


def _dim_override_kwargs(builder, dim: int | None) -> dict:
    if dim is None:
        return {}
    sig = inspect.signature(builder)
    for name in ("dim", "dim_a", "dim_single"):
        if name in sig.parameters:
            return {name: dim}
    return {}


def _cmd_figure(args) -> int:
    if args.name not in figures.FIGURES:
        raise ConfigError(f"unknown figure {args.name!r}; known: {sorted(figures.FIGURES)}")
    builder = figures.FIGURES[args.name]
    params = inspect.signature(builder).parameters
    overrides = {}
    if args.config is not None:
        overrides = _load_config(args.config)
        _check_keys(overrides, (), params, f"{args.name} config")
        for key, value in overrides.items():
            default = params[key].default
            if not _matches(value, default):
                raise ConfigError(f"{key!r} in {args.name} config must have the type of "
                                  f"its default {default!r}, got {value!r}")
            if type(default) is float:
                overrides[key] = _as_float(value, key)
            if key.startswith("dim") and value is not None:
                dims = value if isinstance(value, list) else [value]
                for dim in dims:
                    _check_dim(dim, repr(key))
                if len(dims) > 1:  # fig7's dims_coupled
                    _check_dim(math.prod(dims), f"the joint space of {key!r}")
    overrides.update(_dim_override_kwargs(builder, args.dim))
    kwargs = {name: p.default for name, p in params.items()} | overrides
    if kwargs.get("dim_b", 0) is None:  # fig6's coherent arm picks a truncation per alpha
        alpha = max(abs(kwargs["alpha_lo"]), abs(kwargs["alpha_hi"]))
        _check_dim(fock.truncated(states._coherent_terms, (alpha,)).size,
                   "truncation of fig6's coherent arm")
    result = builder(**overrides)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{result.name}.csv"
        figures.write_csv(csv_path, result.columns, result.rows)
        meta_path = out_dir / f"{result.name}.meta.json"
        meta_path.write_text(json.dumps(result.meta, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    print(f"wrote {csv_path} and {meta_path}")
    return 0


# ----------------------------------------------------------------- selftest

def _selftest_checks(dim_override: int | None):
    rng = np.random.default_rng(7)

    def check_ladder():
        dim = dim_override or 24
        a = fock.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        resid = np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1)))
        return resid < 1e-10, f"commutator residual {resid:.2e}"

    def check_wick(alpha, xi):
        """<a>, <a^dag a> and <a^2> of D(alpha) S(xi)|0> against their Wick closed forms."""
        psi = fock.FockVector(fock.truncated(states._squeezed_terms, (alpha, xi), dim_override))
        dim, a = psi.dim, fock.annihilation(psi.dim)
        r, phase = abs(xi), np.exp(1j * np.angle(xi))
        got = [fock.expectation(psi, op) for op in (a, a.conj().T @ a, a @ a)]
        wick = [alpha, abs(alpha)**2 + np.sinh(r)**2, alpha**2 - phase * np.sinh(r) * np.cosh(r)]
        err = max(abs(g - w) for g, w in zip(got, wick))
        return err < 1e-8, f"Wick moment error {err:.2e} at dim {dim}"

    def check_normalize_idempotent():
        raw = rng.normal(size=12) + 1j * rng.normal(size=12)
        once = fock.FockVector(raw).normalize()
        twice = once.normalize()
        ok = np.array_equal(once.amps, twice.amps)
        return ok, "normalize(normalize(x)) == normalize(x) exactly"

    def check_coeff_vs_operator():
        dim = 8
        a = fock.annihilation(dim)
        worst = 0.0
        for _ in range(20):
            psi = fock.FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalize()
            num = fock.expectation(psi, a.conj().T @ a.conj().T @ a @ a).real
            den = fock.expectation(psi, a.conj().T @ a).real
            worst = max(worst, abs(beamsplitter.g2_from_coeffs(psi) - num / den**2))
        return worst < 1e-12, f"max |coeff - operator| = {worst:.2e}"

    def check_hom():
        dim = 6
        joint = beamsplitter.mix(
            fock.basis(dim, 1), fock.basis(dim, 1), BeamsplitterParams(R=0.5)
        )
        coincidence = abs(joint.amps[1 * dim + 1]) ** 2
        return coincidence < 1e-10, f"|1,1> coincidence {coincidence:.2e}"

    def low_levels(dim, levels, gen=rng):
        """A random state on the lowest levels of a dim-level truncation."""
        amps = np.zeros(dim, dtype=complex)
        amps[:levels] = gen.normal(size=levels) + 1j * gen.normal(size=levels)
        return fock.FockVector(amps).normalize()

    def check_heisenberg():
        gen = np.random.default_rng(1902)  # own draws, so the later checks keep theirs
        resid = beamsplitter._mode_map_residual(
            low_levels(10, 4, gen), low_levels(12, 3, gen), BeamsplitterParams(R=0.37, phi=0.31)
        )
        return resid < 1e-9, f"mode-map residual of mix {resid:.2e}"

    def check_coherent_baseline():
        worst = 0.0
        for _ in range(3):
            r_refl, phi = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.1, 0.6)
            g2, _ = beamsplitter.output_g2(
                states.coherent(alpha, 20),
                states.coherent(alpha * 0.7, 20),
                BeamsplitterParams(R=r_refl, phi=phi),
            )
            worst = max(worst, abs(g2 - 1.0))
        return worst < 1e-8, f"max |g2 - 1| = {worst:.2e}"

    def check_energy_conservation():
        dim = 12
        worst = 0.0
        for _ in range(3):
            psi_a, psi_b = low_levels(dim, 4), low_levels(dim, 4)
            joint = beamsplitter.mix(psi_a, psi_b, BeamsplitterParams(R=0.3, phi=0.7))
            p = np.abs(joint.amps) ** 2
            na = p @ np.repeat(np.arange(dim), dim)
            nb = p @ np.tile(np.arange(dim), dim)
            worst = max(worst, abs(na + nb - psi_a.mean_n() - psi_b.mean_n()))
        return worst < 1e-9, f"max photon-number drift {worst:.2e}"

    def check_two_photon_g2():
        g2 = beamsplitter.g2_from_coeffs(states.vacuum_two_photon(0.5))
        return abs(g2 - 2.0) < 1e-12, f"c2=0.5 gives g2 = {g2:.15f}"

    def check_mix_vs_moments():
        dim = 12
        worst = 0.0
        for _ in range(3):
            psi_a, psi_b = low_levels(dim, 4), low_levels(dim, 4)
            params = BeamsplitterParams(R=0.22, phi=1.3)
            g2_joint, n_joint = beamsplitter.output_g2(psi_a, psi_b, params)
            g2_fast, n_fast = beamsplitter.output_moments(psi_a, psi_b, params)
            worst = max(worst, abs(g2_joint - g2_fast), abs(n_joint - n_fast))
        return worst < 1e-10, f"joint-vs-moment discrepancy {worst:.2e}"

    def check_linear_cavity():
        model = lindblad.build_single_kerr(0.0, 0.1, 0.3, 10)
        rho = lindblad.steady_state(model).mat
        a_mean = np.trace(fock.annihilation(10) @ rho)
        target = -1j * 0.1 / (0.5 + 1j * 0.3)
        err = abs(a_mean - target)
        return err < 1e-8, f"driven-cavity response error {err:.2e}"

    return [
        ("ladder_commutator", check_ladder),
        ("squeezed_vacuum_moments", lambda: check_wick(0.0, 0.5)),
        ("squeezed_coherent_moments", lambda: check_wick(1.0, 0.3j)),
        ("normalize_idempotent", check_normalize_idempotent),
        ("coeff_vs_operator_g2", check_coeff_vs_operator),
        ("hom_coincidence", check_hom),
        ("heisenberg_mode_map", check_heisenberg),
        ("coherent_baseline", check_coherent_baseline),
        ("energy_conservation", check_energy_conservation),
        ("two_photon_g2", check_two_photon_g2),
        ("mix_vs_moments", check_mix_vs_moments),
        ("linear_cavity_response", check_linear_cavity),
    ]


def _cmd_selftest(args) -> int:
    t0 = time.perf_counter()
    failures = 0
    for name, check in _selftest_checks(args.dim):
        try:
            ok, detail = check()
        except (AntibunchError, ValueError) as exc:
            ok, detail = False, str(exc)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    elapsed = time.perf_counter() - t0
    print(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failures, {elapsed:.2f} s)")
    return 0 if failures == 0 else 4


@functools.cache  # one parser per process: rebuilding it was half of a warm g2 request
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antibunch",
        description="Photon-statistics toolbox: g2 of mixed/engineered states, "
        "figure datasets, and a fast invariant selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_g2 = sub.add_parser("g2", help="g2(0) of a state or a beamsplitter-mixed pair")
    p_fig = sub.add_parser("figure", help="write <name>.csv and <name>.meta.json")
    p_fig.add_argument("name", help="one of: " + ", ".join(sorted(figures.FIGURES)))
    p_self = sub.add_parser("selftest", help="fast invariant suite")
    dim_help = {
        p_g2: "truncation of every state in the config, replacing each spec's dim",
        p_fig: "the figure's one truncation parameter: dim (fig2-fig5), dim_a "
        "(fig6's squeezed arm; dim_b is kept) or dim_single (fig7; dims_coupled is kept)",
        p_self: "truncation of the ladder and the two squeezed-state moment checks",
    }
    # Each subcommand takes only the options it reads; argparse refuses the rest.
    for p in (p_g2, p_fig):
        p.add_argument("--config", type=Path, help="JSON config file")
    p_fig.add_argument("--out", type=Path, default=Path("."), help="output directory")
    for p in (p_g2, p_fig, p_self):
        p.add_argument("--dim", type=int, help=dim_help[p])
    p_g2.add_argument("--pretty", action="store_true", help="indent JSON output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"g2": _cmd_g2, "figure": _cmd_figure, "selftest": _cmd_selftest}
    try:
        if args.dim is not None:
            _check_dim(args.dim, "--dim")
        return commands[args.command](args)
    except VacuumOutputError as exc:
        print(f"undefined g2: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        # ConfigError, TruncationError, and every other ValueError the
        # library raises to refuse a value taken from the config or the
        # command line (a negative photon number, a parity of 2, a grid of
        # no points, ...).
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a figure grid too large to allocate
        print(f"config error: {exc or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
