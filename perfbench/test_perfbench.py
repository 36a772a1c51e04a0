"""Tests of the benchmark itself: python -m pytest perfbench (from the repo root)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.canonical_bytes(workloads.make_jobs(workload, 7))
    assert first == workloads.canonical_bytes(workloads.make_jobs(workload, 7))
    assert first != workloads.canonical_bytes(workloads.make_jobs(workload, 8))


def test_pair_stream_shape():
    jobs = workloads.make_jobs("pair_queries", 3)
    assert len(jobs) == workloads.PAIR_REQUESTS
    assert 0.4 <= workloads.repeat_share(jobs) <= 0.6
    alphas = [j["config"]["state_b"]["alpha"] for j in jobs]
    assert 0.1 <= min(alphas) and 1.17 < max(alphas) <= 1.21
    # Both arms hold the larger arm's photon number, so the joint path is exact.
    for job in jobs:
        dim_a, dim_b = job["dims"]
        assert workloads.default_dim(job["config"]["state_b"]["alpha"]) == min(dim_a, dim_b)


def test_reported_names_are_valid_and_carry_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == dict(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in {**e2e, **layer}.items():
        assert NAME.match(name) and UNIT.match(unit), name
    assert e2e["setup_s"] == "s"


def test_tail_has_ten_requests_beyond_it():
    lat = [float(i) for i in range(120)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100 * 110 / 120)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.per_request({"latencies": lat, "run_s": 9.0}) == lat
    assert run.per_request({"latencies": [1.0, 2.0], "run_s": 3.5}) == [3.5]


def _snapshot():
    import antibunch  # noqa: F401
    from antibunch import cli, figures  # noqa: F401  (imports every layer)

    out = {}
    for name, mod in tracing._namespaces():
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(name, key, k)] = v
    return out


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    from antibunch import beamsplitter, cli, figures, fock, lindblad, optimize

    before = _snapshot()
    originals = (beamsplitter.output_moments, fock.annihilation, figures.kerr_mix)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # from-imports and registries are wrapped too, not just the defining module
        assert figures.output_moments is not originals[0]
        assert lindblad.annihilation is not originals[1]
        assert optimize.OBJECTIVE_REGISTRY["kerr_mix"] is not originals[2]
        t0 = __import__("time").perf_counter()
        tracer.job = 0
        figures.fig3b(count=2, inner_grid=5)
        tracer.job = 1
        lindblad.static_g2(lindblad.build_single_kerr(0.01, 0.1, 0.0, 8))
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({
            "state_a": {"kind": "coherent", "alpha": 0.2, "dim": 8},
            "state_b": {"kind": "vacuum_two_photon", "c2": 0.3, "dim": 8},
            "beamsplitter": {"R": 0.5}}))
        tracer.job = 2
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        run_s = __import__("time").perf_counter() - t0
    finally:
        tracer.uninstall()
    assert _snapshot() == before

    m = tracer.layer_metrics(run_s)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total + m["trace.unattributed_s"] == pytest.approx(run_s)
    assert m["optimize.sweep.cells"] == 2 * 25 and m["optimize.refine.evals"] > 0
    assert m["lindblad.steady_state.calls"] == 1 and m["lindblad.steady_state.max_unknowns"] == 64
    assert m["beamsplitter.joint.max_dim"] == 64 and m["cli.self_s"] > 0
    assert m["lindblad.tune.evals"] == 0
    assert {rec[5] for rec in tracer.spans} == {0, 1, 2}
    lines = tmp_path / "spans.jsonl"
    tracer.write_jsonl(lines)
    first = json.loads(lines.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "group", "start", "end", "parent", "job"}


def _pair_job_and_output():
    from antibunch.beamsplitter import BeamsplitterParams, output_g2
    from antibunch.cli import build_state

    job = workloads.make_jobs("pair_queries", 5)[0]
    cfg = job["config"]
    psi_a, psi_b = build_state(cfg["state_a"]), build_state(cfg["state_b"])
    g2, n = output_g2(psi_a, psi_b, BeamsplitterParams(**cfg["beamsplitter"]))
    p_n = [1.0 / psi_a.dim] * psi_a.dim
    return job, {"g2": g2, "n_mean": n, "p_n": p_n}


def test_wrong_answers_are_counted_as_failures():
    job, report = _pair_job_and_output()
    good = {"code": 0, "stdout": json.dumps(report)}
    wrong_g2 = {"code": 0, "stdout": json.dumps({**report, "g2": report["g2"] * (1 + 1e-8)})}
    wrong_pn = {"code": 0, "stdout": json.dumps({**report, "p_n": report["p_n"] + [1e-9]})}
    bad_exit = {"code": 3, "stdout": ""}
    outputs = [good, wrong_g2, wrong_pn, bad_exit, ValueError("boom")]
    problems = workloads.check("pair_queries", [job] * 5, outputs)
    assert [bool(p) for p in problems] == [False, True, True, True, True]

    passes = [{"problems": problems, "digests": ["a", "b", "c", "d", "e"]},
              {"problems": [[]] * 5, "digests": ["a", "b", "c", "d", "x"]}]
    attempted, failed = run.tally(passes)
    assert attempted == 10 and sorted(failed) == [1, 2, 3, 4]
    assert "outputs differ between passes" in failed[4]


def test_map_oracle_rejects_a_moved_cell():
    from antibunch import figures

    job = {"figure": "fig2", "kwargs": {"alpha": 0.3}}
    res = figures.fig2(alpha=0.3, grid=4)
    out = {"rows": [list(r) for r in res.rows], "params": res.meta["parameters"]}
    assert workloads.check("interferometric_maps", [job], [out]) == [[]]
    out["rows"][0][2] += 1e-8
    assert len(workloads.check("interferometric_maps", [job], [out])[0]) == 1


def test_cavity_oracle_rejects_broken_curves():
    from antibunch import lindblad

    refine, single_curve, tune, coupled_curve = workloads.make_jobs("cavity", 1)
    refine, single_curve = {**refine, "U": 0.01}, {**single_curve, "U": 0.01}
    x = [0.15660578243198003, 0.00889179533267858, 0.03682703765403113, 0.2802580104847586]
    model = lindblad.build_single_kerr(0.01, x[0], x[1], workloads.SINGLE_DIM)
    g2 = lindblad.g2_tau(model, {"beta": complex(x[2], x[3])}, np.linspace(*workloads.TAU))
    tuned = {"F": 0.04, "Delta": 0.285, "g2": 2.0}
    flat = {"g2": [1.0] * workloads.TAU[2]}
    jobs = [refine, single_curve, tune, coupled_curve]
    outputs = [{"x": x}, {"g2": g2.g2_values.tolist()}, tuned, flat]
    problems = workloads.check("cavity", jobs, outputs)
    assert problems[:2] == [[], []]
    assert problems[2] and len(problems[3]) >= 2  # g2(0) >= 1; no crossings, wrong tau = 0

    ringing = list(g2.g2_values)
    ringing[100] = 1.01
    outputs[1] = {"g2": ringing}
    assert workloads.check("cavity", jobs, outputs)[1]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
