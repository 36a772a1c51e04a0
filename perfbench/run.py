"""antibunch benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in
its own fresh interpreter (perfbench/worker.py), so caches start cold as they
do for a command-line user.  Passes repeat while another one fits in S
seconds (at least one runs); all passes of a run see the same inputs and must
give bit-identical outputs.

--trace 0 reports the end-to-end metrics (medians over passes, set-up over
at least three fresh interpreters).  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, with
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit and record the environment.  A full record
is written to .perfbench_run/ in the checkout.  The exit code is 0 when every
oracle passed, 1 when one failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_jobs, repeat_share  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("request_p50_s", "s"),
    ("request_tail_s", "s"), ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def per_request(pass_result: dict) -> list[float]:
    """Request latencies of one pass.

    A pass with at least eleven jobs is a stream of requests, one per job.
    A shorter one (a set of figures, a tune-and-plot task) is one request,
    and its latency is the pass's run time.
    """
    lat = pass_result["latencies"]
    return lat if len(lat) >= 11 else [pass_result["run_s"]]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its rank.

    With fewer than eleven samples no percentile has ten samples above it,
    and the median is reported (rank 50).
    """
    xs = sorted(latencies)
    if len(xs) < 11:
        return statistics.median(xs), 50.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # older numpy has no dict mode; record why
        blas = f"unavailable: {exc}"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, commit = git.stdout.split()
        commit = commit if Path(top).resolve() == ROOT else "not a git checkout"
    except (OSError, ValueError, subprocess.TimeoutExpired):
        commit = "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v, "unset") for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": commit,
    }


class Bench:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload, self.seed, self.started = workload, seed, started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, str(HERE), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, traced: bool = False, setup_only: bool = False) -> tuple[float, dict | None]:
        """Start one worker; returns (set-up seconds, pass result or None)."""
        work = OUT_DIR / f"work-{os.getpid()}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(traced)), "--work-dir", str(work)]
        if traced:
            cmd += ["--trace-out", str(OUT_DIR / f"trace-{self.workload}-seed{self.seed}.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{self.workload} pass exceeded the {DEADLINE_S:.0f} s deadline")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"worker exited with code {proc.returncode} before finishing")
        if setup_only:
            return setup_s, None
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def tally(passes: list[dict]) -> tuple[int, dict[int, list[str]]]:
    """(jobs attempted, problems per failed job) over all passes of a run.

    Every job of every pass is one attempt.  A job fails when an oracle
    rejected it in any pass or when its output differs between passes
    (traced and untraced passes included); it then counts once per pass.
    """
    n_jobs = len(passes[0]["digests"])
    problems = {}
    for i in range(n_jobs):
        found = sorted({pr for p in passes for pr in p["problems"][i]})
        if len({p["digests"][i] for p in passes}) > 1:
            found.append("outputs differ between passes")
        if found:
            problems[i] = found
    return n_jobs * len(passes), problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    bench = Bench(workload, seed, started)
    passes, setups, durations = [], [], []
    # Another pass starts only if a pass of average length still ends within
    # `seconds`, so a run lasts about `seconds` unless one pass is longer.
    # A traced run needs an untraced and a traced pass.
    while not passes or (trace and len(passes) < 2) or (
            time.perf_counter() - started + statistics.mean(durations) <= seconds):
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        setup_s, result = bench.spawn(traced=traced)
        durations.append(time.perf_counter() - t0)
        result["traced"] = traced
        passes.append(result)
        setups.append(setup_s)
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(bench.spawn(setup_only=True)[0])

    attempted, problems = tally(passes)

    plain = [p for p in passes if not p["traced"]]
    if trace:
        layered = [p["layers"] for p in passes if p["traced"]]
        metrics = {name: statistics.median(m[name] for m in layered) for name, _ in LAYER_METRICS
                   if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            metrics["trace.run_s"] / statistics.median(p["run_s"] for p in plain) - 1.0)
        units = dict(LAYER_METRICS)
    else:
        requests = [per_request(p) for p in plain]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p["run_s"] for p in plain),
            "request_p50_s": statistics.median(statistics.median(r) for r in requests),
            "request_tail_s": statistics.median(tail(r)[0] for r in requests),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = dict(END_TO_END)
    return {
        "passes": len(passes),
        "jobs_per_pass": len(passes[0]["digests"]),
        "requests_per_pass": len(per_request(passes[0])),
        "tail_percentile": tail(per_request(passes[0]))[1],
        "setup_samples": setups,
        "pass_run_s": [p["run_s"] for p in passes],
        "attempted": attempted,
        "failed": len(problems) * len(passes),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "antibunch" / "__init__.py").is_file():
        print(f"error: no antibunch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    jobs = make_jobs(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **res}
    if args.workload == "pair_queries":
        record["repeat_share"] = repeat_share(jobs)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {res['passes']}  "
          f"jobs/pass {res['jobs_per_pass']}")
    print("environment " + json.dumps(env, sort_keys=True))
    if "repeat_share" in record:
        print(f"repeat_share {record['repeat_share']:.3f} (requests reusing a truncation pair)")
    for name, m in res["metrics"].items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"request_tail_s is p{res['tail_percentile']:.1f} of "
              f"{res['requests_per_pass']} request(s) per pass")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} jobs)")
    for i, probs in res["problems"].items():
        print(f"job {i} FAILED: " + "; ".join(probs), file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
