"""One pass of a workload in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It imports the
library and makes one tiny warm-up call, then prints ``ready`` so the parent
can time set-up.  Unless ``--setup-only`` is given it then runs the
workload's job list, timed as a whole and per job (traced with ``--trace 1``),
runs the oracles outside the timed region, and prints one JSON line:
run_s, per-job latencies, peak RSS, oracle problems and output digests,
plus the layer metrics when traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def warm_up() -> None:
    # Pays the first-call costs every user pays once per process: the
    # scipy submodule imports and the first dense and sparse LAPACK calls.
    from antibunch import cli, fock, lindblad  # noqa: F401  (cli imports every layer)
    from antibunch.beamsplitter import BeamsplitterParams, output_g2

    output_g2(fock.basis(4, 1), fock.basis(4, 1), BeamsplitterParams(R=0.5))
    lindblad.steady_state(lindblad.build_single_kerr(0.0, 0.1, 0.3, 8))


def run_pass(workload: str, seed: int, traced: bool, work_dir: Path, trace_path: Path | None):
    import workloads
    from tracing import Tracer

    jobs = workloads.make_jobs(workload, seed)
    runner = workloads.Runner(workload, work_dir)
    runner.prepare(jobs)
    tracer = Tracer() if traced else None
    outputs, latencies = runner.outputs, []
    clock = time.perf_counter
    if tracer:
        tracer.install()
    try:
        t0 = clock()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = i
            start = clock()
            try:
                out = runner.run(i, job)
            except Exception as exc:  # a failing job is counted, the pass goes on
                out = exc
            latencies.append(clock() - start)
            outputs.append(out)
        run_s = clock() - t0
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "run_s": run_s,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": workloads.check(workload, jobs, outputs),
        "digests": [workloads.digest(o) for o in outputs],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(run_s)
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run_pass(args.workload, args.seed, bool(args.trace), args.work_dir, args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
