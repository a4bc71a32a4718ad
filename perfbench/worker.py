"""Run one workload in this fresh process and print its raw numbers as JSON.

Started by ``run.py``; not meant to be run by hand.  The job is repeated in a
closed loop (one client, the next invocation starts when the previous one
returns) until ``--seconds`` have passed.  With ``--trace 1`` one more job runs
afterwards with the span wrappers of ``tracer.py`` installed.

The host-speed kernel of ``hostspeed.py`` runs before a job's first invocation
and after each one, so every invocation's wall time is also known at reference
host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, OpRun, Outcome  # noqa: E402


def run_op(argv: list[str]) -> OpRun:
    """One in-process CLI invocation through ``greencell.cli.main``."""
    from greencell import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            return OpRun(None, err.getvalue(), traceback.format_exc())
    return OpRun(rc, err.getvalue())


def _clear(job: Job) -> None:
    for op in job.ops:
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)


@dataclass
class Timing:
    """Time of one job's CLI invocations; the host-speed kernel runs are not in it."""

    wall: float  # wall seconds
    ref_wall: float  # the same at reference host speed
    cpu: float  # process CPU seconds
    kernel: float  # median host-speed kernel time around the invocations


def run_job(job: Job) -> tuple[Timing, list[OpRun]]:
    """Run the job once; output files are removed beforehand.

    Each invocation is scaled to reference host speed by the mean of the
    host-speed kernel times just before and just after it.
    """
    _clear(job)
    before = hostspeed.measure()
    kernels = [before]
    wall = ref_wall = cpu = 0.0
    runs = []
    for op in job.ops:
        c0, t0 = time.process_time(), time.perf_counter()
        runs.append(run_op(op.argv))
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        after = hostspeed.measure()
        kernels.append(after)
        wall += dt
        ref_wall += dt * hostspeed.scale((before + after) / 2)
        cpu += dc
        before = after
    return Timing(wall, ref_wall, cpu, statistics.median(kernels)), runs


def check_job(job: Job, runs: list[OpRun]) -> list[Outcome]:
    outcomes = []
    for op, run in zip(job.ops, runs):
        try:
            outcomes.extend(op.check(run))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcomes.append(Outcome(op.name, False, f"unreadable output: {exc!r}"))
    return outcomes


def measure(job: Job, seconds: float) -> tuple[list[Timing], list[Outcome]]:
    """Closed loop: repeat the job until ``seconds`` have passed (at least once)."""
    timings, outcomes = [], []
    start = time.perf_counter()
    while True:
        timing, runs = run_job(job)
        timings.append(timing)
        outcomes.extend(check_job(job, runs))
        if time.perf_counter() - start >= seconds:
            return timings, outcomes


def traced_job(job: Job, spans_path: str) -> tuple[Timing, list[Outcome], dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        timing, runs = run_job(job)
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    return timing, check_job(job, runs), layer_metrics(tracer.spans)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="JSON-lines file for the traced job's spans")
    args = ap.parse_args()

    job = workloads.build_job(args.workload, args.seed, args.work)
    # Warm-up outside the timed loop: one baseline point fills numpy's and
    # LAPACK's lazy state, which every user pays once per process (setup_s).
    run_op(["analyze", workloads.BASELINE, "--beta", "0",
            "--out", os.path.join(args.work, "warmup.csv")])
    hostspeed.measure()

    timings, outcomes = measure(job, args.seconds)
    result = {"walls": [t.wall for t in timings], "ref_walls": [t.ref_wall for t in timings],
              "kernels": [t.kernel for t in timings], "points": job.points, "drops": job.drops}
    if args.trace:
        timing, traced_outcomes, layers = traced_job(job, args.spans)
        outcomes.extend(traced_outcomes)
        result.update(traced_ref_wall=timing.ref_wall, traced_cpu=timing.cpu, layers=layers)
    result["outcomes"] = [o.__dict__ for o in outcomes]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
