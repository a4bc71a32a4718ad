"""greencell benchmark: one workload, end-to-end metrics or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, optimize, validate, corners (see ``workloads.py``).  Each
run measures ``setup_s`` in fresh interpreters, then runs the workload in one
fresh worker process that repeats the workload's fixed job for ``--seconds``.
Times are reported at reference host speed: each timed step is scaled by a
gauge of ``hostspeed.py`` timed right next to it, so the drift of a shared
host cancels (the raw times are in the record and in the traced metrics
``raw.*``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
one traced job and prints the per-layer metrics instead.  Every metric is
printed by name with its unit, followed by the failed operations and the
environment; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record is written
to ``.perfbench-work/results/``.

``attempted`` counts operations (a grid point, or one CLI invocation) and
``failed`` those that failed their correctness check.  A labelled numeric
failure (exit 3) on a corner passes its check but counts in ``failed_frac``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
DECLARED = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 160.0
# Single-threaded everywhere: no process pool in the CLI (the traced run would
# miss the children) and no BLAS/OpenMP threads competing on a small box.
PINNED_ENV = {
    "GREENCELL_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_CODE = (
    "import numpy, greencell.cli\n"
    "from greencell.config import load_config\n"
    f"load_config({workloads.BASELINE!r})\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median time of a fresh interpreter importing and loading the config.

    Returns the median at reference host speed and the raw median.  Each
    set-up is scaled by the interpreter gauge of ``hostspeed`` timed just
    before it.
    """
    hostspeed.measure_import(env, ROOT)  # warm-up
    times, ref_times = [], []
    for _ in range(SETUP_REPEATS):
        gauge = hostspeed.measure_import(env, ROOT)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        times.append(dt)
        ref_times.append(dt * hostspeed.IMPORT_REFERENCE_S / gauge)
    return statistics.median(ref_times), statistics.median(times)


def run_worker(args, env: dict[str, str], work: str, spans_path: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work, "--spans", spans_path]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """Commit from .git when the checkout has one; never looks above the root."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src_dir = os.path.join(SRC, "greencell")
    lines = 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_commit": git_commit(),
        "src_lines": lines,
        "pinned_env": PINNED_ENV,
    }


def summarize(raw: dict, setup: tuple[float, float], trace: int) -> tuple[dict, list[dict]]:
    """Metric values (name -> number) and the failed operations.

    ``setup`` is ``measure_setup``'s pair (reference-speed, raw).
    """
    outcomes = raw["outcomes"]
    failed_ops = [o for o in outcomes if not o["ok"] or o["typed_failure"]]
    failed_frac = len(failed_ops) / len(outcomes)
    setup_s, raw_setup_s = setup
    wall_s = statistics.median(raw["ref_walls"])
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "points_per_s": raw["points"] / wall_s,
            "peak_rss_mb": raw["peak_rss_mb"],
            "completed_frac": 1.0 - failed_frac,
        }
    else:
        metrics = dict(raw["layers"])
        metrics.update({
            "drops_per_s": raw["drops"] / wall_s,
            "failed_frac": failed_frac,
            "process.cpu_s": raw["traced_cpu"],
            "trace.overhead_s": raw["traced_ref_wall"] - wall_s,
            "raw.wall_s": statistics.median(raw["walls"]),
            "raw.setup_s": raw_setup_s,
            "host.kernel_s": statistics.median(raw["kernels"]),
        })
    return metrics, failed_ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (os.path.join(SRC, "greencell", "cli.py"), workloads.BASELINE,
                   workloads.REFERENCE, DECLARED):
        if not os.path.isfile(needed):
            print(f"benchmark: {needed} not found; run from a greencell checkout",
                  file=sys.stderr)
            return 2
    with open(DECLARED) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    env = child_env()
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    stem = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    try:
        setup = measure_setup(env)
        raw = run_worker(args, env, work, stem + "-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, failed_ops = summarize(raw, setup, args.trace)
    outcomes = raw["outcomes"]
    result = {
        "correct": all(o["ok"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o["ok"] for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    prov = provenance()
    reasons: dict[tuple[str, str, bool], int] = {}
    for o in failed_ops:
        key = (o["unit"], o["reason"], o["ok"])
        reasons[key] = reasons.get(key, 0) + 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "walls_s": raw["walls"],
              "ref_walls_s": raw["ref_walls"], "host_kernel_s": raw["kernels"],
              "setup_s": {"reference": setup[0], "raw": setup[1]},
              "failed_operations": [{"unit": u, "reason": r, "check_passed": ok, "count": n}
                                    for (u, r, ok), n in sorted(reasons.items())],
              "result": result}
    record_path = stem + ".json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(raw['walls'])}  points/job {raw['points']}  drops/job {raw['drops']}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    print(f"  as measured, before scaling to reference host speed: wall_s "
          f"{statistics.median(raw['walls']):.6g} s, setup_s {setup[1]:.6g} s; host-speed kernel "
          f"{statistics.median(raw['kernels']):.6g} s (reference {hostspeed.REFERENCE_S:g} s)")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for (unit, reason, ok), n in sorted(reasons.items()):
        kind = "typed failure" if ok else "CHECK FAILED"
        print(f"  {kind} x{n}: {unit}: {reason}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
