"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs a tiny size of all four workloads, untraced and traced, and requires
   every correctness check to pass and the traced outputs to equal the
   untraced ones (the wrappers change no argument or result).
2. Perturbs each workload's output files and requires its check to fail.
3. Requires every module attribute the tracer patched to be the original
   object again afterwards, also when the traced code raised.
4. Requires the traced run to report every metric BENCHMARK.json names.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PINNED_ENV, ROOT, SRC, WORK, summarize  # noqa: E402

os.environ.update(PINNED_ENV)
sys.path.insert(0, SRC)

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import check_job, run_job  # noqa: E402
from workloads import OpRun  # noqa: E402

FAILURES: list[str] = []
PASSED = 0


def expect(cond: bool, what: str) -> None:
    global PASSED
    if cond:
        PASSED += 1
    else:
        FAILURES.append(what)
        print(f"FAIL: {what}")


def data_lines(path: str) -> list[str]:
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def csv_outputs(job) -> dict[str, list[str]]:
    return {p: data_lines(p) for op in job.ops for p in op.outputs
            if p.endswith(".csv") and os.path.exists(p)}


def edit_csv(path: str, row: int, column: str, new) -> None:
    """Replace one cell of a greencell CSV; ``new`` maps the old text to the new."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    fields = lines[first].split(",")
    cells = lines[first + 1 + row].split(",")
    col = fields.index(column)
    cells[col] = new(cells[col])
    lines[first + 1 + row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def scale(factor: float):
    return lambda text: repr(float(text) * factor)


def caught(job, op_index: int, run: OpRun, path: str, row: int, column: str, new) -> bool:
    """Does the op's check fail once one cell of ``path`` is perturbed?"""
    backup = path + ".bak"
    shutil.copyfile(path, backup)
    try:
        edit_csv(path, row, column, new)
        return not all(o.ok for o in job.ops[op_index].check(run))
    finally:
        os.replace(backup, path)


def perturbation_checks(name: str, job, runs: list[OpRun]) -> None:
    op = job.ops[0]
    out = op.outputs[0]
    if name == "sweep":
        expect(caught(job, 0, runs[0], out, 0, "p_succ", scale(1 + 1e-3)), "sweep: p_succ off by 1e-3")
        expect(caught(job, 0, runs[0], out, 1, "eta_ce", scale(1 - 1e-4)), "sweep: eta_ce off by 1e-4")
        expect(caught(job, 0, runs[0], out, 0, "converged", lambda _: "false"), "sweep: non-converged row")
    elif name == "validate":
        expect(caught(job, 0, runs[0], out, 0, "analytic", scale(1 + 1e-3)), "validate: analytic off")
        expect(caught(job, 2, runs[2], job.ops[2].outputs[0], 0, "mc_mean",
                      lambda t: repr(float(t) - 0.2)), "validate: mc_mean outside CI bound")
    elif name == "optimize":
        prefix = out[: -len("_best.csv")]
        expect(caught(job, 0, runs[0], out, 0, "feasible", lambda _: "false"), "optimize: infeasible best")
        expect(caught(job, 0, runs[0], out, 0, "eta_ce", scale(0.5)), "optimize: GA below power law")
        expect(caught(job, 0, runs[0], prefix + "_history.csv", 1, "best_fitness", scale(0.5)),
               "optimize: decreasing history")
    elif name == "corners":
        ok_ops = [i for i, r in enumerate(runs) if r.rc == 0]
        expect(bool(ok_ops), "corners: at least one finite tiny corner")
        i = ok_ops[0]
        path = job.ops[i].outputs[0]
        expect(caught(job, i, runs[i], path, 0, "pi_0", lambda t: repr(float(t) + 0.01)),
               "corners: pi not summing to 1")
        expect(caught(job, i, runs[i], path, 0, "eta_ce", lambda _: "nan"), "corners: NaN value")
    # Exit codes and tracebacks that are not labelled numeric failures.
    expect(not all(o.ok for o in op.check(OpRun(2, "config error: x\n"))), f"{name}: exit 2")
    expect(not all(o.ok for o in op.check(OpRun(None, "", "Traceback...\nKeyError: 'x'\n"))),
           f"{name}: traceback")


def restore_checks() -> None:
    originals = {(m, a): getattr(importlib.import_module(f"greencell.{m}"), a)
                 for m, a, _, _ in tracer.TRACE_POINTS}
    t = tracer.Tracer()
    t.install()
    try:
        swapped = all(getattr(importlib.import_module(f"greencell.{m}"), a) is not orig
                      for (m, a), orig in originals.items())
        expect(swapped, "tracer: every trace point is wrapped while installed")
        from greencell import qbd
        qbd.build_generator(qbd.ChainParams(2, 1, 1.0, 1.0, 1.0, 1.0), [1.0, 1.0, 1.0])
    except ValueError:
        pass  # wrong arrival shape: the wrapper must record the raise and re-raise
    finally:
        t.restore()
    expect(any(s.raised for s in t.spans), "tracer: a raising call is recorded as raised")
    restored = all(getattr(importlib.import_module(f"greencell.{m}"), a) is orig
                   for (m, a), orig in originals.items())
    expect(restored, "tracer: every patched attribute is the original afterwards")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        for name in workloads.WORKLOADS:
            job = workloads.build_job(name, seed=1, work=os.path.join(work, name), tiny=True)
            _, runs = run_job(job)
            outcomes = check_job(job, runs)
            expect(all(o.ok for o in outcomes),
                   f"{name}: tiny run passes its checks {[o.reason for o in outcomes if not o.ok]}")
            plain = csv_outputs(job)
            perturbation_checks(name, job, runs)

            t = tracer.Tracer()
            t.install()
            try:
                timing, traced_runs = run_job(job)
            finally:
                t.restore()
            expect(csv_outputs(job) == plain, f"{name}: traced outputs equal untraced outputs")
            expect(timing.wall > 0 and timing.ref_wall > 0 and timing.kernel > 0,
                   f"{name}: job and host-speed kernel times are positive")
            raw = {"walls": [timing.wall], "ref_walls": [timing.ref_wall], "kernels": [timing.kernel],
                   "points": job.points, "drops": job.drops, "peak_rss_mb": 1.0,
                   "outcomes": [o.__dict__ for o in check_job(job, traced_runs)],
                   "traced_ref_wall": timing.ref_wall, "traced_cpu": timing.cpu,
                   "layers": tracer.layer_metrics(t.spans)}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                got = set(summarize(raw, (0.1, 0.1), trace)[0])
                missing = sorted({m["name"] for m in declared[key]} - got)
                expect(not missing, f"{name}: trace {trace} reports every {key} metric, missing {missing}")
        restore_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {PASSED} passed, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
