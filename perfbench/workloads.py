"""The four benchmark workloads and the correctness check of each.

A workload is a fixed job: a list of CLI invocations (``Op``) built from the
workload seed, plus the number of analytic operating points and Monte-Carlo
drops that job asks for.  Each op carries a check that reads the files the
invocation wrote and returns one ``Outcome`` per counted operation (a grid
point, or the whole invocation).

Why these workloads:
  sweep     distinct, well-conditioned (beta, nu) points, so per-point chain and
            analytics work dominates and nothing is repeated.
  optimize  the GA plus compare_schemes: the only job that evaluates the same
            bias vector more than once.
  validate  Monte-Carlo drops dominate; analytics are three points.
  corners   stress configs that reach the scalar slow path of the rate integral,
            a 41x101-state chain, and typed solver failures.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "configs", "baseline.json")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Relative tolerance against the stored reference values.  Loose enough for a
# change of quadrature rule or summation order (about 1e-6 at beta=3), tight
# enough to catch any change of model.
REL_TOL = 1e-5
# |analytic - mc_mean| may be at most this many 95% half-widths.
MC_CI_FACTOR = 3.0
PI_SUM_TOL = 1e-9

SWEEP_BETAS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
SWEEP_NUS = (36.0, 38.0, 40.0, 42.0, 44.0)
VALIDATE_BETAS = (0.0, 1.0, 2.0)
VALIDATE_DROPS = 10_000
OPT_POP, OPT_ITERS, OPT_RUNS = 6, 3, 6
# compare_schemes evaluates the nearest row, every grid beta, the best power law
# and the GA best on top of the GA's own pop * (iters + 1) evaluations.
COMPARE_EXTRA_POINTS = 9 + 3
CORNER_BETAS = (0.0, 1.0, 3.0)
CORNERS = {
    "no_users": {"lambda_u1": 0.0, "lambda_u2": 0.0},
    "t40_n100": {"t_levels": 40, "n_channels": 100},
    "nu_1e6": {"nu": 1e6},
    "overloaded": {"lambda_u1": 500.0},
}

WORKLOADS = ("sweep", "optimize", "validate", "corners")


@dataclass
class OpRun:
    """What one CLI invocation did: exit code, captured stderr, traceback."""

    rc: int | None
    stderr: str
    traceback: str | None = None


@dataclass
class Outcome:
    """Verdict on one counted operation.

    ``ok`` is the correctness check.  ``typed_failure`` marks an operation
    that ended in a labelled numeric failure the check accepts; it still
    counts as failed in ``failed_frac``.
    """

    unit: str
    ok: bool
    reason: str = ""
    typed_failure: bool = False


@dataclass
class Op:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[OpRun], list[Outcome]]


@dataclass
class Job:
    ops: list[Op]
    points: int
    drops: int


def read_rows(path: str) -> list[dict[str, str]]:
    """Rows of a greencell CSV (comment headers skipped) as string dicts."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    fields = lines[0].split(",")
    return [dict(zip(fields, ln.split(","))) for ln in lines[1:] if ln]


@functools.cache
def _reference(section: str) -> dict[str, dict]:
    """Rows of one section of reference.json, keyed like the checked units."""
    with open(REFERENCE) as fh:
        rows = json.load(fh)[section]
    return {_key(r["beta"], r.get("nu")): r for r in rows}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(abs(ref), 1e-300)


def _failed_run(units: list[str], run: OpRun) -> list[Outcome] | None:
    """All units fail when the invocation raised or exited non-zero."""
    if run.traceback is not None:
        last = run.traceback.strip().splitlines()[-1]
        return [Outcome(u, False, f"raised: {last}") for u in units]
    if run.rc != 0:
        text = run.stderr.strip().splitlines()[-1] if run.stderr.strip() else ""
        return [Outcome(u, False, f"exit {run.rc}: {text}") for u in units]
    return None


def _with_manifest(csv_path: str) -> list[str]:
    return [csv_path, csv_path[:-4] + ".manifest.json"]


def _key(beta: float, nu: float | None = None) -> str:
    return f"beta={beta:g}" if nu is None else f"beta={beta:g},nu={nu:g}"


def _sweep_op(seed: int, work: str, betas: tuple[float, ...], nu: float) -> Op:
    out = os.path.join(work, f"sweep_nu{nu:g}.csv")
    units = [_key(b, nu) for b in betas]

    def check(run: OpRun) -> list[Outcome]:
        failed = _failed_run(units, run)
        if failed is not None:
            return failed
        ref = _reference("sweep")
        rows = {_key(float(r["beta"]), float(r["nu"])): r for r in read_rows(out)}
        outcomes = []
        for unit in units:
            row = rows.get(unit)
            if row is None:
                outcomes.append(Outcome(unit, False, "row missing"))
                continue
            if row["converged"] != "true":
                outcomes.append(Outcome(unit, False, "not converged"))
                continue
            bad = [k for k in ("p_succ", "e_tot", "eta_ce")
                   if not _close(float(row[k]), ref[unit][k])]
            outcomes.append(Outcome(unit, not bad, f"differs from reference: {bad}" if bad else ""))
        return outcomes

    argv = ["sweep", BASELINE, "--betas", ",".join(f"{b:g}" for b in betas),
            "--nus", f"{nu:g}", "--seed", str(seed), "--out", out]
    return Op(f"sweep nu={nu:g}", argv, _with_manifest(out), check)


def _sweep_job(seed: int, work: str, tiny: bool) -> Job:
    # One invocation per nu, so the host-speed kernel brackets steps of a
    # fraction of a second (see hostspeed.py); the grid is the same.
    betas = (0.0, 2.0) if tiny else SWEEP_BETAS
    nus = (40.0,) if tiny else SWEEP_NUS
    ops = [_sweep_op(seed, work, betas, nu) for nu in nus]
    return Job(ops, points=len(betas) * len(nus), drops=0)


def _validate_op(seed: int, work: str, beta: float, drops: int) -> Op:
    out = os.path.join(work, f"validate_beta{beta:g}.csv")
    unit = _key(beta)

    def check(run: OpRun) -> list[Outcome]:
        failed = _failed_run([unit], run)
        if failed is not None:
            return failed
        ref = _reference("validate")[unit]["analytic"]
        row = read_rows(out)[0]
        analytic, mc = float(row["analytic"]), float(row["mc_mean"])
        half = float(row["ci_half_width"])
        if float(row["beta"]) != beta:
            return [Outcome(unit, False, f"row for beta {row['beta']}")]
        if not _close(analytic, ref):
            return [Outcome(unit, False, f"analytic {analytic!r} differs from reference {ref!r}")]
        if int(row["n_drops"]) != drops:
            return [Outcome(unit, False, f"n_drops {row['n_drops']} != {drops}")]
        if not abs(analytic - mc) <= MC_CI_FACTOR * half:
            return [Outcome(unit, False, f"|analytic-mc|={abs(analytic - mc):.4g} > {MC_CI_FACTOR:g}*ci={MC_CI_FACTOR * half:.4g}")]
        return [Outcome(unit, True)]

    argv = ["validate", BASELINE, "--betas", f"{beta:g}",
            "--drops", str(drops), "--seed", str(seed), "--out", out]
    return Op(f"validate beta={beta:g}", argv, _with_manifest(out), check)


def _validate_job(seed: int, work: str, tiny: bool) -> Job:
    # One invocation per beta, for the same reason as in _sweep_job.
    drops = 300 if tiny else VALIDATE_DROPS
    ops = [_validate_op(seed, work, b, drops) for b in VALIDATE_BETAS]
    return Job(ops, points=len(ops), drops=drops * len(ops))


def _optimize_check(prefix: str, p_req: float) -> Callable[[OpRun], list[Outcome]]:
    unit = os.path.basename(prefix)

    def check(run: OpRun) -> list[Outcome]:
        failed = _failed_run([unit], run)
        if failed is not None:
            return failed
        best = read_rows(prefix + "_best.csv")[0]
        comparison = read_rows(prefix + "_comparison.csv")
        history = read_rows(prefix + "_history.csv")
        power = [float(r["eta_ce"]) for r in comparison
                 if r["scheme"].startswith("power_law") and r["feasible"] == "true"]
        fitness = [float(r["best_fitness"]) for r in history]
        if best["feasible"] != "true" or not float(best["p_succ"]) > p_req:
            return [Outcome(unit, False, f"GA best infeasible (p_succ={best['p_succ']})")]
        if power and not float(best["eta_ce"]) >= max(power) * (1 - 1e-12):
            return [Outcome(unit, False, f"GA eta_ce {best['eta_ce']} below power law {max(power)!r}")]
        if any(b < a for a, b in zip(fitness, fitness[1:])):
            return [Outcome(unit, False, "best_fitness decreases in history")]
        return [Outcome(unit, True)]

    return check


def _optimize_job(seed: int, work: str, tiny: bool) -> Job:
    # Several small GA runs per job, seeded from the workload seed: the cost
    # of one run depends on which bias vectors its seed draws, and summing six
    # runs keeps that from dominating the run-to-run spread.
    pop, iters, runs = (4, 1, 1) if tiny else (OPT_POP, OPT_ITERS, OPT_RUNS)
    from greencell.config import load_config

    p_req = load_config(BASELINE).p_req
    ops = []
    for k in range(runs):
        ga_seed = seed * runs + k
        prefix = os.path.join(work, f"opt_seed{ga_seed}")
        argv = ["optimize", BASELINE, "--pop", str(pop), "--iters", str(iters),
                "--seed", str(ga_seed), "--out", prefix]
        outputs = [prefix + s for s in ("_best.csv", "_history.csv", "_comparison.csv", "_manifest.json")]
        ops.append(Op(f"optimize --seed {ga_seed}", argv, outputs, _optimize_check(prefix, p_req)))
    return Job(ops, points=runs * (pop * (iters + 1) + COMPARE_EXTRA_POINTS), drops=0)


def _corner_check(out: str, unit: str) -> Callable[[OpRun], list[Outcome]]:
    def check(run: OpRun) -> list[Outcome]:
        if run.traceback is None and run.rc == 3 and "numeric failure:" in run.stderr:
            reason = run.stderr.strip().splitlines()[-1]
            return [Outcome(unit, True, reason, typed_failure=True)]
        failed = _failed_run([unit], run)
        if failed is not None:
            return failed
        row = read_rows(out)[0]
        values = {k: float(v) for k, v in row.items() if v not in ("true", "false")}
        bad = sorted(k for k, v in values.items() if not math.isfinite(v))
        if bad:
            return [Outcome(unit, False, f"non-finite values: {bad[:5]}")]
        pi_sum = sum(v for k, v in values.items() if k.startswith("pi_"))
        if not abs(pi_sum - 1.0) <= PI_SUM_TOL:
            return [Outcome(unit, False, f"pi sums to {pi_sum!r}")]
        return [Outcome(unit, True)]

    return check


def _corners_job(seed: int, work: str, tiny: bool) -> Job:
    with open(BASELINE) as fh:
        base = json.load(fh)
    betas = (1.0,) if tiny else CORNER_BETAS
    ops = []
    for name, override in CORNERS.items():
        cfg_path = os.path.join(work, f"corner_{name}.json")
        with open(cfg_path, "w") as fh:
            json.dump({**base, **override}, fh, indent=2)
        for beta in betas:
            out = os.path.join(work, f"corner_{name}_beta{beta:g}.csv")
            unit = f"{name}:{_key(beta)}"
            argv = ["analyze", cfg_path, "--beta", f"{beta:g}", "--seed", str(seed), "--out", out]
            ops.append(Op(unit, argv, _with_manifest(out), _corner_check(out, unit)))
    return Job(ops, points=len(ops), drops=0)


_BUILDERS = {
    "sweep": _sweep_job,
    "optimize": _optimize_job,
    "validate": _validate_job,
    "corners": _corners_job,
}


def build_job(name: str, seed: int, work: str, tiny: bool = False) -> Job:
    """The fixed job of workload ``name``; writes its stress configs to ``work``."""
    os.makedirs(work, exist_ok=True)
    return _BUILDERS[name](seed, work, tiny)
