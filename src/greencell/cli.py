"""Command-line front end: analyze | sweep | validate | optimize.

All outputs are CSV (plotting happens elsewhere).  Every file carries
reproducibility headers and a JSON manifest sidecar.  Exit codes: 0 ok,
2 config error, 3 numeric failure, 4 GA found no feasible bias.

Each table is built where its values are computed: the ``optimize`` tables
by :func:`optimizer.compare_schemes`, the others here.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import shlex
import sys
import time

import numpy as np

from . import __version__
from .analytics import BiasVector
from .config import ConfigError, NetworkConfig, _is_real, config_hash, load_config
from .csvio import header_lines, indexed, metric_columns, write_csv, write_manifest
from .numerics import NumericError
from .optimizer import (POWER_GRID_DEFAULT, Evaluator, GaConfig, compare_schemes, evaluate_bias,
                        power_law_bias)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def worker_count() -> int:
    """Workers for parallel sections; GREENCELL_WORKERS caps/overrides."""
    raw = os.environ.get("GREENCELL_WORKERS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"GREENCELL_WORKERS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError("GREENCELL_WORKERS must be at least 1")
    return n


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _load_bias(cfg: NetworkConfig, args) -> BiasVector:
    if (args.beta is None) == (args.bias_file is None):
        raise ConfigError("give exactly one of --beta or --bias-file")
    if args.beta is not None:
        return power_law_bias(args.beta, cfg.t_levels)
    try:
        with open(args.bias_file) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read bias file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bias file is not valid JSON: {exc}")
    if not (isinstance(raw, list) and len(raw) == cfg.t_levels + 1 and all(map(_is_real, raw))):
        raise ConfigError(f"bias file must hold a JSON array of {cfg.t_levels + 1} numbers")
    return BiasVector(tuple(float(v) for v in raw))


def _map(fn, tasks) -> list:
    """``fn`` over ``tasks`` in order, on worker processes when worth it."""
    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def cmd_analyze(args, cfg: NetworkConfig) -> tuple[dict, int]:
    bias = _load_bias(cfg, args)
    metrics, fp = evaluate_bias(cfg, bias)
    row = {
        **indexed("bias", bias.values),
        **metric_columns(metrics, ("p_succ", "area_rate", "p_tot", "p_grid", "e_tot",
                                   "eta_ee", "eta_ce")),
        "converged": fp.converged,
        "iterations": fp.iterations,
        "residual": fp.residual,
        **indexed("pi", fp.level_marginals),
        **indexed("users", fp.users),
        **indexed("p_block", fp.chain_metrics.p_block),
        **indexed("p_occu", fp.chain_metrics.p_occu),
        **indexed("p_succ_tier", metrics.p_succ_tier),
        **indexed("rate_tier", metrics.rate_tier),
    }
    return {args.out: [row]}, EXIT_OK


def _sweep_task(task) -> list[tuple[dict, str | None]]:
    """Sweep rows of the power-law ``betas`` at recharge rate ``nu``, each with
    its solver error or None; the betas are solved together."""
    cfg, betas, nu = task
    cfg = cfg if nu == cfg.nu else dataclasses.replace(cfg, nu=nu)
    biases = [power_law_bias(float(beta), cfg.t_levels) for beta in betas]
    pairs = []
    for beta, outcome in zip(betas, Evaluator(cfg).many(biases)):
        failed = isinstance(outcome, Exception)
        metrics, fp = (None, None) if failed else outcome
        pairs.append(({
            "beta": float(beta),
            "nu": float(cfg.nu),
            **metric_columns(metrics, ("p_succ", "e_tot", "eta_ee", "eta_ce", "p_grid")),
            "converged": not failed and fp.converged,
            "iterations": math.nan if failed else fp.iterations,
            "residual": math.nan if failed else fp.residual,
        }, str(outcome) if failed else None))
    return pairs


def cmd_sweep(args, cfg: NetworkConfig) -> tuple[dict, int]:
    betas = _parse_floats(args.betas, "--betas")
    nus = _parse_floats(args.nus, "--nus") if args.nus else [cfg.nu]

    # One task per contiguous run of betas, at most one run per worker and nu,
    # so each task solves its betas in lockstep.
    runs = min(worker_count(), len(betas))
    chunks = [betas[k * len(betas) // runs:(k + 1) * len(betas) // runs] for k in range(runs)]
    tasks = [(cfg, chunk, nu) for nu in nus for chunk in chunks]
    pairs = [p for chunk in _map(_sweep_task, tasks) for p in chunk]
    pairs.sort(key=lambda p: (p[0]["nu"], p[0]["beta"]))
    for row, error in pairs:
        if error is not None:
            print(f"warning: sweep point beta={row['beta']:g} nu={row['nu']:g} failed: {error}",
                  file=sys.stderr)
    return {args.out: [row for row, _ in pairs]}, EXIT_OK


def estimate_success(*args, **kwargs):
    """:func:`montecarlo.estimate_success`, imported on first use: only ``validate`` samples."""
    from . import montecarlo
    return montecarlo.estimate_success(*args, **kwargs)


def _validate_task(task) -> dict:
    cfg, beta, drops, seed = task
    bias = power_law_bias(beta, cfg.t_levels)
    metrics, fp = evaluate_bias(cfg, bias)
    est = estimate_success(cfg, fp.level_marginals, bias, fp.chain_metrics.p_occu,
                           drops, seed=seed)
    return {
        "beta": beta,
        "analytic": metrics.p_succ,
        "converged": fp.converged,
        "mc_mean": est.mean,
        "ci_half_width": est.half_width_95,
        "omission_bound": est.omission_bound,
        "n_drops": drops,
        "seed": seed,
    }


def cmd_validate(args, cfg: NetworkConfig) -> tuple[dict, int]:
    betas = _parse_floats(args.betas, "--betas")
    if args.drops < 1:
        raise ConfigError("--drops must be at least 1")
    tasks = [(cfg, b, args.drops, args.seed) for b in betas]
    rows = _map(_validate_task, tasks)
    rows.sort(key=lambda r: r["beta"])
    return {args.out: rows}, EXIT_OK


def cmd_optimize(args, cfg: NetworkConfig) -> tuple[dict, int]:
    best, history, comparison = compare_schemes(
        cfg, GaConfig(pop_size=args.pop, max_iters=args.iters, seed=args.seed))
    tables = dict(zip(args.outputs(args.out), (best, history, comparison)))
    if best[0]["feasible"]:
        return tables, EXIT_OK
    print("no feasible bias vector found", file=sys.stderr)
    return tables, EXIT_INFEASIBLE


def _check_writable(path: str) -> None:
    """Raise ConfigError unless a file can be written at ``path``."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def run_command(args, command: str) -> int:
    """Run one subcommand and write its tables with the reproducibility contract.

    The output paths, ``args.outputs(args.out)`` and the manifest at
    ``args.manifest(args.out)``, are checked before anything is computed.
    The handler ``args.handler(args, cfg)`` returns ``(tables, exit_code)``,
    ``tables`` mapping each output CSV path to its rows.  Every CSV gets the
    same ``#`` header lines; the manifest lists the CSVs in the order written.
    A write that still fails (say, the folder went away meanwhile) is a
    config error too.
    """
    t0 = time.time()
    cfg = load_config(args.config)
    for path in [*args.outputs(args.out), args.manifest(args.out)]:
        _check_writable(path)
    print(f"seed: {args.seed}")
    tables, code = args.handler(args, cfg)
    h = config_hash(cfg)
    headers = header_lines(__version__, h, args.seed, command)
    try:
        for path, rows in tables.items():
            write_csv(path, headers, list(rows[0]), rows)
        path = args.manifest(args.out)
        write_manifest(path, {
            "command": command,
            "config_hash": h,
            "seed": args.seed,
            "outputs": [os.path.abspath(p) for p in tables],
            "wall_clock_s": time.time() - t0,
            "tool_version": __version__,
        })
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    for path in tables:
        print(f"wrote {path}")
    return code


def _analyze_args(p: argparse.ArgumentParser, out_arg: argparse.Action) -> None:
    p.add_argument("--beta", type=float, default=None, help="power-law exponent")
    p.add_argument("--bias-file", default=None, help="JSON array of per-level biases")


def _sweep_args(p: argparse.ArgumentParser, out_arg: argparse.Action) -> None:
    p.add_argument("--betas", default=",".join(f"{b:g}" for b in POWER_GRID_DEFAULT))
    p.add_argument("--nus", default="", help="comma list; defaults to the config value")


def _validate_args(p: argparse.ArgumentParser, out_arg: argparse.Action) -> None:
    p.add_argument("--betas", default="0,1,2")
    p.add_argument("--drops", type=int, default=10000)


def _optimize_args(p: argparse.ArgumentParser, out_arg: argparse.Action) -> None:
    out_arg.help = "output file prefix (_best/_history/_comparison CSVs)"
    # The prefix is kept whole, dots included: --out ga.v2 gives ga.v2_manifest.json.
    p.set_defaults(manifest=lambda out: out + "_manifest.json",
                   outputs=lambda out: [out + table for table in ("_best.csv", "_history.csv", "_comparison.csv")])
    p.add_argument("--pop", type=int, default=50)
    p.add_argument("--iters", type=int, default=100)


def build_parser(argv: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser for ``argv`` and the arguments it reads: the parser of the command
    ``argv[0]`` names, alone, for the rest; else the top-level parser, holding only the
    command names and help, for -h, --version or a missing or unknown command (all exit).
    """
    # Each command's help, handler and the function that adds its own flags (and may
    # reword --out); built per call, so the handlers are looked up when main runs.
    commands = {
        "analyze": ("metrics for one bias vector", cmd_analyze, _analyze_args),
        "sweep": ("grid over bias exponents and recharge rates", cmd_sweep, _sweep_args),
        "validate": ("Monte-Carlo check of the coverage analysis", cmd_validate, _validate_args),
        "optimize": ("genetic bias search plus scheme comparison", cmd_optimize, _optimize_args),
    }
    if argv and argv[0] in commands:
        _, handler, add_args = commands[argv[0]]
        parser = argparse.ArgumentParser(prog=f"greencell {argv[0]}")
        # One CSV at --out, with its manifest at <stem>.manifest.json; optimize overrides both.
        parser.set_defaults(handler=handler, outputs=lambda out: [out],
                            manifest=lambda out: os.path.splitext(out)[0] + ".manifest.json")
        parser.add_argument("config", help="JSON config file")
        out_arg = parser.add_argument("--out", required=True, help="output CSV path")
        parser.add_argument("--seed", type=int, default=0)
        add_args(parser, out_arg)
        return parser, argv[1:]
    parser = argparse.ArgumentParser(
        prog="greencell", description="Battery-aware cellular network analysis and bias optimization.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in commands.items():
        sub.add_parser(name, help=help_text)
    return parser, argv


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, rest = build_parser(argv)
    args = parser.parse_args(rest)
    command = shlex.join(["greencell"] + list(argv))
    try:
        return run_command(args, command)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
