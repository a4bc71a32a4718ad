#!/usr/bin/env python3
"""Scan the static battery-drain rate and report the resulting landscape.

For each candidate drain this prints the feasibility window of the power-law
exponent, the unconstrained carbon-efficiency peak, and the best-feasible
energy reduction and efficiency gain versus nearest-station association.
Used to pick the calibrated `static_drain_override` shipped in
configs/baseline.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from greencell.config import load_config
from greencell.csvio import write_csv
from greencell.optimizer import Evaluator, power_law_bias

BETAS = [0.5 * k for k in range(9)]


def scan_one(cfg, drain: float) -> dict:
    cfg = dataclasses.replace(cfg, static_drain_override=drain)
    rows = []
    outcomes = Evaluator(cfg).many([power_law_bias(beta, cfg.t_levels) for beta in BETAS])
    for beta, outcome in zip(BETAS, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        metrics, fp = outcome
        rows.append((beta, metrics.p_succ, metrics.e_tot, metrics.eta_ce, fp.converged))
    base = rows[0]
    feasible = [r for r in rows if r[1] > cfg.p_req]
    peak = max(rows, key=lambda r: r[3])
    out = {
        "drain": drain,
        "all_converged": all(r[4] for r in rows),
        "peak_beta": peak[0],
        "feasible_max_beta": feasible[-1][0] if feasible else float("nan"),
        "best_feasible_beta": float("nan"),
        "e_tot_reduction_pct": float("nan"),
        "eta_ce_gain_pct": float("nan"),
    }
    if feasible:
        best = max(feasible, key=lambda r: r[3])
        out["best_feasible_beta"] = best[0]
        out["e_tot_reduction_pct"] = 100.0 * (1.0 - best[2] / base[2])
        out["eta_ce_gain_pct"] = 100.0 * (best[3] / base[3] - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="JSON config file (drain field is overridden)")
    ap.add_argument("--drains", default="19,22,25,28,31",
                    help="comma-separated drain rates to scan")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    drains = [float(tok) for tok in args.drains.split(",") if tok.strip()]
    results = [scan_one(cfg, d) for d in drains]

    fields = list(results[0])
    for row in results:
        print("  ".join(f"{k}={row[k]}" for k in fields))
    if args.out:
        write_csv(args.out, ["# drain calibration scan"], fields, results)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
