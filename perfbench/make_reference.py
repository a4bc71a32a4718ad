"""Regenerate ``reference.json``, the values the sweep and validate checks compare to.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the model's numbers, and say so
in CHANGES.md; the checks exist to catch any other change of output.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import PINNED_ENV, SRC, WORK  # noqa: E402
from worker import run_op  # noqa: E402

# Columns kept per workload; validate's analytic value does not depend on the
# number of drops, so its tiny size is enough.
SECTIONS = {
    "sweep": (False, ("beta", "nu", "p_succ", "e_tot", "eta_ce")),
    "validate": (True, ("beta", "analytic")),
}


def main() -> int:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        for name, (tiny, columns) in SECTIONS.items():
            reference[name] = []
            for op in workloads.build_job(name, 0, work, tiny=tiny).ops:
                run = run_op(op.argv)
                if run.rc != 0:
                    raise SystemExit(f"{op.name} failed: {run.stderr}{run.traceback or ''}")
                reference[name] += [{k: float(r[k]) for k in columns}
                                    for r in workloads.read_rows(op.outputs[0])]
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE}: " + ", ".join(f"{len(v)} {k} rows" for k, v in reference.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
