"""Span tracing for the benchmark, done from outside the package.

Each traced function is replaced, for the duration of one traced job, by a
wrapper installed at the name its callers look it up under (``fixedpoint``
calls ``qbd.solve_steady_state``, the CLI calls the names it imported, and so
on).  A wrapper records one span per call: name, start, end, parent span,
whether it raised, and an optional probe value read from the arguments or the
result.  Wrappers pass arguments and results through untouched, and
:meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _eval_key(args, kwargs, result):
    """Identity of one operating point: (config, bias vector, solver knobs)."""
    return (repr(args[0]), tuple(args[1].values), tuple(sorted(kwargs.items())))


def _fp_summary(args, kwargs, result):
    return (result.iterations, bool(result.converged))


# (module under greencell, attribute, span name, probe).  The attribute is the
# lookup site a caller uses, so wrapping it catches every call on that path.
TRACE_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "config.load_config", None),
    ("cli", "write_csv", "csvio.write_csv", lambda a, kw, r: os.path.getsize(a[0])),
    ("cli", "evaluate_bias", "optimizer.evaluate_bias", _eval_key),
    ("cli", "compare_schemes", "optimizer.compare_schemes", None),
    ("cli", "estimate_success", "montecarlo.estimate_success", lambda a, kw, r: r.n_samples),
    ("optimizer", "evaluate_bias", "optimizer.evaluate_bias", _eval_key),
    ("optimizer", "ga_optimize", "optimizer.ga_optimize", None),
    ("optimizer", "solve", "fixedpoint.solve", _fp_summary),
    ("optimizer", "compute_metrics", "analytics.compute_metrics", None),
    ("qbd", "build_generator", "qbd.build_generator", None),
    ("qbd", "solve_steady_state", "qbd.solve_steady_state", None),
    ("analytics", "_success_grid", "analytics.success_grid", lambda a, kw, r: _size(a[0])),
    ("analytics", "hyp_one_one_neg", "numerics.hyp_one_one_neg", lambda a, kw, r: _size(a[1])),
    ("analytics", "exp_power_integral_vec", "numerics.exp_power_integral_vec",
     lambda a, kw, r: _size(a[0])),
    ("numerics", "exp_power_integral", "numerics.exp_power_integral", None),
)

# Probes that read the result or the written file; on a raise they record nothing.
_PROBE_NEEDS_SUCCESS = {"montecarlo.estimate_success", "fixedpoint.solve", "csvio.write_csv"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    raised: bool = False
    probe: object = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        for mod_name, attr, span_name, probe in TRACE_POINTS:
            module = importlib.import_module(f"greencell.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, probe))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent index, raised."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.raised]) + "\n")

    def _wrap(self, fn, name, probe):
        spans, stack = self.spans, self._stack
        needs_success = name in _PROBE_NEEDS_SUCCESS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
                if probe is not None and not (needs_success and span.raised):
                    span.probe = probe(args, kwargs, result)

        return traced


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced job, keyed by metric name."""
    groups = _by_name(spans)

    def get(name):
        return groups.get(name, [])

    def calls(name):
        return len(get(name))

    def self_s(name):
        return sum(s.self_s for s in get(name))

    def failed(name):
        return sum(s.raised for s in get(name))

    def probe_sum(name):
        return sum(s.probe for s in get(name) if s.probe is not None)

    m: dict[str, float] = {}
    for name in ("qbd.build_generator", "qbd.solve_steady_state", "fixedpoint.solve",
                 "analytics.compute_metrics", "analytics.success_grid",
                 "numerics.hyp_one_one_neg", "numerics.exp_power_integral",
                 "montecarlo.estimate_success", "optimizer.evaluate_bias",
                 "csvio.write_csv"):
        m[f"{name}.calls"] = calls(name)
    for name in ("qbd.build_generator", "qbd.solve_steady_state", "fixedpoint.solve",
                 "analytics.compute_metrics", "analytics.success_grid",
                 "numerics.hyp_one_one_neg", "numerics.exp_power_integral_vec",
                 "numerics.exp_power_integral", "montecarlo.estimate_success",
                 "optimizer.ga_optimize", "optimizer.compare_schemes",
                 "csvio.write_csv", "config.load_config", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    m["qbd.solve_steady_state.failed"] = failed("qbd.solve_steady_state")
    m["optimizer.evaluate_bias.failed"] = failed("optimizer.evaluate_bias")

    fp = [s.probe for s in get("fixedpoint.solve") if s.probe is not None]
    m["fixedpoint.iterations_mean"] = statistics.fmean(i for i, _ in fp) if fp else 0.0
    m["fixedpoint.nonconverged"] = sum(not c for _, c in fp)
    n_fp = calls("fixedpoint.solve")
    m["fixedpoint.chain_solves_per_point"] = calls("qbd.solve_steady_state") / n_fp if n_fp else 0.0

    n_cm = calls("analytics.compute_metrics")
    m["analytics.taus_per_point"] = probe_sum("analytics.success_grid") / n_cm if n_cm else 0.0
    m["numerics.hyp_one_one_neg.elements"] = probe_sum("numerics.hyp_one_one_neg")
    m["numerics.exp_power_integral_vec.elements"] = probe_sum("numerics.exp_power_integral_vec")

    drops = probe_sum("montecarlo.estimate_success")
    mc_busy = sum(s.duration for s in get("montecarlo.estimate_success"))
    m["montecarlo.drops"] = drops
    m["montecarlo.drops_per_busy_s"] = drops / mc_busy if mc_busy > 0 else 0.0

    evals = get("optimizer.evaluate_bias")
    lat_ms = sorted(1e3 * s.duration for s in evals)
    m["optimizer.evaluate_bias.p50_ms"] = _percentile(lat_ms, 0.5)
    m["optimizer.evaluate_bias.p90_ms"] = _percentile(lat_ms, 0.9)
    keys = {s.probe for s in evals}
    m["optimizer.evaluate_bias.distinct_frac"] = len(keys) / len(evals) if evals else 0.0

    m["csvio.write_csv.bytes"] = probe_sum("csvio.write_csv")
    return m


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
