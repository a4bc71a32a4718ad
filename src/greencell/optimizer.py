"""Bias-vector optimization: power-law profiles, genetic search, scheme comparison.

Every bias vector is solved through one memoizing :class:`Evaluator`, so a
run that meets the same vector again (a power-law profile seeded into the
GA, an unchanged offspring, a comparison row) solves it only once.  A
request for many vectors (the betas of a sweep, a GA generation, the
power-law grid of a comparison) solves its new vectors together, in one
lockstep fixed-point run (:func:`fixedpoint.solve_batch`).

:func:`compare_schemes` returns the rows of the three ``optimize`` tables;
the genetic search builds its history rows itself, one per generation.

The genetic algorithm maximizes carbon efficiency subject to the coverage
floor.  Infeasible individuals carry a large penalty proportional to the
coverage gap, and selection into the next generation ranks feasibility
before fitness outright, so a feasible individual can never be displaced
by an infeasible one regardless of penalty magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import BiasVector, NetworkMetrics, compute_metrics
from .config import NetworkConfig
from .csvio import indexed, metric_columns
from .fixedpoint import FixedPointResult, solve_batch
from .fixedpoint import solve  # noqa: F401  (perfbench/tracer.py wraps optimizer.solve)
from .numerics import NumericError, stream

POWER_GRID_DEFAULT = tuple(0.5 * k for k in range(9))  # 0, 0.5, ..., 4
ETA_CAP = 1e18
PENALTY = 1e8  # fitness cost per unit of coverage gap below the floor
P_MUTATION = 0.2  # chance that a child has one gene redrawn
P_CROSSOVER = 0.7  # chance that a pair of parents splices at one point
B_MIN, B_MAX = 1.0, 64.0  # box of the genes after the pinned first one


def power_law_bias(beta: float, t_levels: int) -> BiasVector:
    """Bias (i+1)**beta for level i; beta=0 recovers nearest-station."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    try:
        return BiasVector(tuple(float(i + 1) ** beta for i in range(t_levels + 1)))
    except OverflowError:
        raise ValueError(f"beta {beta:g} overflows the bias of level {t_levels}") from None


Outcome = tuple[NetworkMetrics, FixedPointResult] | NumericError | FloatingPointError


def evaluate_biases(cfg: NetworkConfig, biases: list[BiasVector]) -> list[Outcome]:
    """Solve the coupled system under each bias, in lockstep, and report
    network metrics; a typed numeric failure is that bias's outcome."""
    outcomes: list[Outcome] = []
    for bias, fp in zip(biases, solve_batch(cfg, biases)):
        if not isinstance(fp, Exception):
            try:
                fp = compute_metrics(cfg, bias, fp.level_marginals, fp.chain_metrics), fp
            except (NumericError, FloatingPointError) as exc:
                fp = exc
        outcomes.append(fp)
    return outcomes


def evaluate_bias(cfg: NetworkConfig, bias: BiasVector) -> tuple[NetworkMetrics, FixedPointResult]:
    """:func:`evaluate_biases` for one bias; a typed failure is raised."""
    (outcome,) = evaluate_biases(cfg, [bias])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Evaluator:
    """Memoized :func:`evaluate_biases` bound to one config.

    Every fixed point is solved to the one stopping rule of
    :mod:`fixedpoint` (``EPS``, ``MAX_CHAIN_SOLVES``), so a bias vector
    alone keys its outcome.

    The first lookup of a bias vector solves it; later lookups return the
    same objects.  :meth:`many` solves all the vectors of one request that
    are not yet known in one call, and a single lookup is a request of one.
    A typed numeric failure is the outcome too: it is returned, not raised,
    and returned again on every later lookup without a second solve.
    """

    def __init__(self, cfg: NetworkConfig) -> None:
        self.cfg = cfg
        self._outcomes: dict[BiasVector, Outcome] = {}

    def __call__(self, bias: BiasVector) -> Outcome:
        return self.many([bias])[0]

    def many(self, biases) -> list[Outcome]:
        misses = list(dict.fromkeys(b for b in biases if b not in self._outcomes))
        if misses:
            # Looked up at call time, so a patched evaluate_biases is used.
            self._outcomes.update(zip(misses, evaluate_biases(self.cfg, misses)))
        return [self._outcomes[b] for b in biases]


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 50
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass
class Individual:
    bias: BiasVector
    fitness: float
    feasible: bool
    metrics: NetworkMetrics | None


@dataclass
class GaResult:
    best: Individual
    history: list[dict]  # one CSV row per generation
    n_evaluations: int


def _feasible(cfg: NetworkConfig, metrics: NetworkMetrics, fp: FixedPointResult) -> bool:
    return fp.converged and metrics.p_succ > cfg.p_req


def _individual(cfg: NetworkConfig, bias: BiasVector, outcome: Outcome) -> Individual:
    if isinstance(outcome, Exception):
        return Individual(bias, -PENALTY, False, None)
    metrics, fp = outcome
    eta = min(metrics.eta_ce, ETA_CAP)
    if _feasible(cfg, metrics, fp):
        return Individual(bias, eta, True, metrics)
    gap = max(cfg.p_req - metrics.p_succ, 0.0)
    if not fp.converged:
        gap = max(gap, 1.0)
    return Individual(bias, eta - PENALTY * gap, False, metrics)


def _evaluate_individuals(evaluator: Evaluator, biases: list[BiasVector]) -> list[Individual]:
    """One ranked individual per bias, the unknown biases solved together."""
    return [_individual(evaluator.cfg, b, o) for b, o in zip(biases, evaluator.many(biases))]


def _seed_population(cfg: NetworkConfig, ga: GaConfig,
                     rng: np.random.Generator) -> list[BiasVector]:
    """Initial population: every in-bounds power-law profile, then log-uniform
    random vectors.  Seeding the grid profiles means the search starts no
    worse than the best power law."""
    t = cfg.t_levels
    genes_low, genes_high = math.log(B_MIN), math.log(B_MAX)
    population: list[BiasVector] = []
    for beta in POWER_GRID_DEFAULT:
        if len(population) >= ga.pop_size:
            break
        candidate = power_law_bias(beta, t)
        if all(B_MIN <= g <= B_MAX for g in candidate.values[1:]):
            population.append(candidate)
    while len(population) < ga.pop_size:
        genes = np.exp(rng.uniform(genes_low, genes_high, size=t))
        population.append(BiasVector((1.0,) + tuple(genes)))
    return population


def _roulette(rng: np.random.Generator, fitness: np.ndarray, n: int) -> np.ndarray:
    if not np.isfinite(fitness).all():
        return rng.integers(0, fitness.size, size=n)
    shifted = fitness - fitness.min() + 1e-12
    return np.searchsorted(np.cumsum(shifted) / shifted.sum(), rng.random(n), side="right").clip(
        0, fitness.size - 1
    )


def _crossover(rng: np.random.Generator, a: BiasVector,
               b: BiasVector) -> tuple[BiasVector, BiasVector]:
    t = len(a) - 1
    if t < 1 or rng.random() >= P_CROSSOVER:
        return a, b
    point = int(rng.integers(1, t + 1))
    genes_a, genes_b = list(a.values), list(b.values)
    child1 = tuple(genes_a[:point] + genes_b[point:])
    child2 = tuple(genes_b[:point] + genes_a[point:])
    return BiasVector(child1), BiasVector(child2)


def _mutate(rng: np.random.Generator, ind: BiasVector) -> BiasVector:
    t = len(ind) - 1
    if t < 1 or rng.random() >= P_MUTATION:
        return ind
    idx = int(rng.integers(1, t + 1))
    genes = list(ind.values)
    genes[idx] = float(np.exp(rng.uniform(math.log(B_MIN), math.log(B_MAX))))
    return BiasVector(tuple(genes))


def _rank_key(ind: Individual) -> tuple:
    return (ind.feasible, ind.fitness)


def ga_optimize(evaluator: Evaluator, ga: GaConfig | None = None) -> GaResult:
    """Genetic search over bias vectors (first gene pinned to 1), solving
    through ``evaluator``.

    Elitist: parents and offspring compete jointly each generation, ranked
    feasibility-first, so the best-so-far fitness trace is nondecreasing.
    Per-generation RNG streams are counter-based, keyed by (seed, generation).
    ``n_evaluations`` counts evaluations requested, repeats included; each
    distinct bias vector is solved once.
    """
    if ga is None:
        ga = GaConfig()
    rng0 = stream(ga.seed, 0)
    population = _evaluate_individuals(evaluator, _seed_population(evaluator.cfg, ga, rng0))
    n_evals = len(population)
    population.sort(key=_rank_key, reverse=True)
    history = [_stats(0, population)]

    for gen in range(1, ga.max_iters + 1):
        rng = stream(ga.seed, gen)
        fitness = np.array([ind.fitness for ind in population])
        parents = _roulette(rng, fitness, ga.pop_size)
        offspring: list[BiasVector] = []
        for k in range(0, ga.pop_size - 1, 2):
            a = population[parents[k]].bias
            b = population[parents[k + 1]].bias
            c1, c2 = _crossover(rng, a, b)
            offspring.append(_mutate(rng, c1))
            offspring.append(_mutate(rng, c2))
        if ga.pop_size % 2:
            lone = population[parents[-1]].bias
            offspring.append(_mutate(rng, lone))
        children = _evaluate_individuals(evaluator, offspring)
        n_evals += len(children)
        pool = population + children
        pool.sort(key=_rank_key, reverse=True)
        population = pool[: ga.pop_size]
        history.append(_stats(gen, population))

    return GaResult(best=population[0], history=history, n_evaluations=n_evals)


def _stats(generation: int, population: list[Individual]) -> dict:
    best = population[0]
    return {
        "generation": generation,
        "best_fitness": best.fitness,
        "mean_fitness": float(np.mean([ind.fitness for ind in population])),
        "best_feasible": best.feasible,
        **indexed("bias", best.bias.values),
    }


def _level_bands(t_levels: int) -> tuple[int, int]:
    """Split levels 0..T into low/mid/high bands (3/4/4 of 11 at T=10)."""
    n = t_levels + 1
    low_end = max(1, round(n * 3 / 11))
    mid_end = max(low_end + 1, round(n * 7 / 11))
    mid_end = min(mid_end, n - 1) if n > 2 else low_end
    return low_end, mid_end


def _band_shares(cfg: NetworkConfig, fp: FixedPointResult | None) -> dict:
    """Columns ``share_low/mid/high``: the users' shares of the level bands."""
    names = ("share_low", "share_mid", "share_high")
    total = 0.0 if fp is None else fp.users.sum()
    if total <= 0:
        return dict.fromkeys(names, math.nan)
    shares = fp.users / total
    low_end, mid_end = _level_bands(cfg.t_levels)
    return dict(zip(names, (float(shares[:low_end].sum()), float(shares[low_end:mid_end].sum()),
                            float(shares[mid_end:].sum()))))


def _scheme_row(cfg: NetworkConfig, name: str, bias: BiasVector, outcome: Outcome,
                base: NetworkMetrics | None) -> dict:
    """One comparison row; the deltas are relative to the metrics ``base``."""
    metrics, fp = (None, None) if isinstance(outcome, Exception) else outcome
    delta_e, delta_eta = math.nan, math.nan
    if base is not None and base.e_tot > 0 and metrics is not None:
        delta_e = 100.0 * (1.0 - metrics.e_tot / base.e_tot)
        if math.isfinite(base.eta_ce) and base.eta_ce > 0 and math.isfinite(metrics.eta_ce):
            delta_eta = 100.0 * (metrics.eta_ce / base.eta_ce - 1.0)
    return {
        "scheme": name,
        "feasible": fp is not None and _feasible(cfg, metrics, fp),
        "converged": fp is not None and fp.converged,
        **metric_columns(metrics, ("p_succ", "e_tot", "eta_ce")),
        **_band_shares(cfg, fp),
        "delta_e_tot_pct": delta_e,
        "delta_eta_ce_pct": delta_eta,
        **indexed("bias", bias.values),
    }


def compare_schemes(cfg: NetworkConfig,
                    ga: GaConfig | None = None) -> tuple[list[dict], list[dict], list[dict]]:
    """Nearest-station baseline vs best feasible power law vs genetic search.

    Returns the rows of the three ``optimize`` tables, in that order: the GA
    best (one row), the GA history (one row per generation) and the
    comparison (``nearest``, ``power_law_beta_<b>``, ``ga``).  A metric of a
    failed solve, and a delta without a usable baseline, is NaN.
    Percentage deltas are relative to the nearest-station row (positive
    delta_e_tot_pct means lower energy draw than the baseline).
    """
    evaluator = Evaluator(cfg)
    flat = power_law_bias(0.0, cfg.t_levels)
    grid = [power_law_bias(beta, cfg.t_levels) for beta in POWER_GRID_DEFAULT]
    nearest, *outcomes = evaluator.many([flat, *grid])

    best_beta, best_eta = 0.0, -math.inf
    for beta, outcome in zip(POWER_GRID_DEFAULT, outcomes):
        feasible = not isinstance(outcome, Exception) and _feasible(cfg, *outcome)
        if feasible and outcome[0].eta_ce > best_eta:
            best_beta, best_eta = beta, outcome[0].eta_ce

    result = ga_optimize(evaluator, ga)
    best = result.best
    best_row = {
        "feasible": best.feasible,
        "fitness": best.fitness,
        **metric_columns(best.metrics, ("p_succ", "e_tot", "eta_ce")),
        "n_evaluations": result.n_evaluations,
        **indexed("bias", best.bias.values),
    }
    base = None if isinstance(nearest, Exception) else nearest[0]
    schemes = (("nearest", flat),
               (f"power_law_beta_{best_beta:g}", power_law_bias(best_beta, cfg.t_levels)),
               ("ga", best.bias))
    comparison = [_scheme_row(cfg, name, bias, evaluator(bias), base) for name, bias in schemes]
    return [best_row], result.history, comparison
