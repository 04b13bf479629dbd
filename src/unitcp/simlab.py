"""Simulation laboratory: scenario generators and coverage experiments.

Four data-generating scenarios pair with the four model families: logit
normal responses with constant or covariate-dependent error sd, and beta
responses with constant or covariate-dependent precision.  Covariates are
trivariate normal with unit variances and pairwise correlation one half.
``run_coverage`` repeats dataset + test-point generation, builds a
prediction interval per replication, and aggregates empirical coverage,
average width and per-interval CPU time.  A case-resampling percentile
bootstrap serves as the non-conformal baseline.  ``Method`` names the
three ways to build an interval (split or full conformal, bootstrap),
which ``run_coverage`` and the CLI dispatch on; an interval itself does
not record it.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conformal import FullConfig, PredictionInterval, SplitConfig, _check_alpha, full_cp, split_cp
from .models import (
    Dataset,
    FitError,
    FittedModel,
    ModelFamily,
    ModelSpec,
    NonConvergence,
    _checked_row,
    fit,
)
from .numeric import EPS, expit

__all__ = [
    "Method",
    "Scenario",
    "ScenarioConfig",
    "CoverageReport",
    "gen_covariates",
    "gen_response",
    "run_coverage",
    "summarize",
    "bootstrap_interval",
    "union_intersection",
]

N_COVARIATES = 3
COV_CORRELATION = 0.5

MEAN_COEF_STANDARD = np.array([0.5, 0.4, -0.3, 0.3])
MEAN_COEF_CONSERVATIVE = np.array([0.4, 0.25, -0.2, 0.2])
DISP_COEF_TRANSFORM = np.array([-0.2, 0.06, 0.06, 0.06])
DISP_COEF_BETA = np.array([1.85, 0.15, 0.15, 0.15])

SIGMA_LEVELS = (1.5, 0.9, 0.63, 0.45)
PHI_LEVELS = (2.0, 5.0, 10.0, 20.0)

# added to the base seed when a replication's fit fails and the stream is
# replaced; large and odd so replacement streams do not overlap
REPLACEMENT_STEP = 2654435761

_MAX_REPLACEMENTS = 100


class Method(enum.Enum):
    """How an interval is built: split or full conformal, or the bootstrap baseline."""

    SPLIT = "split"
    FULL = "full"
    BOOTSTRAP = "bootstrap"


class Scenario(enum.Enum):
    TRANSFORM_HOMO = "s1"
    TRANSFORM_HETERO = "s2"
    BETA_MEAN = "s3"
    BETA_MEAN_DISP = "s4"

    @property
    def has_dispersion_level(self) -> bool:
        return self in (Scenario.TRANSFORM_HOMO, Scenario.BETA_MEAN)


@dataclass(frozen=True)
class ScenarioConfig:
    """One data-generating setting.

    ``dispersion_level`` is the error sd for the homoscedastic transform
    scenario (1.5, 0.9, 0.63 or 0.45) and the beta precision for the
    constant-precision beta scenario (2, 5, 10 or 20); the two lists are the
    calibrated pairings, matched by position.  The heteroscedastic scenarios
    fix their dispersion coefficients and ignore the field.
    """

    scenario: Scenario
    n: int
    dispersion_level: float | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.scenario is Scenario.TRANSFORM_HOMO:
            level = 0.63 if self.dispersion_level is None else float(self.dispersion_level)
            if level not in SIGMA_LEVELS:
                raise ValueError(f"sigma must be one of {SIGMA_LEVELS}, got {level}")
        elif self.scenario is Scenario.BETA_MEAN:
            level = 10.0 if self.dispersion_level is None else float(self.dispersion_level)
            if level not in PHI_LEVELS:
                raise ValueError(f"phi must be one of {PHI_LEVELS}, got {level}")
        else:
            level = None
        object.__setattr__(self, "dispersion_level", level)

    @property
    def mean_coef(self) -> np.ndarray:
        # the wider-spread settings use the conservative coefficient vector
        if self.scenario is Scenario.TRANSFORM_HOMO:
            return MEAN_COEF_CONSERVATIVE if self.dispersion_level == 1.5 else MEAN_COEF_STANDARD
        if self.scenario is Scenario.BETA_MEAN:
            return MEAN_COEF_CONSERVATIVE if self.dispersion_level == 2.0 else MEAN_COEF_STANDARD
        return MEAN_COEF_CONSERVATIVE


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one coverage experiment.

    ``avg_cpu_seconds`` and ``cpu_sd`` are the mean and standard deviation
    of the process CPU time (``time.process_time``) of one interval,
    measured in the process that computed it; a redrawn replication counts
    only its final attempt.
    """

    coverage: float
    avg_width: float
    replications: int
    avg_cpu_seconds: float
    cpu_sd: float
    failures_replaced: int


def _correlation_cholesky() -> np.ndarray:
    corr = np.full((N_COVARIATES, N_COVARIATES), COV_CORRELATION)
    np.fill_diagonal(corr, 1.0)
    return np.linalg.cholesky(corr)


_CHOL = _correlation_cholesky()


def gen_covariates(n: int, seed) -> np.ndarray:
    """n i.i.d. trivariate normal rows, unit variances, correlation 0.5.

    ``seed`` may be an int or a numpy Generator (consumed in place).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return np.random.default_rng(seed).standard_normal((n, N_COVARIATES)) @ _CHOL.T


def gen_response(cfg: ScenarioConfig, X: np.ndarray, rng=None) -> np.ndarray:
    """Responses for the scenario at the given covariates, strictly in (0,1).

    Without an explicit generator a fresh stream is derived from
    ``cfg.rng_seed``, distinct from the one :func:`gen_covariates` uses for
    the same seed.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_COVARIATES:
        raise ValueError(f"X must have {N_COVARIATES} columns")
    rng = np.random.default_rng([cfg.rng_seed, 1] if rng is None else rng)
    sc = cfg.scenario
    if sc is Scenario.TRANSFORM_HOMO or sc is Scenario.TRANSFORM_HETERO:
        coef = cfg.mean_coef
        lin = coef[0] + X @ coef[1:]
        if sc is Scenario.TRANSFORM_HOMO:
            sd = cfg.dispersion_level
        else:
            sd = np.exp(DISP_COEF_TRANSFORM[0] + X @ DISP_COEF_TRANSFORM[1:])
        y = expit(lin + rng.normal(0.0, sd, len(X)))
    else:
        mu, phi = scenario_mu(cfg, X), scenario_phi(cfg, X)
        y = rng.beta(mu * phi, (1.0 - mu) * phi)
        bad = (y <= 0.0) | (y >= 1.0)
        while np.any(bad):  # resample boundary draws
            y[bad] = rng.beta(mu[bad] * phi[bad], (1.0 - mu[bad]) * phi[bad])
            bad = (y <= 0.0) | (y >= 1.0)
    return np.clip(y, EPS, 1.0 - EPS)


def scenario_phi(cfg: ScenarioConfig, X: np.ndarray) -> np.ndarray:
    """True beta precision at each covariate row (beta scenarios only)."""
    if cfg.scenario is Scenario.BETA_MEAN:
        return np.full(len(X), cfg.dispersion_level)
    if cfg.scenario is Scenario.BETA_MEAN_DISP:
        return np.exp(DISP_COEF_BETA[0] + np.asarray(X) @ DISP_COEF_BETA[1:])
    raise ValueError("not a beta scenario")


def scenario_mu(cfg: ScenarioConfig, X: np.ndarray) -> np.ndarray:
    """True conditional mean at each covariate row (beta scenarios only)."""
    if cfg.scenario not in (Scenario.BETA_MEAN, Scenario.BETA_MEAN_DISP):
        raise ValueError("not a beta scenario")
    coef = cfg.mean_coef
    return expit(coef[0] + np.asarray(X) @ coef[1:])


# ---------------------------------------------------------------------------
# coverage experiments


def _coverage_rep(task) -> tuple[bool, float, float, int]:
    cfg, spec, kind, method, alpha, rep = task
    failures = 0
    for attempt in range(_MAX_REPLACEMENTS):
        seed = cfg.rng_seed + attempt * REPLACEMENT_STEP
        rng = np.random.default_rng([seed, rep])
        X = gen_covariates(cfg.n + 1, rng)
        y = gen_response(cfg, X, rng)
        data = Dataset(y[:-1], X[:-1])
        x_new, y_new = X[-1], y[-1]
        split_seed = int(rng.integers(0, 2**63 - 1))
        start = time.process_time()
        try:
            if method is Method.SPLIT:
                interval = split_cp(data, x_new, spec, kind, SplitConfig(alpha, rng_seed=split_seed))
            else:
                interval = full_cp(data, x_new, spec, kind, FullConfig(alpha))
        except FitError:
            failures += 1
            continue
        cpu = time.process_time() - start
        return interval.contains(y_new), interval.width, cpu, failures
    raise FitError(f"replication {rep} failed after {_MAX_REPLACEMENTS} seed replacements")


def run_coverage(
    scenario: ScenarioConfig,
    spec: ModelSpec,
    kind,
    method: Method,
    alpha: float,
    replications: int,
    *,
    workers: int = 1,
) -> CoverageReport:
    """Monte Carlo coverage experiment for one scenario/model/method cell.

    Each replication draws a fresh dataset plus one test pair from its own
    seed-derived stream, so results are reproducible and independent of
    ``workers``.  A replication whose fit fails is rerun from a replaced
    stream and the failure counted.  Intervals are built at the default
    settings: split CP with ``SplitConfig(alpha, rng_seed=...)``, its split
    seed drawn from the replication's stream, and full CP with
    ``FullConfig(alpha)``.  The replications' outcomes are aggregated by
    :func:`summarize`.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    if method is Method.BOOTSTRAP:
        raise ValueError("run_coverage covers the conformal methods only")
    tasks = [(scenario, spec, kind, method, alpha, rep) for rep in range(replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return summarize(list(pool.map(_coverage_rep, tasks, chunksize=8)))
    return summarize([_coverage_rep(t) for t in tasks])


def summarize(outcomes) -> CoverageReport:
    """Aggregate a non-empty list of ``(covered, width, cpu, failures)``
    interval outcomes, one per replication or test point.

    Coverage is the share covered, ``avg_width`` the mean width,
    ``avg_cpu_seconds`` and ``cpu_sd`` the mean and sample standard
    deviation (ddof=1; 0 for a single outcome) of the CPU seconds, and
    ``failures_replaced`` the sum of the failure counts.
    """
    covered, widths, cpus, failures = zip(*outcomes)
    count = len(outcomes)
    cpus = np.array(cpus)
    return CoverageReport(
        coverage=sum(covered) / count,
        avg_width=float(np.mean(widths)),
        replications=count,
        avg_cpu_seconds=float(cpus.mean()),
        cpu_sd=float(cpus.std(ddof=1)) if count > 1 else 0.0,
        failures_replaced=sum(failures),
    )


# ---------------------------------------------------------------------------
# bootstrap baseline and sensitivity analysis


def _predictive_draw(model: FittedModel, x_new, rng: np.random.Generator) -> float:
    mean, spread = (float(v) for v in model.predict(x_new))
    if model.family.is_beta:
        y = rng.beta(mean * spread, (1.0 - mean) * spread)
    else:
        y = expit(rng.normal(mean, spread))
    return float(np.clip(y, EPS, 1.0 - EPS))


def bootstrap_interval(
    data: Dataset, x_new, spec: ModelSpec, alpha: float, B: int, seed
) -> PredictionInterval:
    """Case-resampling percentile bootstrap for a new response.

    Resamples rows with replacement B times, refits, draws one response
    from each refitted predictive distribution at ``x_new``, and returns
    the central (alpha/2, 1 - alpha/2) percentile interval of the draws.
    A failed refit is retried with a fresh resample up to three times
    before the error propagates.  ``x_new`` is checked, as :func:`full_cp`
    checks it, before the first fit.
    """
    if B < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    x_new = _checked_row(x_new, data.p)
    base = fit(data, spec)
    warm = base.params if base.converged else None
    draws = np.empty(B)
    for b in range(B):
        for attempt in range(4):
            idx = rng.integers(0, data.n, data.n)
            try:
                model = fit(Dataset(data.y[idx], data.X[idx]), spec, init=warm)
                if not model.converged:
                    raise NonConvergence("bootstrap refit did not converge")
            except FitError:
                if attempt == 3:
                    raise
                continue
            break
        draws[b] = _predictive_draw(model, x_new, rng)
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return PredictionInterval(float(lo), float(hi), 1.0 - alpha)


def union_intersection(
    intervals: list[PredictionInterval],
) -> tuple[PredictionInterval, PredictionInterval]:
    """Union and intersection envelopes across a batch of intervals.

    The union spans the full range of the non-empty members; the
    intersection is their common overlap, flagged empty when there is none
    (or when any member is empty).  Both take the first member's level.
    """
    if not intervals:
        raise ValueError("need at least one interval")
    level = intervals[0].level
    alive = [iv for iv in intervals if not iv.empty]

    if alive:
        union = PredictionInterval(min(iv.lower for iv in alive), max(iv.upper for iv in alive), level)
    else:
        union = PredictionInterval(np.nan, np.nan, level, empty=True)

    if len(alive) == len(intervals):
        lo = max(iv.lower for iv in alive)
        hi = min(iv.upper for iv in alive)
        if lo <= hi:
            return union, PredictionInterval(lo, hi, level)
    return union, PredictionInterval(np.nan, np.nan, level, empty=True)
