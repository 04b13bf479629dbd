"""Scenario generators, coverage harness, bootstrap baseline."""

import numpy as np
import pytest

from unitcp import (
    Dataset,
    FullConfig,
    Method,
    PredictionInterval,
    Scenario,
    ScenarioConfig,
    ScoreKind,
    SplitConfig,
    bootstrap_interval,
    expit,
    gen_covariates,
    gen_response,
    run_coverage,
    union_intersection,
)
from unitcp import simlab
from unitcp.simlab import (
    MEAN_COEF_CONSERVATIVE,
    MEAN_COEF_STANDARD,
    scenario_phi,
)

from test_models import M1, M2, M3, M4


# ---------------------------------------------------------------------------
# covariate generation


def test_covariates_match_target_moments():
    X = gen_covariates(100000, seed=1)
    corr = np.corrcoef(X, rowvar=False)
    target = np.full((3, 3), 0.5)
    np.fill_diagonal(target, 1.0)
    assert np.max(np.abs(corr - target)) < 0.01
    assert np.max(np.abs(X.mean(axis=0))) < 0.02
    assert np.max(np.abs(X.std(axis=0) - 1.0)) < 0.02


def test_covariates_deterministic():
    assert np.array_equal(gen_covariates(50, seed=9), gen_covariates(50, seed=9))
    assert not np.array_equal(gen_covariates(50, seed=9), gen_covariates(50, seed=10))


# ---------------------------------------------------------------------------
# scenario configuration


def test_dispersion_pairings_enforced():
    ScenarioConfig(Scenario.TRANSFORM_HOMO, 50, 0.63)
    ScenarioConfig(Scenario.BETA_MEAN, 50, 20.0)
    with pytest.raises(ValueError):
        ScenarioConfig(Scenario.TRANSFORM_HOMO, 50, 0.5)
    with pytest.raises(ValueError):
        ScenarioConfig(Scenario.BETA_MEAN, 50, 3.0)
    assert ScenarioConfig(Scenario.TRANSFORM_HOMO, 50).dispersion_level == 0.63
    assert ScenarioConfig(Scenario.BETA_MEAN, 50).dispersion_level == 10.0
    assert ScenarioConfig(Scenario.TRANSFORM_HETERO, 50).dispersion_level is None


def test_conservative_coefficients_for_wide_settings():
    assert np.array_equal(
        ScenarioConfig(Scenario.TRANSFORM_HOMO, 50, 1.5).mean_coef, MEAN_COEF_CONSERVATIVE
    )
    assert np.array_equal(
        ScenarioConfig(Scenario.TRANSFORM_HOMO, 50, 0.9).mean_coef, MEAN_COEF_STANDARD
    )
    assert np.array_equal(
        ScenarioConfig(Scenario.BETA_MEAN, 50, 2.0).mean_coef, MEAN_COEF_CONSERVATIVE
    )
    assert np.array_equal(
        ScenarioConfig(Scenario.BETA_MEAN_DISP, 50).mean_coef, MEAN_COEF_CONSERVATIVE
    )


# ---------------------------------------------------------------------------
# response generation


def test_beta_mean_matches_expit_intercept():
    cfg = ScenarioConfig(Scenario.BETA_MEAN, 100000, 10.0, rng_seed=3)
    X = np.zeros((100000, 3))
    y = gen_response(cfg, X)
    assert abs(y.mean() - expit(0.5)) < 0.005


@pytest.mark.parametrize("scenario,disp", [
    (Scenario.TRANSFORM_HOMO, 1.5),
    (Scenario.TRANSFORM_HETERO, None),
    (Scenario.BETA_MEAN, 2.0),
    (Scenario.BETA_MEAN_DISP, None),
])
def test_responses_strictly_inside_unit_interval(scenario, disp):
    cfg = ScenarioConfig(scenario, 20000, disp, rng_seed=5)
    X = gen_covariates(20000, seed=5)
    y = gen_response(cfg, X)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_precision_range_under_covariate_dependent_dispersion():
    # log(phi) ~ N(1.85, 0.135): about 99.7% of draws land in [2.1, 19.3]
    cfg = ScenarioConfig(Scenario.BETA_MEAN_DISP, 100000, rng_seed=6)
    X = gen_covariates(100000, seed=6)
    phi = scenario_phi(cfg, X)
    frac_3sigma = np.mean((phi >= 2.1) & (phi <= 19.3))
    assert abs(frac_3sigma - 0.9973) < 0.002
    assert np.mean((phi >= 1.5) & (phi <= 25.0)) > 0.9995


def test_response_determinism():
    cfg = ScenarioConfig(Scenario.BETA_MEAN, 100, 10.0, rng_seed=8)
    X = gen_covariates(100, seed=8)
    assert np.array_equal(gen_response(cfg, X), gen_response(cfg, X))


# ---------------------------------------------------------------------------
# coverage harness


def test_single_replication_coverage_is_binary():
    cfg = ScenarioConfig(Scenario.TRANSFORM_HOMO, 60, 0.63, rng_seed=1)
    rep = run_coverage(cfg, M1, ScoreKind.RAW, Method.SPLIT, 0.1, 1)
    assert rep.coverage in (0.0, 1.0)
    assert rep.replications == 1
    assert rep.cpu_sd == 0.0


def test_diverging_fit_is_redrawn_not_raised():
    """This n=30 replication's training fit has no MLE: its Newton iterates
    drift until the information matrix is numerically singular.  The fit
    must report non-convergence, so the replication is redrawn."""
    cfg = ScenarioConfig(Scenario.TRANSFORM_HETERO, 30, rng_seed=1520845628)
    rep = run_coverage(cfg, M2, ScoreKind.PEARSON, Method.SPLIT, 0.1, 1)
    assert rep.replications == 1
    assert rep.failures_replaced >= 1


def test_coverage_report_reproducible():
    cfg = ScenarioConfig(Scenario.BETA_MEAN, 80, 10.0, rng_seed=21)
    a = run_coverage(cfg, M3, ScoreKind.QUANTILE, Method.SPLIT, 0.1, 40)
    b = run_coverage(cfg, M3, ScoreKind.QUANTILE, Method.SPLIT, 0.1, 40)
    assert a.coverage == b.coverage
    assert a.avg_width == b.avg_width
    assert a.failures_replaced == b.failures_replaced


def test_split_coverage_near_nominal():
    """Exchangeability sanity: coverage within 3 binomial sd of 90%."""
    R = 1000
    cfg = ScenarioConfig(Scenario.TRANSFORM_HOMO, 100, 0.63, rng_seed=2)
    rep = run_coverage(cfg, M1, ScoreKind.RAW, Method.SPLIT, 0.1, R)
    band = 3.0 * np.sqrt(0.1 * 0.9 / R)
    assert abs(rep.coverage - 0.9) < band + 0.01


@pytest.mark.parametrize("method", [Method.SPLIT, Method.FULL])
def test_run_coverage_builds_default_configs(monkeypatch, method):
    """run_coverage takes no interval settings: every config it passes has
    the defaults, split CP's with its own split seed per replication."""
    seen = []

    def spy(real):
        def wrapped(data, x_new, spec, kind, cfg):
            seen.append(cfg)
            return real(data, x_new, spec, kind, cfg)
        return wrapped

    monkeypatch.setattr(simlab, "split_cp", spy(simlab.split_cp))
    monkeypatch.setattr(simlab, "full_cp", spy(simlab.full_cp))
    cfg = ScenarioConfig(Scenario.TRANSFORM_HOMO, 30, 0.63, rng_seed=4)
    run_coverage(cfg, M1, ScoreKind.RAW, method, 0.2, 3)
    assert len(seen) == 3
    if method is Method.SPLIT:
        assert all(c == SplitConfig(0.2, rng_seed=c.rng_seed) for c in seen)
        assert len({c.rng_seed for c in seen}) == 3
    else:
        assert all(c == FullConfig(0.2) for c in seen)


def test_run_coverage_rejects_bootstrap_method():
    cfg = ScenarioConfig(Scenario.BETA_MEAN, 50, 10.0, rng_seed=1)
    with pytest.raises(ValueError):
        run_coverage(cfg, M3, ScoreKind.QUANTILE, Method.BOOTSTRAP, 0.1, 5)


# ---------------------------------------------------------------------------
# bootstrap baseline


def _bodyfat_like(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, 2))
    lin = -1.3 + 0.3 * X[:, 0] + 0.15 * X[:, 1]
    phi = np.exp(1.7 + 0.1 * X.sum(axis=1))
    mu = expit(lin)
    y = np.clip(rng.beta(mu * phi, (1 - mu) * phi), 1e-12, 1 - 1e-12)
    return Dataset(y, X)


def test_bootstrap_interval_basics():
    data = _bodyfat_like(80, 1)
    x_new = np.array([0.2, -0.4])
    iv = bootstrap_interval(data, x_new, M4, 0.1, 150, seed=4)
    assert iv.method is Method.BOOTSTRAP
    assert 0.0 <= iv.lower < iv.upper <= 1.0
    again = bootstrap_interval(data, x_new, M4, 0.1, 150, seed=4)
    assert (iv.lower, iv.upper) == (again.lower, again.upper)
    with pytest.raises(ValueError):
        bootstrap_interval(data, x_new, M4, 0.1, 50, seed=4)


def test_bootstrap_replicate_count_stability():
    data = _bodyfat_like(100, 2)
    x_new = np.zeros(2)
    small = bootstrap_interval(data, x_new, M4, 0.1, 100, seed=7)
    large = bootstrap_interval(data, x_new, M4, 0.1, 2000, seed=7)
    assert abs(small.lower - large.lower) < 0.05
    assert abs(small.upper - large.upper) < 0.05


def test_bootstrap_coverage_on_synthetic_data():
    """about 200 outer replications, each with its own dataset and test pair."""
    covered = 0
    outer = 200
    for rep in range(outer):
        data = _bodyfat_like(61, 1000 + rep)
        iv = bootstrap_interval(
            Dataset(data.y[:-1], data.X[:-1]), data.X[-1], M4, 0.1, 100, seed=[11, rep]
        )
        covered += iv.contains(data.y[-1])
    assert 0.84 <= covered / outer <= 0.96


# ---------------------------------------------------------------------------
# union / intersection


def _iv(lo, hi, empty=False):
    if empty:
        return PredictionInterval(np.nan, np.nan, 0.9, Method.SPLIT, empty=True)
    return PredictionInterval(lo, hi, 0.9, Method.SPLIT)


def test_union_intersection_single():
    only = _iv(0.2, 0.4)
    union, inter = union_intersection([only])
    assert (union.lower, union.upper) == (0.2, 0.4)
    assert (inter.lower, inter.upper) == (0.2, 0.4)


def test_union_intersection_overlap():
    union, inter = union_intersection([_iv(0.1, 0.5), _iv(0.3, 0.7)])
    assert (union.lower, union.upper) == (0.1, 0.7)
    assert (inter.lower, inter.upper) == (0.3, 0.5)


def test_union_intersection_disjoint():
    union, inter = union_intersection([_iv(0.1, 0.2), _iv(0.5, 0.6)])
    assert (union.lower, union.upper) == (0.1, 0.6)
    assert inter.empty


def test_union_intersection_empty_member():
    union, inter = union_intersection([_iv(0.1, 0.4), _iv(0, 0, empty=True)])
    assert (union.lower, union.upper) == (0.1, 0.4)
    assert inter.empty
    with pytest.raises(ValueError):
        union_intersection([])


def test_run_coverage_workers_match_serial():
    cfg = ScenarioConfig(Scenario.TRANSFORM_HOMO, 60, 0.63, rng_seed=3)
    serial = run_coverage(cfg, M1, ScoreKind.RAW, Method.SPLIT, 0.1, 16, workers=1)
    pooled = run_coverage(cfg, M1, ScoreKind.RAW, Method.SPLIT, 0.1, 16, workers=2)
    assert serial.coverage == pooled.coverage
    assert serial.avg_width == pooled.avg_width
    assert serial.failures_replaced == pooled.failures_replaced
