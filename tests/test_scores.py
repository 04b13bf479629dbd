"""Non-conformity scores: definitions, identities, distributional law."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, ndtri

from unitcp import (
    BetaParams,
    Dataset,
    ModelFamily,
    Scenario,
    ScenarioConfig,
    ScoreKind,
    beta_quantile,
    expit,
    fit,
    gen_covariates,
    gen_response,
    score,
)
from unitcp.simlab import scenario_mu, scenario_phi

from conftest import make_scenario_data
from test_models import M1, M2, M3, M4, make_model


def test_kind_family_compatibility():
    assert ScoreKind.RAW.valid_for(ModelFamily.TRANSFORM_HOMO)
    assert not ScoreKind.RAW.valid_for(ModelFamily.BETA_MEAN)
    assert not ScoreKind.PEARSON.valid_for(ModelFamily.TRANSFORM_HOMO)
    for fam in (ModelFamily.TRANSFORM_HETERO, ModelFamily.BETA_MEAN, ModelFamily.BETA_MEAN_DISP):
        assert ScoreKind.PEARSON.valid_for(fam)
        assert ScoreKind.QUANTILE.valid_for(fam)
    m = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    with pytest.raises(ValueError):
        score(ScoreKind.RAW, 0.5, m, np.zeros(3))


def test_zero_residual_scores():
    m1 = make_model(M1, 0.3, [0.1, 0.2, -0.1], np.log(0.5))
    x = np.array([1.0, -1.0, 2.0])
    y_hat = float(m1.predict_mean(x))
    assert score(ScoreKind.RAW, y_hat, m1, x) == pytest.approx(0.0, abs=1e-12)

    m2 = make_model(M2, 0.3, [0.1, 0.2, -0.1], -0.2, [0.06, 0.06, 0.06])
    y_hat = float(m2.predict_mean(x))
    assert score(ScoreKind.PEARSON, y_hat, m2, x) == pytest.approx(0.0, abs=1e-12)


def test_quantile_score_zero_at_conditional_median():
    m3 = make_model(M3, 0.4, [0.2, -0.1, 0.3], np.log(8.0))
    x = np.array([0.5, 0.5, -0.5])
    p = BetaParams(float(m3.predict_mean(x)), float(m3.predict_phi(x)))
    median = float(beta_quantile(0.5, p))
    assert score(ScoreKind.QUANTILE, median, m3, x) == pytest.approx(0.0, abs=1e-8)


def test_pearson_formula_case():
    # |y - mu| / sqrt(mu (1-mu) / (1+phi)) at y=0.7, mu=0.5, phi=10
    m3 = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    expected = 0.2 / np.sqrt(0.25 / 11.0)
    got = score(ScoreKind.PEARSON, 0.7, m3, np.zeros(3))
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(1.3266, abs=5e-4)


def test_pearson_equals_quantile_for_hetero_transform():
    rng = np.random.default_rng(17)
    worst = 0.0
    for case in range(100):
        cfg = ScenarioConfig(Scenario.TRANSFORM_HETERO, 120, rng_seed=int(rng.integers(1 << 30)))
        X = gen_covariates(121, rng)
        y = gen_response(cfg, X, rng)
        m = fit(Dataset(y[:-1], X[:-1]), M2)
        s_p = score(ScoreKind.PEARSON, y[-1], m, X[-1])
        s_q = score(ScoreKind.QUANTILE, y[-1], m, X[-1])
        worst = max(worst, abs(s_p - s_q))
    assert worst < 1e-9


def test_hetero_transform_quantile_equals_pearson_in_the_far_tail():
    # Phi(-37.68) is subnormal, where a round trip through the normal CDF
    # loses digits (it gave 37.5194); the quantile score is the Pearson score
    m2 = make_model(M2, 0.0, np.zeros(3), np.log(0.01), np.zeros(3))
    x, y = np.zeros(3), float(expit(0.376771))
    s_p = score(ScoreKind.PEARSON, y, m2, x)
    assert score(ScoreKind.QUANTILE, y, m2, x) == s_p
    assert s_p == pytest.approx(37.6771, rel=1e-9)


def test_scores_nonnegative_and_finite():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN_DISP, 200, seed=21)
    m = fit(data, M4)
    for kind in (ScoreKind.PEARSON, ScoreKind.QUANTILE):
        s = score(kind, data.y, m, data.X)
        assert np.all(s >= 0.0) and np.all(np.isfinite(s))
    with pytest.raises(ValueError):
        score(ScoreKind.PEARSON, 1.0, m, data.X[0])


def test_quantile_score_symmetric_at_half():
    m3 = make_model(M3, 0.0, np.zeros(3), np.log(6.0))  # mu = 0.5, symmetric beta
    x = np.zeros(3)
    for y in (0.12, 0.3, 0.45):
        a = score(ScoreKind.QUANTILE, y, m3, x)
        b = score(ScoreKind.QUANTILE, 1.0 - y, m3, x)
        assert a == pytest.approx(b, abs=1e-10)


def test_quantile_score_sublevel_sets_are_intervals():
    """score(y) falls then rises: every sublevel set is one interval."""
    m4 = make_model(M4, 0.3, [0.2, -0.2, 0.1], 1.85, [0.15, 0.15, 0.15])
    x = np.array([0.4, -0.3, 0.8])
    ys = np.linspace(1e-4, 1 - 1e-4, 2001)
    s = score(ScoreKind.QUANTILE, ys, m4, np.tile(x, (len(ys), 1)))
    k = int(np.argmin(s))
    assert 0 < k < len(ys) - 1
    assert np.all(np.diff(s[: k + 1]) <= 1e-12)
    assert np.all(np.diff(s[k:]) >= -1e-12)
    for q in (0.5, 1.0, 2.0):
        inside = s <= q
        idx = np.flatnonzero(inside)
        assert np.all(np.diff(idx) == 1)  # contiguous block


def test_half_normal_law_at_true_parameters():
    cfg = ScenarioConfig(Scenario.BETA_MEAN, 10000, 10.0, rng_seed=29)
    rng = np.random.default_rng(29)
    X = gen_covariates(10000, rng)
    y = gen_response(cfg, X, rng)
    mu = scenario_mu(cfg, X)
    phi = scenario_phi(cfg, X)
    u = np.clip(betainc(mu * phi, (1.0 - mu) * phi, y), 1e-12, 1 - 1e-12)
    residuals = np.abs(ndtri(u))
    result = stats.kstest(residuals, stats.halfnorm.cdf)
    assert result.pvalue > 0.01
