"""Split and full conformal prediction mechanics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from unitcp import (
    BetaParams,
    Dataset,
    FullConfig,
    ModelSpec,
    NonConvergence,
    PredictionInterval,
    Scenario,
    ScoreKind,
    SingularDesign,
    SplitConfig,
    beta_quantile,
    bootstrap_interval,
    conformal_quantile,
    expit,
    full_cp,
    indicator,
    logit,
    norm_cdf,
    score,
    split_cp,
    split_cp_batch,
)
from unitcp import conformal, simlab
from unitcp.cli import ANALYSIS_BATTERY, load_csv
from unitcp.conformal import _first_points, _invert_split, _search, _split_fit
from unitcp.datasets import bodyfat_path
from unitcp.models import MAX_ITER, _Likelihood, fit
from unitcp.scores import beta_sd
from unitcp.simlab import ScenarioConfig, gen_covariates, gen_response

from conftest import make_scenario_data
from test_models import M1, M2, M3, M4, make_model


# ---------------------------------------------------------------------------
# conformal quantile


def test_conformal_quantile_forced_examples():
    assert conformal_quantile(np.arange(1.0, 10.0), 0.1) == 9.0
    assert conformal_quantile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert conformal_quantile([1.0, 2.0], 0.05) == math.inf


def test_conformal_quantile_rank_is_exact():
    # (1 - 0.7) * 10 is 3.0000000000000004 in floating point
    assert conformal_quantile(np.arange(1.0, 10.0), 0.7) == 3.0
    for alpha, k in ((0.18, 123), (0.42, 87), (0.58, 63)):  # ceil((1 - alpha) 150)
        assert conformal_quantile(np.arange(1.0, 150.0), alpha) == k


def test_conformal_quantile_keeps_ties():
    assert conformal_quantile([2.0, 2.0, 2.0, 7.0], 0.5) == 2.0


def test_conformal_quantile_errors():
    with pytest.raises(ValueError):
        conformal_quantile([], 0.1)
    with pytest.raises(ValueError):
        conformal_quantile([1.0], 0.0)


# ---------------------------------------------------------------------------
# split interval inversion


def test_invert_split_m1_example():
    m = make_model(M1, 0.0, np.zeros(3), np.log(0.63))
    iv = _invert_split(m, ScoreKind.RAW, 1.0, np.zeros(3), 0.9)
    assert iv.lower == pytest.approx(expit(-1.0), abs=1e-12)
    assert iv.upper == pytest.approx(expit(1.0), abs=1e-12)
    assert iv.lower == pytest.approx(0.26894, abs=5e-6)
    assert iv.upper == pytest.approx(0.73106, abs=5e-6)


def test_invert_split_m3_quantile_degenerate():
    m = make_model(M3, 0.4, [0.2, -0.1, 0.3], np.log(8.0))
    x = np.array([0.3, -0.2, 0.1])
    iv = _invert_split(m, ScoreKind.QUANTILE, 0.0, x, 0.9)
    median = float(beta_quantile(0.5, BetaParams(float(m.predict(x)[0]), 8.0)))
    assert iv.lower == pytest.approx(median, abs=1e-9)
    assert iv.upper == pytest.approx(median, abs=1e-9)


def test_invert_split_pearson_truncation():
    # mu=0.05, sigma=0.05 needs phi=18; q=2 pushes the lower bound below zero
    m = make_model(M3, float(np.log(0.05 / 0.95)), np.zeros(3), np.log(18.0))
    x = np.zeros(3)
    mu, phi = m.predict(x)
    assert float(mu) == pytest.approx(0.05, abs=1e-12)
    assert float(beta_sd(mu, phi)) == pytest.approx(0.05, abs=1e-12)
    iv = _invert_split(m, ScoreKind.PEARSON, 2.0, x, 0.9)
    assert iv.lower == 0.0
    assert iv.upper == pytest.approx(0.15, abs=1e-12)


def test_invert_split_infinite_quantile_gives_unit_interval():
    m = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    iv = _invert_split(m, ScoreKind.QUANTILE, math.inf, np.zeros(3), 0.95)
    assert (iv.lower, iv.upper) == (0.0, 1.0)


CASES = [
    (M1, Scenario.TRANSFORM_HOMO, 0.63, ScoreKind.RAW),
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.PEARSON),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.PEARSON),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.QUANTILE),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.PEARSON),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.QUANTILE),
]


def bisection_inversion(model, kind, q, x_new, tol=1e-9):
    """Numeric inversion of {y : score(y) <= q}, independent of closed forms."""
    from unitcp import score as score_fn

    def s(y):
        return score_fn(kind, y, model, x_new)

    lo_edge, hi_edge = 1e-12, 1.0 - 1e-12
    ys = np.linspace(lo_edge, hi_edge, 4001)
    vals = np.array([s(y) for y in ys])
    center = ys[int(np.argmin(vals))]

    def edge(a, b, inside_at_b):
        # score <= q at one end of (a, b), > q at the other
        for _ in range(80):
            mid = 0.5 * (a + b)
            if (s(mid) <= q) == inside_at_b:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    lower = lo_edge if s(lo_edge) <= q else edge(lo_edge, center, True)
    upper = hi_edge if s(hi_edge) <= q else edge(hi_edge, center, True)
    return min(lower, upper), max(lower, upper)


@pytest.mark.parametrize("spec,scenario,disp,kind", CASES)
def test_split_matches_bisection_inversion(spec, scenario, disp, kind):
    rng = np.random.default_rng(50)
    for rep in range(10):
        data, x_new, _ = make_scenario_data(scenario, 120, disp, seed=600 + rep)
        cfg = SplitConfig(alpha=float(rng.uniform(0.05, 0.3)), rng_seed=rep)
        iv = split_cp(data, x_new, spec, kind, cfg)
        model, q = _split_fit(data, spec, kind, cfg)
        lo, hi = bisection_inversion(model, kind, q, x_new)
        lo_clip, hi_clip = max(0.0, lo), min(1.0, hi)
        assert abs(iv.lower - lo_clip) < 1e-6
        assert abs(iv.upper - hi_clip) < 1e-6


def test_split_batch_matches_pointwise():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 150, 10.0, seed=31)
    X_new = np.random.default_rng(3).normal(size=(5, 3))
    cfg = SplitConfig(0.1, rng_seed=9)
    batch = split_cp_batch(data, X_new, M3, ScoreKind.QUANTILE, cfg)
    single = [split_cp(data, x, M3, ScoreKind.QUANTILE, cfg) for x in X_new]
    assert [(iv.lower, iv.upper) for iv in batch] == [(iv.lower, iv.upper) for iv in single]


def test_split_width_monotone_in_alpha():
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 300, 10.0, seed=41)
    widths = [
        split_cp(data, x_new, M3, ScoreKind.QUANTILE, SplitConfig(a, rng_seed=4)).width
        for a in (0.05, 0.1, 0.2)
    ]
    assert widths[0] >= widths[1] >= widths[2]


def test_split_quantile_interval_needs_no_truncation():
    for rep in range(5):
        data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 80, 2.0, seed=70 + rep)
        iv = split_cp(data, x_new, M3, ScoreKind.QUANTILE, SplitConfig(0.05, rng_seed=rep))
        assert 0.0 < iv.lower <= iv.upper < 1.0


# ---------------------------------------------------------------------------
# interval container


def test_prediction_interval_validation():
    with pytest.raises(ValueError):
        PredictionInterval(0.4, 0.2, 0.9)
    with pytest.raises(ValueError):
        PredictionInterval(0.1, 0.2, 1.5)
    empty = PredictionInterval(math.nan, math.nan, 0.9, empty=True)
    assert empty.width == 0.0 and not empty.contains(0.5)
    iv = PredictionInterval(0.2, 0.6, 0.9)
    assert iv.contains(0.2) and iv.contains(0.6) and not iv.contains(0.61)


def test_interval_and_full_config_hold_only_settable_fields():
    # the interval records no method, and a fourth positional argument is an error
    assert [f.name for f in dataclasses.fields(PredictionInterval)] == ["lower", "upper", "level", "empty"]
    with pytest.raises(TypeError):
        PredictionInterval(0.1, 0.2, 0.9, "split")
    # the search resolutions are constants, not settings
    assert [f.name for f in dataclasses.fields(FullConfig)] == ["alpha"]
    with pytest.raises(TypeError):
        FullConfig(0.1, tolerance=1e-3)
    assert FullConfig(0.1).tolerance == FullConfig.grid_step == 1e-4


# ---------------------------------------------------------------------------
# full conformal prediction


def test_indicator_deterministic_and_saturating(beta_mean_data):
    data, x_new, _ = beta_mean_data
    first = indicator(0.6, data, x_new, M3, ScoreKind.QUANTILE, 0.1)
    second = indicator(0.6, data, x_new, M3, ScoreKind.QUANTILE, 0.1)
    assert first == second
    tiny_alpha = 1.0 / (2.0 * (data.n + 1))
    assert indicator(0.999, data, x_new, M3, ScoreKind.QUANTILE, tiny_alpha)
    assert indicator(0.001, data, x_new, M3, ScoreKind.QUANTILE, tiny_alpha)


def test_indicator_true_near_center(beta_mean_data):
    data, x_new, _ = beta_mean_data
    base = fit(data, M3)
    center = float(base.predict(x_new)[0])
    assert indicator(center, data, x_new, M3, ScoreKind.QUANTILE, 0.2)


def test_indicator_candidate_domain(beta_mean_data):
    data, x_new, _ = beta_mean_data
    with pytest.raises(ValueError):
        indicator(0.0, data, x_new, M3, ScoreKind.QUANTILE, 0.1)


def test_full_cp_nesting_in_alpha():
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 60, 10.0, seed=34)
    wide = full_cp(data, x_new, M3, ScoreKind.QUANTILE, FullConfig(0.1))
    narrow = full_cp(data, x_new, M3, ScoreKind.QUANTILE, FullConfig(0.2))
    assert wide.lower <= narrow.lower + 1e-4
    assert narrow.upper <= wide.upper + 1e-4


@pytest.mark.parametrize("spec,scenario,disp,kind", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63, ScoreKind.RAW),
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.PEARSON),
])
def test_full_cp_transform_families_run(spec, scenario, disp, kind):
    data, x_new, _ = make_scenario_data(scenario, 60, disp, seed=35)
    iv = full_cp(data, x_new, spec, kind, FullConfig(0.1))
    assert not iv.empty
    assert 0.0 < iv.lower < iv.upper < 1.0


@pytest.mark.parametrize("spec,scenario,disp,kind", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63, ScoreKind.RAW),
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.PEARSON),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.QUANTILE),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.PEARSON),
])
def test_full_cp_is_the_unit_interval_before_any_fit_when_k_exceeds_n(monkeypatch, spec, scenario, disp, kind):
    # with n = 8 and alpha = 0.1, k = ceil(0.9 * 9) = 9 > n: every candidate is in the set
    data, x_new, _ = make_scenario_data(scenario, 8, disp, seed=50)
    calls = []
    real_fit = conformal.fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(conformal, "fit", counting_fit)
    iv = full_cp(data, x_new, spec, kind, FullConfig(0.1))
    assert (iv.lower, iv.upper, iv.level, iv.empty) == (0.0, 1.0, 0.9, False)
    for bad in (x_new[:-1], np.append(x_new[:-1], np.nan)):
        with pytest.raises(ValueError):
            full_cp(data, bad, spec, kind, FullConfig(0.1))
    with pytest.raises(ValueError):
        full_cp(data, x_new, spec, ScoreKind.PEARSON if spec is M1 else ScoreKind.RAW, FullConfig(0.1))
    assert calls == []


@pytest.mark.parametrize("spec,scenario,disp", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63),
    (M2, Scenario.TRANSFORM_HETERO, None),
    (M3, Scenario.BETA_MEAN, 10.0),
    (M4, Scenario.BETA_MEAN_DISP, None),
])
def test_full_cp_checks_its_inputs_before_the_base_fit(monkeypatch, spec, scenario, disp):
    # with n = 40, k <= n: a bad x_new or score kind must fail before any fit,
    # so no base fit is made (and kept on the dataset) for a call that raises
    data, x_new, _ = make_scenario_data(scenario, 40, disp, seed=51)
    calls = []
    real_fit = conformal.fit
    monkeypatch.setattr(conformal, "fit", lambda *a, **k: calls.append(1) or real_fit(*a, **k))
    good, bad = (ScoreKind.RAW, ScoreKind.PEARSON) if spec is M1 else (ScoreKind.PEARSON, ScoreKind.RAW)
    for x, kind in ((x_new[:-1], good), (np.append(x_new[:-1], np.nan), good), (x_new, bad)):
        with pytest.raises(ValueError):
            full_cp(data, x, spec, kind, FullConfig(0.1))
    assert calls == []


@pytest.mark.parametrize(
    "bad", ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [-math.inf, 0.0, 0.0], [0.0, 0.0]),
    ids=("nan", "inf", "-inf", "short"),
)
def test_split_cp_and_the_bootstrap_check_new_rows_before_any_fit(monkeypatch, bad):
    # a non-finite row would give a wrong interval, so it must fail as in full CP
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 60, 10.0, seed=53)
    calls = []
    for module in (conformal, simlab):
        real_fit = module.fit
        monkeypatch.setattr(module, "fit", lambda *a, real_fit=real_fit, **k: calls.append(1) or real_fit(*a, **k))
    cfg = SplitConfig(0.1)
    for spec, kind in ((M1, ScoreKind.RAW), (M3, ScoreKind.PEARSON), (M3, ScoreKind.QUANTILE)):
        with pytest.raises(ValueError):
            split_cp(data, bad, spec, kind, cfg)
        with pytest.raises(ValueError):
            split_cp_batch(data, [np.zeros(len(bad)), bad], spec, kind, cfg)
    with pytest.raises(ValueError):
        bootstrap_interval(data, bad, M3, 0.1, 100, seed=0)
    assert calls == []


def test_full_cp_matches_exhaustive_grid_small():
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 30, 10.0, seed=36)
    iv = full_cp(data, x_new, M3, ScoreKind.QUANTILE, FullConfig(0.1))
    base = fit(data, M3)
    grid = np.arange(0.01, 1.0, 0.01)
    hits = [w for w in grid
            if indicator(w, data, x_new, M3, ScoreKind.QUANTILE, 0.1, init=base.params)]
    assert hits
    assert abs(iv.lower - min(hits)) < 0.01 + 1e-4
    assert abs(iv.upper - max(hits)) < 0.01 + 1e-4


def test_full_cp_deterministic():
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 50, 10.0, seed=37)
    a = full_cp(data, x_new, M3, ScoreKind.PEARSON, FullConfig(0.1))
    b = full_cp(data, x_new, M3, ScoreKind.PEARSON, FullConfig(0.1))
    assert (a.lower, a.upper) == (b.lower, b.upper)


@pytest.mark.parametrize("spec,scenario,disp,kind", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63, ScoreKind.RAW),
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.PEARSON),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.QUANTILE),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.QUANTILE),
])
def test_full_cp_keeps_no_state_between_intervals(spec, scenario, disp, kind):
    # the warm starts of one interval must not leak into the next, and the
    # base fit kept on the dataset must give what a fresh one does
    data, x_new, _ = make_scenario_data(scenario, 60, disp, seed=41)
    other = data.X[0]
    cfg = FullConfig(0.1)
    first = full_cp(data, x_new, spec, kind, cfg)
    full_cp(data, other, spec, kind, cfg)
    again = full_cp(data, x_new, spec, kind, cfg)
    assert (first.lower, first.upper) == (again.lower, again.upper)
    assert spec in data._base_fits
    assert not data.augmented(0.5, x_new)._base_fits
    fresh = full_cp(Dataset(data.y.copy(), data.X.copy()), x_new, spec, kind, cfg)
    assert (fresh.lower, fresh.upper) == (again.lower, again.upper)


# ---------------------------------------------------------------------------
# the full-CP edge search


def exact_m1_raw_hull(data, x_new, alpha):
    """Hull of the exact full conformal set of m1 with the raw score, in logit.

    OLS residuals of the augmented data are affine in the candidate logit t,
    r(t) = a + b t (Vovk, Gammerman & Shafer 2005, sec. 2.3), so point i
    scores at least as high as the candidate exactly where the quadratic
    (a_i + b_i t)^2 - (a_c + b_c t)^2 is non-negative.  Membership can only
    change at the roots of these quadratics: counting at the midpoint of
    every segment between consecutive roots gives the set exactly.
    """
    n = data.n
    Z = np.column_stack([np.ones(n + 1), np.vstack([data.X, x_new])])
    Q, _ = np.linalg.qr(Z)
    z0 = np.append(logit(data.y), 0.0)
    a = z0 - Q @ (Q.T @ z0)
    b = -Q @ Q[-1]
    b[-1] += 1.0
    a_c, b_c, a, b = a[-1], b[-1], a[:-1], b[:-1]
    quad, lin, const = b * b - b_c * b_c, 2.0 * (a * b - a_c * b_c), a * a - a_c * a_c
    roots = np.concatenate([np.roots([qa, qb, qc]) for qa, qb, qc in zip(quad, lin, const)])
    roots = np.unique(roots[np.isreal(roots)].real)
    probes = np.concatenate([[roots[0] - 1.0], 0.5 * (roots[:-1] + roots[1:]), [roots[-1] + 1.0]])
    higher = (a + np.outer(probes, b)) ** 2 >= (a_c + b_c * probes[:, None]) ** 2
    k = math.ceil((1.0 - alpha) * (n + 1))
    inside = higher.sum(axis=1) >= n - k + 1
    assert not inside[0] and not inside[-1], "unbounded conformal set"
    # segment j runs from roots[j - 1] to roots[j]
    first, last = np.flatnonzero(inside)[[0, -1]]
    return roots[first - 1], roots[last]


def test_full_cp_m1_matches_exact_set():
    cfg = FullConfig(0.1)
    slack = cfg.grid_step * (1.0 + 1e-6) + 1e-9
    # at n = 10, seed 1230 the set reaches far past the classical interval
    cases = [(n, 1200 + seed) for n in (30, 100, 1000) for seed in range(20)] + [(10, 1230)]
    for n, seed in cases:
        data, x_new, _ = make_scenario_data(Scenario.TRANSFORM_HOMO, n, 0.63, seed=seed)
        iv = full_cp(data, x_new, M1, ScoreKind.RAW, cfg)
        lo, hi = exact_m1_raw_hull(data, x_new, cfg.alpha)
        assert abs(logit(iv.lower) - lo) <= slack
        assert abs(logit(iv.upper) - hi) <= slack


CERTIFIED_CASES = [
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.PEARSON),
    (M2, Scenario.TRANSFORM_HETERO, None, ScoreKind.QUANTILE),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.PEARSON),
    (M3, Scenario.BETA_MEAN, 10.0, ScoreKind.QUANTILE),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.PEARSON),
    (M4, Scenario.BETA_MEAN_DISP, None, ScoreKind.QUANTILE),
]


@pytest.mark.parametrize("spec,scenario,disp,kind", CERTIFIED_CASES)
def test_full_cp_edges_are_certified(spec, scenario, disp, kind):
    # a cold-start fit includes each endpoint and excludes the point one
    # search tolerance outside it, where that point lies in (0, 1): an
    # included end cell is the endpoint (m4/pearson, seed 1301, 1 - tol/2)
    cfg = FullConfig(0.1)
    cases = [(100, 1300 + seed) for seed in range(3)]
    if spec is M2:
        cases.append((20, 1204))  # a small-n set that reaches far into the lower tail
    for n, seed in cases:
        data, x_new, _ = make_scenario_data(scenario, n, disp, seed=seed)
        iv = full_cp(data, x_new, spec, kind, cfg)
        for end, side in ((iv.lower, -1.0), (iv.upper, 1.0)):
            if spec.family.is_beta:
                out = end + side * cfg.tolerance
            else:
                out = float(expit(logit(end) + side * cfg.grid_step))
            assert indicator(end, data, x_new, spec, kind, cfg.alpha)
            if 0.0 < out < 1.0:
                assert not indicator(out, data, x_new, spec, kind, cfg.alpha)


@pytest.mark.parametrize("rep", [66, 108, 127])
def test_full_cp_retries_a_failed_refit_from_the_base_fit(rep):
    # s4 at n = 20, drawn as run_coverage's first attempt at replication rep:
    # one refit from its warm start does not converge, and its retry from
    # the base fit does; the finite edges are certified by cold fits
    cfg, spec, kind, tol = ScenarioConfig(Scenario.BETA_MEAN_DISP, 20), M4, ScoreKind.QUANTILE, FullConfig.tolerance
    rng = np.random.default_rng([cfg.rng_seed, rep])
    X = gen_covariates(cfg.n + 1, rng)
    y = gen_response(cfg, X, rng)
    data, x_new = Dataset(y[:-1], X[:-1]), X[-1]
    iv = full_cp(data, x_new, spec, kind, FullConfig(0.1))
    assert not iv.empty
    for end, side in ((iv.lower, -1.0), (iv.upper, 1.0)):
        assert indicator(end, data, x_new, spec, kind, 0.1)
        if 0.0 < end + side * tol < 1.0:
            assert not indicator(end + side * tol, data, x_new, spec, kind, 0.1)


def test_full_cp_does_not_retry_a_refit_that_started_from_the_base_fit(monkeypatch):
    # the first batch of refits starts from the base fit, so nothing in it is
    # retried from there: only an end cell is, once cold, and its failure
    # is final
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 40, 10.0, seed=52)
    calls = []

    def failing_margins(ys, ws, kind, alpha, init=None):
        calls.append(init)
        return [conformal._Refit(math.nan, np.asarray(init), MAX_ITER, False) for _ in ys]

    monkeypatch.setattr(conformal, "_margins", failing_margins)
    with pytest.raises(NonConvergence):
        full_cp(data, x_new, M3, ScoreKind.QUANTILE, FullConfig(0.1))
    assert calls[0] is not None and calls[1:] == [None]


@pytest.mark.parametrize("spec,scenario,disp,kind", CERTIFIED_CASES)
def test_refit_warm_started_from_a_neighbour_matches_a_cold_fit(spec, scenario, disp, kind):
    # full_cp starts each refit from the nearest candidate already fitted
    data, x_new, _ = make_scenario_data(scenario, 100, disp, seed=1400)
    candidates = np.linspace(0.02, 0.98, 9)
    prev = fit(data.augmented(candidates[0], x_new), spec)
    ws = _Likelihood(data, spec.family, x_new)
    for y in candidates[1:]:
        aug = data.augmented(y, x_new)
        cold = fit(aug, spec)
        warm = fit(aug, spec, init=prev.params)
        assert warm.converged == cold.converged
        np.testing.assert_allclose(warm.params, cold.params, rtol=0.0, atol=1e-6)
        m_warm = conformal._margin(y, ws, kind, 0.1, prev.params).margin
        m_cold = conformal._margin(y, ws, kind, 0.1).margin
        # both fits stop at the gradient tolerance, some 1e-7 apart in m4's parameters
        assert m_warm == pytest.approx(m_cold, abs=1e-5)
        prev = warm


# ---------------------------------------------------------------------------
# the candidate workspace against a refit of an augmented copy

SCENARIO_OF = {
    M1: (Scenario.TRANSFORM_HOMO, 0.63),
    M2: (Scenario.TRANSFORM_HETERO, None),
    M3: (Scenario.BETA_MEAN, 10.0),
    M4: (Scenario.BETA_MEAN_DISP, None),
}
VALID_PAIRS = [(spec, kind) for spec in SCENARIO_OF for kind in ScoreKind if kind.valid_for(spec.family)]


def reference_margin(y, data, x_new, spec, kind, alpha, init=None):
    """The margin the slow way: copy the data with the candidate appended,
    fit the copy and score every row through the fitted model."""
    aug = data.augmented(y, x_new)
    model = fit(aug, spec, init=init)
    scores = score(kind, aug.y, model, aug.X)
    k = math.ceil((1.0 - alpha) * (data.n + 1))
    return float(scores[-1] - np.partition(scores[:-1], k - 1)[k - 1]), model


@pytest.mark.parametrize("spec,kind", VALID_PAIRS)
def test_workspace_margin_matches_a_refit_of_an_augmented_copy(spec, kind):
    scenario, disp = SCENARIO_OF[spec]
    sim, x_sim, _ = make_scenario_data(scenario, 60, disp, seed=45)
    bodyfat = load_csv(bodyfat_path())
    cases = [(sim, x_sim), (Dataset(bodyfat.y[1:], bodyfat.X[1:]), bodyfat.X[0])]
    for data, x_new in cases:
        base = fit(data, spec)
        ws = _Likelihood(data, spec.family, x_new)
        candidates = np.concatenate([[1e-4], np.quantile(data.y, [0.05, 0.5, 0.95])])
        for y in candidates:
            for init in (None, base.params):
                ref, model = reference_margin(y, data, x_new, spec, kind, 0.1, init)
                if not model.converged:
                    with pytest.raises(NonConvergence):
                        conformal._margin(y, ws, kind, 0.1, init)
                    continue
                refit = conformal._margin(y, ws, kind, 0.1, init)
                assert refit.margin == pytest.approx(ref, abs=1e-10)
                np.testing.assert_allclose(refit.params, model.params, rtol=0.0, atol=1e-10)
                assert refit.iterations == model.iterations
                assert (refit.margin <= 0.0) == indicator(y, data, x_new, spec, kind, 0.1, init=init)


@pytest.mark.parametrize("spec,kind", VALID_PAIRS[::2])
def test_workspace_rejects_what_an_augmented_copy_rejects(spec, kind):
    scenario, disp = SCENARIO_OF[spec]
    data, x_new, _ = make_scenario_data(scenario, 60, disp, seed=46)
    ws = _Likelihood(data, spec.family, x_new)
    for y in (math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            data.augmented(y, x_new)
        with pytest.raises(ValueError):
            conformal._margin(y, ws, kind, 0.1)
        with pytest.raises(ValueError):
            indicator(y, data, x_new, spec, kind, 0.1)
    for bad in ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            data.augmented(0.5, bad)
        with pytest.raises(ValueError):
            indicator(0.5, data, bad, spec, kind, 0.1)
        with pytest.raises(ValueError):
            full_cp(data, bad, spec, kind, FullConfig(0.1))


@pytest.mark.parametrize("spec,kind", VALID_PAIRS[::2])
def test_workspace_detects_a_singular_design(spec, kind):
    # the constant column duplicates the intercept, and the parent was never fitted
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.normal(size=30)])
    parent = Dataset(expit(rng.normal(size=30)), X)
    for init in (None, np.zeros(6 if spec.family.models_dispersion else 4)):
        with pytest.raises(SingularDesign):
            fit(parent.augmented(0.5, [1.0, 0.3]), spec, init=init)
        with pytest.raises(SingularDesign):
            indicator(0.5, parent, [1.0, 0.3], spec, kind, 0.1, init=init)


# ---------------------------------------------------------------------------
# a batch of refits against the same refits one at a time


def _same_refit(batched, alone):
    assert batched.converged == alone.converged
    assert batched.iterations == alone.iterations
    np.testing.assert_allclose(batched.params, alone.params, rtol=0.0, atol=1e-10)
    if alone.converged:
        assert batched.margin == pytest.approx(alone.margin, abs=1e-10)
    else:
        assert math.isnan(batched.margin)


def _alone(y, ws, kind, init):
    """The refit of one candidate through ``_margin``, or its non-converged
    refit when ``_margin`` refuses it."""
    try:
        return conformal._margin(y, ws, kind, 0.1, init)
    except NonConvergence:
        return conformal._margins([y], ws, kind, 0.1, init)[0]


@pytest.mark.parametrize("spec,kind", [(spec, kind) for spec, kind in VALID_PAIRS if spec is not M1])
def test_batched_refits_match_one_at_a_time(spec, kind):
    # batches of 1 to 6 candidates, cold and from the base fit, on simulated
    # data (n = 60) and on the body-fat table
    scenario, disp = SCENARIO_OF[spec]
    sim, x_sim, _ = make_scenario_data(scenario, 60, disp, seed=45)
    bodyfat = load_csv(bodyfat_path())
    for data, x_new in [(sim, x_sim), (Dataset(bodyfat.y[1:], bodyfat.X[1:]), bodyfat.X[0])]:
        ws = _Likelihood(data, spec.family, x_new)
        ys = np.concatenate([[1e-4], np.quantile(data.y, [0.05, 0.3, 0.5, 0.7, 0.95])]).tolist()
        for init in (None, fit(data, spec).params):
            alone = [_alone(y, ws, kind, init) for y in ys]
            for size in range(1, 7):
                members = [(i + size) % 6 for i in range(size)]  # each size starts elsewhere
                batch = conformal._margins([ys[i] for i in members], ws, kind, 0.1, init)
                for refit, i in zip(batch, members):
                    _same_refit(refit, alone[i])


@pytest.mark.parametrize("spec,seed,failing", [(M2, 14, 1), (M4, 0, 3)])
def test_a_member_that_does_not_converge_leaves_the_others_alone(spec, seed, failing):
    # n = 20: from the base fit, one candidate's refit stops unconverged
    # (m2 at MAX_ITER, m4 after 7 iterations) while the others converge
    scenario, disp = SCENARIO_OF[spec]
    data, x_new, _ = make_scenario_data(scenario, 20, disp, seed=seed)
    start = fit(data, spec).params
    ws = _Likelihood(data, spec.family, x_new)
    ys = [1e-6, 0.3, 0.5, 0.7, 1.0 - 1e-6]
    batch = conformal._margins(ys, ws, ScoreKind.PEARSON, 0.1, start)
    assert [refit.converged for refit in batch] == [i != failing for i in range(len(ys))]
    for y, refit in zip(ys, batch):
        _same_refit(refit, _alone(y, ws, ScoreKind.PEARSON, start))
    with pytest.raises(NonConvergence):
        conformal._margin(ys[failing], ws, ScoreKind.PEARSON, 0.1, start)


def test_a_member_without_a_positive_definite_hessian_steps_alone(monkeypatch):
    # m2 at n = 20, cold: in the first step two of five members' observed
    # Hessians are not positive definite, and only they take the expected
    # information's step
    data, x_new, _ = make_scenario_data(Scenario.TRANSFORM_HETERO, 20, None, seed=0)
    ws = _Likelihood(data, M2.family, x_new)
    ys = np.quantile(data.y, [0.05, 0.3, 0.5, 0.7, 0.95]).tolist()
    passes = []  # (members, expected) of every Hessian pass
    real = _Likelihood.hessian_from

    def spy(self, rows, expected=False):
        passes.append((len(rows[0]), expected))
        return real(self, rows, expected)

    monkeypatch.setattr(_Likelihood, "hessian_from", spy)
    batch = conformal._margins(ys, ws, ScoreKind.PEARSON, 0.1)
    monkeypatch.undo()
    assert passes[:2] == [(5, False), (2, True)]
    for y, refit in zip(ys, batch):
        _same_refit(refit, _alone(y, ws, ScoreKind.PEARSON, None))


# ---------------------------------------------------------------------------
# the end cells

END_CELLS = [0.5 * FullConfig.tolerance, 1.0 - 0.5 * FullConfig.tolerance]


def _predicted(data, x_new, spec, kind):
    """The interval the base fit predicts: its split inversion."""
    base = fit(data, spec)
    q = conformal_quantile(score(kind, data.y, base, data.X), 0.1)
    return _invert_split(base, kind, q, x_new, 0.9), base


def _fake_margins(monkeypatch, margin_of, failing=lambda y, call: False):
    """Replace every refit by the margin ``margin_of(y)``, or a failed fit
    where ``failing(y, call)`` (``call`` counts the calls from 0); returns
    the candidates and the start of every call."""
    calls = []

    def fake(ys, ws, kind, alpha, init=None):
        calls.append((list(ys), init))
        params = np.zeros(ws.k + ws.kd)
        failed = conformal._Refit(math.nan, params, MAX_ITER, False)
        return [
            failed if failing(y, len(calls) - 1) else conformal._Refit(margin_of(y), params, 1, True) for y in ys
        ]

    monkeypatch.setattr(conformal, "_margins", fake)
    return calls


def _interval_margin(lower, upper):
    return lambda y: max(lower - y, y - upper)


def _fake_full_cp(monkeypatch, margin_of, failing=lambda y, call: False):
    """``full_cp`` for m3/quantile on s3 data with every refit faked; returns
    the interval and the calls of ``_fake_margins``."""
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 40, 10.0, seed=52)
    calls = _fake_margins(monkeypatch, margin_of, failing)
    return full_cp(data, x_new, M3, ScoreKind.QUANTILE, FullConfig(0.1)), calls


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_an_included_end_cell_is_the_endpoint(side):
    # a second component that reaches into the end cell moves only its
    # side's endpoint, onto the end cell; the other side is the one of the
    # set without it
    tol = FullConfig.tolerance
    data, x_new, _ = make_scenario_data(Scenario.BETA_MEAN, 40, 10.0, seed=52)
    predicted, _ = _predicted(data, x_new, M3, ScoreKind.QUANTILE)
    main = _interval_margin(predicted.lower, predicted.upper)
    far = _interval_margin(0.0, 2e-4) if side == "lower" else _interval_margin(1.0 - 2e-4, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        one, _ = _fake_full_cp(mp, main)
    assert predicted.lower <= one.lower < predicted.lower + tol
    assert predicted.upper - tol < one.upper <= predicted.upper
    with pytest.MonkeyPatch.context() as mp:
        two, _ = _fake_full_cp(mp, lambda y: min(main(y), far(y)))
    if side == "lower":
        assert (two.lower, two.upper) == (0.5 * tol, one.upper)
    else:
        assert (two.lower, two.upper) == (one.lower, 1.0 - 0.5 * tol)


@pytest.mark.parametrize("spec,kind", VALID_PAIRS[::2])
def test_the_first_batch_holds_the_first_point_and_the_end_cells(monkeypatch, spec, kind):
    # one batch from the base fit; the transform families have no end cells
    tol = FullConfig.tolerance
    scenario, disp = SCENARIO_OF[spec]
    data, x_new, _ = make_scenario_data(scenario, 40, disp, seed=52)
    predicted, base = _predicted(data, x_new, spec, kind)
    calls = _fake_margins(monkeypatch, _interval_margin(predicted.lower, predicted.upper))
    full_cp(data, x_new, spec, kind, FullConfig(0.1))
    ys, init = calls[0]
    np.testing.assert_array_equal(init, base.params)
    if spec.family.is_beta:
        first = _first_points(0.0, 1.0, tol, (predicted.lower, predicted.upper))[0]
        assert ys == [first, *END_CELLS]
    else:
        assert ys == [pytest.approx(float(expit(logit(predicted.lower) + 0.25 * tol)), rel=1e-12)]
    assert not any(cell in ys for ys, _ in calls[1:] for cell in END_CELLS)


@pytest.mark.parametrize("cell", END_CELLS)
def test_an_end_cell_that_fails_in_the_batch_is_refitted_cold_once(monkeypatch, cell):
    tol = FullConfig.tolerance
    iv, calls = _fake_full_cp(monkeypatch, _interval_margin(0.2, 0.6), lambda y, call: y == cell and call == 0)
    assert cell in calls[0][0]
    assert [(ys, init) for ys, init in calls if cell in ys][1:] == [([cell], None)]
    assert sum(init is None for _, init in calls) == 1
    assert 0.2 <= iv.lower < 0.2 + tol and 0.6 - tol < iv.upper <= 0.6


@pytest.mark.parametrize("cell", END_CELLS)
def test_an_end_cell_that_fails_cold_too_fails_the_interval(monkeypatch, cell):
    with pytest.raises(NonConvergence, match="candidate"):
        _fake_full_cp(monkeypatch, _interval_margin(0.2, 0.6), lambda y, call: y == cell)


@pytest.mark.parametrize("rep,cell", [(46, END_CELLS[1]), (172, END_CELLS[0])])
def test_an_end_cell_that_fails_from_the_base_fit_converges_cold(rep, cell):
    # s4 at n = 20, drawn as run_coverage's first attempt at replication rep:
    # the end cell's refit from the base fit stops unconverged and its cold
    # refit converges, excluding the cell at rep 46 and including it at 172
    cfg, kind = ScenarioConfig(Scenario.BETA_MEAN_DISP, 20), ScoreKind.QUANTILE
    rng = np.random.default_rng([cfg.rng_seed, rep])
    X = gen_covariates(cfg.n + 1, rng)
    y = gen_response(cfg, X, rng)
    data, x_new = Dataset(y[:-1], X[:-1]), X[-1]
    ws = _Likelihood(data, M4.family, x_new)
    assert not conformal._margins([cell], ws, kind, 0.1, fit(data, M4).params)[0].converged
    included = indicator(cell, data, x_new, M4, kind, 0.1)
    assert included == (rep == 172)
    iv = full_cp(data, x_new, M4, kind, FullConfig(0.1))
    assert ((iv.lower if cell < 0.5 else iv.upper) == cell) == included


@pytest.mark.parametrize("spec", [M3, M4])
def test_full_cp_searches_when_the_predicted_interval_is_the_whole_range(spec):
    # low precision and a steep mean: the base fit's Pearson inversion at
    # x_new = 0 is clamped to (0, 1), so neither edge guess lies inside the
    # range and the first batch holds only the end cells
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 1))
    mu = expit(2.5 * X[:, 0])
    y = np.clip(rng.beta(mu, 1.0 - mu), 1e-4, 1.0 - 1e-4)
    data, x_new, kind, tol = Dataset(y, X), np.array([0.0]), ScoreKind.PEARSON, FullConfig.tolerance
    base = fit(data, spec)
    predicted = _invert_split(base, kind, conformal_quantile(score(kind, y, base, X), 0.1), x_new, 0.9)
    assert (predicted.lower, predicted.upper) == (0.0, 1.0)
    assert _first_points(0.0, 1.0, tol, (predicted.lower, predicted.upper)) == []
    iv = full_cp(data, x_new, spec, kind, FullConfig(0.1))
    assert 0.0 < iv.lower < 1e-3 and 1.0 - 1e-3 < iv.upper < 1.0
    for y_edge in (iv.lower, iv.upper):
        assert indicator(y_edge, data, x_new, spec, kind, 0.1, init=base.params)


def test_full_cp_and_fits_raise_no_floating_point_warnings():
    # every floating-point error of a fit is expected and handled inside it
    bodyfat = load_csv(bodyfat_path())
    data, x_new = Dataset(bodyfat.y[1:], bodyfat.X[1:]), bodyfat.X[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for family, kind in ANALYSIS_BATTERY:
            spec = ModelSpec(family)
            full_cp(data, x_new, spec, kind, FullConfig(0.1))
            for y in (1e-12, 1.0 - 1e-12):
                try:
                    indicator(y, data, x_new, spec, kind, 0.1)
                except NonConvergence:
                    pass
        # n=15 with a dummy covariate set for one row only: no MLE exists
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dummy = np.zeros(15)
            dummy[0] = 1.0
            X = np.column_stack([dummy, rng.normal(size=15)])
            small = Dataset(np.clip(rng.beta(4.0, 6.0, 15), 0.01, 0.99), X)
            for spec in (M2, M4):
                fit(small, spec)


def test_full_cp_refits_per_interval_on_bodyfat(monkeypatch):
    data = load_csv(bodyfat_path())
    n_test = round(0.1 * data.n)
    perm = np.random.default_rng([1, 0]).permutation(data.n)
    cons = Dataset(data.y[perm[n_test:]], data.X[perm[n_test:]])
    fits = cold = 0  # base fits and refits, counted where full_cp makes them
    iterations = 0  # Newton iterations of the refits; m1's closed form takes none
    real_fit, real_margins = conformal.fit, conformal._margins

    def counting_fit(*args, **kwargs):
        nonlocal fits, cold
        fits += 1
        cold += kwargs.get("init") is None
        return real_fit(*args, **kwargs)

    def counting_margins(ys, ws, kind, alpha, init=None):
        # every refit passes here (_margin is a batch of one): each member counts
        nonlocal fits, cold, iterations
        fits += len(ys)
        refits = real_margins(ys, ws, kind, alpha, init)
        if init is None:
            cold += len(ys)
        iterations += sum(refit.iterations for refit in refits)
        return refits

    monkeypatch.setattr(conformal, "fit", counting_fit)
    monkeypatch.setattr(conformal, "_margins", counting_margins)
    intervals = 0
    for i in perm[:n_test]:
        for family, kind in ANALYSIS_BATTERY:
            full_cp(cons, data.X[i], ModelSpec(family), kind, FullConfig(0.1))
            intervals += 1
    assert fits / intervals <= 9.5
    assert cold == 4  # one base fit per family: every test point shares the dataset
    assert iterations / intervals <= 20.5


def _recording(margin):
    calls = []

    def wrapped(u):
        calls.append(u)
        return margin(u)

    return wrapped, calls


def test_search_expands_when_the_centre_is_excluded():
    tol = 1e-4
    margin, calls = _recording(lambda u: abs(u - 0.7) - 0.1)
    lower, upper = _search(margin, (0.2, -0.1), 0.0, 1.0, tol, (0.1, 0.3))
    # the guesses, each a quarter tolerance inward, then the centre
    assert calls[:3] == pytest.approx([0.1 + 0.25 * tol, 0.3 - 0.25 * tol, 0.2], abs=1e-15)
    assert 0.6 <= lower < 0.6 + tol
    assert 0.8 - tol < upper <= 0.8
    # every probe keeps tol/2 from the range ends and from every other probe
    points = np.sort(np.concatenate([[0.0, 1.0], calls]))
    assert np.min(np.diff(points)) >= 0.5 * tol * (1.0 - 1e-9)


@pytest.mark.parametrize("estimate", [-0.2, -50.0, 0.3])
def test_search_skips_the_centre_when_both_guesses_are_included(estimate):
    # the centre's estimated margin only steers the first secant steps
    tol = 1e-4
    margin, calls = _recording(lambda u: abs(u - 0.5) - 0.2)
    lower, upper = _search(margin, (0.5, estimate), 0.0, 1.0, tol, (0.35, 0.65))
    assert 0.5 not in calls
    assert 0.3 <= lower < 0.3 + tol
    assert 0.7 - tol < upper <= 0.7


@pytest.mark.parametrize("guesses", [(0.3, 0.7), (0.25, 0.72), (0.4, 0.6)])
def test_search_endpoints_keep_clear_of_the_edge(guesses):
    # refits stop at a gradient tolerance, so a margin within rounding of 0
    # may change sign with the fit's start: probes aimed at an estimated
    # edge go a quarter tolerance inside it
    tol = 1e-4
    lower, upper = _search(lambda u: abs(u - 0.5) - 0.2, (0.5, -0.2), 0.0, 1.0, tol, guesses)
    assert 0.3 + 0.1 * tol < lower < 0.3 + tol
    assert 0.7 - tol < upper < 0.7 - 0.1 * tol


def test_search_walks_to_the_range_end_when_everything_is_included():
    # every candidate is included (as when k > n, where the margin is -inf):
    # the region reaches both range ends
    tol = 1e-4
    lower, upper = _search(
        lambda u: -math.inf, (0.3, -math.inf), 0.0, 1.0, tol, (-math.inf, math.inf)
    )
    assert 0.0 < lower <= tol
    assert 1.0 - tol <= upper < 1.0


def test_search_reports_an_empty_region():
    margin, calls = _recording(lambda u: 1.0)
    assert _search(margin, (0.5, -1.0), 0.0, 1.0, 1e-2, (0.4, 0.6)) is None
    assert len(calls) < 2 / 1e-2 + 1


def test_search_stops_at_float_resolution():
    # a tolerance below the float spacing must not stall the bracket
    lower, upper = _search(
        lambda u: abs(u - 0.3) - 0.1, (0.3, -0.1), 0.0, 1.0, 1e-20, (0.25, 0.35)
    )
    assert lower == pytest.approx(0.2, abs=1e-15)
    assert upper == pytest.approx(0.4, abs=1e-15)
