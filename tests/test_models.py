"""Model fitting, prediction and likelihood contracts."""

import numpy as np
import pytest
import scipy.optimize

from unitcp import (
    Dataset,
    FitError,
    FittedModel,
    ModelFamily,
    ModelSpec,
    Scenario,
    SingularDesign,
    expit,
    fit,
    logit,
    loglik,
)
from unitcp import models
from unitcp.cli import load_csv
from unitcp.datasets import bodyfat_path
from unitcp.models import MAX_ITER, _Likelihood, _initial_params
from unitcp.scores import beta_sd

from conftest import make_scenario_data

M1 = ModelSpec(ModelFamily.TRANSFORM_HOMO)
M2 = ModelSpec(ModelFamily.TRANSFORM_HETERO)
M3 = ModelSpec(ModelFamily.BETA_MEAN)
M4 = ModelSpec(ModelFamily.BETA_MEAN_DISP)

ALL_SPECS = (M1, M2, M3, M4)


def make_model(spec, mean_intercept, mean_coef, disp_intercept, disp_coef=None):
    """A model of ``spec`` built from the packed vector of these coefficients;
    ``disp_coef`` defaults to zeros and is packed only where the family has
    dispersion covariates."""
    mean_coef = np.asarray(mean_coef, dtype=float)
    params = np.concatenate([[mean_intercept], mean_coef, [disp_intercept]])
    if spec.family.models_dispersion:
        params = np.concatenate([params, np.zeros_like(mean_coef) if disp_coef is None else disp_coef])
    return FittedModel(spec, params, loglik=0.0, converged=True)


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([0.5, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([0.5, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([0.5, np.nan]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([0.5, 0.6, 0.7]), np.zeros((2, 1)))
    d = Dataset(np.array([0.2, 0.4, 0.6]), np.arange(6.0).reshape(3, 2))
    assert (d.n, d.p) == (3, 2)
    aug = d.augmented(0.5, np.array([9.0, 9.0]))
    assert aug.n == 4 and aug.y[-1] == 0.5


def test_dataset_arrays_are_read_only_views():
    y, X = np.array([0.2, 0.4, 0.6]), np.arange(6.0).reshape(3, 2)
    d = Dataset(y, X)
    assert np.shares_memory(d.y, y) and np.shares_memory(d.X, X)
    aug = d.augmented(0.5, np.array([9.0, 9.0]))
    for data in (d, aug):
        with pytest.raises(ValueError):
            data.y[0] = 0.3
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
    assert y.flags.writeable and X.flags.writeable  # the caller's arrays are untouched


def test_augmented_validates_the_appended_row():
    d = Dataset(np.array([0.2, 0.4, 0.6]), np.arange(6.0).reshape(3, 2))
    for y_new in (np.nan, np.inf, 0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            d.augmented(y_new, np.array([1.0, 2.0]))
    for x_new in ([np.nan, 1.0], [1.0, np.inf], [1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError):
            d.augmented(0.5, np.array(x_new))
    aug = d.augmented(0.5, np.array([[7.0, 8.0]]))
    assert np.array_equal(aug.X[-1], [7.0, 8.0]) and np.array_equal(aug.y[:-1], d.y)


def test_fit_requires_enough_rows():
    d = Dataset(np.array([0.2, 0.4, 0.6]), np.arange(9.0).reshape(3, 3))
    with pytest.raises(FitError):
        fit(d, M1)


def test_singular_design_detected():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.normal(size=30)])
    y = expit(rng.normal(size=30))
    with pytest.raises(SingularDesign):
        fit(Dataset(y, X), M1)


@pytest.mark.parametrize("spec", (M2, M3, M4), ids=lambda s: s.family.value)
def test_singular_design_detected_for_every_start(spec):
    # the constant column duplicates the intercept
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.normal(size=30)])
    y = expit(rng.normal(size=30))
    init = np.zeros(4 if spec is M3 else 6)
    parent = Dataset(y, X)
    for data in (parent, parent.augmented(0.5, [1.0, 0.3])):  # the parent was never fitted
        with pytest.raises(SingularDesign):
            fit(data, spec)
        with pytest.raises(SingularDesign):
            fit(data, spec, init=init)


def test_warm_start_is_keyword_only():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 60, 10.0, seed=3)
    start = fit(data, M3).params
    with pytest.raises(TypeError):
        fit(data, M3, start)
    assert fit(data, M3, init=start).converged


# ---------------------------------------------------------------------------
# a fitted model is its packed parameter vector


SCENARIO_OF = {M1: Scenario.TRANSFORM_HOMO, M2: Scenario.TRANSFORM_HETERO,
               M3: Scenario.BETA_MEAN, M4: Scenario.BETA_MEAN_DISP}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_fitted_model_is_read_only(spec):
    data, x_new, _ = make_scenario_data(SCENARIO_OF[spec], 60, None, seed=4)
    m = fit(data, spec)
    before = m.predict(x_new)
    for name in ("params", "mean_coef", "disp_coef"):
        with pytest.raises(ValueError):
            getattr(m, name)[0] = 5.0
    np.testing.assert_array_equal(m.predict(x_new), before)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_fitted_model_is_the_solvers_row_unpacked(spec):
    data, _, _ = make_scenario_data(SCENARIO_OF[spec], 60, None, seed=4)
    m = fit(data, spec)
    solved = models._solve(_Likelihood(data, spec.family))[0]
    assert m.params.tobytes() == solved[0].tobytes()
    assert m.params is m.params
    mean, disp_intercept, disp_coef = models._split_params(m.params, data.p, spec.family)
    assert m.mean_intercept == mean[0] and isinstance(m.mean_intercept, float)
    np.testing.assert_array_equal(m.mean_coef, mean[1:])
    assert m.disp_intercept == disp_intercept and isinstance(m.disp_intercept, float)
    np.testing.assert_array_equal(m.disp_coef, disp_coef)


def test_fitted_model_keeps_a_copy_of_its_vector():
    params = np.array([0.1, 0.2, -0.3, 0.4, 1.5])
    m = FittedModel(M3, params, loglik=0.0, converged=True)
    params[1] = 9.0
    assert params.flags.writeable
    np.testing.assert_array_equal(m.mean_coef, [0.2, -0.3, 0.4])
    with pytest.raises(ValueError, match="parameters for"):  # an odd count has no p
        FittedModel(M4, params, loglik=0.0, converged=True)


# ---------------------------------------------------------------------------
# parameter recovery


def test_m1_recovers_truth():
    data, _, _ = make_scenario_data(Scenario.TRANSFORM_HOMO, 5000, 0.63, seed=11)
    m = fit(data, M1)
    truth = np.array([0.5, 0.4, -0.3, 0.3])
    est = np.concatenate([[m.mean_intercept], m.mean_coef])
    assert np.max(np.abs(est - truth)) < 0.05
    assert abs(np.exp(m.disp_intercept) - 0.63) < 0.05
    assert m.converged and m.iterations == 0
    assert np.all(m.disp_coef == 0.0)


def test_m3_recovers_truth():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 5000, 10.0, seed=12)
    m = fit(data, M3)
    truth = np.array([0.5, 0.4, -0.3, 0.3])
    est = np.concatenate([[m.mean_intercept], m.mean_coef])
    assert np.max(np.abs(est - truth)) < 0.05
    assert abs(np.exp(m.disp_intercept) - 10.0) < 1.0
    assert m.converged
    assert np.all(m.disp_coef == 0.0)


def _objective_and_gradient(lik):
    """The mean negative log-likelihood and its analytic gradient, as
    functions of one parameter vector, from ``lik``'s derivative pass of a
    batch of that one vector."""

    def objective(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return lik.evaluate(x[None])[0][0]

    def gradient(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return lik.gradient_from(lik.evaluate(x[None])[1])[0]

    return objective, gradient


def _bfgs_reference(data, spec, start):
    """A general-purpose optimizer's answer, independent of the package's fit."""
    objective, gradient = _objective_and_gradient(_Likelihood(data, spec.family))
    res = scipy.optimize.minimize(objective, start, jac=gradient, method="BFGS",
                                  options={"gtol": 1e-10, "maxiter": 5000})
    return res.x


def test_m1_matches_generic_optimizer():
    # the closed form must be the optimum of the same likelihood the
    # Newton families maximize
    data, _, _ = make_scenario_data(Scenario.TRANSFORM_HOMO, 300, 0.63, seed=3)
    m = fit(data, M1)
    x0 = m.params + np.random.default_rng(0).normal(0, 0.05, len(m.params))
    assert np.max(np.abs(_bfgs_reference(data, M1, x0) - m.params)) < 1e-6


@pytest.mark.parametrize("spec,scenario,disp", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63),
    (M2, Scenario.TRANSFORM_HETERO, None),
    (M3, Scenario.BETA_MEAN, 10.0),
    (M4, Scenario.BETA_MEAN_DISP, None),
])
def test_mle_consistency(spec, scenario, disp):
    """Median recovery error shrinks with n (20 seeds, 20% slack)."""
    sizes = (200, 1000, 5000)
    medians = []
    for n in sizes:
        errs = []
        for seed in range(20):
            data, _, _ = make_scenario_data(scenario, n, disp, seed=100 + seed)
            m = fit(data, spec)
            est = np.concatenate([[m.mean_intercept], m.mean_coef])
            errs.append(np.max(np.abs(est - [0.5, 0.4, -0.3, 0.3]))
                        if scenario in (Scenario.TRANSFORM_HOMO, Scenario.BETA_MEAN)
                        else np.max(np.abs(est - [0.4, 0.25, -0.2, 0.2])))
        medians.append(float(np.median(errs)))
    assert medians[1] < medians[0] * 1.2
    assert medians[2] < medians[1] * 1.2
    assert medians[2] < medians[0]


# ---------------------------------------------------------------------------
# prediction operations


def test_predict_mean_examples():
    m = make_model(M1, 0.0, np.zeros(3), 0.0)
    assert float(expit(m.predict(np.zeros(3))[0])) == pytest.approx(0.5)
    m = make_model(M3, 0.5, [0.4, -0.3, 0.3], np.log(10.0))
    assert float(m.predict(np.zeros(3))[0]) == pytest.approx(expit(0.5), abs=1e-12)
    lifted = make_model(M3, 0.9, [0.4, -0.3, 0.3], np.log(10.0))
    assert float(lifted.predict(np.zeros(3))[0]) > float(m.predict(np.zeros(3))[0])


def test_predict_linear_examples():
    m = make_model(M1, 0.0, np.zeros(3), 0.0)
    assert float(m.predict(np.zeros(3))[0]) == 0.0
    m = make_model(M2, 0.4, [0.25, -0.2, 0.2], -0.2, [0.06, 0.06, 0.06])
    x = np.ones(3)
    assert float(m.predict(x)[0]) == pytest.approx(0.65, abs=1e-12)
    # a beta model's mean is the expit of the same linear predictor
    beta_model = make_model(M4, 0.4, [0.25, -0.2, 0.2], -0.2, [0.06, 0.06, 0.06])
    assert float(logit(beta_model.predict(x)[0])) == pytest.approx(float(m.predict(x)[0]), abs=1e-12)


def test_predict_sigma_examples():
    m1 = make_model(M1, 0.0, np.zeros(3), np.log(0.63))
    for x in (np.zeros(3), np.array([5.0, -2.0, 1.0])):
        assert float(m1.predict(x)[1]) == pytest.approx(0.63, abs=1e-12)
    m3 = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    assert float(beta_sd(*m3.predict(np.zeros(3)))) == pytest.approx(np.sqrt(0.25 / 11.0), abs=1e-9)
    m2 = make_model(M2, 0.4, [0.25, -0.2, 0.2], -0.2, [0.06, 0.06, 0.06])
    assert float(m2.predict(np.zeros(3))[1]) == pytest.approx(np.exp(-0.2), abs=1e-12)


def test_predict_phi_examples():
    m4 = make_model(M4, 0.4, [0.25, -0.2, 0.2], 1.85, [0.15, 0.15, 0.15])
    assert float(m4.predict(np.zeros(3))[1]) == pytest.approx(np.exp(1.85), abs=1e-10)
    assert float(m4.predict(np.ones(3))[1]) > float(m4.predict(np.zeros(3))[1])
    m3 = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    assert float(m3.predict(np.ones(3))[1]) == pytest.approx(10.0, abs=1e-12)


def test_predict_dimension_mismatch():
    m = make_model(M3, 0.0, np.zeros(3), np.log(10.0))
    with pytest.raises(ValueError):
        m.predict(np.zeros(2))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_predict_rejects_wrong_covariate_length(spec):
    m = make_model(spec, 0.0, np.zeros(3), 0.0)
    for x in (np.zeros(4), np.zeros((5, 2)), 0.0):
        with pytest.raises(ValueError, match="length 3"):
            m.predict(x)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_predict_matches_likelihood_fitted_values(spec):
    data, _, _ = make_scenario_data(SCENARIO_OF[spec], 80, None, seed=9)
    m = fit(data, spec)
    _, rows = _Likelihood(data, spec.family).evaluate(m.params[None])
    for got, want in zip(m.predict(data.X), (rows[2][0], rows[3][0])):
        np.testing.assert_allclose(np.broadcast_to(got, (data.n,)), np.broadcast_to(want, (data.n,)), rtol=1e-12)


def test_sigma_phi_consistency():
    for spec, scenario, disp in ((M3, Scenario.BETA_MEAN, 10.0), (M4, Scenario.BETA_MEAN_DISP, None)):
        data, x_new, _ = make_scenario_data(scenario, 400, disp, seed=5)
        m = fit(data, spec)
        mu, phi = m.predict(data.X)
        sig = beta_sd(mu, phi)
        assert np.max(np.abs(sig**2 * (1.0 + phi) - mu * (1.0 - mu))) < 1e-10


# ---------------------------------------------------------------------------
# likelihood


def test_loglik_uniform_beta_is_zero():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 50, 10.0, seed=2)
    params = np.array([0.0, 0.0, 0.0, 0.0, np.log(2.0)])  # mu=1/2, phi=2: Beta(1,1)
    assert loglik(data, M3, params) == pytest.approx(0.0, abs=1e-10)


def test_stored_loglik_matches_reevaluation():
    for spec, scenario, disp in (
        (M1, Scenario.TRANSFORM_HOMO, 0.63),
        (M2, Scenario.TRANSFORM_HETERO, None),
        (M3, Scenario.BETA_MEAN, 10.0),
        (M4, Scenario.BETA_MEAN_DISP, None),
    ):
        data, _, _ = make_scenario_data(scenario, 150, disp, seed=8)
        m = fit(data, spec)
        assert m.loglik == pytest.approx(loglik(data, spec, m.params), abs=1e-8)


@pytest.mark.parametrize("spec,scenario,disp", [
    (M1, Scenario.TRANSFORM_HOMO, 0.63),
    (M2, Scenario.TRANSFORM_HETERO, None),
    (M3, Scenario.BETA_MEAN, 10.0),
    (M4, Scenario.BETA_MEAN_DISP, None),
])
def test_optimizer_gradient_matches_central_differences(spec, scenario, disp):
    """Analytic gradient against a central-difference oracle, 1e-5 relative."""
    data, _, _ = make_scenario_data(scenario, 120, disp, seed=9)
    objective, gradient = _objective_and_gradient(_Likelihood(data, spec.family))
    dim = data.p + 2 + (data.p if spec.family.models_dispersion else 0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.normal(0.0, 0.4, dim)
        g = gradient(x)
        oracle = np.empty(dim)
        for i in range(dim):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            oracle[i] = (objective(xp) - objective(xm)) / (2.0 * h)
        denom = np.maximum(np.abs(oracle), 1e-6)
        assert np.max(np.abs(g - oracle) / denom) < 1e-5


@pytest.mark.parametrize("spec,scenario,disp", [
    (M2, Scenario.TRANSFORM_HETERO, None),
    (M3, Scenario.BETA_MEAN, 10.0),
    (M4, Scenario.BETA_MEAN_DISP, None),
])
def test_hessian_matches_central_differences(spec, scenario, disp):
    """Analytic Hessian against central differences of the analytic gradient,
    1e-5 relative; the expected information is positive definite."""
    data, _, _ = make_scenario_data(scenario, 120, disp, seed=9)
    lik = _Likelihood(data, spec.family)
    _, gradient = _objective_and_gradient(lik)
    dim = data.p + 2 + (data.p if spec.family.models_dispersion else 0)
    rng = np.random.default_rng(32)
    for _ in range(10):
        x = rng.normal(0.0, 0.4, dim)
        rows = lik.evaluate(x[None])[1]
        oracle = np.empty((dim, dim))
        for j in range(dim):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            oracle[:, j] = (gradient(xp) - gradient(xm)) / (2.0 * h)
        denom = np.maximum(np.abs(oracle), 1e-6)
        assert np.max(np.abs(lik.hessian_from(rows)[0] - oracle) / denom) < 1e-5
        assert np.min(np.linalg.eigvalsh(lik.hessian_from(rows, expected=True)[0])) > 0.0


def test_row_products_are_the_products_of_single_rows():
    # a batch member's dot products have the bits its row alone would get
    rng = np.random.default_rng(4)
    for members, n in ((1, 15), (3, 166), (6, 1001)):
        a, b = rng.normal(size=(members, n)), rng.normal(size=(members, n))
        assert models._rowdot(a, b).tolist() == [float(a[i] @ b[i]) for i in range(members)]
        assert models._rowdot(a, b[0]).tolist() == [float(a[i] @ b[0]) for i in range(members)]


@pytest.mark.parametrize("spec,scenario,disp", [
    (M2, Scenario.TRANSFORM_HETERO, None),
    (M3, Scenario.BETA_MEAN, 10.0),
    (M4, Scenario.BETA_MEAN_DISP, None),
])
def test_newton_matches_bfgs_reference(spec, scenario, disp):
    """Newton optimum against a tight BFGS run from the same start, on
    simulated data and on the bundled body-fat table, cold and warm."""
    sim, _, _ = make_scenario_data(scenario, 200, disp, seed=21)
    for data in (sim, load_csv(bodyfat_path())):
        m = fit(data, spec)
        assert m.converged and 0 < m.iterations <= MAX_ITER
        ref = _bfgs_reference(data, spec, _initial_params(_Likelihood(data, spec.family))[0])
        assert np.max(np.abs(m.params - ref)) < 1e-6
        # a warm-started refit of the data plus one point, as full CP does
        aug = data.augmented(float(np.median(data.y)), data.X[0])
        warm = fit(aug, spec, init=m.params)
        assert warm.converged
        assert np.max(np.abs(warm.params - _bfgs_reference(aug, spec, m.params))) < 1e-6


@pytest.mark.parametrize("spec", [M2, M4])
def test_fit_without_mle_reports_nonconvergence(spec):
    """n=15 with a dummy covariate set for one row only: that row can be fit
    exactly and its dispersion sent to zero, so the likelihood is unbounded."""
    rng = np.random.default_rng(7)
    dummy = np.zeros(15)
    dummy[0] = 1.0
    data = Dataset(np.clip(rng.beta(4.0, 6.0, 15), 0.01, 0.99), np.column_stack([dummy, rng.normal(size=15)]))
    m = fit(data, spec)
    assert not m.converged
    assert m.iterations <= MAX_ITER


def test_mle_is_local_maximum():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 300, 10.0, seed=13)
    m = fit(data, M3)
    at_mle = loglik(data, M3, m.params)
    rng = np.random.default_rng(4)
    for _ in range(20):
        step = rng.normal(size=len(m.params))
        step *= 0.1 / np.linalg.norm(step)
        assert loglik(data, M3, m.params + step) <= at_mle


def test_invalid_parameter_region_is_rejected():
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 50, 10.0, seed=2)
    bad = np.array([0.0, 0.0, 0.0, 0.0, 800.0])  # exp(800) overflows phi
    assert loglik(data, M3, bad) == -np.inf


def test_datasets_and_fits_compare_and_hash_by_identity():
    # both carry memos or a fit's arrays, so equality is identity
    data, _, _ = make_scenario_data(Scenario.BETA_MEAN, 30, 10.0, seed=3)
    copy = Dataset(data.y, data.X)
    a, b = fit(data, M3), fit(data, M3)
    np.testing.assert_array_equal(a.params, b.params)
    assert a == a and a != b and len({a, b, a}) == 2
    assert data == data and data != copy and len({data, copy, data}) == 2
    assert {data: a}[data] is a


@pytest.mark.parametrize("spec,scenario,disp", [(M2, Scenario.TRANSFORM_HETERO, None), (M3, Scenario.BETA_MEAN, 10.0),
                                                (M4, Scenario.BETA_MEAN_DISP, None)])
def test_newton_pool_members_get_their_bits_alone(spec, scenario, disp):
    # a member that joins after the others have run two rounds ends with
    # the bits of its fit alone, and so do the others: parameters,
    # objective, test, iterations, fitted values
    data, x_new, _ = make_scenario_data(scenario, 60, disp, seed=45)
    ws = _Likelihood(data, spec.family, x_new)
    start = fit(data, spec).params
    ys = np.quantile(data.y, [0.05, 0.5, 0.95, 0.3]).tolist()
    alone = {}
    for tag, y in zip("abcd", ys):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, f, converged, iterations, mean, spread = models._newton_all(ws.joined([y], 0), start[None])
        alone[tag] = (x[0], f[0], converged[0], iterations[0], mean[0], spread[0])

    def run(pool, sends):
        """What ends in each member, sending ``sends`` after the first
        rounds, one per round, and None after them."""
        ended, sends = {}, iter(sends)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = next(pool)
            while True:
                for tags, x, f, converged, iterations, mean, spread, _ in report:
                    for i, tag in enumerate(tags):
                        ended[tag] = (x[i], f[i], converged[i], iterations[i], mean[i], spread[i])
                try:
                    report = pool.send(next(sends, None))
                except StopIteration:
                    return ended

    joined = run(models._newton(ws.joined(ys[:2], 0), np.array([start, start]), "ab"),
                 [None, (("c", "d"), ys[2:], np.array([start, start]))])
    assert sorted(joined) == list("abcd")
    assert min(joined[tag][3] for tag in "ab") >= 2  # a and b took a step in the round c and d joined
    for tag, got in joined.items():
        for a, b in zip(got, alone[tag]):
            np.testing.assert_array_equal(a, b)
