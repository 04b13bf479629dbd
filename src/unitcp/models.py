"""Maximum likelihood regression for responses on the open unit interval.

Four families share one fitting interface:

* ``TRANSFORM_HOMO``    linear regression of logit(y) with constant error sd
* ``TRANSFORM_HETERO``  logit-scale regression with log-linear error sd
* ``BETA_MEAN``         beta regression, logit mean link, constant precision
* ``BETA_MEAN_DISP``    beta regression with log-linear precision

Dispersion parameters are always optimized on the log scale, so the
likelihood is unconstrained.  The homoscedastic transform family has a
closed-form MLE; the rest run damped Newton on the mean negative
log-likelihood with its analytic gradient and Hessian (the expected
information stands in where the Hessian is not positive definite), and
convergence is judged by a relative gradient criterion.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .numeric import EPS, _trigamma

__all__ = [
    "ModelFamily",
    "ModelSpec",
    "Dataset",
    "FittedModel",
    "FitError",
    "SingularDesign",
    "NonConvergence",
    "fit",
    "loglik",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# Newton step control: sufficient-decrease constant and most halvings per step
ARMIJO_C = 1e-4
MAX_HALVINGS = 30

# a fit has converged when the relative gradient |g_i| * max(1,|x_i|) / max(1,|f|)
# of the mean log-likelihood is at most GTOL.  Fits whose MLE exists converge
# in a handful of Newton iterations; MAX_ITER bounds the cost of those where
# it does not and the iterates drift off, which are reported non-converged.
GTOL = 1e-6
MAX_ITER = 50


class FitError(RuntimeError):
    """Base class for model fitting failures."""


class SingularDesign(FitError):
    """The design matrix (with implicit intercept) is rank deficient."""


class NonConvergence(FitError):
    """Raised where a converged fit is required but was not obtained."""


class ModelFamily(enum.Enum):
    TRANSFORM_HOMO = "m1"
    TRANSFORM_HETERO = "m2"
    BETA_MEAN = "m3"
    BETA_MEAN_DISP = "m4"

    @property
    def is_beta(self) -> bool:
        return self in (ModelFamily.BETA_MEAN, ModelFamily.BETA_MEAN_DISP)

    @property
    def models_dispersion(self) -> bool:
        """True when the dispersion submodel has covariate coefficients."""
        return self in (ModelFamily.TRANSFORM_HETERO, ModelFamily.BETA_MEAN_DISP)


@dataclass(frozen=True)
class ModelSpec:
    """Which regression family to fit."""

    family: ModelFamily


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _checked_row(x_new, p: int) -> np.ndarray:
    """A new observation's covariates as a finite vector of length ``p``."""
    x_new = np.asarray(x_new, dtype=float).reshape(-1)
    if x_new.shape != (p,):
        raise ValueError(f"expected a covariate vector of length {p}, got {x_new.size}")
    if not np.all(np.isfinite(x_new)):
        raise ValueError("covariate row contains non-finite entries")
    return x_new


@dataclass(frozen=True)
class Dataset:
    """Responses strictly inside (0,1) plus a covariate matrix.

    The intercept column is implicit and must not be part of ``X``.
    ``y`` and ``X`` are read-only views of the arrays passed in, not
    copies: writing through them raises, but the caller must not change
    the arrays it passed either, since fits of the dataset are memoized on
    it (see :func:`unitcp.conformal.full_cp`).
    """

    y: np.ndarray
    X: np.ndarray
    # full conformal's base fits of this dataset, by ModelSpec; augmented
    # copies start empty, as their data differ
    _base_fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1 or X.ndim != 2:
            raise ValueError("y must be 1-d and X 2-d")
        if len(y) != X.shape[0]:
            raise ValueError(f"length mismatch: {len(y)} responses, {X.shape[0]} rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("dataset contains non-finite entries")
        if np.any(y <= 0.0) or np.any(y >= 1.0):
            raise ValueError("responses must lie strictly in (0, 1)")
        object.__setattr__(self, "y", _read_only(y.view()))
        object.__setattr__(self, "X", _read_only(X.view()))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def augmented(self, y_new: float, x_new: np.ndarray) -> "Dataset":
        """Return a new dataset with one extra observation appended.

        Full conformal prediction does not copy: its refits rewrite the
        last row of one workspace (``_Likelihood`` with ``x_new``), which
        gives the same fits as a fit of this copy.
        """
        return Dataset(np.append(self.y, float(y_new)), np.vstack([self.X, _checked_row(x_new, self.p)]))


@dataclass(frozen=True)
class FittedModel:
    """Estimated coefficients for one family.

    ``disp_intercept`` stores log(sigma) for the transform families and
    log(phi) for the beta families; ``disp_coef`` is identically zero when
    the family has no dispersion covariates.  ``iterations`` counts the
    Newton iterations of the fit: 0 for the closed-form family, and for a
    cold m4 fit without those of the m3 fit that gives its start.
    :meth:`predict` gives the fitted values at new covariates.
    """

    spec: ModelSpec
    mean_intercept: float
    mean_coef: np.ndarray
    disp_intercept: float
    disp_coef: np.ndarray
    loglik: float
    converged: bool
    iterations: int = 0

    @property
    def family(self) -> ModelFamily:
        return self.spec.family

    @property
    def params(self) -> np.ndarray:
        """Packed parameter vector in the optimizer layout."""
        head = np.concatenate(([self.mean_intercept], self.mean_coef, [self.disp_intercept]))
        if self.family.models_dispersion:
            return np.concatenate([head, self.disp_coef])
        return head

    def predict(self, x):
        """Fitted values ``(mean, spread)`` at covariate vector(s) ``x``, by
        :func:`_link`: (mu, phi) for the beta families, (logit-scale linear
        predictor, sigma) for the transform families.  A matrix ``x`` gives
        one value per row, but the spread of a family without dispersion
        covariates is one scalar.
        """
        x = np.asarray(x, dtype=float)
        p = len(self.mean_coef)
        if x.shape[-1:] != (p,):
            raise ValueError(f"expected covariate vector(s) of length {p}, got shape {x.shape}")
        mean_lin = self.mean_intercept + x @ self.mean_coef
        if self.family.models_dispersion:
            return _link(self.family, mean_lin, self.disp_intercept + x @ self.disp_coef)
        return _link(self.family, mean_lin, self.disp_intercept)


def _link(family: ModelFamily, mean_lin, disp_lin):
    """A family's fitted values from its mean and dispersion linear predictors.

    Returns (mu, phi) for the beta families, the logit mean link clamped
    to [EPS, 1 - EPS] and the log precision link, and (linear predictor,
    sigma) for the transform families, which model logit(y) directly.
    """
    if family.is_beta:
        return np.minimum(np.maximum(sp.expit(mean_lin), EPS), 1.0 - EPS), np.exp(disp_lin)
    return mean_lin, np.exp(disp_lin)


def _split_params(params: np.ndarray, p: int, family: ModelFamily):
    """Unpack [mean_intercept, mean_coef, disp_intercept, (disp_coef)]."""
    params = np.asarray(params, dtype=float)
    want = p + 2 + (p if family.models_dispersion else 0)
    if params.shape != (want,):
        raise ValueError(f"expected {want} parameters for {family}, got shape {params.shape}")
    mean = params[: p + 1]
    disp_intercept = params[p + 1]
    disp_coef = params[p + 2 :] if family.models_dispersion else np.zeros(p)
    return mean, disp_intercept, disp_coef


class _Likelihood:
    """Likelihood workspace of one design: what a fit needs, built once.

    Holds the designs and the response transforms and provides, in one
    pass at a parameter vector (:meth:`evaluate`), the mean negative
    log-likelihood (the optimizer's objective), the per-row derivatives its
    analytic gradient and Hessian are built from, and the fitted values
    they came from.  The mean submodel's design ``Z`` is the intercept plus
    the covariates; the dispersion submodel's design is ``Z`` too, or its
    first ``kd`` = 1 column, the intercept, when the family has no
    dispersion covariates.  In that case the dispersion is one scalar for
    all rows, and its special functions are evaluated once.

    With ``x_new`` the workspace is full conformal's candidate workspace:
    the rows of ``data`` plus one row with covariates ``x_new``, validated
    once, whose response :meth:`set_candidate` writes before each refit.
    Nothing else changes between candidates.
    """

    def __init__(self, data: Dataset, family: ModelFamily, x_new=None):
        X, y = data.X, data.y
        if x_new is not None:
            X = np.vstack([X, _checked_row(x_new, data.p)])
            y = np.append(y, 0.5)  # a placeholder until set_candidate
        self.n, self.k = X.shape[0], data.p + 1
        self.Z = np.column_stack([np.ones(self.n), X])
        self.ZT = np.ascontiguousarray(self.Z.T)
        self._set_family(family)
        self._pinv = None
        self.y = y
        self.log_y = np.log(y)
        self.log_1my = np.log1p(-y)
        self.z = self.log_y - self.log_1my  # logit(y)

    def _set_family(self, family: ModelFamily) -> None:
        self.family = family
        self.kd = self.k if family.models_dispersion else 1
        # how many rows each entry of the dispersion linear predictor stands for
        self.reps = 1 if family.models_dispersion else self.n

    def set_candidate(self, y: float) -> None:
        """Write the candidate response ``y`` and its transforms into the last row."""
        y = float(y)
        if not 0.0 < y < 1.0:
            raise ValueError("candidate must lie strictly in (0, 1)")
        self.y[-1] = y
        self.log_y[-1] = log_y = math.log(y)
        self.log_1my[-1] = log_1my = math.log1p(-y)
        self.z[-1] = log_y - log_1my

    def pinv(self) -> np.ndarray:
        """Pseudo-inverse of the design, from one SVD per workspace.

        Raises :class:`SingularDesign` when the design is rank deficient, by
        the cutoff of ``np.linalg.matrix_rank``; this is the fit's rank
        check.
        """
        if self._pinv is None:
            u, s, vt = np.linalg.svd(self.Z, full_matrices=False)
            if s[-1] <= s[0] * max(self.Z.shape) * np.finfo(float).eps:
                raise SingularDesign("design matrix with intercept is rank deficient")
            self._pinv = (vt.T / s) @ u.T
        return self._pinv

    def _linear(self, x: np.ndarray):
        disp = self.Z @ x[self.k :] if self.family.models_dispersion else x[self.k]
        return self.Z @ x[: self.k], disp

    def evaluate(self, x: np.ndarray):
        """Objective and derivative pass at a single parameter vector.

        Returns the mean negative log-likelihood (inf outside the valid
        region) and ``rows``: the per-row log-likelihood derivatives in the
        mean and dispersion linear predictors, and the fitted values they
        were computed from -- (mu, phi, the shapes [a, b, phi]) for the beta
        families, (linear predictor, sigma) for the transform families.
        The first two, from :func:`_link` as in :meth:`FittedModel.predict`,
        give the rows' scores.  ``rows`` serves both :meth:`gradient_from`
        and :meth:`hessian_from`.  Floating point errors are left to the
        caller's ``np.errstate``.
        """
        n = self.n
        mean_lin, disp_lin = self._linear(x)
        mean, spread = _link(self.family, mean_lin, disp_lin)
        if self.family.is_beta:
            mu, phi = mean, spread
            a, b = mu * phi, (1.0 - mu) * phi
            shapes = np.concatenate([a, b, np.atleast_1d(phi)])
            log_gamma, dig = sp.gammaln(shapes), sp.digamma(shapes)
            total = (
                self.reps * log_gamma[2 * n :].sum()
                - log_gamma[:n].sum()
                - log_gamma[n : 2 * n].sum()
                + (a - 1.0) @ self.log_y
                + (b - 1.0) @ self.log_1my
            )
            dig_a, dig_b = dig[:n], dig[n : 2 * n]
            d_mean = phi * mu * (1.0 - mu) * (self.z - dig_a + dig_b)
            d_disp = phi * (
                dig[2 * n :]
                - mu * dig_a
                - (1.0 - mu) * dig_b
                + mu * self.log_y
                + (1.0 - mu) * self.log_1my
            )
            fitted = (mu, phi, shapes)
        else:
            resid = (self.z - mean) / spread
            total = -0.5 * LOG_2PI * n - self.reps * np.sum(disp_lin) - 0.5 * (resid @ resid)
            d_mean, d_disp, fitted = resid / spread, resid * resid - 1.0, (mean, spread)
        f = -float(total) / n
        return (f if np.isfinite(f) else np.inf), (d_mean, d_disp, fitted)

    def gradient_from(self, rows) -> np.ndarray:
        """Analytic gradient of the mean negative log-likelihood from a derivative pass."""
        d_mean, d_disp, _ = rows
        g = -np.concatenate([self.ZT @ d_mean, self.ZT[: self.kd] @ d_disp]) / self.n
        return np.where(np.isfinite(g), g, 0.0)

    def hessian_from(self, rows, expected: bool = False) -> np.ndarray:
        """Analytic Hessian of the mean negative log-likelihood from a derivative pass.

        With ``expected`` it is the expected (Fisher) information instead,
        which is positive definite for every family at a full-rank design.
        The blocks are ``Z^T diag(w) Z`` products of per-row weights, all
        three from one product of the stacked weighted ``Z^T`` rows with
        ``Z``: the expected weights, plus residual terms for the observed
        Hessian (Ferrari & Cribari-Neto 2004; Simas, Barreto-Souza & Rocha
        2010 for varying precision).  Non-finite entries are left for the
        caller.
        """
        d_mean, d_disp, fitted = rows
        if self.family.is_beta:
            mu, phi, shapes = fitted
            n = self.n  # one trigamma call for a, b and phi
            tri = _trigamma(shapes)
            tri_a, tri_b, tri_phi = tri[:n], tri[n : 2 * n], tri[2 * n :]
            slope = mu * (1.0 - mu)  # d mu / d mean_lin
            w_mm = (phi * slope) ** 2 * (tri_a + tri_b)
            w_md = phi * phi * slope * (mu * tri_a - (1.0 - mu) * tri_b)
            w_dd = phi * phi * (mu * mu * tri_a + (1.0 - mu) ** 2 * tri_b - tri_phi)
            if not expected:
                w_mm = w_mm - (1.0 - 2.0 * mu) * d_mean
                w_md = w_md - d_mean
                w_dd = w_dd - d_disp
        else:
            _, sigma = fitted
            w_mm = sigma**-2.0
            w_md = 0.0 if expected else 2.0 * d_mean
            w_dd = 2.0 if expected else 2.0 * (d_disp + 1.0)
        k, kd, ZT = self.k, self.kd, self.ZT
        weighted = np.empty((k + 2 * kd, self.n))
        np.multiply(ZT, w_mm, out=weighted[:k])
        np.multiply(ZT[:kd], w_md, out=weighted[k : k + kd])
        np.multiply(ZT[:kd], w_dd, out=weighted[k + kd :])
        blocks = weighted @ self.Z
        H = np.empty((k + kd,) * 2)
        H[:k, :k] = blocks[:k]
        H[k:, :k] = blocks[k : k + kd]
        H[:k, k:] = H[k:, :k].T
        H[k:, k:] = blocks[k + kd :, :kd]
        return H / self.n


def loglik(data: Dataset, spec: ModelSpec, params) -> float:
    """Model log-likelihood at a packed parameter vector.

    Layout: mean intercept, mean coefficients, dispersion intercept, and
    (heteroscedastic families only) dispersion coefficients.  The transform
    families model logit(y) directly, without a change-of-variables term.
    Returns -inf for parameter values outside the valid region.  It is
    :meth:`_Likelihood.evaluate`'s objective, the one a fit minimizes.
    """
    _split_params(params, data.p, spec.family)  # validates the layout
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = _Likelihood(data, spec.family).evaluate(np.asarray(params, dtype=float))[0]
    return -data.n * f


def _relative_gradient(g: np.ndarray, x: np.ndarray, f: float) -> float:
    return float(np.max(np.abs(g) * np.maximum(1.0, np.abs(x))) / max(1.0, abs(f)))


def _newton_direction(lik: _Likelihood, rows, g: np.ndarray) -> np.ndarray | None:
    """-H^-1 g for the observed Hessian, or for the expected information where
    the Hessian is not positive definite; None when neither is usable.

    ``rows`` is the derivative pass at the current point.  Where the
    iterates drift off (no MLE), the entries can span so many orders of
    magnitude that the solve finds the matrix singular even after a
    Cholesky factorization succeeded; that counts as unusable too.
    """
    for expected in (False, True):
        H = lik.hessian_from(rows, expected)
        if not np.all(np.isfinite(H)):
            continue
        try:
            np.linalg.cholesky(H)
            return -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            continue
    return None


def _newton(lik: _Likelihood, x: np.ndarray):
    """Damped Newton iterations from ``x`` until the relative gradient meets
    ``GTOL``, no step is acceptable, or ``MAX_ITER`` iterations have run.

    Every point tried gets one :meth:`_Likelihood.evaluate` pass, so the
    accepted trial point already carries the derivative pass from which
    the next step's gradient and Hessian are built.  Steps are halved
    until they satisfy the Armijo condition.  Near an optimum the
    objective is flat to rounding noise while the gradient may not yet
    have converged, so the condition allows an increase of up to
    ``1e3 * eps * |f|``.  Runs under the caller's ``np.errstate``.
    Returns (x, f, whether the gradient test was met, iterations, the
    fitted values of the pass at x).
    """
    f, rows = lik.evaluate(x)
    g = lik.gradient_from(rows)
    for it in range(MAX_ITER):
        if _relative_gradient(g, x, f) <= GTOL:
            return x, f, True, it, rows[2]
        step = _newton_direction(lik, rows, g)
        if step is None:
            return x, f, False, it, rows[2]
        descent = ARMIJO_C * float(g @ step)
        slack = 1e3 * np.finfo(float).eps * max(1.0, abs(f))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_try = x + t * step
            f_try, rows_try = lik.evaluate(x_try)
            if f_try <= f + t * descent + slack:
                break
            t *= 0.5
        else:
            return x, f, False, it, rows[2]
        x, f, rows = x_try, f_try, rows_try
        g = lik.gradient_from(rows)
    return x, f, _relative_gradient(g, x, f) <= GTOL, MAX_ITER, rows[2]


def _ols_logit(lik: _Likelihood):
    """OLS of logit(y) on the design: (coefficients, fitted linear predictor,
    residuals, ML residual variance).

    The design's pseudo-inverse is computed once per workspace and raises
    :class:`SingularDesign` for a rank-deficient design.
    """
    coef = lik.pinv() @ lik.z
    lin = lik.Z @ coef
    resid = lik.z - lin
    sigma2 = float(resid @ resid) / lik.n  # maximum likelihood divisor
    return coef, lin, resid, max(sigma2, 1e-12)


def _initial_params(lik: _Likelihood) -> np.ndarray:
    """Cold start: moments of the OLS fit of logit(y), or for m4 the m3 fit."""
    p = lik.k - 1
    if lik.family is ModelFamily.BETA_MEAN_DISP:
        m3 = copy.copy(lik)  # the same rows, sharing every array
        m3._set_family(ModelFamily.BETA_MEAN)
        start = _newton(m3, _initial_params(m3))[0]
        return np.concatenate([start, np.zeros(p)])
    coef, lin, _, sigma2 = _ols_logit(lik)
    if lik.family is ModelFamily.TRANSFORM_HETERO:
        return np.concatenate([coef, [0.5 * np.log(sigma2)], np.zeros(p)])
    # beta families: method-of-moments precision from the logit-scale residual
    # variance, var(y) ~= var(z) * (mu (1 - mu))^2 by the delta method
    mu = _link(lik.family, lin, 0.0)[0]
    phi_points = 1.0 / (sigma2 * mu * (1.0 - mu)) - 1.0
    phi0 = float(np.clip(np.mean(phi_points), 0.5, 1e4))
    return np.concatenate([coef, [np.log(phi0)]])


def _solve(lik: _Likelihood, init=None):
    """Fit the workspace's family to its rows: the kernel of :func:`fit` and
    of full conformal's refits.

    m1 is solved in closed form, and its objective and fitted values
    (linear predictor, sigma) come from the OLS fit itself.  The others run
    :func:`_newton` from the parameter vector ``init`` or, without it, a
    cold start.  Every fit first checks the design's rank with
    :meth:`_Likelihood.pinv`, whose SVD is made once per workspace, so the
    refits of one full-conformal interval share it.  The fit itself runs
    under one ``np.errstate``.  Returns (params, objective, converged,
    iterations, fitted values of the final derivative pass).
    """
    if lik.n < lik.k + 1:
        raise FitError(f"need at least p + 2 = {lik.k + 1} observations, got {lik.n}")
    lik.pinv()  # raises SingularDesign for a rank-deficient design
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if lik.family is ModelFamily.TRANSFORM_HOMO:
            coef, lin, resid, sigma2 = _ols_logit(lik)
            log_sigma = 0.5 * np.log(sigma2)
            f = 0.5 * LOG_2PI + log_sigma + 0.5 * float(resid @ resid) / (lik.n * sigma2)
            return np.concatenate([coef, [log_sigma]]), float(f), True, 0, _link(lik.family, lin, log_sigma)
        x0 = _initial_params(lik) if init is None else np.asarray(init, dtype=float)
        _split_params(x0, lik.k - 1, lik.family)  # validates the layout
        return _newton(lik, x0)


def fit(data: Dataset, spec: ModelSpec, *, init=None) -> FittedModel:
    """Fit one family by maximum likelihood.

    The homoscedastic transform family is solved in closed form (OLS on the
    logit scale, residual variance with the maximum likelihood divisor),
    and ignores ``init``.  The others run damped Newton on the mean
    negative log-likelihood from ``init``, a packed parameter vector
    (a warm start, such as another fit's ``params``), or without it from a
    moment-based start (m4 starts from the m3 fit).  The convergence test
    and the iteration cap are not options: a fit that has not met ``GTOL``
    when no step improves the objective or ``MAX_ITER`` iterations have run
    is reported with ``converged=False``.  Never raises for
    non-convergence; raises :class:`SingularDesign` for a rank-deficient
    design.
    """
    x, f, converged, iterations, _ = _solve(_Likelihood(data, spec.family), init)
    return _build(data, spec, x, f, converged, iterations)


def _build(
    data: Dataset, spec: ModelSpec, params: np.ndarray, objective: float, converged: bool, iterations: int
) -> FittedModel:
    mean, di, dc = _split_params(params, data.p, spec.family)
    return FittedModel(
        spec=spec,
        mean_intercept=float(mean[0]),
        mean_coef=np.array(mean[1:]),
        disp_intercept=float(di),
        disp_coef=np.array(dc),
        loglik=-data.n * objective,
        converged=converged,
        iterations=iterations,
    )
