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

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .numeric import EPS, _trigamma, expit, logit

__all__ = [
    "ModelFamily",
    "ModelSpec",
    "Dataset",
    "FitOptions",
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

    @classmethod
    def from_name(cls, name: str) -> "ModelFamily":
        key = name.strip().lower()
        for fam in cls:
            if key in (fam.value, fam.name.lower()):
                return fam
        raise ValueError(f"unknown model family {name!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which regression family to fit."""

    family: ModelFamily


@dataclass(frozen=True)
class Dataset:
    """Responses strictly inside (0,1) plus a covariate matrix.

    The intercept column is implicit and must not be part of ``X``.
    """

    y: np.ndarray
    X: np.ndarray
    # set once a fit has found the design with intercept to have full column
    # rank; augmented copies inherit it, as an extra row cannot lower the rank
    _full_rank: bool = field(default=False, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def augmented(self, y_new: float, x_new: np.ndarray) -> "Dataset":
        """Return a copy with one extra observation appended.

        Only the appended row is validated; the others already were.  A
        design that a fit found to have full rank keeps that mark in the
        copy, so refits of the copy skip the rank check.
        """
        y_new = float(y_new)
        x_new = np.asarray(x_new, dtype=float).reshape(-1)
        if x_new.shape != (self.p,):
            raise ValueError(f"expected a covariate vector of length {self.p}, got {x_new.size}")
        if not (np.isfinite(y_new) and np.all(np.isfinite(x_new))):
            raise ValueError("appended observation contains non-finite entries")
        if not 0.0 < y_new < 1.0:
            raise ValueError("responses must lie strictly in (0, 1)")
        aug = object.__new__(Dataset)
        object.__setattr__(aug, "y", np.append(self.y, y_new))
        object.__setattr__(aug, "X", np.vstack([self.X, x_new]))
        object.__setattr__(aug, "_full_rank", self._full_rank)
        return aug

    def _mark_full_rank(self) -> None:
        object.__setattr__(self, "_full_rank", True)


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the Newton fit.

    ``gtol`` bounds the relative gradient |g_i| * max(1,|x_i|) / max(1,|f|)
    of the mean log-likelihood at the reported optimum.  ``max_iter`` caps
    the Newton iterations: a fit that has not met ``gtol`` by then is
    reported with ``converged=False``.  Fits whose MLE exists converge in a
    handful of iterations; the cap bounds the cost of those where it does
    not and the iterates drift off.  ``init`` warm-starts the optimizer.
    Full conformal prediction refits the same data plus one candidate point
    many times and passes the parameters of the nearest candidate already
    fitted, which for the late probes of an edge are almost converged.
    """

    gtol: float = 1e-6
    max_iter: int = 50
    init: np.ndarray | None = None


@dataclass(frozen=True)
class FittedModel:
    """Estimated coefficients for one family.

    ``disp_intercept`` stores log(sigma) for the transform families and
    log(phi) for the beta families; ``disp_coef`` is identically zero when
    the family has no dispersion covariates.  ``iterations`` counts the
    Newton iterations of the fit: 0 for the closed-form family, and for a
    cold m4 fit without those of the m3 fit that gives its start.
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

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = len(self.mean_coef)
        if x.shape[-1] != p:
            raise ValueError(f"expected covariate vector(s) of length {p}, got shape {x.shape}")
        return x

    def predict_linear(self, x):
        """Mean prediction on the logit (real-line) scale.

        Only the transform families model the response on that scale.
        """
        if self.family.is_beta:
            raise ValueError("predict_linear is defined for the transform families only")
        x = self._check_x(x)
        return self.mean_intercept + x @ self.mean_coef

    def predict_mean(self, x):
        """Predicted conditional mean of y, strictly inside (0,1)."""
        x = self._check_x(x)
        eta = self.mean_intercept + x @ self.mean_coef
        return np.clip(expit(eta), EPS, 1.0 - EPS)

    def predict_phi(self, x):
        """Predicted beta precision (beta families only)."""
        if not self.family.is_beta:
            raise ValueError("predict_phi is defined for the beta families only")
        x = self._check_x(x)
        if self.family.models_dispersion:
            return np.exp(self.disp_intercept + x @ self.disp_coef)
        out = np.exp(self.disp_intercept)
        return np.full(x.shape[:-1], out) if x.ndim > 1 else out

    def predict_sigma(self, x):
        """Predicted conditional standard deviation.

        Transform families: the error sd on the logit scale.  Beta families:
        sqrt(mu (1 - mu) / (1 + phi)) on the original scale.
        """
        x = self._check_x(x)
        if self.family.is_beta:
            mu = self.predict_mean(x)
            phi = self.predict_phi(x)
            return np.sqrt(mu * (1.0 - mu) / (1.0 + phi))
        if self.family.models_dispersion:
            return np.exp(self.disp_intercept + x @ self.disp_coef)
        out = np.exp(self.disp_intercept)
        return np.full(x.shape[:-1], out) if x.ndim > 1 else out


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
    """Per-dataset likelihood workspace.

    Precomputes the designs and response transforms once per fit and
    provides the mean negative log-likelihood (the optimizer's objective)
    with its analytic gradient and Hessian.  The mean submodel's design
    ``Z`` is the intercept plus the covariates; the dispersion submodel's
    ``Zd`` is ``Z`` too, or the intercept column alone when the family has
    no dispersion covariates.  In that case the dispersion is one scalar
    for all n rows, and its special functions are evaluated once.
    """

    def __init__(self, data: Dataset, family: ModelFamily):
        self.family = family
        self.n, self.k = data.n, data.p + 1
        self.Z = np.column_stack([np.ones(data.n), data.X])
        self.Zd = self.Z if family.models_dispersion else self.Z[:, :1]
        # how many rows each entry of the dispersion linear predictor stands for
        self.reps = 1 if family.models_dispersion else data.n
        if family.is_beta:
            self.log_y = np.log(data.y)
            self.log_1my = np.log1p(-data.y)
            self.z = self.log_y - self.log_1my
        else:
            self.z = logit(data.y)

    def _linear(self, x: np.ndarray):
        disp = self.Z @ x[self.k :] if self.family.models_dispersion else x[self.k]
        return self.Z @ x[: self.k], disp

    def _beta(self, x: np.ndarray):
        """Beta mean, precision and shapes a = mu phi, b = (1 - mu) phi."""
        mean_lin, disp_lin = self._linear(x)
        mu = np.minimum(np.maximum(sp.expit(mean_lin), EPS), 1.0 - EPS)
        phi = np.exp(disp_lin)
        return mu, phi, mu * phi, (1.0 - mu) * phi

    def objective(self, x: np.ndarray) -> float:
        """Mean negative log-likelihood at a single parameter vector."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.family.is_beta:
                mu, phi, a, b = self._beta(x)
                total = (
                    self.reps * np.sum(sp.gammaln(phi))
                    - sp.gammaln(a).sum()
                    - sp.gammaln(b).sum()
                    + (a - 1.0) @ self.log_y
                    + (b - 1.0) @ self.log_1my
                )
            else:
                mean_lin, disp_lin = self._linear(x)
                resid = (self.z - mean_lin) * np.exp(-disp_lin)
                total = -0.5 * LOG_2PI * self.n - self.reps * np.sum(disp_lin) - 0.5 * (resid @ resid)
        out = -float(total) / self.n
        return out if np.isfinite(out) else np.inf

    def rows(self, x: np.ndarray):
        """Per-row log-likelihood derivatives in the mean and dispersion
        linear predictors, and the fitted values they were computed from.

        One such pass at a point serves both :meth:`gradient_from` and
        :meth:`hessian_from`.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.family.is_beta:
                mu, phi, a, b = self._beta(x)
                dig_a = sp.digamma(a)
                dig_b = sp.digamma(b)
                d_mean = phi * mu * (1.0 - mu) * (self.z - dig_a + dig_b)
                d_disp = phi * (
                    sp.digamma(phi)
                    - mu * dig_a
                    - (1.0 - mu) * dig_b
                    + mu * self.log_y
                    + (1.0 - mu) * self.log_1my
                )
                return d_mean, d_disp, (mu, phi, a, b)
            mean_lin, disp_lin = self._linear(x)
            sigma = np.exp(disp_lin)
            resid = (self.z - mean_lin) / sigma
            return resid / sigma, resid * resid - 1.0, (sigma,)

    def gradient_from(self, rows) -> np.ndarray:
        """Analytic gradient of the mean negative log-likelihood from :meth:`rows`."""
        d_mean, d_disp, _ = rows
        with np.errstate(over="ignore", invalid="ignore"):
            g = -np.concatenate([self.Z.T @ d_mean, self.Zd.T @ d_disp]) / self.n
        return np.where(np.isfinite(g), g, 0.0)

    def hessian_from(self, rows, expected: bool = False) -> np.ndarray:
        """Analytic Hessian of the mean negative log-likelihood from :meth:`rows`.

        With ``expected`` it is the expected (Fisher) information instead,
        which is positive definite for every family at a full-rank design.
        Both are assembled as ``Z^T diag(w) Z`` blocks from per-row weights:
        the expected weights, plus residual terms for the observed Hessian
        (Ferrari & Cribari-Neto 2004; Simas, Barreto-Souza & Rocha 2010 for
        varying precision).  Non-finite entries are left for the caller.
        """
        d_mean, d_disp, fitted = rows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.family.is_beta:
                mu, phi, a, b = fitted
                n = self.n  # one trigamma call for a, b and phi
                tri = _trigamma(np.concatenate([a, b, np.atleast_1d(phi)]))
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
                (sigma,) = fitted
                w_mm = sigma**-2.0
                w_md = 0.0 if expected else 2.0 * d_mean
                w_dd = 2.0 if expected else 2.0 * (d_disp + 1.0)
            k = self.k
            H = np.empty((k + self.Zd.shape[1],) * 2)
            H[:k, :k] = (self.Z.T * w_mm) @ self.Z
            H[:k, k:] = (self.Z.T * w_md) @ self.Zd
            H[k:, :k] = H[:k, k:].T
            H[k:, k:] = (self.Zd.T * w_dd) @ self.Zd
        return H / self.n

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of the mean negative log-likelihood."""
        return self.gradient_from(self.rows(x))

    def hessian(self, x: np.ndarray, expected: bool = False) -> np.ndarray:
        """Analytic Hessian (or, with ``expected``, the Fisher information)."""
        return self.hessian_from(self.rows(x), expected)


def loglik(data: Dataset, spec: ModelSpec, params) -> float:
    """Model log-likelihood at a packed parameter vector.

    Layout: mean intercept, mean coefficients, dispersion intercept, and
    (heteroscedastic families only) dispersion coefficients.  The transform
    families model logit(y) directly, without a change-of-variables term.
    Returns -inf for parameter values outside the valid region.
    """
    _split_params(params, data.p, spec.family)  # validates the layout
    return -data.n * _Likelihood(data, spec.family).objective(np.asarray(params, dtype=float))


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


def _newton(lik: _Likelihood, x: np.ndarray, opts: FitOptions):
    """Damped Newton iterations from ``x`` until the relative gradient meets
    ``opts.gtol``, no step is acceptable, or ``opts.max_iter`` is reached.

    Each accepted point gets one derivative pass, from which both the
    gradient and the Hessian are built.  Steps are halved until they
    satisfy the Armijo condition.  Near an optimum the objective is flat to
    rounding noise while the gradient may not yet have converged, so the
    condition allows an increase of up to ``1e3 * eps * |f|``.  Returns
    (x, f, whether the gradient test was met, iterations).
    """
    f, rows = lik.objective(x), lik.rows(x)
    g = lik.gradient_from(rows)
    for it in range(opts.max_iter):
        if _relative_gradient(g, x, f) <= opts.gtol:
            return x, f, True, it
        step = _newton_direction(lik, rows, g)
        if step is None:
            return x, f, False, it
        descent = ARMIJO_C * float(g @ step)
        slack = 1e3 * np.finfo(float).eps * max(1.0, abs(f))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_try = x + t * step
            f_try = lik.objective(x_try)
            if f_try <= f + t * descent + slack:
                break
            t *= 0.5
        else:
            return x, f, False, it
        x, f, rows = x_try, f_try, lik.rows(x_try)
        g = lik.gradient_from(rows)
    return x, f, _relative_gradient(g, x, f) <= opts.gtol, opts.max_iter


def _ols_logit(lik: _Likelihood):
    """OLS of logit(y) on the design, and the ML residual variance.

    ``lstsq`` reports the design's rank with the same cutoff as
    ``np.linalg.matrix_rank``, so a rank-deficient design raises
    :class:`SingularDesign` here at no extra cost.
    """
    coef, _, rank, _ = np.linalg.lstsq(lik.Z, lik.z, rcond=None)
    if rank < lik.k:
        raise SingularDesign("design matrix with intercept is rank deficient")
    resid = lik.z - lik.Z @ coef
    sigma2 = float(resid @ resid) / lik.n  # maximum likelihood divisor
    return coef, max(sigma2, 1e-12)


def _initial_params(data: Dataset, lik: _Likelihood) -> np.ndarray:
    """Cold start: moments of the OLS fit of logit(y), or for m4 the m3 fit.

    Either way an OLS fit of the design runs first and raises
    :class:`SingularDesign` for a rank-deficient one.
    """
    if lik.family is ModelFamily.BETA_MEAN_DISP:
        base = fit(data, ModelSpec(ModelFamily.BETA_MEAN))
        return np.concatenate([base.params, np.zeros(data.p)])
    coef, sigma2 = _ols_logit(lik)
    if lik.family is ModelFamily.TRANSFORM_HETERO:
        return np.concatenate([coef, [0.5 * np.log(sigma2)], np.zeros(data.p)])
    # beta families: method-of-moments precision from the logit-scale residual
    # variance, var(y) ~= var(z) * (mu (1 - mu))^2 by the delta method
    mu = np.clip(expit(lik.Z @ coef), EPS, 1.0 - EPS)
    phi_points = 1.0 / (sigma2 * mu * (1.0 - mu)) - 1.0
    phi0 = float(np.clip(np.mean(phi_points), 0.5, 1e4))
    return np.concatenate([coef, [np.log(phi0)]])


def fit(data: Dataset, spec: ModelSpec, opts: FitOptions | None = None) -> FittedModel:
    """Fit one family by maximum likelihood.

    The homoscedastic transform family is solved in closed form (OLS on the
    logit scale, residual variance with the maximum likelihood divisor).
    The others run damped Newton on the mean negative log-likelihood from
    ``opts.init`` or a moment-based start (m4 starts from the m3 fit); a
    fit that has not met ``opts.gtol`` when no step improves the objective
    or ``opts.max_iter`` iterations have run is reported with
    ``converged=False``.  Never raises for non-convergence; raises
    :class:`SingularDesign` for a rank-deficient design.  The rank check
    comes with the OLS fit of a cold start; a warm start runs it as an SVD,
    except on an augmented copy of a design that already passed it.
    """
    opts = opts or FitOptions()
    if data.n < data.p + 2:
        raise FitError(f"need at least p + 2 = {data.p + 2} observations, got {data.n}")
    family = spec.family
    lik = _Likelihood(data, family)
    if family is ModelFamily.TRANSFORM_HOMO:
        coef, sigma2 = _ols_logit(lik)
        data._mark_full_rank()
        params = np.concatenate([coef, [0.5 * np.log(sigma2)]])
        return _build(data, spec, params, lik.objective(params), converged=True, iterations=0)

    if opts.init is None:
        x0 = _initial_params(data, lik)
    else:
        if not data._full_rank and np.linalg.matrix_rank(lik.Z) < lik.k:
            raise SingularDesign("design matrix with intercept is rank deficient")
        x0 = np.asarray(opts.init, dtype=float)
    data._mark_full_rank()
    _split_params(x0, data.p, family)  # validates the layout
    x, f, converged, iterations = _newton(lik, x0, opts)
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
