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
convergence is judged by a relative gradient criterion.  One Newton loop
fits a batch of parameter vectors that share a design: a single fit is a
batch of one, and full conformal prediction refits several candidate
responses at once.
"""

from __future__ import annotations

import copy
import enum
import functools
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

# Newton step control: sufficient-decrease constant and most halvings per
# step; the Armijo test allows an increase of SLACK * max(1, |f|)
ARMIJO_C = 1e-4
MAX_HALVINGS = 30
SLACK = 1e3 * np.finfo(float).eps

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


@functools.lru_cache
def _hessian_positions(k: int, kd: int) -> np.ndarray:
    """Where each entry of the (k + kd)-square Hessian sits in the flattened
    (k + 2 kd, k) product of :meth:`_Likelihood.hessian_from`: the mean
    block, the cross block below it and its transpose to the right, and
    the dispersion block."""
    rows, cols = np.arange(k), np.arange(kd)
    at = np.empty((k + kd, k + kd), dtype=np.intp)
    at[:k, :k] = rows[:, None] * k + rows
    at[k:, :k] = (k + cols[:, None]) * k + rows
    at[:k, k:] = (k + cols) * k + rows[:, None]
    at[k:, k:] = (k + kd + cols[:, None]) * k + cols
    return _read_only(at)


# dot products of matching rows of two arrays, each the vector product a
# single row would get, bit for bit
_rowdot = np.vecdot


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
    pass at a batch of parameter vectors (:meth:`evaluate`), the mean
    negative log-likelihood (the optimizer's objective), the per-row
    derivatives its analytic gradient and Hessian are built from, and the
    fitted values they came from.  The mean submodel's design ``Z`` is the
    intercept plus the covariates; the dispersion submodel's design is
    ``Z`` too, or its first ``kd`` = 1 column, the intercept, when the
    family has no dispersion covariates.  In that case the dispersion is
    one scalar for all rows, and its special functions are evaluated once.

    The responses and their transforms are (members, n) arrays: one row,
    shared by every member, for the workspace of a dataset.  With
    ``x_new`` the workspace is full conformal's candidate workspace: the
    rows of ``data`` plus one row with covariates ``x_new``, validated
    once, whose response :meth:`set_candidates` writes, one per member of
    a batch, before each refit.  Nothing else changes between candidates.
    """

    def __init__(self, data: Dataset, family: ModelFamily, x_new=None):
        X, y = data.X, data.y
        if x_new is not None:
            X = np.vstack([X, _checked_row(x_new, data.p)])
            y = np.append(y, 0.5)  # a placeholder until set_candidates
        self.n, self.k = X.shape[0], data.p + 1
        self.Z = np.column_stack([np.ones(self.n), X])
        self.ZT = np.ascontiguousarray(self.Z.T)
        self._set_family(family)
        self._pinv = None
        self.y = y[None]
        self.log_y = np.log(self.y)
        self.log_1my = np.log1p(-self.y)
        self.z = self.log_y - self.log_1my  # logit(y)
        self._rows = (self.y, self.log_y, self.log_1my, self.z)  # room for the largest batch so far

    def _set_family(self, family: ModelFamily) -> None:
        self.family = family
        self.is_beta, self.models_dispersion = family.is_beta, family.models_dispersion
        self.kd = self.k if self.models_dispersion else 1
        # how many rows each entry of the dispersion linear predictor stands for
        self.reps = 1 if self.models_dispersion else self.n
        self._at = _hessian_positions(self.k, self.kd)  # for hessian_from

    def set_candidates(self, ys) -> None:
        """Write candidate responses ``ys``, one per batch member, and their
        transforms into the last row."""
        ys = [float(y) for y in ys]
        if len(ys) != len(self.y):
            if len(ys) > len(self._rows[0]):
                self._rows = tuple(np.repeat(a[:1], len(ys), axis=0) for a in self._rows)
            self.y, self.log_y, self.log_1my, self.z = (a[: len(ys)] for a in self._rows)
        for i, y in enumerate(ys):
            if not 0.0 < y < 1.0:
                raise ValueError("candidate must lie strictly in (0, 1)")
            self.y[i, -1] = y
            self.log_y[i, -1] = log_y = math.log(y)
            self.log_1my[i, -1] = log_1my = math.log1p(-y)
            self.z[i, -1] = log_y - log_1my

    def take(self, members: np.ndarray) -> "_Likelihood":
        """The workspace of the batch members ``members`` (indices of rows
        of the responses), sharing the designs."""
        if len(members) == len(self.y):  # members only ever shrink, so these are all of them
            return self
        sub = copy.copy(self)
        sub.y, sub.log_y, sub.log_1my, sub.z = (a[members] for a in (self.y, self.log_y, self.log_1my, self.z))
        return sub

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
        # products of the design with each member's vectors, as one stack of
        # matrix-vector products: each member gets the bits a single fit would
        if self.models_dispersion:
            both = (self.Z @ x.reshape(len(x), 2, self.k)[..., None])[..., 0]
            return both[:, 0], both[:, 1]
        return (self.Z @ x[:, : self.k, None])[..., 0], x[:, self.k, None]

    def evaluate(self, x: np.ndarray):
        """Objective and derivative pass at a batch of parameter vectors.

        ``x`` holds one vector per member, shape (members, K).  Returns the
        members' mean negative log-likelihoods, a list of floats (inf
        outside the valid region), and ``rows``: per member, the per-row
        log-likelihood derivatives in the mean and dispersion linear
        predictors and the fitted values they were computed from -- mu, phi and the shapes
        [a, b, phi] for the beta families, the linear predictor and sigma
        for the transform families.  The first two fitted values, from
        :func:`_link` as in :meth:`FittedModel.predict`, give the rows'
        scores.  ``rows`` serves both :meth:`gradient_from` and
        :meth:`hessian_from`.  Floating point errors are left to the
        caller's ``np.errstate``.
        """
        n = self.n
        mean_lin, disp_lin = self._linear(x)
        mean, spread = _link(self.family, mean_lin, disp_lin)
        if self.is_beta:
            mu, phi, one_mu = mean, spread, 1.0 - mean
            a, b = mu * phi, one_mu * phi
            shapes = np.concatenate([a, b, phi], axis=1)
            log_gamma, dig = sp.gammaln(shapes), sp.digamma(shapes)
            # each member's objective in Python floats, which round as numpy's would
            terms = zip(
                log_gamma[:, 2 * n :].sum(axis=1).tolist(),
                log_gamma[:, :n].sum(axis=1).tolist(),
                log_gamma[:, n : 2 * n].sum(axis=1).tolist(),
                _rowdot(a - 1.0, self.log_y).tolist(),
                _rowdot(b - 1.0, self.log_1my).tolist(),
            )
            f = [(self.reps * p - qa - qb + ya + yb) / -n for p, qa, qb, ya, yb in terms]
            dig_a, dig_b = dig[:, :n], dig[:, n : 2 * n]
            d_mean = a * one_mu * (self.z - dig_a + dig_b)  # a = phi mu
            d_disp = phi * (
                dig[:, 2 * n :]
                - mu * dig_a
                - one_mu * dig_b
                + mu * self.log_y
                + one_mu * self.log_1my
            )
            rows = (d_mean, d_disp, mu, phi, shapes)
        else:
            resid = (self.z - mean) / spread
            const = -0.5 * LOG_2PI * n
            terms = zip(disp_lin.sum(axis=1).tolist(), _rowdot(resid, resid).tolist())
            f = [(const - self.reps * d - 0.5 * r) / -n for d, r in terms]
            rows = (resid / spread, resid * resid - 1.0, mean, spread)
        return [v if math.isfinite(v) else math.inf for v in f], rows

    def gradient_from(self, rows) -> np.ndarray:
        """Analytic gradients of the mean negative log-likelihood from a derivative pass."""
        d_mean, d_disp = rows[:2]
        g = np.empty((len(d_mean), self.k + self.kd, 1))
        np.matmul(self.ZT, d_mean[..., None], out=g[:, : self.k])
        np.matmul(self.ZT[: self.kd], d_disp[..., None], out=g[:, self.k :])
        g = g[..., 0] / -self.n
        g[~np.isfinite(g)] = 0.0
        return g

    def hessian_from(self, rows, expected: bool = False) -> np.ndarray:
        """Analytic Hessians of the mean negative log-likelihood from a derivative pass.

        With ``expected`` they are the expected (Fisher) information instead,
        which is positive definite for every family at a full-rank design.
        The blocks are ``Z^T diag(w) Z`` products of per-row weights, all
        three from one product of the stacked weighted ``Z^T`` rows with
        ``Z``: the expected weights, plus residual terms for the observed
        Hessian (Ferrari & Cribari-Neto 2004; Simas, Barreto-Souza & Rocha
        2010 for varying precision).  Non-finite entries are left for the
        caller.
        """
        d_mean, d_disp, mu, spread = rows[:4]
        if self.is_beta:
            phi, n = spread, self.n  # one trigamma call for a, b and phi
            tri = _trigamma(rows[4])
            tri_a, tri_b, tri_phi = tri[:, :n], tri[:, n : 2 * n], tri[:, 2 * n :]
            one_mu, phi2 = 1.0 - mu, phi * phi
            slope = mu * one_mu  # d mu / d mean_lin
            w_mm = (phi * slope) ** 2 * (tri_a + tri_b)
            w_md = phi2 * slope * (mu * tri_a - one_mu * tri_b)
            w_dd = phi2 * (mu * mu * tri_a + one_mu**2 * tri_b - tri_phi)
            if not expected:
                w_mm = w_mm - (1.0 - 2.0 * mu) * d_mean
                w_md = w_md - d_mean
                w_dd = w_dd - d_disp
        else:
            w_mm = spread**-2.0
            w_md = np.zeros(d_mean.shape) if expected else 2.0 * d_mean
            w_dd = np.zeros(d_disp.shape) + 2.0 if expected else 2.0 * (d_disp + 1.0)
        k, kd, ZT = self.k, self.kd, self.ZT
        weighted = np.empty((len(d_mean), k + 2 * kd, self.n))
        np.multiply(ZT, w_mm[:, None], out=weighted[:, :k])
        np.multiply(ZT[:kd], w_md[:, None], out=weighted[:, k : k + kd])
        np.multiply(ZT[:kd], w_dd[:, None], out=weighted[:, k + kd :])
        blocks = (weighted @ self.Z).reshape(len(d_mean), -1)
        return blocks.take(self._at, axis=1) / self.n


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
        f = _Likelihood(data, spec.family).evaluate(np.asarray(params, dtype=float)[None])[0]
    return -data.n * float(f[0])


def _met_gtol(g: np.ndarray, x: np.ndarray, f: list) -> list:
    """Per member, whether the relative gradient
    max_i |g_i| max(1, |x_i|) / max(1, |f|) is at most GTOL."""
    worst = (np.abs(g) * np.maximum(1.0, np.abs(x))).max(axis=1).tolist()
    return [w / max(1.0, abs(v)) <= GTOL for w, v in zip(worst, f)]


def _take(rows, members):
    return tuple(r[members] for r in rows)


def _pd_steps(H: np.ndarray, g: np.ndarray):
    """-H^-1 g per member, and a list telling per member whether its H is
    not finite, positive definite and solvable (its step is meaningless).
    The members are solved together, and one by one only when that fails,
    so one member's matrix never decides another's step."""
    if np.isfinite(H).all():
        try:
            np.linalg.cholesky(H)
            return -np.linalg.solve(H, g[..., None])[..., 0], [False] * len(g)
        except np.linalg.LinAlgError:
            pass
    if len(g) == 1:
        return g, [True]
    step, failed = np.zeros_like(g), [True] * len(g)
    for i in np.flatnonzero(np.isfinite(H).all(axis=(1, 2))):
        one, (failed[i],) = _pd_steps(H[i : i + 1], g[i : i + 1])
        step[i] = one[0]
    return step, failed


def _newton_direction(lik: _Likelihood, rows, g: np.ndarray):
    """Per member, -H^-1 g for the observed Hessian, or for the expected
    information where the Hessian is not positive definite, and a list
    telling which members have neither.

    ``rows`` is the derivative pass at the current points.  Where the
    iterates drift off (no MLE), the entries can span so many orders of
    magnitude that the solve finds the matrix singular even after a
    Cholesky factorization succeeded; that counts as unusable too.
    """
    step, failed = _pd_steps(lik.hessian_from(rows), g)
    if True not in failed:
        return step, failed
    if False not in failed:
        return _pd_steps(lik.hessian_from(rows, expected=True), g)
    todo = [i for i, v in enumerate(failed) if v]
    step[todo], still = _pd_steps(lik.hessian_from(_take(rows, todo), expected=True), g[todo])
    for i, v in zip(todo, still):
        failed[i] = v
    return step, failed


def _newton(lik: _Likelihood, x: np.ndarray):
    """Damped Newton iterations from each row of ``x``, one batch member per
    row of the workspace's responses, until a member's relative gradient
    meets ``GTOL``, no step of it is acceptable, or ``MAX_ITER`` iterations
    have run.

    Each member follows the path it would follow alone: its own step (the
    observed Hessian, or the expected information where that is not
    positive definite), its own line search and its own tests, and it
    leaves the batch when it stops; the members only share the passes over
    the data.  Every point tried gets one :meth:`_Likelihood.evaluate`
    pass, so an accepted trial point already carries the derivative pass
    from which the next step's gradient and Hessian are built.  Steps are
    halved until they satisfy the Armijo condition.  Near an optimum the
    objective is flat to rounding noise while the gradient may not yet
    have converged, so the condition allows an increase of up to
    ``SLACK * max(1, |f|)``.  Runs under the caller's ``np.errstate``.
    Returns, per member, (x, f, whether the gradient test was met,
    iterations, and the fitted mean and spread of the pass at x); the
    tests and the iteration counts are lists.
    """
    x = np.asarray(x, dtype=float)
    f, rows = lik.evaluate(x)
    g = lik.gradient_from(rows)
    converged, iterations = [False] * len(x), [0] * len(x)
    ids = list(range(len(x)))  # each active member's position in the batch
    left = []  # (positions, x, f, mean, spread) of members that stopped before the last ones

    def stop(members: list, met: list, it: int) -> bool:
        """The members flagged in ``members`` stop at iteration ``it``, with
        ``met`` telling whether each met the gradient test; returns whether
        any others remain."""
        nonlocal lik, ids, x, f, g, rows
        for i, stops, m in zip(ids, members, met):
            if stops:
                converged[i], iterations[i] = m, it
        if False not in members:
            return False
        mask = np.array(members)
        at = [i for i, stops in zip(ids, members) if stops]
        left.append((at, x[mask], [v for v, stops in zip(f, members) if stops], rows[2][mask], rows[3][mask]))
        rest = ~mask
        ids = [i for i, stops in zip(ids, members) if not stops]
        f = [v for v, stops in zip(f, members) if not stops]
        lik, x, g, rows = lik.take(np.flatnonzero(rest)), x[rest], g[rest], _take(rows, rest)
        return True

    # the scalar tests of each member run in Python, on its own floats
    for it in range(MAX_ITER):
        met = _met_gtol(g, x, f)
        if True in met and not stop(met, met, it):
            break
        step, failed = _newton_direction(lik, rows, g)
        if True in failed:
            if not stop(failed, [False] * len(failed), it):
                break
            step = step[[not v for v in failed]]
        descent = [ARMIJO_C * d for d in _rowdot(g, step).tolist()]
        slack = [SLACK * max(1.0, abs(v)) for v in f]
        t, x_new = [1.0] * len(f), x + step
        for _ in range(MAX_HALVINGS):
            f_new, rows_new = lik.evaluate(x_new)
            refused = [not a <= b + c * d + e for a, b, c, d, e in zip(f_new, f, t, descent, slack)]
            if True not in refused:
                break
            t = [0.5 * c if r else c for c, r in zip(t, refused)]
            x_new = x + np.array(t)[:, None] * step
        else:  # no acceptable step: these members stop where they are
            stuck = np.array(refused)
            x_new[stuck] = x[stuck]
            f_new = [b if r else a for a, b, r in zip(f_new, f, refused)]
            for r_new, r in zip(rows_new, rows):
                r_new[stuck] = r[stuck]
            x, f, rows = x_new, f_new, rows_new
            if not stop(refused, [False] * len(refused), it):
                break
            g = lik.gradient_from(rows)
            continue
        x, f, rows = x_new, f_new, rows_new
        g = lik.gradient_from(rows)
    else:
        stop([True] * len(ids), _met_gtol(g, x, f), MAX_ITER)
    if not left:
        return x, np.array(f), converged, iterations, rows[2], rows[3]
    out = [np.empty((len(converged),) + np.shape(a)[1:]) for a in (x, f, rows[2], rows[3])]
    for at, *parts in left + [(ids, x, f, rows[2], rows[3])]:
        for o, part in zip(out, parts):
            o[at] = part
    return out[0], out[1], converged, iterations, out[2], out[3]


def _ols_logit(lik: _Likelihood):
    """OLS of logit(y) on the design, per row of the responses:
    (coefficients, fitted linear predictor, residual sum of squares, ML
    residual variance).

    The design's pseudo-inverse is computed once per workspace and raises
    :class:`SingularDesign` for a rank-deficient design.
    """
    coef = (lik.pinv() @ lik.z[..., None])[..., 0]
    lin = (lik.Z @ coef[..., None])[..., 0]
    resid = lik.z - lin
    rss = _rowdot(resid, resid)
    return coef, lin, rss, np.maximum(rss / lik.n, 1e-12)  # maximum likelihood divisor


def _initial_params(lik: _Likelihood) -> np.ndarray:
    """Cold starts, one per row of the responses: moments of the OLS fit of
    logit(y), or for m4 the m3 fit."""
    p = lik.k - 1
    if lik.family is ModelFamily.BETA_MEAN_DISP:
        m3 = copy.copy(lik)  # the same rows, sharing every array
        m3._set_family(ModelFamily.BETA_MEAN)
        start = _newton(m3, _initial_params(m3))[0]
        return np.concatenate([start, np.zeros((len(start), p))], axis=1)
    coef, lin, _, sigma2 = _ols_logit(lik)
    if lik.family is ModelFamily.TRANSFORM_HETERO:
        return np.concatenate([coef, 0.5 * np.log(sigma2)[:, None], np.zeros((len(coef), p))], axis=1)
    # beta families: method-of-moments precision from the logit-scale residual
    # variance, var(y) ~= var(z) * (mu (1 - mu))^2 by the delta method
    mu = _link(lik.family, lin, 0.0)[0]
    phi_points = 1.0 / (sigma2[:, None] * mu * (1.0 - mu)) - 1.0
    phi0 = np.minimum(np.maximum(phi_points.sum(axis=1) / lik.n, 0.5), 1e4)  # the clipped mean
    return np.concatenate([coef, np.log(phi0)[:, None]], axis=1)


def _solve(lik: _Likelihood, init=None):
    """Fit the workspace's family to its rows, once per row of its
    responses: the kernel of :func:`fit` (one member) and of full
    conformal's refits (a batch of candidates).

    m1 is solved in closed form, and its objective and fitted values
    (linear predictor, sigma) come from the OLS fit itself.  The others run
    one batched :func:`_newton` from the parameter vector ``init`` for
    every member or, without it, from each member's cold start.  Every fit
    first checks the design's rank with :meth:`_Likelihood.pinv`, whose
    SVD is made once per workspace, so the refits of one full-conformal
    interval share it.  The fit itself runs under one ``np.errstate``.
    Returns, per member, (params, objective, converged, iterations, and
    the fitted mean and spread of the final derivative pass); converged and
    iterations are lists.
    """
    if lik.n < lik.k + 1:
        raise FitError(f"need at least p + 2 = {lik.k + 1} observations, got {lik.n}")
    lik.pinv()  # raises SingularDesign for a rank-deficient design
    members = len(lik.y)
    if lik.family is ModelFamily.TRANSFORM_HOMO:  # raises no floating point error
        coef, lin, rss, sigma2 = _ols_logit(lik)
        log_sigma = 0.5 * np.log(sigma2)
        f = 0.5 * LOG_2PI + log_sigma + 0.5 * rss / (lik.n * sigma2)
        params = np.concatenate([coef, log_sigma[:, None]], axis=1)
        return params, f, [True] * members, [0] * members, *_link(lik.family, lin, log_sigma[:, None])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if init is None:
            x0 = _initial_params(lik)
        else:
            init = np.asarray(init, dtype=float)
            _split_params(init, lik.k - 1, lik.family)  # validates the layout
            x0 = np.repeat(init[None], members, axis=0)
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
    x, f, converged, iterations = _solve(_Likelihood(data, spec.family), init)[:4]
    return _build(data, spec, x[0], float(f[0]), converged[0], iterations[0])


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
