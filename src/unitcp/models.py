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
fits a pool of parameter vectors that share a design, whose members join
between rounds and leave when they stop: a single fit is a pool of one
member, and full conformal prediction refits its candidate responses in
one pool, each as the search asks for it.
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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Responses strictly inside (0,1) plus a covariate matrix.

    The intercept column is implicit and must not be part of ``X``.
    ``y`` and ``X`` are read-only views of the arrays passed in, not
    copies: writing through them raises, but the caller must not change
    the arrays it passed either, since fits of the dataset are memoized on
    it (see :func:`unitcp.conformal.full_cp`): full conformal's base fit
    per family, and per beta family and new covariate row the parameter
    vectors of the two end-cell refits, which both score kinds share
    (about 0.3 KB of floats per row and family at p = 8, under 1 KB with
    their Python objects).  Datasets compare and hash by identity, as
    objects that carry memos.
    """

    y: np.ndarray
    X: np.ndarray
    # full conformal's base fits of this dataset, by ModelSpec, and its
    # converged end-cell refits, by (ModelSpec, the new row's bytes), each a
    # dict of parameter vectors by end cell; augmented copies start empty,
    # as their data differ
    _base_fits: dict = field(default_factory=dict, init=False, repr=False)
    _end_cells: dict = field(default_factory=dict, init=False, repr=False)

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


@dataclass(frozen=True, eq=False)
class FittedModel:
    """A fitted family: its packed parameter vector and how the fit ended.

    ``params`` is the parameter vector in the optimizer layout,
    [mean_intercept, mean_coef, disp_intercept, disp_coef], the last only
    for the families with dispersion covariates; it is stored once, as a
    read-only copy of the vector passed in, and a warm start such as
    ``fit(data, spec, init=model.params)`` takes it as it is.
    ``mean_intercept``, ``mean_coef``, ``disp_intercept`` and ``disp_coef``
    are unpacked from it when the model is built: two floats and two
    read-only arrays.  ``disp_intercept`` stores log(sigma) for the
    transform families and log(phi) for the beta families; ``disp_coef``
    is identically zero when the family has no dispersion covariates.
    ``loglik`` is the maximized log-likelihood.  ``iterations`` counts the
    Newton iterations of the fit: 0 for the closed-form family, and for a
    cold m4 fit without those of the m3 fit that gives its start.
    :meth:`predict` gives the fitted values at new covariates.  Fits
    compare and hash by identity.
    """

    spec: ModelSpec
    params: np.ndarray
    loglik: float
    converged: bool
    iterations: int = 0
    mean_intercept: float = field(init=False, repr=False)
    mean_coef: np.ndarray = field(init=False, repr=False)
    disp_intercept: float = field(init=False, repr=False)
    disp_coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        params = _read_only(np.array(self.params, dtype=float))
        k = params.size - 2  # p, or 2 p with dispersion covariates
        p = k // 2 if self.family.models_dispersion else k
        mean, disp_intercept, disp_coef = _split_params(params, p, self.family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "mean_intercept", float(mean[0]))
        object.__setattr__(self, "mean_coef", mean[1:])
        object.__setattr__(self, "disp_intercept", float(disp_intercept))
        object.__setattr__(self, "disp_coef", _read_only(disp_coef))

    @property
    def family(self) -> ModelFamily:
        return self.spec.family

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

    The responses and their transforms are (members, n) arrays, views of
    one (4, members, n) stack: one row, shared by every member, for the
    workspace of a dataset.  With ``x_new`` the workspace is full
    conformal's candidate workspace: the rows of ``data`` plus one row with
    covariates ``x_new``, validated once, whose response is a candidate:
    :meth:`set_candidates` writes one per member of a batch in place, and
    :meth:`joined` gives a workspace that adds members with candidates of
    their own.  Nothing else changes between candidates.  :meth:`take` and
    :meth:`joined` give the workspace of other members of the same design,
    as a pool of refits loses and gains members.
    """

    def __init__(self, data: Dataset, family: ModelFamily, x_new=None):
        y, n = data.y, data.n
        if x_new is not None:
            y = np.append(y, 0.5)  # a placeholder until set_candidates
        self.n, self.k = len(y), data.p + 1
        self.Z = np.empty((self.n, self.k))  # the intercept, the covariates and the row of x_new
        self.Z[:, 0] = 1.0
        self.Z[:n, 1:] = data.X
        if x_new is not None:
            self.Z[n, 1:] = _checked_row(x_new, data.p)
        self.ZT = np.ascontiguousarray(self.Z.T)
        self._set_family(family)
        self._pinv = None
        self.y = y[None]
        self.log_y = np.log(self.y)
        self.log_1my = np.log1p(-self.y)
        self.z = self.log_y - self.log_1my  # logit(y)
        # the (4, members, n) stack of the four, made when first needed, and
        # the room for the largest batch of set_candidates so far
        self._responses = self._rows = None

    def _respond(self, responses: np.ndarray) -> None:
        """Take the stack ``responses`` of y, log y, log(1 - y) and logit(y)
        as the responses, one row per member."""
        self._responses = responses
        self.y, self.log_y, self.log_1my, self.z = responses

    def _stack(self) -> np.ndarray:
        if self._responses is None:
            self._respond(np.array([self.y, self.log_y, self.log_1my, self.z]))
        return self._responses

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
        if self._rows is None:
            self._rows = self._stack()
        if len(ys) != len(self.y):
            if len(ys) > self._rows.shape[1]:
                self._rows = np.repeat(self._rows[:, :1], len(ys), axis=1)
            self._respond(self._rows[:, : len(ys)])
        _write_candidates(self._responses, ys)

    def _with(self, responses: np.ndarray) -> "_Likelihood":
        """A workspace of the same design whose responses, and whose room
        for :meth:`set_candidates`, are the stack ``responses``."""
        sub = object.__new__(_Likelihood)
        sub.__dict__.update(self.__dict__)
        sub._rows = responses
        sub._respond(responses)
        return sub

    def take(self, members) -> "_Likelihood":
        """The workspace of the batch members ``members`` (indices of rows
        of the responses), in rows of its own, sharing the designs."""
        return self._with(self._stack()[:, members])

    def joined(self, ys, keep: int) -> "_Likelihood":
        """The workspace of this one's first ``keep`` members followed by one
        member per candidate response in ``ys`` (see :meth:`set_candidates`),
        in rows of its own, sharing the designs.  Every member's responses
        are the data's but for the last row, so any member's row is the
        template of a new one."""
        stack = self._stack()
        responses = np.concatenate([stack[:, :keep]] + [stack[:, :1]] * len(ys), axis=1)
        _write_candidates(responses[:, keep:], [float(y) for y in ys])
        return self._with(responses)

    @property
    def modelled(self) -> np.ndarray:
        """The responses on the scale the family models, one row per member:
        y for the beta families, logit(y) for the transform families."""
        return self.y if self.is_beta else self.z

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


def _write_candidates(responses: np.ndarray, ys: list) -> None:
    """Write each candidate of ``ys`` and its transforms into the last row
    of its member of the stack ``responses``."""
    for i, y in enumerate(ys):
        if not 0.0 < y < 1.0:
            raise ValueError("candidate must lie strictly in (0, 1)")
        log_y, log_1my = math.log(y), math.log1p(-y)
        responses[:, i, -1] = y, log_y, log_1my, log_y - log_1my


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
    not finite, positive definite and solvable; such a member's step is
    zero.  The members are solved together, and one by one only when that
    fails, so one member's matrix never decides another's step."""
    if np.isfinite(H).all():
        try:
            np.linalg.cholesky(H)
            return -np.linalg.solve(H, g[..., None])[..., 0], [False] * len(g)
        except np.linalg.LinAlgError:
            pass
    step, failed = np.zeros_like(g), [True] * len(g)
    if len(g) > 1:
        for i in np.flatnonzero(np.isfinite(H).all(axis=(1, 2))):
            one, (failed[i],) = _pd_steps(H[i : i + 1], g[i : i + 1])
            step[i] = one[0]
    return step, failed


def _newton_direction(lik: _Likelihood, rows, g: np.ndarray):
    """Per member, -H^-1 g for the observed Hessian, or for the expected
    information where the Hessian is not positive definite, and a list
    telling which members have neither; their step is zero.

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


def _newton(lik: _Likelihood, x: np.ndarray, tags=None):
    """Damped Newton iterations over a pool of batch members that share a
    design: a generator, whose members join between rounds and leave when
    they stop.

    The first members start from the rows of ``x``, one per row of the
    workspace's responses, tagged ``tags`` (their positions by default).
    Each member follows the path it would follow alone: its own step (the
    observed Hessian, or the expected information where that is not
    positive definite), its own line search and its own tests; the members
    only share the passes over the data, so neither the others nor when a
    member joins change its bits.

    A round takes every running member one step and starts the members that
    join.  Every point tried gets one :meth:`_Likelihood.evaluate` pass: the
    first pass of a round covers the running members' trial points and the
    joining members' starting points, so an accepted trial point already
    carries the derivative pass from which the next step's gradient and
    Hessian are built.  Steps are halved until they satisfy the Armijo
    condition.  Near an optimum the objective is flat to rounding noise
    while the gradient may not yet have converged, so the condition allows
    an increase of up to ``SLACK * max(1, |f|)``.

    A member leaves at one of two points of a round.  After the line
    search, unconverged, when it had no usable direction (its step is zero)
    or no acceptable step; it keeps the point, objective and derivative
    pass it started the round with.  At the round's end, when its relative
    gradient meets ``GTOL`` or it has run ``MAX_ITER`` iterations; it has
    converged when it met the test.  A member that has just joined takes
    that test at its start, as its iteration 0.

    After each round the generator yields the members that left in it, as
    a list of blocks ``(tags, x, f, converged, iterations, mean, spread,
    response)``, with the fitted mean and spread of the pass at x and the
    members' responses on the scale the family models (see
    :attr:`_Likelihood.modelled`); the tags, objectives, tests and
    iteration counts are lists.  It is then sent ``None``, or a
    pair ``(join, drop)``: ``join`` is None or ``(tags, ys, x)``, the
    members that join in the next round, with their candidate responses
    ``ys`` (see :meth:`_Likelihood.joined`) and their starts the rows of
    ``x``;
    ``drop`` holds the tags of running members that are dropped: they leave
    before the round, unreported, and the others run on as if they had
    never joined.  The generator returns when no member runs and none
    joins.  A round runs under the ``np.errstate`` of the call that
    resumes it.
    """
    joining, dropping = (range(len(x)) if tags is None else tags, None, np.asarray(x, dtype=float)), ()
    ids, born, f = [], [], []  # the running members' tags, rounds they joined in, and objectives
    k = 0  # the round
    while True:
        report = []
        if dropping and ids:
            stay = [j for j, t in enumerate(ids) if t not in dropping]
            if not stay:
                ids, born, f = [], [], []
            elif len(stay) < len(ids):
                ids, born, f, lik, x, g, rows = _members(stay, ids, born, f, lik, x, g, rows)
        r = len(ids)
        if r:
            step, failed = _newton_direction(lik, rows, g)
            descent = [ARMIJO_C * d for d in _rowdot(g, step).tolist()]
            slack = [SLACK * max(1.0, abs(v)) for v in f]
            x_new = x + step
            if joining is not None:
                x_new = np.concatenate([x_new, joining[2]])
        elif joining is None:
            return
        else:
            failed, descent, slack, x_new = [], [], [], joining[2]
        if joining is not None:
            if joining[1] is not None:  # the running members' rows, then the new ones
                lik = lik.joined(joining[1], r)
            ids, born = ids + list(joining[0]), born + [k] * len(joining[0])
        t = [1.0] * r
        for _ in range(MAX_HALVINGS):
            f_new, rows_new = lik.evaluate(x_new)
            refused = [not a <= b + c * d + e for a, b, c, d, e in zip(f_new, f, t, descent, slack)]
            if True not in refused:
                break
            t = [0.5 * c if q else c for c, q in zip(t, refused)]
            x_new[:r] = x + np.array(t)[:, None] * step
        if True in failed or True in refused:
            gone = [j for j in range(r) if failed[j] or refused[j]]
            report.append(([ids[j] for j in gone], x[gone], [f[j] for j in gone], [False] * len(gone),
                           [k - 1 - born[j] for j in gone], rows[2][gone], rows[3][gone], lik.modelled[gone]))
            stay = [j for j in range(len(ids)) if j >= r or not (failed[j] or refused[j])]
            if stay:
                ids, born, f, lik, x, _, rows = _members(stay, ids, born, f_new, lik, x_new, None, rows_new)
            else:  # no member is left; the workspace keeps its rows
                ids, born, f = [], [], []
        else:
            x, f, rows = x_new, f_new, rows_new
        if ids:
            g = lik.gradient_from(rows)
            stops = _met_gtol(g, x, f)
            met = stops
            if k - born[0] >= MAX_ITER:  # born is in workspace order, the oldest first
                stops = [a or k - b >= MAX_ITER for a, b in zip(met, born)]
            if False not in stops:  # all leave: the arrays as they are
                report.append((ids, x, f, met, [k - b for b in born], rows[2], rows[3], lik.modelled))
                ids, born, f = [], [], []
            elif True in stops:
                gone = [j for j, s in enumerate(stops) if s]
                report.append(([ids[j] for j in gone], x[gone], [f[j] for j in gone], [met[j] for j in gone],
                               [k - born[j] for j in gone], rows[2][gone], rows[3][gone], lik.modelled[gone]))
                stay = [j for j, s in enumerate(stops) if not s]
                ids, born, f, lik, x, g, rows = _members(stay, ids, born, f, lik, x, g, rows)
        k += 1
        sent = yield report
        joining, dropping = (None, ()) if sent is None else sent


def _members(stay, ids, born, f, lik, x, g, rows):
    """The running state of :func:`_newton` narrowed to the members at
    positions ``stay``; a ``g`` of None stays None."""
    return (
        [ids[j] for j in stay],
        [born[j] for j in stay],
        [f[j] for j in stay],
        lik.take(stay),
        x[stay],
        None if g is None else g[stay],
        _take(rows, stay),
    )


def _newton_all(lik: _Likelihood, x: np.ndarray):
    """:func:`_newton` with all members joining in the first round and none
    dropped, under the caller's ``np.errstate``.  Returns, per member in the
    order of ``x``, (x, f, whether the gradient test was met, iterations,
    and the fitted mean and spread of the pass at x); the tests and the
    iteration counts are lists.
    """
    blocks = [block for report in _newton(lik, x) for block in report]
    if len(blocks) == 1:  # every member left in one round: its arrays as they are
        x, f, converged, iterations, mean, spread = blocks[0][1:7]
        return x, np.array(f), converged, iterations, mean, spread
    converged, iterations = [False] * len(x), [0] * len(x)
    first = blocks[0]
    out = [np.empty((len(x),) + np.shape(a)[1:]) for a in (first[1], first[2], first[5], first[6])]
    for at, *parts in blocks:
        for o, part in zip(out, (parts[0], parts[1], parts[4], parts[5])):
            o[at] = part
        for i, c, it in zip(at, parts[2], parts[3]):
            converged[i], iterations[i] = c, it
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
        start = _newton_all(m3, _initial_params(m3))[0]
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


def _check_design(lik: _Likelihood) -> None:
    """Raise :class:`FitError` when the workspace has fewer than p + 2 rows,
    and :class:`SingularDesign` when its design is rank deficient, by
    :meth:`_Likelihood.pinv`, whose SVD is made once per workspace."""
    if lik.n < lik.k + 1:
        raise FitError(f"need at least p + 2 = {lik.k + 1} observations, got {lik.n}")
    lik.pinv()


def _solve(lik: _Likelihood, init=None):
    """Fit the workspace's family to its rows, once per row of its
    responses: the kernel of :func:`fit` (one member) and of
    :func:`_margins`, full conformal's refits of a batch of candidates.

    m1 is solved in closed form, and its objective and fitted values
    (linear predictor, sigma) come from the OLS fit itself.  The others run
    :func:`_newton_all` from ``init``, one parameter vector for every
    member or a (members, K) array of one start per member, or without it
    from each member's cold start.  Every fit first checks the design with
    :func:`_check_design`.  The fit runs under one ``np.errstate``.  Returns, per member, (params, objective,
    converged, iterations, and the fitted mean and spread of the final
    derivative pass); converged and iterations are lists.
    """
    _check_design(lik)
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
            x0 = np.array(np.broadcast_to(init, (members, init.shape[-1])))
            _split_params(x0[0], lik.k - 1, lik.family)  # validates the layout
        return _newton_all(lik, x0)


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
    return FittedModel(spec, x[0], -data.n * float(f[0]), converged[0], iterations[0])
