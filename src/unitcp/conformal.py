"""Split and full conformal prediction intervals on the unit interval.

Split conformal fits once on a random half of the data, takes the
conformal quantile of the calibration scores, and inverts the score
inequality in closed form.  Full conformal refits the model for candidate
responses.  Each candidate has a signed margin, its score minus the k-th
smallest score of the other n points, which is <= 0 exactly when the
candidate is in the conformal set and moves continuously with it.  One
edge search serves all four families: from the fitted centre it probes
each edge where the base fit predicts it, extrapolates by secant until a
candidate is excluded, and closes the bracket by Illinois regula falsi,
returning the included end of a bracket no wider than the resolution.
The beta families are searched in y on (0, 1); the transform families on
the logit scale over an extended classical prediction interval.  Every
refit of an interval starts from the parameters of the nearest candidate
already fitted for it (the base fit for the first), and the augmented
data are checked only in the appended row.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import (
    Dataset,
    FitError,
    FitOptions,
    FittedModel,
    ModelSpec,
    NonConvergence,
    fit,
)
from .numeric import BetaParams, beta_quantile, expit, norm_cdf, norm_quantile
from .scores import ScoreKind, score

__all__ = [
    "Method",
    "PredictionInterval",
    "SplitConfig",
    "FullConfig",
    "IntervalSearchWarning",
    "conformal_quantile",
    "split_cp",
    "split_cp_batch",
    "indicator",
    "full_cp",
    "classical_gauss_interval",
]

# candidate grids never leave [expit(-LOGIT_LIMIT), expit(LOGIT_LIMIT)], which
# keeps expit() away from exact 0/1
LOGIT_LIMIT = 36.0

# the edge search extrapolates at most this many times its last step
EDGE_GROWTH = 4.0

# quantile-score inversion clamps its CDF arguments here (matches the score clamp)
_U_CLIP = 1e-12


class IntervalSearchWarning(UserWarning):
    """The adaptive search saw evidence against a contiguous inclusion region."""


class Method(enum.Enum):
    SPLIT = "split"
    FULL = "full"
    BOOTSTRAP = "bootstrap"


@dataclass(frozen=True)
class PredictionInterval:
    """Interval for a future response, possibly empty.

    ``level`` records the requested coverage 1 - alpha and is never
    recomputed from the data.
    """

    lower: float
    upper: float
    level: float
    method: Method
    empty: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if not self.empty and not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid bounds ({self.lower}, {self.upper})")

    @property
    def width(self) -> float:
        return 0.0 if self.empty else self.upper - self.lower

    def contains(self, y: float) -> bool:
        return bool((not self.empty) and self.lower <= y <= self.upper)


@dataclass(frozen=True)
class SplitConfig:
    """Settings for split conformal prediction.

    ``split_fraction`` is the calibration share; with the 0.5 default and
    odd n the training half gets the extra point.
    """

    alpha: float
    split_fraction: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class FullConfig:
    """Settings for full conformal prediction.

    ``tolerance`` is the endpoint resolution of the beta families' search
    in y; ``grid_step`` is the endpoint resolution of the transform
    families' search on the logit scale.  Each returned endpoint is
    included and lies within that resolution of the edge of the conformal
    set.  ``rho`` extends the classical interval by ``rho`` widths on each
    side to bound the transform families' search range.
    """

    alpha: float
    tolerance: float = 1e-4
    rho: float = 3.0
    grid_step: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.tolerance <= 0.0 or self.rho <= 0.0 or self.grid_step <= 0.0:
            raise ValueError("tolerance, rho and grid_step must be positive")


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((1 - alpha) (m + 1))-th smallest of m calibration scores.

    Returns +inf when that rank exceeds m, in which case the interval
    degenerates to the full candidate range.  Ties keep all copies.
    """
    s = np.sort(np.asarray(scores, dtype=float))
    m = len(s)
    if m == 0:
        raise ValueError("need at least one calibration score")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k = math.ceil((1.0 - alpha) * (m + 1))
    if k > m:
        return float("inf")
    return float(s[k - 1])


# ---------------------------------------------------------------------------
# split conformal prediction


def _split_fit(data: Dataset, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig):
    """Fit on the training half and return (model, conformal quantile)."""
    n = data.n
    n_cal = int(math.floor(n * cfg.split_fraction))
    n_cal = min(max(n_cal, 1), n - 1)
    perm = np.random.default_rng(cfg.rng_seed).permutation(n)
    cal_idx, train_idx = perm[:n_cal], perm[n_cal:]
    model = fit(Dataset(data.y[train_idx], data.X[train_idx]), spec)
    if not model.converged:
        raise NonConvergence("training fit did not converge")
    cal_scores = score(kind, data.y[cal_idx], model, data.X[cal_idx])
    return model, conformal_quantile(cal_scores, cfg.alpha)


def _invert_split(
    model: FittedModel, kind: ScoreKind, q: float, x_new, level: float
) -> PredictionInterval:
    """Closed-form solution of {y : score(y) <= q} for one new covariate."""
    if math.isinf(q):
        return PredictionInterval(0.0, 1.0, level, Method.SPLIT)
    if model.family.is_beta:
        mu = float(model.predict_mean(x_new))
        if kind is ScoreKind.PEARSON:
            half = q * float(model.predict_sigma(x_new))
            # additive form can escape the unit interval near the boundary
            return PredictionInterval(max(0.0, mu - half), min(1.0, mu + half), level, Method.SPLIT)
        params = BetaParams(mu, float(model.predict_phi(x_new)))
        u_lo = float(np.clip(norm_cdf(-q), _U_CLIP, 1.0 - _U_CLIP))
        u_hi = float(np.clip(norm_cdf(q), _U_CLIP, 1.0 - _U_CLIP))
        return PredictionInterval(
            float(beta_quantile(u_lo, params)),
            float(beta_quantile(u_hi, params)),
            level,
            Method.SPLIT,
        )
    center = float(model.predict_linear(x_new))
    half = q if kind is ScoreKind.RAW else q * float(model.predict_sigma(x_new))
    return PredictionInterval(
        float(expit(center - half)), float(expit(center + half)), level, Method.SPLIT
    )


def split_cp(
    data: Dataset, x_new, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig
) -> PredictionInterval:
    """Split conformal prediction interval for one new covariate vector."""
    model, q = _split_fit(data, spec, kind, cfg)
    return _invert_split(model, kind, q, np.asarray(x_new, dtype=float), 1.0 - cfg.alpha)


def split_cp_batch(
    data: Dataset, X_new, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig
) -> list[PredictionInterval]:
    """Split intervals for several covariate vectors from a single fit.

    Identical to calling :func:`split_cp` per row (the split and the fit
    depend only on the data and config), just without refitting.
    """
    model, q = _split_fit(data, spec, kind, cfg)
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    return [_invert_split(model, kind, q, x, 1.0 - cfg.alpha) for x in X_new]


# ---------------------------------------------------------------------------
# full conformal prediction


def _margin(
    y: float,
    data: Dataset,
    x_new,
    spec: ModelSpec,
    kind: ScoreKind,
    alpha: float,
    opts: FitOptions | None = None,
) -> tuple[float, FittedModel]:
    """Signed inclusion margin of one candidate response, and the refit.

    Appends (y, x_new) to the data, refits, and returns the candidate's
    score minus the k-th smallest score of the other n points, with
    k = ceil((1 - alpha)(n + 1)).  The candidate is in the conformal set
    exactly when the margin is <= 0; the margin is -inf when k > n, where
    every candidate is.  Measured against the k-th of all n + 1 scores
    instead, it would be 0 across a whole range of y and give a root finder
    no slope.  A fit that fails to converge raises rather than silently
    excluding the candidate.
    """
    y_cand = float(y)
    if not 0.0 < y_cand < 1.0:
        raise ValueError("candidate must lie strictly in (0, 1)")
    aug = data.augmented(y_cand, np.asarray(x_new, dtype=float))
    model = fit(aug, spec, opts)
    if not model.converged:
        raise NonConvergence(f"augmented fit did not converge at candidate {y_cand:.6g}")
    all_scores = score(kind, aug.y, model, aug.X)
    k = math.ceil((1.0 - alpha) * aug.n)
    if k > data.n:
        return -math.inf, model
    return float(all_scores[-1] - np.partition(all_scores[:-1], k - 1)[k - 1]), model


def indicator(
    aug_candidate: float,
    data: Dataset,
    x_new,
    spec: ModelSpec,
    kind: ScoreKind,
    alpha: float,
    opts: FitOptions | None = None,
) -> bool:
    """Conformal inclusion test for one candidate response.

    Appends (candidate, x_new) to the data, refits, and checks whether the
    candidate's score is within the ceil((1 - alpha)(n + 1))-th smallest of
    all n + 1 scores.  A fit that fails to converge raises rather than
    silently excluding the candidate.
    """
    return _margin(aug_candidate, data, x_new, spec, kind, alpha, opts)[0] <= 0.0


def classical_gauss_interval(m: FittedModel, x_new, alpha: float) -> tuple[float, float]:
    """Classical normal prediction interval on the logit scale."""
    center = float(m.predict_linear(x_new))
    half = float(norm_quantile(1.0 - alpha / 2.0)) * float(m.predict_sigma(x_new))
    return center - half, center + half


def _edge(margin, inside, outside, tol: float, guess: float) -> tuple[float, bool]:
    """Locate the edge of the inclusion region between two points.

    ``inside`` is a point (u, margin(u)) with margin <= 0.  ``outside`` is an
    excluded point, or the end of the search range with margin ``None``; the
    end itself is never evaluated.  Until an excluded point is known the
    search probes ``guess`` (when it lies between the two) and then
    extrapolates the secant through the last two included points, at most
    ``EDGE_GROWTH`` times the last step and never past the range end, which
    it approaches by halving.  Once one is known, Illinois regula falsi
    closes the bracket.  Every probe keeps at least tol/2 from both ends of
    the bracket, so each one shrinks it by that much.

    Returns the inside end of a final bracket no wider than ``tol``, which
    is certified included, and whether the region reached the range end.
    """
    (a, fa), (b, fb) = inside, outside
    sign = 1.0 if b > a else -1.0
    prev = None  # the included point before ``a``, for the secant
    kept = None  # the end the last probe left in place
    while abs(b - a) > tol:
        if fb is not None:
            r = a - fa * (b - a) / (fb - fa)
        elif prev is None:
            r = guess if 0.0 < sign * (guess - a) < sign * (b - a) else 0.5 * (a + b)
        else:
            ratio = -fa / (fa - prev[1]) if fa > prev[1] else EDGE_GROWTH
            r = a + (a - prev[0]) * min(ratio, EDGE_GROWTH)
            if sign * (b - r) < 0.5 * tol:
                r = 0.5 * (a + b)
        # keep tol/2 from both ends of the bracket
        r = sign * min(max(sign * r, sign * a + 0.5 * tol), sign * b - 0.5 * tol)
        if r in (a, b):  # tol/2 is below the float spacing here
            r = 0.5 * (a + b)
            if r in (a, b):  # the bracket cannot shrink any further
                break
        m = margin(r)
        if m > 0.0:
            if kept == "inside":
                fa *= 0.5
            b, fb, kept = r, m, "inside"
        else:
            if kept == "outside" and fb is not None:
                fb *= 0.5
            prev, (a, fa), kept = (a, fa), (r, m), "outside"
    return a, fb is None


def _search(margin, centre: float, lo: float, hi: float, tol: float, guesses):
    """Inclusion region of ``margin`` within the range (lo, hi) of one coordinate.

    Starts at ``centre``.  When the centre is excluded, a coarse expansion
    evaluates the midpoint of every gap of ``tol`` or more between known
    points (the range ends count as excluded) until one is included.  Then
    :func:`_edge` locates each edge from the outermost included points, with
    ``guesses`` as the first probes.  Returns None for an empty region, else
    (lower, upper, whether the region reached a range end).
    """
    known = {lo: None, centre: margin(centre), hi: None}
    while not any(m is not None and m <= 0.0 for m in known.values()):
        xs = sorted(known)
        mids = [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:]) if b - a >= tol]
        if not mids:
            return None
        for w in mids:
            known[w] = margin(w)
    xs = sorted(known)
    hits = [i for i, u in enumerate(xs) if known[u] is not None and known[u] <= 0.0]
    i, j = hits[0], hits[-1]
    lower, lo_end = _edge(margin, (xs[i], known[xs[i]]), (xs[i - 1], known[xs[i - 1]]), tol, guesses[0])
    upper, hi_end = _edge(margin, (xs[j], known[xs[j]]), (xs[j + 1], known[xs[j + 1]]), tol, guesses[1])
    return lower, upper, lo_end or hi_end


def _contiguity_probes(interval: PredictionInterval, include, tol: float) -> None:
    """Spot-check that the located region is a single interval.

    The search assumes the inclusion set is contiguous; three deterministic
    pseudo-random probes outside the returned bounds surface violations as
    a warning instead of silently mislocating the interval.
    """
    if interval.empty:
        return
    rng = np.random.default_rng(0)
    sides = []
    if interval.lower > 10.0 * tol:
        sides.append((tol, interval.lower - tol))
    if interval.upper < 1.0 - 10.0 * tol:
        sides.append((interval.upper + tol, 1.0 - tol))
    if not sides:
        return
    for k in range(3):
        lo, hi = sides[k % len(sides)]
        w = float(lo + (hi - lo) * rng.uniform(0.05, 0.9))
        try:
            hit = include(w)
        except FitError:  # diagnostics must not abort the interval
            warnings.warn(f"contiguity probe at {w:.4g} failed to fit", IntervalSearchWarning)
            continue
        if hit:
            warnings.warn(
                f"included point {w:.4g} found outside the returned bounds "
                f"({interval.lower:.4g}, {interval.upper:.4g})",
                IntervalSearchWarning,
            )
            return


def full_cp(
    data: Dataset,
    x_new,
    spec: ModelSpec,
    kind: ScoreKind,
    cfg: FullConfig,
) -> PredictionInterval:
    """Full conformal prediction interval for one new covariate vector.

    The beta families are searched in y on (0, 1) to ``cfg.tolerance``,
    starting at the fitted mean; the transform families in logit over the
    classical interval extended by ``cfg.rho`` widths on each side, to
    ``cfg.grid_step``, starting at the fitted linear predictor.  The first
    probe of each edge is where the base fit puts it: the split inversion
    of the base model at the conformal quantile of its own scores.

    Each refit starts from the parameters of the nearest candidate already
    fitted for this interval, the first from the base fit.  Late probes of
    an edge lie within a few resolutions of a fitted candidate, so their
    refits start almost converged.
    """
    x_new = np.asarray(x_new, dtype=float)
    base = fit(data, spec)
    if not base.converged:
        raise NonConvergence("base fit did not converge")
    level = 1.0 - cfg.alpha
    fitted: list[tuple[float, np.ndarray]] = []  # (candidate, refit parameters)

    def margin(y: float) -> float:
        init = min(fitted, key=lambda c: abs(c[0] - y))[1] if fitted else base.params
        m, model = _margin(y, data, x_new, spec, kind, cfg.alpha, FitOptions(init=init))
        fitted.append((y, model.params))
        return m

    q = conformal_quantile(score(kind, data.y, base, data.X), cfg.alpha)
    predicted = _invert_split(base, kind, q, x_new, level)
    if spec.family.is_beta:
        to_y, tol = float, cfg.tolerance
        lo, hi, centre = 0.0, 1.0, float(base.predict_mean(x_new))
        guesses = (predicted.lower, predicted.upper)
    else:
        to_y, tol = (lambda u: float(expit(u))), cfg.grid_step
        lo_cl, hi_cl = classical_gauss_interval(base, x_new, cfg.alpha)
        width = hi_cl - lo_cl
        lo = max(lo_cl - cfg.rho * width, -LOGIT_LIMIT)
        hi = min(hi_cl + cfg.rho * width, LOGIT_LIMIT)
        centre = float(base.predict_linear(x_new))
        with np.errstate(divide="ignore"):
            guesses = tuple(float(np.log(y) - np.log1p(-y)) for y in (predicted.lower, predicted.upper))

    found = _search(lambda u: margin(to_y(u)), centre, lo, hi, tol, guesses)
    if found is None:
        return PredictionInterval(math.nan, math.nan, level, Method.FULL, empty=True)
    lower, upper, at_end = found
    if at_end and not spec.family.is_beta:
        warnings.warn(
            "inclusion region reaches the extended grid boundary; consider a larger rho",
            IntervalSearchWarning,
        )
    interval = PredictionInterval(to_y(lower), to_y(upper), level, Method.FULL)
    _contiguity_probes(interval, lambda y: margin(y) <= 0.0, tol)
    return interval
