"""Split and full conformal prediction intervals on the unit interval.

Split conformal fits once on a random half of the data, takes the
conformal quantile of the calibration scores, and inverts the score
inequality in closed form.  Full conformal refits the model for candidate
responses.  Each candidate has a signed margin, its score minus the k-th
smallest score of the other n points, which is <= 0 exactly when the
candidate is in the conformal set and moves continuously with it.  Every
refit starts from the base fit, so a margin is a function of its
candidate alone.  One edge search serves all four families: it probes
first the two edges the base fit predicts, and the fitted centre only
when neither is included; from the outermost included points it
extrapolates by secant until a candidate is excluded, and closes the
bracket by Illinois regula falsi, returning the included end of a
bracket no wider than the resolution.  The lower and upper edges advance
in lockstep, each round refitting both edges' next probes in one batched
solve.  The beta families are searched in y on (0, 1); the transform
families on the logit scale over (-LOGIT_LIMIT, LOGIT_LIMIT).  When k > n
every candidate is in the set, and the interval is (0, 1) with no fit.
The base fit is made once per dataset and family and kept on the
dataset.  The refits of an interval share one candidate workspace, built
and validated once: the design of the n rows plus the new covariate row,
with the response transforms, of which each candidate rewrites only its
own row.  A refit is one fit of that workspace, and the n + 1 scores come
from the fitted values of its last derivative pass.  A refit that does
not converge from the base fit is refitted once cold.  The conformal set
need not be one interval, and full CP returns the hull of the included
points it finds.  For the beta families these include the two end cells,
y = tol/2 and 1 - tol/2, which are refitted together with the search's
first points in one batch: an included end cell is the interval's
endpoint on its side.  Their refits do not depend on the score, so the
dataset keeps their converged parameters per family and new row, and the
other score kind's interval starts them there.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .models import (
    Dataset,
    FittedModel,
    ModelSpec,
    NonConvergence,
    _checked_row,
    _Likelihood,
    _solve,
    fit,
)
from .numeric import BetaParams, _log_odds, beta_quantile, expit, norm_cdf
from .scores import CDF_CLIP, ScoreKind, _check_kind, _score_fitted, beta_sd, score

__all__ = [
    "PredictionInterval",
    "SplitConfig",
    "FullConfig",
    "IntervalSearchWarning",
    "conformal_quantile",
    "split_cp",
    "split_cp_batch",
    "indicator",
    "full_cp",
]

# the transform families' search range on the logit scale; expit() of it
# stays away from exact 0/1
LOGIT_LIMIT = 36.0

# the edge search extrapolates at most this many times its last step
EDGE_GROWTH = 4.0

# probes aimed at an estimated edge go this many resolutions inside it
EDGE_AIM = 0.25


class IntervalSearchWarning(UserWarning):
    """Evidence against a contiguous inclusion region.

    Nothing in unitcp raises it any more: full CP returns the hull of the
    included points it finds.  It stays exported for the benchmark driver
    and the test configuration, which name it.
    """


@dataclass(frozen=True)
class PredictionInterval:
    """Interval for a future response, possibly empty.

    ``level`` records the requested coverage 1 - alpha and is never
    recomputed from the data.  ``empty`` is keyword-only; an empty
    interval's bounds are not checked (the package writes nan).  Which
    method built the interval is the caller's to record.
    """

    lower: float
    upper: float
    level: float
    empty: bool = field(default=False, kw_only=True)

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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SplitConfig:
    """Settings for split conformal prediction.

    ``rng_seed`` seeds the random split.  The calibration set is half the
    data, n // 2 points (at least 1 and at most n - 1), so with odd n the
    training half gets the extra point; the share is not an option.
    """

    alpha: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


def _calibration_size(n: int) -> int:
    """How many of n points split CP calibrates on, as :class:`SplitConfig`
    states; the rest train the model."""
    return min(max(n // 2, 1), n - 1)


@dataclass(frozen=True)
class FullConfig:
    """Settings for full conformal prediction.

    The endpoint resolutions are fixed, not settings: ``tolerance`` in y
    for the beta families' search and ``grid_step`` on the logit scale for
    the transform families'.  Each returned endpoint is certified included
    by a refit from the base fit and lies within that resolution of the
    edge of the conformal set.
    """

    tolerance: ClassVar[float] = 1e-4
    grid_step: ClassVar[float] = 1e-4

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


def conformal_quantile(scores, alpha: float):
    """The ceil((1 - alpha) (m + 1))-th smallest of m calibration scores.

    Returns +inf when that rank exceeds m, in which case the interval
    degenerates to the full candidate range.  Ties keep all copies.  A
    stack of score sets (the last axis holds the m scores) gives one
    quantile per set.
    """
    s = np.asarray(scores, dtype=float)
    m = s.shape[-1]
    if m == 0:
        raise ValueError("need at least one calibration score")
    _check_alpha(alpha)
    k = _conformal_rank(alpha, m)
    if k > m:
        return float("inf")
    q = np.partition(s, k - 1, axis=-1)[..., k - 1]
    return float(q) if s.ndim == 1 else q


def _conformal_rank(alpha: float, m: int) -> int:
    """ceil((1 - alpha) (m + 1)), the rank of the conformal quantile among m scores.

    In floating point (1 - 0.7) * 10 is 3.0000000000000004, which ``ceil``
    would lift to 4.  The product is lowered by 1e-9 first: more than its
    rounding error for m up to about a million, and less than its distance
    to the next integer for any alpha given to a few digits.
    """
    return math.ceil((1.0 - alpha) * (m + 1) - 1e-9)


# ---------------------------------------------------------------------------
# split conformal prediction


def _split_fit(data: Dataset, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig):
    """Fit on the training half and return (model, conformal quantile)."""
    n = data.n
    n_cal = _calibration_size(n)
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
        return PredictionInterval(0.0, 1.0, level)
    mean, spread = (float(v) for v in model.predict(x_new))
    if model.family.is_beta:
        if kind is ScoreKind.PEARSON:
            half = q * float(beta_sd(mean, spread))
            # additive form can escape the unit interval near the boundary
            return PredictionInterval(max(0.0, mean - half), min(1.0, mean + half), level)
        params = BetaParams(mean, spread)
        u_lo = float(np.clip(norm_cdf(-q), CDF_CLIP, 1.0 - CDF_CLIP))
        u_hi = float(np.clip(norm_cdf(q), CDF_CLIP, 1.0 - CDF_CLIP))
        return PredictionInterval(float(beta_quantile(u_lo, params)), float(beta_quantile(u_hi, params)), level)
    half = q if kind is ScoreKind.RAW else q * spread
    return PredictionInterval(float(expit(mean - half)), float(expit(mean + half)), level)


def split_cp(
    data: Dataset, x_new, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig
) -> PredictionInterval:
    """Split conformal prediction interval for one new covariate vector."""
    return split_cp_batch(data, [x_new], spec, kind, cfg)[0]


def split_cp_batch(
    data: Dataset, X_new, spec: ModelSpec, kind: ScoreKind, cfg: SplitConfig
) -> list[PredictionInterval]:
    """Split intervals for several covariate vectors from a single fit.

    Identical to calling :func:`split_cp` per row (the split and the fit
    depend only on the data and config), just without refitting.  Every
    row is checked, as :func:`full_cp` checks its ``x_new``, before the fit.
    """
    X_new = [_checked_row(x, data.p) for x in np.atleast_2d(np.asarray(X_new, dtype=float))]
    model, q = _split_fit(data, spec, kind, cfg)
    return [_invert_split(model, kind, q, x, 1.0 - cfg.alpha) for x in X_new]


# ---------------------------------------------------------------------------
# full conformal prediction


class _Refit(NamedTuple):
    """One candidate's inclusion margin and the refit behind it; the margin
    is nan when the refit did not converge."""

    margin: float
    params: np.ndarray
    iterations: int
    converged: bool


def _margins(ys, ws: _Likelihood, kind: ScoreKind, alpha: float, init=None) -> list[_Refit]:
    """Signed inclusion margins of a batch of candidate responses, and their refits.

    ``ws`` is a candidate workspace, ``_Likelihood(data, family, x_new)``:
    the n rows of the data plus the row of ``x_new``.  Each candidate y is
    written into that row of its own batch member, the family is refitted
    for every member in one batched solve, and each member's n + 1 scores
    are taken from the fitted values of its last derivative pass; every
    refit starts from the parameter vector ``init``, or from its own row
    of a (members, K) ``init``, or cold without it.
    A member's margin is the candidate's score minus the
    :func:`conformal_quantile` of the other n scores, their k-th smallest
    with k = ceil((1 - alpha)(n + 1)).  The candidate is in the conformal
    set exactly when the margin is <= 0; the margin is -inf when k > n,
    where the quantile is +inf and every candidate is in the set.  Measured
    against the k-th of all n + 1 scores instead, it would be 0 across a
    whole range of y and give a root finder no slope.  A member whose fit
    does not converge gets no scores: its refit reports ``converged`` False
    and its margin is nan, and it leaves the other members' refits as they
    would be alone.  An empty batch has no refits.
    """
    if not ys:
        return []
    ws.set_candidates(ys)
    params, _, converged, iterations, mean, spread = _solve(ws, init)
    ok = slice(None) if all(converged) else np.array(converged)
    response = ws.y if ws.family.is_beta else ws.z
    scores = _score_fitted(kind, ws.family, response[ok], mean[ok], spread[ok])
    margins = np.empty(len(params))
    margins.fill(math.nan)
    margins[ok] = scores[:, -1] - conformal_quantile(scores[:, :-1], alpha)
    return list(map(_Refit, margins.tolist(), params, iterations, converged))


def _margin(y: float, ws: _Likelihood, kind: ScoreKind, alpha: float, init=None) -> _Refit:
    """:func:`_margins` of the single candidate ``y``, which must converge: a
    fit that fails to converge raises rather than silently excluding the
    candidate."""
    refit = _margins([y], ws, kind, alpha, init)[0]
    if not refit.converged:
        raise NonConvergence(f"augmented fit did not converge at candidate {y:.6g}")
    return refit


def indicator(
    aug_candidate: float,
    data: Dataset,
    x_new,
    spec: ModelSpec,
    kind: ScoreKind,
    alpha: float,
    *,
    init=None,
) -> bool:
    """Conformal inclusion test for one candidate response.

    Appends (candidate, x_new) to the data, refits, and checks whether the
    candidate's score is within the ceil((1 - alpha)(n + 1))-th smallest of
    all n + 1 scores.  A fit that fails to converge raises rather than
    silently excluding the candidate.  The refit starts from the parameter
    vector ``init``, or cold without it.
    """
    ws = _Likelihood(data, spec.family, x_new)
    return _margin(aug_candidate, ws, kind, alpha, init).margin <= 0.0


def _edge(inside, outside, tol: float, prev=None) -> Generator[float, float, float]:
    """Locate the edge of the inclusion region between two points.

    A generator: it yields each point u it probes and is sent margin(u), so
    that :func:`_search` can refit the probes of both edges in one batch.
    ``inside`` is a point (u, margin(u)) with margin <= 0.  ``outside`` is an
    excluded point, or the end of the search range with margin ``None``; the
    end itself is never probed.  Until an excluded point is known the
    search extrapolates the secant through the last two included points,
    at most ``EDGE_GROWTH`` times the last step and never past the range
    end, which it approaches by halving.  ``prev`` stands in for the point
    before ``inside`` in the first step, when it lies on the far side of
    ``inside`` from ``outside``; it may carry an estimated margin, as it
    only steers the extrapolation.  Without it the first step probes the
    midpoint.  Once an excluded point is known, Illinois regula falsi
    closes the bracket.  Secant and regula falsi probes aim ``EDGE_AIM``
    times ``tol`` inside the edge they estimate: refits stop at a gradient
    tolerance, so fits of one candidate from different starts can differ
    in the margin by some 1e-7, and a probe on the edge itself would leave
    an endpoint whose inclusion depends on the start.  Every probe keeps
    at least tol/2 from both ends of the bracket, so each one shrinks it
    by that much.

    Returns the inside end of a final bracket no wider than ``tol``, which
    is certified included.
    """
    (a, fa), (b, fb) = inside, outside
    sign = 1.0 if b > a else -1.0
    if prev is not None and sign * (a - prev[0]) <= 0.0:
        prev = None
    kept = None  # the end the last probe left in place
    while abs(b - a) > tol:
        if fb is not None:
            r = a - fa * (b - a) / (fb - fa) - sign * EDGE_AIM * tol
        elif prev is None:
            r = 0.5 * (a + b)
        else:
            ratio = -fa / (fa - prev[1]) if fa > prev[1] else EDGE_GROWTH
            r = a + (a - prev[0]) * min(ratio, EDGE_GROWTH) - sign * EDGE_AIM * tol
            if sign * (b - r) < 0.5 * tol:
                r = 0.5 * (a + b)
        # keep tol/2 from both ends of the bracket
        r = sign * min(max(sign * r, sign * a + 0.5 * tol), sign * b - 0.5 * tol)
        if r in (a, b):  # tol/2 is below the float spacing here
            r = 0.5 * (a + b)
            if r in (a, b):  # the bracket cannot shrink any further
                break
        m = yield r
        if m > 0.0:
            if kept == "inside":
                fa *= 0.5
            b, fb, kept = r, m, "inside"
        else:
            if kept == "outside" and fb is not None:
                fb *= 0.5
            prev, (a, fa), kept = (a, fa), (r, m), "outside"
    return a


def _first_points(lo: float, hi: float, tol: float, guesses) -> list[float]:
    """The edge guesses that :func:`_search` evaluates first, each moved
    ``EDGE_AIM`` times ``tol`` inward, that lie at least tol/2 inside (lo, hi)."""
    points = (guesses[0] + EDGE_AIM * tol, guesses[1] - EDGE_AIM * tol)
    return [g for g in points if lo + 0.5 * tol <= g <= hi - 0.5 * tol]


def _search(margins, centre, lo: float, hi: float, tol: float, guesses, cells=()):
    """Inclusion region of a margin within the range (lo, hi) of one coordinate.

    ``margins`` maps a list of points to their margins, and each call is
    one batch.  ``guesses`` are where the edges are expected and ``centre``
    is a point (u, estimated margin) where the region is expected.  The
    first batch holds the guesses, moved ``EDGE_AIM`` times ``tol`` inward
    as :func:`_edge` moves its probes, where they lie at least tol/2 inside
    the range, and then the points ``cells``.  The centre goes in alone,
    and only when neither guess is included.  When the centre is excluded
    too, a coarse expansion evaluates, in one batch per round, the
    midpoint of every gap of ``tol`` or more between known points (the
    range ends count as excluded) until one is included.  Once the search
    has found the region, the included ``cells`` join the known points and
    the excluded ones are dropped, so they steer nothing.  Then an
    :func:`_edge` search runs from each of the outermost included points,
    with ``centre`` to steer its first secant step; the estimate never
    certifies an endpoint.  The two edges advance in lockstep: each round
    is one batch of the next probe of every edge still open.  Returns None
    for an empty region, else (lower, upper): the hull of the included
    points found.
    """
    known = {lo: None, hi: None}

    def found() -> bool:
        return any(m is not None and m <= 0.0 for m in known.values())

    first = _first_points(lo, hi, tol, guesses)
    batch = margins(first + list(cells))
    known.update(zip(first, batch))
    included_cells = [(u, m) for u, m in zip(cells, batch[len(first) :]) if m <= 0.0]
    if not found() and centre[0] not in known:
        known[centre[0]] = margins([centre[0]])[0]
    while not found():
        xs = sorted(known)
        mids = [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:]) if b - a >= tol]
        if not mids:
            break
        known.update(zip(mids, margins(mids)))
    known.update(included_cells)
    xs = sorted(known)
    hits = [i for i, u in enumerate(xs) if known[u] is not None and known[u] <= 0.0]
    if not hits:
        return None
    i, j = hits[0], hits[-1]
    lower = _edge((xs[i], known[xs[i]]), (xs[i - 1], known[xs[i - 1]]), tol, centre)
    upper = _edge((xs[j], known[xs[j]]), (xs[j + 1], known[xs[j + 1]]), tol, centre)
    bounds = {}

    def send(edge, m) -> list:
        """The edge's next probe, or none once it has returned its bound."""
        try:
            return [(edge, edge.send(m))]
        except StopIteration as stop:
            bounds[edge] = stop.value
            return []

    probes = send(lower, None) + send(upper, None)
    while probes:
        batch = margins([u for _, u in probes])
        probes = [p for (edge, _), m in zip(probes, batch) for p in send(edge, m)]
    return bounds[lower], bounds[upper]


def _base_fit(data: Dataset, spec: ModelSpec) -> FittedModel:
    """The fit of ``data`` itself, made once per dataset and family."""
    base = data._base_fits.get(spec)
    if base is None:
        base = data._base_fits[spec] = fit(data, spec)
    return base


def full_cp(
    data: Dataset,
    x_new,
    spec: ModelSpec,
    kind: ScoreKind,
    cfg: FullConfig,
) -> PredictionInterval:
    """Full conformal prediction interval for one new covariate vector.

    The score kind and ``x_new`` are checked before anything is fitted.
    When k = ceil((1 - alpha)(n + 1)) exceeds n, every candidate is in the
    set: the result is (0, 1), as in split CP, and nothing is fitted.
    Otherwise the beta families are searched in y on (0, 1) to
    ``cfg.tolerance`` around the fitted mean, and the transform families in
    logit on (-LOGIT_LIMIT, LOGIT_LIMIT) to ``cfg.grid_step`` around the
    fitted linear predictor, so neither search range cuts the set.  The first
    points are just inside the edges where the base fit puts them: the
    split inversion of the base model at the conformal quantile of its
    own scores.  The fitted centre is refitted only when neither is included;
    otherwise its score under the base fit, less that quantile, steers
    the first secant step of each edge.

    The interval is the hull of the included points found: the conformal
    set need not be one interval.  For the beta families the search's
    first batch also holds the two end cells, y = tol/2 and 1 - tol/2, the
    middles of the first and last resolution cells of (0, 1): an included
    end cell is the interval's endpoint on its side, and an excluded one
    leaves the search as it would be without it.  The transform families
    have no end cells.

    The base fit is made once per dataset and family and kept on the
    dataset, so the intervals of several new points share it.  Every
    refit starts from the base fit, which depends on the data alone, so
    each candidate's margin depends on the candidate alone and not on the
    search's path.  Nor does it depend on the score, so the dataset also
    keeps the end cells' converged parameter vectors, two per beta family
    and new row (160 bytes of floats for m3 and 288 for m4 at p = 8), and
    a later call for that family and row, of either score kind, puts its
    end cells into the first batch at those parameters: they converge
    there after no iteration, with the bits of their first refit, and
    only the score is read off again.  End cells whose refit fails are
    not kept.  The search hands its points over in batches (see
    :func:`_search`), each refitted in one batched solve (see
    :func:`_margins`).  A member that does not converge is refitted once
    cold, a start that also depends on the candidate alone, and the
    interval raises :class:`NonConvergence` when that fails too.  All
    refits of the call share one candidate workspace, which is dropped
    when the call returns.
    """
    _check_kind(kind, spec.family)
    x_new = _checked_row(x_new, data.p)
    level = 1.0 - cfg.alpha
    if _conformal_rank(cfg.alpha, data.n) > data.n:
        return PredictionInterval(0.0, 1.0, level)
    base = _base_fit(data, spec)
    if not base.converged:
        raise NonConvergence("base fit did not converge")
    q = conformal_quantile(score(kind, data.y, base, data.X), cfg.alpha)
    predicted = _invert_split(base, kind, q, x_new, level)
    centre = float(base.predict(x_new)[0])
    if spec.family.is_beta:
        to_y, tol, lo, hi = float, cfg.tolerance, 0.0, 1.0
        guesses = (predicted.lower, predicted.upper)
        cells = [0.5 * tol, 1.0 - 0.5 * tol]
        key = (spec, x_new.tobytes())
        kept = data._end_cells.get(key, {})
    else:
        to_y, tol, lo, hi = (lambda u: float(expit(u))), cfg.grid_step, -LOGIT_LIMIT, LOGIT_LIMIT
        with np.errstate(divide="ignore"):
            guesses = tuple(_log_odds(np.array([predicted.lower, predicted.upper])).tolist())
        cells, kept = [], {}
    estimate = float(score(kind, to_y(centre), base, x_new)) - q
    ws = _Likelihood(data, spec.family, x_new)

    def margins(us) -> list[float]:
        ys = [to_y(u) for u in us]
        if kept.keys().isdisjoint(ys):
            starts = base.params
        else:  # kept end cells start where their first refit converged
            starts = [kept.get(y, base.params) for y in ys]
        refits = _margins(ys, ws, kind, cfg.alpha, starts)
        refits = [r if r.converged else _margin(y, ws, kind, cfg.alpha) for y, r in zip(ys, refits)]
        if cells and not kept:  # the first batch, which holds the end cells
            kept.update((y, r.params.copy()) for y, r in zip(ys, refits) if y in cells)
            data._end_cells[key] = kept
        return [r.margin for r in refits]

    found = _search(margins, (centre, estimate), lo, hi, tol, guesses, cells)
    if found is None:
        return PredictionInterval(math.nan, math.nan, level, empty=True)
    return PredictionInterval(to_y(found[0]), to_y(found[1]), level)
