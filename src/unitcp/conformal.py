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
bracket no wider than the resolution.  The beta families are searched in
y on (0, 1); the transform families on the logit scale over
(-LOGIT_LIMIT, LOGIT_LIMIT).  When k > n every candidate is in the set,
and the interval is (0, 1) with no fit.

The refits of an interval run in one pool (:class:`_Pool`): a candidate
joins it between two Newton rounds, every running refit takes one step
per round, and a refit leaves when it stops, so the search hears of each
margin in the round its refit ends.  Each edge orders its next probe as
soon as its last one ends, whatever the other edge does.  A refit that
does not converge from the base fit is refitted once cold.  The base fit
is made once per dataset and family and kept on the dataset.  The refits
of an interval share one candidate workspace, built and validated once:
the design of the n rows plus the new covariate row, with the response
transforms, of which each candidate has its own row.

The conformal set need not be one interval, and full CP returns the hull
of the included points it finds.  For the beta families these include
the two end cells, y = tol/2 and 1 - tol/2, which join the pool with the
search's first points: an included end cell is the interval's endpoint
on its side.  The edges do not wait for them: an end cell that ends
included stops the refit its side's edge has running.  Their refits do
not depend on the score, so the dataset keeps their converged parameters
per family and new row, and the other score kind's interval starts them
there.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .models import (
    Dataset,
    FittedModel,
    ModelFamily,
    ModelSpec,
    NonConvergence,
    _check_design,
    _checked_row,
    _initial_params,
    _Likelihood,
    _newton,
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


class _Pool:
    """The refits of candidate responses on one candidate workspace, run
    together: members join between rounds and leave when their refit stops.

    ``ws`` is a candidate workspace, ``_Likelihood(data, family, x_new)``:
    the n rows of the data plus the row of ``x_new``, whose design the
    caller has checked.  :meth:`join` queues a candidate y under a tag of
    the caller's, to start from the parameter vector ``start``, or cold
    without it; :meth:`drop` takes a member out, unscored: a running one
    leaves the Newton pool at once, a queued one never joins.  Each
    :meth:`round` starts the queued members and runs Newton rounds of one
    :func:`models._newton` pool until at least one member stops, since
    until then nothing can change what the caller asks for, and returns
    ``(tag, y, refit)`` for each member whose refit stopped, with its
    margin (see :func:`_margins`), scored on the rows its refit ran on.
    m1 is solved in closed form, so its members stop in the round they
    join, in one batched solve on ``ws``'s rows.  A member gets the bits it
    would get alone, whoever else runs and whenever it joins.  ``rounds``
    counts the rounds run, one after another.
    """

    def __init__(self, ws: _Likelihood, kind: ScoreKind, alpha: float):
        self.ws, self.kind, self.alpha = ws, kind, alpha
        self.joining, self.dropping = [], []
        self.running = {}  # the candidate of every member in the Newton pool, by tag
        self.newton = None
        self.rounds = 0

    def __bool__(self) -> bool:
        return bool(self.joining or self.running)

    def join(self, tag, y: float, start=None) -> None:
        self.joining.append((tag, y, start))

    def drop(self, tag) -> None:
        if tag in self.running:
            del self.running[tag]
            self.dropping.append(tag)
        else:
            self.joining = [j for j in self.joining if j[0] != tag]

    def round(self) -> list:
        ws, joining = self.ws, self.joining
        if ws.family is ModelFamily.TRANSFORM_HOMO:
            if not joining:
                return []
            self.joining = []
            tags, ys, _ = zip(*joining)
            ws.set_candidates(ys)
            params, _, converged, iterations, mean, spread = _solve(ws)
            self.rounds += 1
            return list(zip(tags, ys, self._refits(params, converged, iterations, mean, spread, ws.modelled)))
        if not (joining or self.running):
            return []
        join, drop = None, self.dropping
        self.joining, self.dropping = [], []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if joining:
                tags, ys, starts = zip(*joining)
                x0 = _starts(ws, ys, starts)
                self.running.update(zip(tags, ys))
                join = (tags, ys, x0)
            try:
                if self.newton is None:
                    self.newton = _newton(ws.joined(ys, 0), x0, tags)
                    report = next(self.newton)
                else:
                    report = self.newton.send((join, drop))
                self.rounds += 1
                while not report:  # until a member stops: nothing else can change before
                    report = next(self.newton)
                    self.rounds += 1
            except StopIteration:  # the last running members were dropped
                self.newton, report = None, []
        out = []
        for tags, params, _, converged, iterations, mean, spread, response in report:
            ys = [self.running.pop(tag) for tag in tags]
            out += zip(tags, ys, self._refits(params, converged, iterations, mean, spread, response))
        return out

    def _refits(self, params, converged, iterations, mean, spread, response) -> list:
        """The refits of members from their parameters, tests, iterations,
        fitted values and responses on the modelled scale."""
        if False not in converged:
            margins = self._score_margins(response, mean, spread).tolist()
        else:
            margins = [math.nan] * len(params)
            ok = [i for i, c in enumerate(converged) if c]
            if ok:
                for i, m in zip(ok, self._score_margins(response[ok], mean[ok], spread[ok]).tolist()):
                    margins[i] = m
        return list(map(_Refit, margins, params, iterations, converged))

    def _score_margins(self, response, mean, spread) -> np.ndarray:
        """Each member's candidate score less the conformal quantile of its
        other n scores."""
        scores = _score_fitted(self.kind, self.ws.family, response, mean, spread)
        return scores[:, -1] - conformal_quantile(scores[:, :-1], self.alpha)


def _starts(ws: _Likelihood, ys, starts) -> np.ndarray:
    """The starting vectors of refits of the candidate responses ``ys``:
    each one's ``start``, or its cold start where that is None."""
    cold = [i for i, start in enumerate(starts) if start is None]
    if not cold:
        return np.array(starts, dtype=float)
    x0 = np.empty((len(starts), ws.k + ws.kd))
    x0[cold] = _initial_params(ws.joined([ys[i] for i in cold], 0))
    for i, start in enumerate(starts):
        if start is not None:
            x0[i] = start
    return x0


def _margins(ys, ws: _Likelihood, kind: ScoreKind, alpha: float, init=None) -> list[_Refit]:
    """Signed inclusion margins of a batch of candidate responses, and their refits.

    ``ws`` is a candidate workspace, ``_Likelihood(data, family, x_new)``:
    the n rows of the data plus the row of ``x_new``, whose design is
    checked first (see :func:`models._check_design`).  Each candidate y is
    written into that row of its own batch member; every member joins one
    :class:`_Pool` in its first round and leaves it when its refit stops,
    and none is dropped, the case of a pool whose members all start
    together.  Each member's n + 1 scores are taken from the fitted values
    of its last derivative pass.  Every refit starts from
    the parameter vector ``init``, or from its own row of a (members, K)
    ``init``, or cold without it.
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
    _check_design(ws)
    if init is None:
        starts = [None] * len(ys)
    else:
        init = np.asarray(init, dtype=float)
        if init.shape[-1:] != (ws.k + ws.kd,):
            raise ValueError(f"expected {ws.k + ws.kd} parameters for {ws.family}, got shape {init.shape}")
        starts = np.broadcast_to(init, (len(ys), ws.k + ws.kd))
    pool = _Pool(ws, kind, alpha)
    for i, (y, start) in enumerate(zip(ys, starts)):
        pool.join(i, y, start)
    refits = [None] * len(ys)
    while pool:
        for i, _, refit in pool.round():
            refits[i] = refit
    return refits


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
    that :func:`_search` can run both edges' probes in one pool of refits,
    each edge probing on as soon as its last probe's refit ends.
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


def _search(centre, lo: float, hi: float, tol: float, guesses, cells=()):
    """Inclusion region of a margin within the range (lo, hi) of one coordinate.

    A generator over refits that run at once and end in any order: it
    yields orders, a list of ``(tag, u)`` pairs, each to start refitting
    the point u under a new tag, or with u None to stop the refit under
    that tag, and is sent the margins of the refits that ended, a list of
    ``(tag, margin)``.  It returns None for an empty region, else
    (lower, upper): the hull of the included points found.

    ``guesses`` are where the edges are expected and ``centre`` is a point
    (u, estimated margin) where the region is expected.  ``cells`` are the
    points just inside the lower and the upper end of the range, or none.
    The first phase finds the region, one batch at a time: the guesses,
    moved ``EDGE_AIM`` times ``tol`` inward as :func:`_edge` moves its
    probes, where they lie at least tol/2 inside the range; the centre,
    alone and only when neither guess is included; and when the centre is
    excluded too, a coarse expansion, each round a batch of the midpoint
    of every gap of ``tol`` or more between known points (the range ends
    count as excluded), until one is included.  The first orders hold the
    first batch and then the cells, whose refits run beside the first
    phase.  An included cell joins the known points and an excluded one is
    dropped, so it steers nothing.  Then an :func:`_edge` search runs from
    each of the outermost included points, with ``centre`` to steer its
    first secant step; the estimate never certifies an endpoint.  Each
    edge orders its next probe as soon as its last one ends, whatever the
    other edge does.

    The edges start when the first phase ends, from the included points
    known then: a cell still running is not waited for, unless the first
    phase found no included point.  A cell that ends included and moves
    the outermost included point on a side restarts that side's edge from
    it, which stops the refit the old edge had running: an included end
    cell is its side's endpoint at once.  The search ends once both edges
    have returned and every cell has ended, so the result is that of
    waiting for the cells before starting the edges.
    """
    known = {lo: None, hi: None}

    def found() -> bool:
        return any(m is not None and m <= 0.0 for m in known.values())

    def first_phase():
        """The first phase, yielding each batch and sent its margins."""
        first = _first_points(lo, hi, tol, guesses)
        known.update(zip(first, (yield first)))
        if not found() and centre[0] not in known:
            known[centre[0]] = (yield [centre[0]])[0]
        while not found():
            xs = sorted(known)
            mids = [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:]) if b - a >= tol]
            if not mids:
                break
            known.update(zip(mids, (yield mids)))

    tags = itertools.count()
    orders, flight = [], {}  # the orders to hand out; what each refit running is for, by tag
    ends = {}  # the margin of each cell that has ended, by its index
    edges, bounds = {}, {}  # per side, 0 lower and 1 upper: [edge search, its start, its probe's tag], its result

    def order(what, u) -> int:
        tag = next(tags)
        flight[tag] = what
        orders.append((tag, u))
        return tag

    def step(side: int, m=None) -> None:
        """Send the side's edge its probe's margin, or start it without one;
        order its next probe or keep its bound."""
        edge = edges[side]
        try:
            u = next(edge[0]) if m is None else edge[0].send(m)
        except StopIteration as stop:
            bounds[side], edge[2] = stop.value, None
            return
        edge[2] = order(("edge", side), u)

    def launch() -> bool:
        """Start the edge search of each side whose outermost included point
        has moved, stopping the old one's probe; False when there is none."""
        points = dict(known)
        points.update((cells[i], m) for i, m in ends.items() if m <= 0.0)
        xs = sorted(points)
        hits = [i for i, u in enumerate(xs) if points[u] is not None and points[u] <= 0.0]
        if not hits:
            return False
        for side, i, j in ((0, hits[0], hits[0] - 1), (1, hits[-1], hits[-1] + 1)):
            old = edges.get(side)
            if old is not None:
                if old[1] == xs[i]:
                    continue
                if old[2] in flight:
                    del flight[old[2]]
                    orders.append((old[2], None))
                bounds.pop(side, None)
            edges[side] = [_edge((xs[i], points[xs[i]]), (xs[j], points[xs[j]]), tol, centre), xs[i], None]
            step(side)
        return True

    phase = first_phase()
    batch, got = next(phase), {}
    for i, u in enumerate(batch):
        order(("find", i), u)
    for i, u in enumerate(cells):
        order(("end", i), u)
    finished = []
    while True:
        probed, ended = [], len(ends)
        for tag, m in finished:
            what, key = flight.pop(tag)
            if what == "find":
                got[key] = m
            elif what == "end":
                ends[key] = m
            else:
                probed.append((key, edges[key][0], m))
        moved = phase is None and len(ends) > ended  # a cell ended after the first phase
        while phase is not None and len(got) == len(batch):
            try:
                batch = phase.send([got[i] for i in range(len(batch))])
            except StopIteration:
                phase, moved = None, True
                break
            got = {}
            for i, u in enumerate(batch):
                order(("find", i), u)
        if moved and (len(ends) == len(cells) or found()) and not launch():
            return None
        for side, edge, m in probed:
            if edges[side][0] is edge:
                step(side, m)
        if phase is None and len(ends) == len(cells) and len(bounds) == 2:
            return bounds[0], bounds[1]
        finished = yield orders
        orders = []


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
    first orders also hold the two end cells, y = tol/2 and 1 - tol/2, the
    middles of the first and last resolution cells of (0, 1): an included
    end cell is the interval's endpoint on its side, and an excluded one
    leaves the search as it would be without it.  The transform families
    have no end cells.

    The base fit is made once per dataset and family and kept on the
    dataset, so the intervals of several new points share it.  Every
    refit starts from the base fit, which depends on the data alone, so
    each candidate's margin depends on the candidate alone and not on the
    search's path or on which refits run beside it.  Nor does it depend on
    the score, so the dataset also keeps the end cells' converged
    parameter vectors, two per beta family and new row (160 bytes of
    floats for m3 and 288 for m4 at p = 8), and a later call for that
    family and row, of either score kind, starts its end cells at those
    parameters: they converge there after no iteration, with the bits of
    their first refit, and only the score is read off again.  End cells
    whose refit fails are not kept.

    The search (see :func:`_search`) and every refit run in one
    :class:`_Pool`: the search orders each point as it needs it, every
    refit joins the pool in the next round, and its margin goes back to
    the search in the round the refit ends; a refit the search no longer
    needs, the probe of an edge whose side's end cell ended included, is
    stopped.  A refit that does not converge is refitted once cold, a
    start that also depends on the candidate alone, and the interval
    raises :class:`NonConvergence` when that fails too.  All refits of
    the call share one candidate workspace, which is dropped when the call
    returns, with the pool.  Its design is not checked again: the base fit
    checked the data's, and a row more keeps its rank.
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
    pool = _Pool(ws, kind, cfg.alpha)
    ended = {} if cells and not kept else None  # this call's end-cell refits, kept once both are in
    search = _search((centre, estimate), lo, hi, tol, guesses, cells)
    join, start = pool.join, base.params
    try:
        orders = next(search)
        while True:
            for tag, u in orders:
                if u is None:
                    pool.drop(tag)
                else:
                    y = to_y(u)
                    join(tag, y, kept.get(y, start))
            finished = []
            for tag, y, refit in pool.round():
                if not refit.converged:
                    refit = _margin(y, ws, kind, cfg.alpha)
                if ended is not None and y in cells:
                    ended[y] = refit.params.copy()
                    if len(ended) == len(cells):  # kept end cells start where their first refit converged
                        kept.update(ended)
                        data._end_cells[key] = kept
                        ended = None
                finished.append((tag, refit.margin))
            orders = search.send(finished)
    except StopIteration as stop:
        found = stop.value
    if found is None:
        return PredictionInterval(math.nan, math.nan, level, empty=True)
    return PredictionInterval(to_y(found[0]), to_y(found[1]), level)
