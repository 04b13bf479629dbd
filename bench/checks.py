"""Output checks, run untimed after each timed request.

* every interval: 0 <= lower <= upper <= 1 and level == 1 - alpha;
* m1 with the raw score: the interval is compared with the exact full
  conformal set, which the benchmark computes itself (below);
* m2-m4: certified edges -- a cold-start ``indicator`` must include each
  finite endpoint and exclude the point one search tolerance outside it;
* split-sim coverage reports: the shape of each report;
* every workload: coverage per family over a run's prefix that a valid
  method could plausibly produce.
"""

from __future__ import annotations

import math

import numpy as np

import unitcp

# a family whose pooled coverage is this unlikely at the nominal level fails
# (binomial lower tail); about one false alarm in 10^9 checks
COVERAGE_TAIL = 1e-9


def structural(iv, alpha: float) -> list[str]:
    errs = []
    if iv.level != 1.0 - alpha:
        errs.append(f"level {iv.level!r} != 1 - alpha")
    if not iv.empty and not (0.0 <= iv.lower <= iv.upper <= 1.0):
        errs.append(f"bounds ({iv.lower!r}, {iv.upper!r}) outside 0 <= lower <= upper <= 1")
    return errs


def exact_m1_raw_set(data, x_new, alpha: float) -> list[tuple[float, float]]:
    """Exact full conformal set of m1 with the raw score, on the logit scale.

    OLS residuals of the augmented data are affine in the candidate logit t:
    r(t) = a + b t with a = (I - H) [z, 0] and b = (I - H) e_{n+1}.  Point i
    scores at least as high as the candidate where (a_i + b_i t)^2 >=
    (a_0 + b_0 t)^2, i.e. where the product of two affine functions of t is
    non-negative, so membership flips only at their roots.  A sweep over the
    sorted roots gives the count on every segment (Vovk, Gammerman & Shafer
    2005, sec. 2.3; Lei et al. 2018).  Returns the components of the set.
    """
    n = data.n
    Z = np.column_stack([np.ones(n + 1), np.vstack([data.X, x_new])])
    Q, _ = np.linalg.qr(Z)
    z0 = np.append(np.log(data.y) - np.log1p(-data.y), 0.0)
    a = z0 - Q @ (Q.T @ z0)
    b = -Q @ Q[-1]
    b[-1] += 1.0
    a0, b0, a, b = a[-1], b[-1], a[:-1], b[:-1]
    k = math.ceil((1.0 - alpha) * (n + 1))
    need = n - k + 1  # points scoring >= the candidate that inclusion requires

    # factor (a_i + b_i t)^2 - (a0 + b0 t)^2 = L1(t) * L2(t)
    c1, s1 = a - a0, b - b0
    c2, s2 = a + a0, b + b0
    sign1 = np.where(s1 != 0.0, -np.sign(s1), np.sign(c1))  # signs as t -> -inf
    sign2 = np.where(s2 != 0.0, -np.sign(s2), np.sign(c2))
    member = sign1 * sign2 >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(s1 != 0.0, -c1 / s1, np.nan)
        r2 = np.where(s2 != 0.0, -c2 / s2, np.nan)
    first, second = np.fmin(r1, r2), np.fmax(r1, r2)
    second[np.isnan(r1) | np.isnan(r2)] = np.nan
    # a point's membership flips at each of its roots: it leaves (or joins)
    # the count at the first root and returns to its start state at the second
    step = np.where(member, -1.0, 1.0)
    pos = np.concatenate([first, second])
    delta = np.concatenate([step, -step])
    keep = ~np.isnan(pos)
    pos, delta = pos[keep], delta[keep]
    order = np.argsort(pos, kind="stable")
    cuts, starts = np.unique(pos[order], return_index=True)
    jumps = np.add.reduceat(delta[order], starts) if len(cuts) else np.zeros(0)
    seg_counts = member.sum() + np.concatenate([[0.0], np.cumsum(jumps)])  # segment j ends at cuts[j]
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    comps: list[tuple[float, float]] = []
    for j, inside in enumerate(seg_counts >= need):
        if not inside:
            continue
        lo, hi = float(edges[j]), float(edges[j + 1])
        if comps and comps[-1][1] == lo:
            comps[-1] = (comps[-1][0], hi)
        else:
            comps.append((lo, hi))
    return comps


def _m1_against_exact(iv, data, x_new, cfg) -> list[str]:
    comps = exact_m1_raw_set(data, x_new, cfg.alpha)
    if not comps:
        return [] if iv.empty else ["exact set is empty but the interval is not"]
    if iv.empty:
        return ["interval is empty but the exact set is not"]
    slack = cfg.grid_step * (1.0 + 1e-6) + 1e-9
    errs = []
    for end, exact in ((iv.lower, comps[0][0]), (iv.upper, comps[-1][1])):
        t = math.log(end) - math.log1p(-end)
        if not abs(t - exact) <= slack:
            errs.append(f"endpoint logit {t:.9g} vs exact {exact:.9g} ({len(comps)} component(s))")
    return errs


def _certified_edges(iv, data, x_new, spec, kind, cfg) -> list[str]:
    if iv.empty:
        return []
    errs = []
    for end, side in ((iv.lower, -1.0), (iv.upper, 1.0)):
        if not 0.0 < end < 1.0:
            continue
        if spec.family.is_beta:
            out = end + side * cfg.tolerance
        else:
            out = float(unitcp.expit(unitcp.logit(end) + side * cfg.grid_step))
        try:
            if not unitcp.indicator(end, data, x_new, spec, kind, cfg.alpha):
                errs.append(f"endpoint {end:.9g} is excluded by a cold-start fit")
            if 0.0 < out < 1.0 and unitcp.indicator(out, data, x_new, spec, kind, cfg.alpha):
                errs.append(f"{out:.9g}, one tolerance outside {end:.9g}, is included")
        except unitcp.FitError as exc:
            errs.append(f"cold-start check fit failed near {end:.9g}: {exc}")
    return errs


def check_full(iv, data, x_new, spec, kind, cfg) -> list[str]:
    errs = structural(iv, cfg.alpha)
    if errs:
        return errs
    if spec.family is unitcp.ModelFamily.TRANSFORM_HOMO and kind is unitcp.ScoreKind.RAW:
        return _m1_against_exact(iv, data, x_new, cfg)
    return _certified_edges(iv, data, x_new, spec, kind, cfg)


def check_report(report) -> list[str]:
    """One single-replication ``run_coverage`` report."""
    errs = []
    if report.replications != 1:
        errs.append(f"{report.replications} replications reported, 1 asked for")
    if report.coverage not in (0.0, 1.0):
        errs.append(f"coverage {report.coverage!r} of one replication is neither 0 nor 1")
    if not 0.0 < report.avg_width <= 1.0:
        errs.append(f"width {report.avg_width!r} outside (0, 1]")
    if not (isinstance(report.failures_replaced, int) and report.failures_replaced >= 0):
        errs.append(f"failures_replaced {report.failures_replaced!r} is not a count")
    return errs


def check_structure(result, alpha: float) -> list[str]:
    """The cheap checks, for runs that skip the reference computations."""
    if isinstance(result, unitcp.CoverageReport):
        return check_report(result)
    return structural(result, alpha)


def check_pooled(outcomes, alpha: float) -> list[str]:
    """Coverage per family over a run's prefix must be plausible for 1 - alpha."""
    # imported here: the set-up probe imports this module and must load
    # nothing that the program itself does not
    from scipy.special import bdtr

    pooled: dict[str, list[float]] = {}
    for family, out in outcomes:
        slot = pooled.setdefault(family, [0.0, 0])
        slot[0] += out.covered
        slot[1] += 1
    return [
        f"{family}: pooled coverage {covered / total:.4f} over {total} intervals implausibly low"
        for family, (covered, total) in sorted(pooled.items())
        if bdtr(round(covered), total, 1.0 - alpha) < COVERAGE_TAIL
    ]
