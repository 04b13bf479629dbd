"""Distribution primitives used throughout the package.

Logit/expit, the standard normal CDF and quantile, and the beta
distribution in its mean/precision parametrization.  All functions are
pure, accept scalars or numpy arrays, and return scalars for scalar
input.  scipy.special does the heavy lifting; the wrappers add domain
checks and, for the beta quantile, a refinement loop that certifies the
inversion tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

__all__ = [
    "BetaParams",
    "logit",
    "expit",
    "beta_pdf",
    "beta_cdf",
    "beta_quantile",
    "norm_cdf",
    "norm_quantile",
]

# machine epsilon; clamp target wherever a value must stay strictly inside (0,1)
EPS = float(np.finfo(float).eps)

# |beta_cdf(beta_quantile(u)) - u| is pushed below this
BETA_QUANTILE_TOL = 1e-10

# Bernoulli numbers B_2, B_4, ..., B_14 of the trigamma asymptotic series
_BERNOULLI_2_TO_14 = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0)
_TRIGAMMA_SHIFTS = np.arange(6.0)


@dataclass(frozen=True)
class BetaParams:
    """Beta distribution written as mean ``mu`` in (0,1) and precision ``phi`` > 0.

    The usual shape parameters are recovered as ``alpha = mu * phi`` and
    ``beta = (1 - mu) * phi``; the variance is ``mu * (1 - mu) / (1 + phi)``.
    """

    mu: float
    phi: float

    def __post_init__(self) -> None:
        mu = float(self.mu)
        phi = float(self.phi)
        if not (np.isfinite(mu) and 0.0 < mu < 1.0):
            raise ValueError(f"mu must lie strictly in (0, 1), got {self.mu!r}")
        if not (np.isfinite(phi) and phi > 0.0):
            raise ValueError(f"phi must be positive and finite, got {self.phi!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "phi", phi)

    @property
    def alpha(self) -> float:
        return self.mu * self.phi

    @property
    def beta(self) -> float:
        return (1.0 - self.mu) * self.phi

    @property
    def variance(self) -> float:
        return self.mu * (1.0 - self.mu) / (1.0 + self.phi)


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _require_open_unit(x, name: str) -> np.ndarray:
    arr = _as_float_array(x, name)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1)")
    return arr


def _scalar_or_array(out: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(out)
    return out


def logit(y):
    """Log-odds log(y / (1 - y)) for y strictly inside the unit interval."""
    arr = _require_open_unit(y, "y")
    out = np.log(arr) - np.log1p(-arr)
    return _scalar_or_array(out, y)


def expit(x):
    """Inverse of :func:`logit`; 1 / (1 + exp(-x)).

    Returns the raw IEEE result.  Callers that need a value strictly inside
    (0,1) clamp at the point of use.
    """
    out = sp.expit(np.asarray(x, dtype=float))
    return _scalar_or_array(out, x)


def _trigamma(x) -> np.ndarray:
    """Trigamma function psi'(x) for x > 0, as a 1-d or higher array.

    Every argument is shifted up by six with the recurrence
    psi'(x) = psi'(x + 6) + sum_{j<6} 1 / (x + j)**2, and the asymptotic
    series in 1/(x + 6) carries the rest.  Relative error is below 1e-13 on
    [1e-4, 1e6], at a fraction of the cost of
    ``scipy.special.polygamma(1, x)``; at the few hundred entries of a fit
    the cost is per numpy call, so the shift is one outer sum, with no
    branch on the argument's size.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shifted = np.add.outer(_TRIGAMMA_SHIFTS, x)
    recurrence = (1.0 / (shifted * shifted)).sum(axis=0)
    r = 1.0 / (x + 6.0)
    r2 = r * r
    tail = _BERNOULLI_2_TO_14[-1]
    for b in reversed(_BERNOULLI_2_TO_14[:-1]):
        tail = b + r2 * tail
    # 1/s + 1/(2s^2) + sum_k B_2k / s^(2k+1) at s = x + 6
    return recurrence + r + r2 * (0.5 + r * tail)


def beta_pdf(y, p: BetaParams):
    """Beta density at y for mean/precision parameters ``p``.

    Evaluated in log space with log-gamma and exponentiated at the end, so
    large precisions do not overflow intermediate gamma factors.
    """
    arr = _require_open_unit(y, "y")
    a, b = p.alpha, p.beta
    log_pdf = (
        sp.gammaln(p.phi)
        - sp.gammaln(a)
        - sp.gammaln(b)
        + (a - 1.0) * np.log(arr)
        + (b - 1.0) * np.log1p(-arr)
    )
    return _scalar_or_array(np.exp(log_pdf), y)


def beta_cdf(y, p: BetaParams):
    """Regularized incomplete beta function of y under ``p``."""
    arr = _require_open_unit(y, "y")
    out = sp.betainc(p.alpha, p.beta, arr)
    return _scalar_or_array(out, y)


def beta_quantile(u, p: BetaParams):
    """Inverse beta CDF: the y in (0,1) with beta_cdf(y, p) = u.

    Starts from scipy's inverse and polishes with safeguarded Newton steps
    (bracketed, so each iterate stays inside a shrinking interval known to
    contain the root) until the CDF residual is below 1e-10.  When the true
    quantile lies below the smallest positive double (tiny shapes, small
    u), it returns that double, 5e-324, whose CDF exceeds u.
    """
    uu = _require_open_unit(u, "u")
    a, b = p.alpha, p.beta
    inner_lo = np.nextafter(0.0, 1.0)
    inner_hi = np.nextafter(1.0, 0.0)
    y = np.clip(sp.betaincinv(a, b, uu), inner_lo, inner_hi)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    flat_u = np.atleast_1d(uu)

    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(100):
        err = sp.betainc(a, b, y) - flat_u
        if np.all(np.abs(err) <= BETA_QUANTILE_TOL):
            break
        hi = np.where(err > 0.0, np.minimum(hi, y), hi)
        lo = np.where(err < 0.0, np.maximum(lo, y), lo)
        if np.all(np.nextafter(lo, 1.0) >= hi):
            break  # brackets exhausted double precision
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the density overflows to inf at a subnormal y, which gives a
            # zero Newton step and falls back to bisection
            newton = y - err / beta_pdf(y, p)
        bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi)
        y = np.clip(np.where(bad, 0.5 * (lo + hi), newton), inner_lo, inner_hi)

    out = y.reshape(np.shape(uu))
    return _scalar_or_array(out, u)


def norm_cdf(x):
    """Standard normal CDF."""
    out = sp.ndtr(_as_float_array(x, "x"))
    return _scalar_or_array(out, x)


def norm_quantile(u):
    """Standard normal quantile, inverse of :func:`norm_cdf`."""
    arr = _require_open_unit(u, "u")
    out = sp.ndtri(arr)
    return _scalar_or_array(out, u)
