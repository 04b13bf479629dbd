"""Distribution primitives against independent oracles.

Reference values come from mpmath (arbitrary precision), from direct
quadrature of the density and, for the trigamma function, from
scipy.special.polygamma; the library code never touches these paths.
"""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import polygamma

from unitcp import (
    BetaParams,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    expit,
    logit,
    norm_cdf,
    norm_quantile,
)
from unitcp.numeric import _trigamma

mpmath.mp.dps = 40


def test_logit_center():
    assert logit(0.5) == 0.0


def test_logit_expit_inverse_pair():
    for y in (0.01, 0.25, 0.9):
        assert abs(expit(logit(y)) - y) < 1e-12
        x = logit(y)
        assert abs(logit(expit(x)) - x) < 1e-10


def test_logit_against_mpmath():
    y = 0.7310585786
    oracle = float(mpmath.log(mpmath.mpf("0.7310585786") / mpmath.mpf("0.2689414214")))
    assert abs(logit(y) - oracle) < 1e-9
    assert abs(logit(y) - 1.0) < 1e-9


def test_expit_symmetry_and_reflection():
    assert expit(0.0) == 0.5
    for x in (0.3, 2.0, 10.0):
        assert abs(expit(x) + expit(-x) - 1.0) < 1e-15


def test_expit_against_mpmath():
    oracle = float(1 / (1 + mpmath.e ** mpmath.mpf(-1)))
    assert abs(expit(1.0) - oracle) < 1e-15


def test_logit_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            logit(bad)


def test_beta_params_validation():
    p = BetaParams(0.25, 8.0)
    assert p.alpha == pytest.approx(2.0)
    assert p.beta == pytest.approx(6.0)
    assert p.variance == pytest.approx(0.25 * 0.75 / 9.0)
    for mu, phi in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -3.0), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            BetaParams(mu, phi)


def test_beta_pdf_uniform_case():
    assert beta_pdf(0.3, BetaParams(0.5, 2.0)) == pytest.approx(1.0, abs=1e-12)


def _safe_pdf(p):
    # quadrature may probe the closed endpoints, where the density is not defined
    return lambda t: beta_pdf(t, p) if 0.0 < t < 1.0 else 0.0


@pytest.mark.parametrize("mu,phi", [(0.5, 10.0), (0.2, 5.0)])
def test_beta_pdf_normalizes(mu, phi):
    total, _ = quad(_safe_pdf(BetaParams(mu, phi)), 0.0, 1.0)
    assert abs(total - 1.0) < 1e-8


def test_beta_pdf_against_simpson_oracle():
    # normalize the bare kernel y^(a-1) (1-y)^(b-1) with composite Simpson,
    # fully independent of the gamma-function route used by the library
    mu, phi = 0.5, 10.0
    a, b = mu * phi, (1.0 - mu) * phi
    grid = np.linspace(0.0, 1.0, 2**14 + 1)
    kernel = np.where((grid > 0) & (grid < 1), grid ** (a - 1) * (1 - grid) ** (b - 1), 0.0)
    h = grid[1] - grid[0]
    simpson = h / 3 * (kernel[0] + kernel[-1] + 4 * kernel[1:-1:2].sum() + 2 * kernel[2:-1:2].sum())
    oracle = (0.5 ** (a - 1) * 0.5 ** (b - 1)) / simpson
    assert abs(beta_pdf(0.5, BetaParams(mu, phi)) - oracle) < 1e-10


def test_beta_cdf_uniform_median():
    assert beta_cdf(0.5, BetaParams(0.5, 2.0)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("phi", [2.0, 5.0, 17.0])
def test_beta_cdf_symmetric_half(phi):
    assert beta_cdf(0.5, BetaParams(0.5, phi)) == pytest.approx(0.5, abs=1e-12)


def test_beta_cdf_against_quadrature():
    p = BetaParams(0.4, 8.0)
    oracle, err = quad(_safe_pdf(p), 0.0, 0.3, epsabs=1e-12)
    assert err < 1e-9
    assert abs(beta_cdf(0.3, p) - oracle) < 1e-9


def test_beta_quantile_uniform():
    assert beta_quantile(0.5, BetaParams(0.5, 2.0)) == pytest.approx(0.5, abs=1e-12)


def test_beta_quantile_round_trip():
    p = BetaParams(0.3, 5.0)
    for u in (0.05, 0.5, 0.95):
        assert abs(beta_cdf(beta_quantile(u, p), p) - u) < 1e-9


def test_beta_quantile_against_bisection_oracle():
    p = BetaParams(0.3, 5.0)

    def cdf(t):
        val, _ = quad(_safe_pdf(p), 0.0, t, epsabs=1e-13, limit=200)
        return val

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < 0.9:
            lo = mid
        else:
            hi = mid
    assert abs(beta_quantile(0.9, p) - 0.5 * (lo + hi)) < 1e-8


def test_beta_quantile_below_smallest_double_warns_nothing():
    # shapes a = 0.01, b = 0.49: the 1e-4 quantile lies below the smallest
    # positive double, where the density in the Newton step overflows
    p = BetaParams(0.02, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = beta_quantile(1e-4, p)
    assert y == np.nextafter(0.0, 1.0)
    assert beta_cdf(y, p) > 1e-4


def test_beta_domain_errors():
    p = BetaParams(0.5, 5.0)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            beta_pdf(bad, p)
        with pytest.raises(ValueError):
            beta_cdf(bad, p)
        with pytest.raises(ValueError):
            beta_quantile(bad, p)


def test_norm_quantile_center_and_reflection():
    assert norm_quantile(0.5) == 0.0
    for x in (-2.3, 0.4, 5.1):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) < 1e-14


def test_norm_quantile_against_mpmath():
    oracle = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.975") - 1))
    assert abs(norm_quantile(0.975) - oracle) < 1e-10
    assert abs(norm_quantile(0.975) - 1.95996398) < 5e-8


def test_norm_round_trip():
    u = np.concatenate([[1e-8, 1 - 1e-8], np.linspace(1e-6, 1 - 1e-6, 201)])
    assert np.max(np.abs(norm_cdf(norm_quantile(u)) - u)) < 1e-10


def test_norm_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            norm_quantile(bad)


# ---------------------------------------------------------------------------
# invariants over parameter grids

MU_GRID = np.arange(0.1, 0.95, 0.1)
PHI_GRID = (2.0, 5.0, 10.0, 20.0)


def test_round_trip_invariants():
    ys = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.max(np.abs(expit(logit(ys)) - ys)) < 1e-9
    us = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.max(np.abs(norm_cdf(norm_quantile(us)) - us)) < 1e-9
    p = BetaParams(0.35, 7.0)
    assert np.max(np.abs(beta_cdf(beta_quantile(us, p), p) - us)) < 1e-9


@pytest.mark.parametrize("phi", PHI_GRID)
def test_beta_moment_identities(phi):
    for mu in MU_GRID:
        p = BetaParams(mu, phi)
        pdf = _safe_pdf(p)
        total, _ = quad(pdf, 0.0, 1.0)
        mean, _ = quad(lambda t: t * pdf(t), 0.0, 1.0)
        var, _ = quad(lambda t: (t - mu) ** 2 * pdf(t), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-8
        assert abs(mean - mu) < 1e-6
        assert abs(var - mu * (1.0 - mu) / (1.0 + phi)) < 1e-6


def test_monotonicity_on_dense_grids():
    ys = np.linspace(1e-4, 1 - 1e-4, 400)
    us = np.linspace(1e-4, 1 - 1e-4, 400)
    assert np.all(np.diff(logit(ys)) > 0)
    assert np.all(np.diff(expit(np.linspace(-20, 20, 400))) > 0)
    assert np.all(np.diff(norm_cdf(np.linspace(-8, 8, 400))) > 0)
    assert np.all(np.diff(norm_quantile(us)) > 0)
    for p in (BetaParams(0.5, 2.0), BetaParams(0.2, 5.0), BetaParams(0.7, 20.0)):
        assert np.all(np.diff(beta_cdf(ys, p)) > 0)
        assert np.all(np.diff(beta_quantile(us, p)) > 0)


def test_trigamma_matches_scipy():
    x = np.logspace(-4.0, 6.0, 2001)
    assert np.max(np.abs(_trigamma(x) / polygamma(1, x) - 1.0)) < 1e-8
