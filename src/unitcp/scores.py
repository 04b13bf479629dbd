"""Non-conformity scores for the four regression families.

Three residual-based measures, each on the scale its model works on:

* ``RAW``       |logit(y) - linear prediction|, homoscedastic transform only
* ``PEARSON``   absolute residual divided by the predicted sd; logit scale
                for the heteroscedastic transform family, original scale for
                the beta families
* ``QUANTILE``  |normal quantile of the fitted CDF at y|; for the beta
                families the fitted CDF is the conditional beta
                distribution.  For the heteroscedastic transform family
                Phi^-1(F(y)) is exactly the standardized logit residual, so
                its quantile score is computed as its Pearson score

All scores are nonnegative and finite for y strictly inside (0,1).
"""

from __future__ import annotations

import enum

import numpy as np
from scipy import special as sp

from .models import FittedModel, ModelFamily
from .numeric import _log_odds, _scalar_or_array

__all__ = ["ScoreKind", "score"]

# the beta families' fitted-CDF values are clamped here before the normal
# quantile, which caps their quantile scores at about 7.03 instead of letting
# far-tail points hit +/-inf; split CP's inversion clamps to the same range
CDF_CLIP = 1e-12


class ScoreKind(enum.Enum):
    RAW = "raw"
    PEARSON = "pearson"
    QUANTILE = "quantile"

    def valid_for(self, family: ModelFamily) -> bool:
        if self is ScoreKind.RAW:
            return family is ModelFamily.TRANSFORM_HOMO
        return family is not ModelFamily.TRANSFORM_HOMO


def _check_kind(kind: ScoreKind, family: ModelFamily) -> None:
    if not kind.valid_for(family):
        raise ValueError(f"score kind {kind.value} is not defined for family {family.value}")


def beta_sd(mu, phi):
    """Standard deviation sqrt(mu (1 - mu) / (1 + phi)) of a beta response
    with mean ``mu`` and precision ``phi``."""
    return np.sqrt(mu * (1.0 - mu) / (1.0 + phi))


def _score_fitted(kind: ScoreKind, family: ModelFamily, response, mean, spread):
    """Scores of responses under fitted values: the kernel of :func:`score`.

    ``response`` is y for the beta families and logit(y) for the transform
    families; ``mean`` and ``spread`` are the family's fitted values, mu
    and phi or the linear predictor and sigma, per row or shared: those of
    :meth:`FittedModel.predict`, or for full conformal's refits those of
    their last derivative pass.
    """
    _check_kind(kind, family)
    if family.is_beta:
        if kind is ScoreKind.PEARSON:
            return np.abs(response - mean) / beta_sd(mean, spread)
        u = sp.betainc(mean * spread, (1.0 - mean) * spread, response)
        return np.abs(sp.ndtri(np.clip(u, CDF_CLIP, 1.0 - CDF_CLIP)))
    resid = np.abs(response - mean)
    return resid if kind is ScoreKind.RAW else resid / spread


def score(kind: ScoreKind, y, m: FittedModel, x):
    """Non-conformity score of response(s) y at covariate(s) x under ``m``.

    Accepts a scalar y with a length-p covariate vector, or a vector y with
    a matching covariate matrix.  The scores are those of
    :func:`_score_fitted` at the fitted values ``m.predict(x)``, for y
    (beta families) or logit(y) (transform families).
    """
    y_arr = np.asarray(y, dtype=float)
    if not ((y_arr > 0.0) & (y_arr < 1.0)).all():  # nan fails both tests
        raise ValueError("responses must lie strictly in (0, 1)")

    response = y_arr if m.family.is_beta else _log_odds(y_arr)
    return _scalar_or_array(_score_fitted(kind, m.family, response, *m.predict(x)), y)
