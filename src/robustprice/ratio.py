"""Worst-case competitive ratio and worst-case revenue at a fixed price.

The worst-case ratio decomposes as the minimum of two branches: the ratio
of the worst-case to the best-case conversion rate, and the price over the
best-case conditional expectation.  All three come from the one tail pass
of :mod:`robustprice.bounds`, in exact or upper-bound mode; the
mean/maximum-only ratio is the upper-bound mode's above the left threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import (MODE_UPPER, MarketInfo, _check_price, _market_floats, as_price_array,
                        variance_market)
from .bounds import HIGH, REGIMES, _tail_call, _tails

BRANCH_TAIL = "tail_ratio"
BRANCH_PRICE = "price_over_cond_exp"
BRANCH_DEGENERATE = "degenerate"

_BRANCHES = np.array([BRANCH_TAIL, BRANCH_PRICE, BRANCH_DEGENERATE], dtype=object)


@dataclass(frozen=True)
class RatioBreakdown:
    """Worst-case ratio at a price and its two branches.

    The ratio functions that accept a price array return one breakdown
    whose fields are arrays of the price's shape.
    """

    p: float
    cr: float
    branch: str
    tail_ratio: float
    price_over_y: float
    regime: str


def _breakdown(p, lo, hi, y, regime, restore) -> RatioBreakdown:
    """The ratio and its branches from the tail pass: inf/sup and p/y, both
    0 above t2, and the ratio the smaller of the two.

    Arguments are 1-d arrays (regime as codes), restored to the caller's
    shape, or to scalars, by ``restore``.
    """
    high = regime == HIGH   # above t2 the sup tail can be 0 (the point mass)
    tail_ratio = np.divide(lo, hi, out=np.zeros(p.shape), where=~high)
    poy = np.where(high, 0.0, p / y)
    # Branch ties are labeled as the tail branch for deterministic output.
    branch = np.where(high, 2, np.where(tail_ratio <= poy, 0, 1))
    return RatioBreakdown(restore(p), restore(np.minimum(tail_ratio, poy)),
                          restore(_BRANCHES[branch]), restore(tail_ratio),
                          restore(poy), restore(REGIMES[regime]))


def worst_case_cr(market: MarketInfo, p) -> RatioBreakdown:
    """Tight lower bound on the competitive ratio at price p (general measure).

    p may be a float or an array of prices.  With beta = inf the ratio is
    0 from the mean on: the best-case conditional expectation is unbounded.
    """
    p, restore = as_price_array(p)
    return _breakdown(p, *_tails(market, p), restore)


def worst_case_cr_variance(mu: float, sigma: float, beta: float, p) -> RatioBreakdown:
    """:func:`worst_case_cr` on :func:`variance_market`: mean/variance/maximum
    knowledge.  p may be a float or an array of prices; sigma is a float."""
    return worst_case_cr(variance_market(mu, sigma, beta), p)


def worst_case_cr_mean_range(mu: float, beta: float, p):
    """Worst-case ratio with mean and maximum knowledge only, which needs no
    market, though mu and beta keep a market's rules; p may be a float or an
    array of prices.  The upper-bound mode's ratio equals it above the left threshold."""
    mu, beta, _ = _market_floats(mu, beta)
    p, restore = as_price_array(p)
    _check_price(p, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return restore(np.where(p < mu, np.minimum((mu - p) / (beta - p), p / beta), 0.0))


def worst_case_cr_dispersion_ub(market: MarketInfo, p):
    """Worst-case ratio when the dispersion statistic is an upper bound.

    The exact-mode ratio up to the left threshold, the mean/maximum-only
    ratio (:func:`worst_case_cr_mean_range`) above it, from the tail pass's
    upper mode.  p may be a float or an array of prices.
    """
    p, restore = as_price_array(p)
    return _breakdown(p, *_tails(market, p, MODE_UPPER), restore).cr


def worst_case_revenue(market: MarketInfo, p):
    """Worst-case revenue p * inf P(X >= p); zero above the right threshold.

    p may be a float or an array of prices.
    """
    return _tail_call(market, p, lambda p, lo, hi, y, k: p * lo)
