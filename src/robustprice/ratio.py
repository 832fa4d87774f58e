"""Worst-case competitive ratio and worst-case revenue at a fixed price.

The worst-case ratio decomposes as the minimum of two branches: the ratio
of the worst-case to the best-case conversion rate, and the price over the
best-case conditional expectation.  Closed-form specializations are
provided for the variance and fractional-moment measures and for the
mean/maximum-only information set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import (MODE_EXACT, MODE_UPPER, MarketInfo, as_price_array,
                        companion_point, left_threshold, power_market,
                        require_feasible)
from .bounds import (REGIME_HIGH, REGIME_LOW, REGIME_MID, cond_exp_max,
                     tail_prob_max, tail_prob_min)
from .errors import (InfeasibleMarketError, InternalConsistencyError,
                     ModeError, RobustPriceError)

BRANCH_TAIL = "tail_ratio"
BRANCH_PRICE = "price_over_cond_exp"
BRANCH_DEGENERATE = "degenerate"

_BOUNDARY_AGREE = 1e-9


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


# Regime and branch codes of the array paths, indexing these label tables.
_LOW, _MID, _HIGH = 0, 1, 2
_REGIMES = np.array([REGIME_LOW, REGIME_MID, REGIME_HIGH], dtype=object)
_BRANCHES = np.array([BRANCH_TAIL, BRANCH_PRICE, BRANCH_DEGENERATE], dtype=object)


def _breakdown(p, tail_ratio, poy, regime, restore) -> RatioBreakdown:
    """Assemble the breakdown: the ratio is the smaller branch, 0 above t2.

    Arguments are 1-d arrays (regime as codes), restored to the caller's
    shape, or to scalars, by ``restore``.
    """
    high = regime == _HIGH
    # Branch ties are labeled as the tail branch for deterministic output.
    tail = tail_ratio <= poy
    cr = np.where(high, 0.0, np.where(tail, tail_ratio, poy))
    branch = np.where(high, _HIGH, np.where(tail, 0, 1))
    return RatioBreakdown(restore(p), restore(cr), restore(_BRANCHES[branch]),
                          restore(tail_ratio), restore(poy), restore(_REGIMES[regime]))


def _point_mass_terms(p: np.ndarray, mu: float):
    """(tail_ratio, price_branch, regime) when the market is the point mass
    at mu: ratio 1 with price branch p/mu up to mu, nothing sells above."""
    above = p > mu
    regime = np.where(p < mu, _LOW, np.where(above, _HIGH, _MID))
    return np.where(above, 0.0, 1.0), np.where(above, 0.0, p / mu), regime


def _check_range(p: np.ndarray, beta: float) -> None:
    bad = ~((p > 0) & (p <= beta))
    if bad.any():
        raise RobustPriceError(f"price {p[bad][0]} outside (0, {beta}]")


def _ratio_terms(market: MarketInfo, p: np.ndarray):
    """(inf tail / sup tail, p / sup conditional expectation) at each price.

    The one place the worst-case ratio is assembled from the tail bounds;
    the ratio is the smaller of the two (see :func:`_breakdown`).
    """
    lo = tail_prob_min(market, p)
    hi = tail_prob_max(market, p)
    y = cond_exp_max(market, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail_ratio = np.where(hi > 0, lo / hi, 0.0)
        poy = np.where(np.isfinite(y), p / y, 0.0)
    return tail_ratio, poy


def worst_case_cr(market: MarketInfo, p) -> RatioBreakdown:
    """Tight lower bound on the competitive ratio at price p (general measure).

    p may be a float or an array of prices.
    """
    if market.mode != MODE_EXACT:
        raise ModeError("worst_case_cr requires mode='exact'")
    require_feasible(market)
    p, restore = as_price_array(p)
    _check_range(p, market.beta)
    mu = market.mu
    if market.is_degenerate:
        _, _, regime = _point_mass_terms(p, mu)
        return _breakdown(p, np.ones_like(p), p / mu, regime, restore)
    t1, t2 = market.left_threshold, market.right_threshold
    high = p > t2 * (1.0 + 1e-12)
    p = np.where(high, p, np.minimum(p, t2))
    # Unbounded valuations: the best-case conditional expectation is
    # unbounded beyond the low regime, so the ratio collapses to 0.
    live = ~high & (math.isfinite(market.beta) | (p < mu))
    if live.all():
        tail_ratio, poy = _ratio_terms(market, p)
    else:
        tail_ratio, poy = np.zeros_like(p), np.zeros_like(p)
        if live.any():
            tail_ratio[live], poy[live] = _ratio_terms(market, p[live])
    regime = np.where(high, _HIGH, np.where(live & (p <= t1), _LOW, _MID))
    return _breakdown(p, tail_ratio, poy, regime, restore)


def _piecewise_pair(p, t1, t2, low, mid, scale):
    """Evaluate (tail_ratio, price_branch, regime) arrays for the closed forms.

    p is a 1-d price array and t1, t2 broadcast against it.  ``low(mask)``
    and ``mid(mask)`` return (tail_ratio, price_branch) arrays of p's shape,
    valid where mask is set; mid evaluates at min(p, t2).  At the
    left-threshold boundary both are evaluated, averaged, and must agree.
    """
    band = 1e-12 * scale
    at_t1 = (t1 > 0) & (np.abs(p - t1) <= band)
    in_low = at_t1 | (p <= t1)
    in_mid = ~in_low & (p <= t2 + band)
    tr_l, pb_l = low(in_low)
    tr_m, pb_m = mid(in_mid | at_t1)
    tr = np.where(in_low, tr_l, np.where(in_mid, tr_m, 0.0))
    pb = np.where(in_low, pb_l, np.where(in_mid, pb_m, 0.0))
    regime = np.where(in_low, _LOW, np.where(in_mid, _MID, _HIGH))
    if at_t1.any():
        a = tr_l[at_t1], pb_l[at_t1]
        b = tr_m[at_t1], pb_m[at_t1]
        # Individual branch components can lose precision to cancellation
        # right at the threshold; only the resulting minimum must agree.
        bad = np.abs(np.minimum(*a) - np.minimum(*b)) > _BOUNDARY_AGREE
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise InternalConsistencyError(
                "closed-form branches disagree at the left threshold: "
                f"{(a[0][k], a[1][k])} vs {(b[0][k], b[1][k])}")
        with np.errstate(invalid="ignore"):
            same = [(np.minimum(x, y) == math.inf) | (np.abs(x - y) <= _BOUNDARY_AGREE)
                    for x, y in zip(a, b)]
            avg_tr = np.where(np.maximum(a[0], b[0]) < math.inf, 0.5 * (a[0] + b[0]),
                              np.minimum(a[0], b[0]))
        both = same[0] & same[1]
        tr[at_t1] = np.where(both, avg_tr, a[0])
        pb[at_t1] = np.where(both, 0.5 * (a[1] + b[1]), a[1])
    return tr, pb, regime


def _mid_ratio(num, den, x, beta, unit):
    """Three-point tail ratio num/den and price branch x/beta; unit is the
    price power of num and den, for their zero tests."""
    # 0/0 only at p = beta in the maximal-dispersion market, where the tail
    # branch is identically 1 and the price branch governs.
    with np.errstate(divide="ignore", invalid="ignore"):
        tr = np.where(np.abs(den) <= 1e-14 * unit,
                      np.where(np.abs(num) <= 1e-12 * unit, math.inf, 0.0), num / den)
    return tr, x / beta


def _variance_terms(mu: float, s2: np.ndarray, beta: float, p: np.ndarray):
    """(tail_ratio, price_branch, regime) of the variance closed form.

    s2 = sigma**2 and p are 1-d arrays of one length; plain arithmetic on
    both branches everywhere, then selection, so no entry can raise.
    """
    point = s2 == 0.0
    t2 = mu + s2 / mu
    t1 = mu - s2 / (beta - mu) if math.isfinite(beta) else np.full_like(s2, mu)
    # The point-mass entries take their own terms below; t1 = 0 keeps them
    # out of the boundary band.
    t1 = np.where(point, 0.0, t1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = mu - p
        low = d * d / (d * d + s2), p * d / (mu * d + s2)
        if math.isfinite(beta):
            x = np.minimum(p, t2)
            mid = _mid_ratio(x * (mu * mu + s2 - x * mu),
                             (beta - x) * (mu * (beta + x - mu) - s2), x, beta, beta ** 3)
        else:
            mid = np.zeros_like(p), np.zeros_like(p)
    tr, pb, regime = _piecewise_pair(p, t1, t2, lambda m: low, lambda m: mid,
                                     beta if math.isfinite(beta) else mu)
    if point.any():
        tr0, pb0, regime0 = _point_mass_terms(p, mu)
        tr, pb, regime = (np.where(point, u, v) for u, v in
                          ((tr0, tr), (pb0, pb), (regime0, regime)))
    return np.minimum(tr, 1.0), pb, regime


def worst_case_cr_variance(mu: float, sigma, beta: float, p) -> RatioBreakdown:
    """Closed-form worst-case ratio for mean/variance/maximum knowledge.

    sigma and p may be arrays; they broadcast against each other.
    """
    sigma = np.asarray(sigma, dtype=float)
    if (sigma < 0).any():
        raise RobustPriceError(f"sigma must be nonnegative, got {sigma}")
    s2 = sigma * sigma
    if math.isfinite(beta) and (s2 > mu * (beta - mu) * (1.0 + 1e-12)).any():
        raise InfeasibleMarketError(
            f"sigma^2={s2} exceeds the maximum mu(beta-mu)={mu * (beta - mu)}")
    p, s2 = np.broadcast_arrays(np.asarray(p, dtype=float), s2)
    p, restore = as_price_array(p)
    _check_range(p, beta)
    return _breakdown(p, *_variance_terms(mu, s2.reshape(-1), beta, p), restore)


def worst_case_cr_power(mu: float, s: float, q: float, beta: float, p) -> RatioBreakdown:
    """Closed-form worst-case ratio for the fractional-moment measure x**q.

    p may be a float or an array of prices.
    """
    if not q > 1:
        raise RobustPriceError(f"moment exponent must exceed 1, got {q}")
    market = power_market(mu, s, q, beta)
    require_feasible(market)
    p, restore = as_price_array(p)
    _check_range(p, beta)
    if market.is_degenerate:
        return _breakdown(p, *_point_mass_terms(p, mu), restore)
    t2 = market.right_threshold

    def low(mask):
        tr, pb = np.full_like(p, np.nan), np.full_like(p, np.nan)
        if mask.any():
            x = p[mask]
            a = companion_point(market, x)
            tr[mask], pb[mask] = (mu - x) / (a - x), x / a
        return tr, pb

    def mid(mask):
        if not math.isfinite(beta):
            return np.zeros_like(p), np.zeros_like(p)
        x = np.minimum(p, t2)
        xq = np.power(x, q)
        return _mid_ratio(x * s - mu * xq, mu * (beta ** q - xq) - s * (beta - x),
                          x, beta, beta ** (q + 1))

    tr, pb, regime = _piecewise_pair(p, market.left_threshold, t2, low, mid,
                                     beta if math.isfinite(beta) else mu)
    return _breakdown(p, np.minimum(tr, 1.0), pb, regime, restore)


def worst_case_cr_mean_range(mu: float, beta: float, p: float) -> float:
    """Worst-case ratio with mean and maximum knowledge only."""
    if not 0 < p <= beta:
        raise RobustPriceError(f"price {p} outside (0, {beta}]")
    if p >= mu:
        return 0.0
    return min((mu - p) / (beta - p), p / beta)


def worst_case_cr_dispersion_ub(market: MarketInfo, p: float) -> float:
    """Worst-case ratio when the dispersion statistic is an upper bound."""
    if market.mode != MODE_UPPER:
        raise ModeError("upper-bound ratio requires mode='upper'")
    require_feasible(market)
    if not 0 < p <= market.beta:
        raise RobustPriceError(f"price {p} outside (0, {market.beta}]")
    if market.is_degenerate:
        return p / market.mu if p <= market.mu else 0.0
    mu = market.mu
    if p >= mu:
        return 0.0
    t1 = left_threshold(market)
    if p <= t1:
        a = companion_point(market, p)
        return min((mu - p) / (a - p), p / a)
    return worst_case_cr_mean_range(mu, market.beta, p)


def worst_case_revenue(market: MarketInfo, p):
    """Worst-case revenue p * inf P(X >= p); zero above the right threshold.

    p may be a float or an array of prices.
    """
    p, restore = as_price_array(p)
    _check_range(p, market.beta)
    if market.is_degenerate:
        return restore(np.where(p <= market.mu, p, 0.0))
    if math.isfinite(market.beta):
        return restore(p * tail_prob_min(market, p))
    out = np.zeros_like(p)
    below = p < market.mu
    if below.any():
        out[below] = p[below] * tail_prob_min(market, p[below])
    return restore(out)
