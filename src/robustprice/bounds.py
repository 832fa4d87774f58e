"""Tight tail-probability and conditional-expectation bounds.

Three key quantities drive everything downstream: the best-case conversion
rate (sup of the tail probability over the market), the worst-case
conversion rate (inf of the tail probability), and the best-case
conditional expectation of the valuation above the price.  Each is
piecewise in the price with the support thresholds as regime boundaries,
and each piece is attained by a two- or three-point member of the market.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import (MODE_UPPER, MarketInfo, as_price_array,
                        companion_point, left_threshold, right_threshold)
from .errors import (InternalConsistencyError, ModeError, RobustPriceError,
                     UnboundedSupportError)
from .extremal import three_point_masses

REGIME_LOW = "low_two_point"
REGIME_MID = "mid_three_point"
REGIME_HIGH = "above_right_threshold"

# Half-width of the boundary band (relative): inside it both adjacent
# branch formulas are evaluated and must agree, since continuity at the
# thresholds is a theorem.
_BAND = 1e-12
_BOUNDARY_AGREE = 1e-9


@dataclass(frozen=True)
class TailBounds:
    p: float
    inf_tail: float
    sup_tail: float
    sup_cond_exp: float
    best_case_rev: float
    regime: str


def _check_price(market: MarketInfo, p: np.ndarray) -> None:
    if ((p > 0) & (p <= market.beta)).all():
        return
    bad = ~(p > 0)
    if bad.any():
        raise RobustPriceError(f"price must be positive, got {p[bad][0]}")
    raise RobustPriceError(
        f"price {p[p > market.beta][0]} exceeds maximum valuation {market.beta}")


def _scale(market: MarketInfo) -> float:
    return market.beta if math.isfinite(market.beta) else market.mu


def _agree(a, b, where: str) -> np.ndarray:
    """Average of two branch values that continuity says must agree."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bad = np.abs(a - b) > _BOUNDARY_AGREE
    if bad.any():
        raise InternalConsistencyError(
            f"branch formulas disagree at {where}: {a[bad][0]} vs {b[bad][0]}")
    return 0.5 * (a + b)


def _by_part(p: np.ndarray, part: np.ndarray, branches) -> np.ndarray:
    """Evaluate branches[k] on the prices whose part is k."""
    out = np.empty_like(p)
    if part.size and (part == part[0]).all():
        out[:] = branches[part[0]](p)
        return out
    for k in np.unique(part):
        mask = part == k
        out[mask] = branches[k](p[mask])
    return out


def _dispatch(market: MarketInfo, p: np.ndarray, low, mid, high) -> np.ndarray:
    """Evaluate the piecewise value with a consistency check at boundaries.

    p is a 1-d price array; each branch maps an array of its prices to
    values.  Inside the boundary band both adjacent branches are evaluated,
    must agree, and are averaged.
    """
    t1 = market.left_threshold
    t2 = market.right_threshold
    band = _BAND * _scale(market)
    part = (p >= t1).astype(np.int8) + (p >= t2)   # 0 low, 1 mid, 2 high
    if t1 > 0:
        part[np.abs(p - t1) <= band] = 3
    part[(np.abs(p - t2) <= band) & (part != 3)] = 4
    return _by_part(p, part, (
        low, mid, high,
        lambda x: _agree(low(x), mid(x), f"left threshold {t1}"),
        lambda x: _agree(mid(x), high(x), f"right threshold {t2}"),
    ))


def _dispatch_unbounded(market: MarketInfo, p: np.ndarray, low, high) -> np.ndarray:
    """beta = inf: the low branch below the mean, the high one from t2 on."""
    part = (p >= market.mu).astype(np.int8) + (p >= market.right_threshold)
    if (part == 1).any():
        raise UnboundedSupportError(
            "three-point regime needs a finite maximum valuation")
    return _by_part(p, part, (low, None, high))


def _singleton_extreme(market: MarketInfo) -> bool:
    """True when dispersion is maximal on [0, beta]: the market is the
    single two-point distribution {0, beta}."""
    if not math.isfinite(market.beta):
        return False
    return market.right_threshold >= market.beta * (1.0 - 1e-12)


def _mid_masses(market: MarketInfo, p: np.ndarray):
    """Masses (w0, wp, wb) of the {0, p, beta} member at each price."""
    if not _singleton_extreme(market):
        return three_point_masses(market, p)
    # At p = beta the three-point system degenerates; only reachable in the
    # maximal-dispersion case, where the market is the {0, beta} two-point.
    r = market.mu / market.beta
    w = [np.full_like(p, 1.0 - r), np.zeros_like(p), np.full_like(p, r)]
    inner = p < market.beta * (1.0 - 1e-15)
    if inner.any():
        for wk, v in zip(w, three_point_masses(market, p[inner])):
            wk[inner] = v
    return w


def _two_point_tails(market: MarketInfo, p: np.ndarray):
    """Mass at p and at its companion a of the {p, a} member, per price."""
    a = companion_point(market, p)
    return (a - market.mu) / (a - p), (market.mu - p) / (a - p)


def tail_prob_max(market: MarketInfo, p):
    """Best-case conversion rate sup P(X >= p) over the market (p: float or array)."""
    p, restore = as_price_array(p)
    _check_price(market, p)
    if market.is_degenerate:
        return restore(np.where(p <= market.mu, 1.0, 0.0))

    def low(x):
        return 1.0

    def mid(x):
        _, wp, wb = _mid_masses(market, x)
        return wp + wb

    def high(x):
        return _two_point_tails(market, x)[0]

    if not math.isfinite(market.beta):
        return restore(_dispatch_unbounded(market, p, low, high))
    return restore(_dispatch(market, p, low, mid, high))


def tail_prob_min(market: MarketInfo, p):
    """Worst-case conversion rate inf P(X >= p) over the market (p: float or array)."""
    p, restore = as_price_array(p)
    _check_price(market, p)
    if market.is_degenerate:
        return restore(np.where(p <= market.mu, 1.0, 0.0))

    def low(x):
        return _two_point_tails(market, x)[1]

    def mid(x):
        return _mid_masses(market, x)[2]

    def high(x):
        # The {0, t2} member has no mass at or above p > t2.  In the
        # maximal-dispersion singleton market the unique member keeps mass
        # mu/beta at beta.
        if _singleton_extreme(market):
            return market.mu / market.beta
        return 0.0

    if not math.isfinite(market.beta):
        return restore(_dispatch_unbounded(market, p, low, high))
    return restore(_dispatch(market, p, low, mid, high))


def cond_exp_max(market: MarketInfo, p):
    """Best-case conditional expectation sup E[X | X >= p] (p: float or array)."""
    p, restore = as_price_array(p)
    _check_price(market, p)
    if market.is_degenerate:
        return restore(np.full_like(p, market.mu))
    part = (p > market.left_threshold).astype(int)
    return restore(_by_part(p, part, (lambda x: companion_point(market, x),
                                      lambda x: market.beta)))


def best_case_revenue(market: MarketInfo, p):
    """p * sup P(X >= p); non-decreasing up to the right threshold."""
    t2 = market.right_threshold
    p, restore = as_price_array(p)
    bad = p > t2 * (1.0 + 1e-12)
    if bad.any():
        raise RobustPriceError(
            f"best-case revenue defined on (0, {t2}], got p={p[bad][0]}")
    return restore(p * tail_prob_max(market, np.minimum(p, t2)))


def tail_bounds(market: MarketInfo, p: float) -> TailBounds:
    """All three key quantities plus the best-case revenue at one price."""
    _check_price(market, np.atleast_1d(p))
    t1 = left_threshold(market)
    t2 = right_threshold(market)
    if p <= t1:
        regime = REGIME_LOW
    elif p <= t2:
        regime = REGIME_MID
    else:
        regime = REGIME_HIGH
    hi = tail_prob_max(market, p)
    return TailBounds(
        p=p,
        inf_tail=tail_prob_min(market, p),
        sup_tail=hi,
        sup_cond_exp=cond_exp_max(market, p),
        best_case_rev=p * hi,
        regime=regime,
    )


def mean_range_tail_bounds(mu: float, beta: float, p: float):
    """(inf, sup) of P(X >= p) with mean and maximum knowledge only."""
    if not p > 0:
        raise RobustPriceError(f"price must be positive, got {p}")
    if p > beta:
        raise RobustPriceError(f"price {p} exceeds maximum valuation {beta}")
    lo = max((mu - p) / (beta - p), 0.0) if p < beta else (1.0 if p <= mu else 0.0)
    hi = min(mu / p, 1.0)
    return lo, hi


def tail_prob_min_dispersion_ub(market: MarketInfo, p: float) -> float:
    """Worst-case conversion rate when s is only an upper bound.

    With an upper-bound dispersion constraint the adversary may also use
    less-dispersed members, so between the left threshold and the mean the
    bound relaxes to the mean/maximum value, and above the mean the point
    mass at the mean drives it to zero.  Stated without full proof in the
    source analysis; validated against the enumeration oracle only.
    """
    if market.mode != MODE_UPPER:
        raise ModeError("upper-bound tail requires mode='upper'")
    p, restore = as_price_array(p)
    _check_price(market, p)
    mu, beta = market.mu, market.beta
    if market.is_degenerate:
        return restore(np.where(p <= mu, 1.0, 0.0))
    t1 = market.left_threshold
    part = (p >= t1).astype(np.int8) + (p >= mu)   # 0 low, 1 mid, 2 zero
    if t1 > 0:
        part[np.abs(p - t1) <= _BAND * _scale(market)] = 3

    def low(x):
        return _two_point_tails(market, x)[1]

    def mid(x):
        return (mu - x) / (beta - x)

    return restore(_by_part(p, part, (
        low, mid, lambda x: 0.0,
        lambda x: _agree(low(x), mid(x), f"left threshold {t1}"),
    )))
