"""Tight tail-probability and conditional-expectation bounds.

Three key quantities drive everything downstream: the best-case conversion
rate (sup of the tail probability over the market), the worst-case
conversion rate (inf of the tail probability), and the best-case
conditional expectation of the valuation above the price.  Each is
piecewise in the price with the support thresholds as regime boundaries,
and each piece is attained by a two- or three-point member of the market.
The worst-case market for the ratio is also the worst case for revenue,
so one pass gives all three and both objectives follow from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import (_BAND, MODE_EXACT, MODE_UPPER, MarketInfo, _check_price,
                        _companion, as_price_array)
from .errors import (InternalConsistencyError, ModeError, RobustPriceError,
                     UnboundedSupportError)

REGIME_LOW = "low_two_point"
REGIME_MID = "mid_three_point"
REGIME_HIGH = "above_right_threshold"

# Regime codes of the pass, indexing REGIMES.
LOW, MID, HIGH = 0, 1, 2
REGIMES = np.array([REGIME_LOW, REGIME_MID, REGIME_HIGH], dtype=object)


@dataclass(frozen=True)
class TailBounds:
    """The key quantities at a price; fields are arrays for a price array."""

    p: float
    inf_tail: float
    sup_tail: float
    sup_cond_exp: float
    best_case_rev: float
    regime: str


def _member_masses(mu: float, s, beta: float, p, phi_p, phi0: float, phib: float):
    """(w_p, w_beta) of the {0, p, beta} member with mean mu and dispersion s.

    phi_p, phi0, phib: the measure at p, 0 and beta.  No checks: outside
    0 < p < beta the masses are meaningless.
    """
    dp, ds, db = phi0 - phi_p, phi0 - s, phib - phi0
    denom = beta * dp + p * db
    wp = (beta * ds + mu * db) / denom
    wb = (mu * dp - p * ds) / denom
    return wp, wb


@np.errstate(all="ignore")
def _evaluate(market: MarketInfo, p):
    """(inf tail, sup tail, sup conditional expectation, regime code) per price.

    The one regime evaluator and price check: p is a 1-d price array, and a
    price outside (0, beta], NaN and inf included, raises.  The measure
    enters only through phi, evaluated once per mid-regime price, its ends
    (phi(0), phi(beta)), and the companion points.  A price's regime alone
    decides its piece, the same for every entry point; the pieces and the
    members attaining them:

    * low, p <= t1: {p, a} with a = companion(p) > mu; inf (mu-p)/(a-p),
      sup 1, y = a;
    * mid, t1 < p <= t2: {0, p, beta}; inf w_beta, sup w_p + w_beta,
      y = beta.  With beta = inf these are the limits 0, mu/p and inf,
      which no member attains;
    * high, p > t2: {a, p} with a = companion(p) < mu; inf 0 (the {0, t2}
      member sells nothing), sup (a-mu)/(a-p), y = beta.

    Each piece runs once, on the prices it labels: one companion solve or
    one mass solve per price.  Adjacent pieces meet at their threshold.
    The point mass (inf = sup = 1 up to mu, y = mu; low up to mu, high
    above) and the maximal-dispersion market {0, beta} (t2 = beta; inf =
    sup = mu/beta, y = beta, mid) have one member.  A NaN from a piece
    raises :class:`InternalConsistencyError`.
    """
    mu, s, beta = market.mu, market.s, market.beta
    finite = math.isfinite(beta)

    def low_piece(x):
        a = _companion(market, x)
        if not finite:
            a = np.where(x >= mu, math.inf, a)   # the piece's limit at mu
        return (mu - x) / (a - x), 1.0, a

    def mid_piece(x):
        if not finite:
            return 0.0, np.minimum(mu / x, 1.0), math.inf
        wp, wb = _member_masses(mu, s, beta, x, market.measure._value(x), *market.phi_ends)
        sup = np.minimum(np.maximum(wp + wb, 0.0), 1.0)   # rounding can leave [0, 1]
        return np.minimum(np.maximum(wb, 0.0), sup), sup, beta

    def high_piece(x):
        a = _companion(market, x)
        return 0.0, (a - mu) / (a - x), beta

    # One comparison checks and labels the prices: above[k] is 1 where p > edge
    # k, the edges 0, t1, t2 and beta.
    above = (p > market._edges).view(np.int8)
    n = np.add.reduce(above, 1).tolist()
    if n[0] != p.size or n[3]:
        _check_price(p, beta)
    point = market.is_degenerate
    if point or finite and market.right_threshold >= beta * (1.0 - _BAND):
        # One member: the point mass or {0, beta}.
        tail = (p <= mu).astype(float) if point else np.full(p.shape, mu / beta)
        regime = np.where(p <= mu, LOW, HIGH) if point else np.full(p.shape, MID)
        return tail, tail.copy(), np.full(p.shape, mu if point else beta), regime
    out = np.empty((3, p.size))
    for k, piece in enumerate((low_piece, mid_piece, high_piece)):   # piece k: edges k, k + 1
        count = n[k] - n[k + 1]
        if count:
            i = slice(None) if count == p.size else (above[k] != above[k + 1]).nonzero()[0]
            out[0][i], out[1][i], out[2][i] = piece(p[i])   # scalars or arrays over p[i]
    if np.isnan(out).any():
        k = np.isnan(out).any(0).argmax()
        raise InternalConsistencyError(f"the tail pass gives NaN at p={p[k].item()!r}: "
                                       f"{tuple(out[:, k].tolist())}")
    return out[0], out[1], out[2], above[1] + above[2]


def _tails(market: MarketInfo, p: np.ndarray, mode: str = MODE_EXACT, attained=False):
    """The one pass over a 1-d price array: :func:`_evaluate` on the market.

    ``mode`` is the mode the caller's answer is for; a market in the other
    mode raises :class:`ModeError` here, the one place it is checked.  With
    ``attained`` each bound must be attained by a member of the market, which
    with beta = inf fails in the mid regime between the mean and t2.
    """
    if market.mode != mode:
        raise ModeError(f"this bound requires mode={mode!r}, the market has mode="
                        f"{market.mode!r}")
    out = _evaluate(market, p)
    if attained and not math.isfinite(market.beta) and (
            (out[3] == MID) & (p < market.right_threshold)).any():
        raise UnboundedSupportError("three-point regime needs a finite maximum valuation")
    return out


def tail_prob_max(market: MarketInfo, p):
    """Best-case conversion rate sup P(X >= p) over the market (p: float or array)."""
    p, restore = as_price_array(p)
    return restore(_tails(market, p, attained=True)[1])


def tail_prob_min(market: MarketInfo, p):
    """Worst-case conversion rate inf P(X >= p) over the market (p: float or array)."""
    p, restore = as_price_array(p)
    return restore(_tails(market, p, attained=True)[0])


def cond_exp_max(market: MarketInfo, p):
    """Best-case conditional expectation sup E[X | X >= p] (p: float or array)."""
    p, restore = as_price_array(p)
    return restore(_tails(market, p)[2])


def best_case_revenue(market: MarketInfo, p):
    """p * sup P(X >= p); non-decreasing up to the right threshold."""
    t2 = market.right_threshold
    p, restore = as_price_array(p)
    bad = p > t2 * (1.0 + _BAND)   # inf too; the pass checks the rest
    if np.count_nonzero(bad):
        raise RobustPriceError(f"best-case revenue defined on (0, {t2}], got p={p[bad][0]}")
    return restore(p * _tails(market, np.minimum(p, t2), attained=True)[1])


def tail_bounds(market: MarketInfo, p) -> TailBounds:
    """All three key quantities plus the best-case revenue (p: float or array)."""
    p, restore = as_price_array(p)
    lo, hi, y, regime = _tails(market, p, attained=True)
    return TailBounds(p=restore(p), inf_tail=restore(lo), sup_tail=restore(hi),
                      sup_cond_exp=restore(y), best_case_rev=restore(p * hi),
                      regime=restore(REGIMES[regime]))


def tail_prob_min_dispersion_ub(market: MarketInfo, p):
    """Worst-case conversion rate when s is only an upper bound.

    With an upper-bound dispersion constraint the adversary may also use
    less-dispersed members, so between the left threshold and the mean the
    bound relaxes to the mean/maximum value, and above the mean the point
    mass at the mean drives it to zero.  Stated without full proof in the
    source analysis, and no oracle checks it (the enumeration oracle admits
    only members with E[phi(X)] = s): the tests pin it at two prices of one
    market (0.3902 below the left threshold, 0.2222 between it and the
    mean) and check that it never exceeds the exact-mode bound, that it is 0
    from the mean on, and that an exact-mode market is refused.
    """
    p, restore = as_price_array(p)
    lo, _, _, regime = _tails(market, p, MODE_UPPER)
    mu = market.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        relaxed = np.where(p < mu, (mu - p) / (market.beta - p), 0.0)
    return restore(np.where(regime == LOW, lo, relaxed))
