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
                        _companion, _price_edges, as_price_array, is_point_mass,
                        variance_companion, variance_thresholds)
from .errors import (InternalConsistencyError, ModeError, RobustPriceError,
                     UnboundedSupportError)

REGIME_LOW = "low_two_point"
REGIME_MID = "mid_three_point"
REGIME_HIGH = "above_right_threshold"

# Regime codes of the pass, indexing REGIMES.
LOW, MID, HIGH = 0, 1, 2
REGIMES = np.array([REGIME_LOW, REGIME_MID, REGIME_HIGH], dtype=object)

# Inside a threshold's band (ambiguity._BAND) both adjacent pieces are
# evaluated and must agree, since continuity at the thresholds is a theorem.
_BOUNDARY_AGREE = 1e-9


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

    phi_p, phi0, phib: the measure at p, 0 and beta; s may be an array of p's
    shape.  No checks: outside 0 < p < beta the masses are meaningless.
    """
    dp, ds, db = phi0 - phi_p, phi0 - s, phib - phi0
    denom = beta * dp + p * db
    wp = (beta * ds + mu * db) / denom
    wb = (mu * dp - p * ds) / denom
    return wp, wb


@np.errstate(all="ignore")
def _evaluate(p, edges, mu, s, beta, t1, t2, phi, ends, companion, point):
    """(inf tail, sup tail, sup conditional expectation, regime code) per price.

    The one regime evaluator and price check: p is a 1-d price array, and a
    price outside (0, beta], NaN and inf included, raises.  edges are the
    thresholds' _price_edges; s, t1, t2 and point (True where the market is
    the point mass at mu) are scalars or arrays of p's length.  The measure
    enters only through phi, evaluated once per mid-regime price, its ends
    (phi(0), phi(beta)), and companion(p[index], index), the companion
    points of p[index].  The pieces and the members attaining them:

    * low, p <= t1: {p, a} with a = companion(p) > mu; inf (mu-p)/(a-p),
      sup 1, y = a;
    * mid, t1 < p <= t2: {0, p, beta}; inf w_beta, sup w_p + w_beta,
      y = beta.  With beta = inf these are the limits 0, mu/p and inf,
      which no member attains;
    * high, p > t2: {a, p} with a = companion(p) < mu; inf 0 (the {0, t2}
      member sells nothing), sup (a-mu)/(a-p), y = beta.

    Each piece is evaluated only at the prices that need it: one companion
    solve or one mass solve per price, two in the bands.

    Labelling rule, the same for every entry point: a price within the
    band _BAND * beta (_BAND * mu when beta = inf) of a threshold is
    labelled with the regime below it, low at t1 and mid at t2; there both
    adjacent pieces are evaluated, must agree within _BOUNDARY_AGREE, and
    are averaged (near maximal dispersion, see :func:`_blend`).  The point
    mass (inf = sup = 1 up to mu, y = mu; low up to mu, high above) and
    the maximal-dispersion market {0, beta} (t2 = beta; inf = sup =
    mu/beta, y = beta, mid) have one member and no bands.
    """
    finite = math.isfinite(beta)
    scale = beta if finite else mu

    def low_piece(x, i):
        a = companion(x, i)
        if not finite:
            a = np.where(x >= mu, math.inf, a)   # the piece's limit at mu
        return (mu - x) / (a - x), 1.0, a

    def mid_piece(x, i):
        if not finite:
            return 0.0, np.minimum(mu / x, 1.0), math.inf
        wp, wb = _member_masses(mu, _at(s, i), beta, x, phi(x), *ends)
        sup = np.minimum(np.maximum(wp + wb, 0.0), 1.0)   # rounding can leave [0, 1]
        return np.minimum(np.maximum(wb, 0.0), sup), sup, beta

    def high_piece(x, i):
        a = companion(x, i)
        return 0.0, (a - mu) / (a - x), beta

    # One comparison checks and labels the prices: above[k] is 1 where p > edge
    # k, the edges 0, t1 -+ band, t2 -+ band and beta.  The two bands may overlap.
    above = (p > edges).view(np.int8)
    n = np.add.reduce(above, 1).tolist()
    if n[0] != p.size or n[5]:
        _check_price(p, beta)
    single = point | (t2 >= beta * (1.0 - _BAND))   # a market gives a plain bool
    any_single = single is True or single is not False and np.count_nonzero(single) > 0
    keep = np.logical_not(single) if any_single else True
    # Each piece runs once, on the prices between edges lo and hi: where it labels and the band
    # below its threshold; high to low, so a band price ends with the piece below it.
    out, blends = np.empty((3, p.size)), []
    inf_tail, sup_tail, cond_exp = out[0], out[1], out[2]   # views, written in place
    for piece, lo, hi in ((high_piece, 3, 5), (mid_piece, 1, 4), (low_piece, 0, 2)):
        count = n[lo] - n[hi]
        if count:
            i = slice(None) if count == p.size else (above[lo] != above[hi]).nonzero()[0]
            inf_tail[i], sup_tail[i], cond_exp[i] = piece(p[i], i)   # scalars or arrays over p[i]
        if lo and n[lo] != n[lo + 1]:
            at = ((above[lo] != above[lo + 1]) & keep).nonzero()[0]
            blends.append((at, out.take(at, axis=1), lo))
    for at, other, lo in reversed(blends):   # t1 first
        if at.size:
            t, steep = (t2, beta - t2 < mu * _BAND / _BOUNDARY_AGREE) if lo == 3 else (t1, False)
            _blend(out, at, other, p[at], scale, _at(steep, at), _at(t, at))
    regime = above[2] + above[4]
    if any_single:
        one = np.where(point, p <= mu, mu / beta)   # the member's tail
        for k, v in enumerate((one, one, np.where(point, mu, beta))):
            out[k] = np.where(single, v, out[k])
        regime = np.where(point, np.where(p <= mu, LOW, HIGH),
                          np.where(single, MID, regime))
    return inf_tail, sup_tail, cond_exp, regime


def _at(v, i):
    """v[i] for an array of the prices' length; a scalar as it is."""
    return v[i] if isinstance(v, np.ndarray) else v


def _blend(out, at, piece, p, scale, steep, t) -> None:
    """Average, in place, the values at the band prices `at` with `piece`, the
    piece above the threshold t there, after checking that the two tails agree.

    The mass solve divides by about p * beta, so its rounding, and the
    tolerance, grow like scale / p near p = 0.  The conditional expectation
    is not compared: with beta = inf it tends to inf at t1 = mu only in the
    limit.  Near maximal dispersion the mid inf tail, about
    (mu/beta)(t2 - p)/(beta - p), falls to 0 over beta - t2, so the pieces
    really differ, by up to mu * _BAND / (beta - t2); where that can pass
    the tolerance (`steep`), a price whose pieces disagree takes its own
    side's piece.
    """
    cur = out.take(at, axis=1)
    gap = np.maximum(*np.abs(cur[:2] - piece[:2]))
    bad = gap > _BOUNDARY_AGREE * np.maximum(1.0, scale / p)
    values = 0.5 * (cur + piece)
    if np.count_nonzero(bad):
        own = bad & steep
        if (bad & ~own).any():
            k = np.flatnonzero(bad & ~own)[0]
            raise InternalConsistencyError(
                f"pieces disagree at the threshold band for p={p[k]}: "
                f"{tuple(cur[:, k])} vs {tuple(piece[:, k])}")
        values = np.where(own, np.where(p > t, piece, cur), values)
    for row, v in zip(out, values):
        row[at] = v


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
    out = _evaluate(p, market._edges, market.mu, market.s, market.beta, market.left_threshold,
                    market.right_threshold, market.measure._value, market.phi_ends,
                    lambda x, i: _companion(market, x), market.is_degenerate)
    if attained and not math.isfinite(market.beta) and (
            (out[3] == MID) & (p < market.right_threshold)).any():
        raise UnboundedSupportError("three-point regime needs a finite maximum valuation")
    return out


def variance_tails(mu: float, s2, beta: float, p: np.ndarray):
    """The pass for mean/variance/maximum knowledge with sigma**2 = s2 exact.

    s2 is a float or an array of p's length (1-d), so many markets are
    evaluated in one call; the companion is :func:`variance_companion`.
    """
    return _variance_pass(mu, s2, beta, p, *variance_thresholds(mu, s2, beta),
                          is_point_mass(mu * mu + s2, mu * mu))


def _variance_pass(mu: float, s2, beta: float, p: np.ndarray, t1, t2, point):
    """:func:`variance_tails` at the thresholds t1, t2 and point-mass flag of s2."""
    return _evaluate(p, _price_edges(mu, beta, t1, t2), mu, mu * mu + s2, beta, t1, t2,
                     np.square, (0.0, beta * beta),
                     lambda x, i: variance_companion(mu, _at(s2, i), x), point)


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
    source analysis; validated against the enumeration oracle only.
    """
    p, restore = as_price_array(p)
    lo, _, _, regime = _tails(market, p, MODE_UPPER)
    mu = market.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        relaxed = np.where(p < mu, (mu - p) / (market.beta - p), 0.0)
    return restore(np.where(regime == LOW, lo, relaxed))
