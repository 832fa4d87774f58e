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
    (phi(0), phi(beta)), and the companion points.  The pieces and the
    members attaining them:

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
    mu, s, beta = market.mu, market.s, market.beta
    t1, t2 = market.left_threshold, market.right_threshold
    finite = math.isfinite(beta)
    scale = beta if finite else mu

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
        a = np.where(x == mu, 0.0, _companion(market, x))   # the piece's limit at mu
        return 0.0, (a - mu) / (a - x), beta

    # One comparison checks and labels the prices: above[k] is 1 where p > edge
    # k, the edges 0, t1 -+ band, t2 -+ band and beta.  The two bands may overlap.
    above = (p > market._edges).view(np.int8)
    n = np.add.reduce(above, 1).tolist()
    if n[0] != p.size or n[5]:
        _check_price(p, beta)
    point = market.is_degenerate
    if point or finite and t2 >= beta * (1.0 - _BAND):   # one member: the point mass or {0, beta}
        tail = (p <= mu).astype(float) if point else np.full(p.shape, mu / beta)
        regime = np.where(p <= mu, LOW, HIGH) if point else np.full(p.shape, MID)
        return tail, tail.copy(), np.full(p.shape, mu if point else beta), regime
    # Each piece runs once, on the prices between edges lo and hi: where it labels and the band
    # below its threshold; high to low, so a band price ends with the piece below it.
    out, blends = np.empty((3, p.size)), []
    inf_tail, sup_tail, cond_exp = out[0], out[1], out[2]   # views, written in place
    for piece, lo, hi in ((high_piece, 3, 5), (mid_piece, 1, 4), (low_piece, 0, 2)):
        count = n[lo] - n[hi]
        if count:
            i = slice(None) if count == p.size else (above[lo] != above[hi]).nonzero()[0]
            inf_tail[i], sup_tail[i], cond_exp[i] = piece(p[i])   # scalars or arrays over p[i]
        if lo and n[lo] != n[lo + 1]:
            at = (above[lo] != above[lo + 1]).nonzero()[0]
            blends.append((at, out.take(at, axis=1), lo))
    for at, other, lo in reversed(blends):   # t1 first
        steep = lo == 3 and beta - t2 < mu * _BAND / _BOUNDARY_AGREE
        _blend(out, at, other, p[at], scale, steep, t2 if lo == 3 else t1)
    return inf_tail, sup_tail, cond_exp, above[2] + above[4]


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
    bad = ~(gap <= _BOUNDARY_AGREE * np.maximum(1.0, scale / p))   # a NaN gap disagrees
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
