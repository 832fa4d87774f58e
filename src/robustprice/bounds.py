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

from .ambiguity import (_BAND, _PRICE_MAX, MODE_EXACT, MODE_UPPER, MarketInfo, _check_price,
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


def _member_masses(mu: float, s: float, beta: float, p, phi_p, phi0: float, phib: float):
    """(w_p, w_beta) of the {0, p, beta} member with mean mu and dispersion s.

    phi_p, phi0, phib: the measure at p, 0 and beta.  No checks: outside
    0 < p < beta the masses are meaningless.  Both masses are NaN where the
    solve overflows (its denominator or a numerator is not finite).
    """
    dp, ds, db = phi0 - phi_p, phi0 - s, phib - phi0
    denom, nump, numb = beta * dp + p * db, beta * ds + mu * db, mu * dp - p * ds
    ok = math.isfinite(nump) and np.isfinite(denom) & np.isfinite(numb)   # nump: a float
    denom = np.where(ok, denom, math.nan)
    return nump / denom, numb / denom


@np.errstate(all="ignore")
def _tails(market: MarketInfo, p: np.ndarray, mode: str = MODE_EXACT, attained=False):
    """(inf tail, sup tail, sup conditional expectation, regime code) per price.

    The one tail pass and price check, for both modes: p is a 1-d price
    array, and a price outside (0, beta], NaN and inf included, raises.
    ``mode`` is the mode the caller's answer is for; a market in the other
    mode raises :class:`ModeError` here, the one place it is checked.  The
    measure enters only through phi, evaluated once per mid-regime price,
    its ends (phi(0), phi(beta)), and the companion points.  A price's
    regime alone decides its piece, the same for every entry point; the
    pieces and the members attaining them:

    * low, p <= t1: {p, a} with a = companion(p) > mu; inf (mu-p)/(a-p),
      sup 1, y = a, capped at beta (a float t1 can round past the threshold);
    * mid, t1 < p <= t2: {0, p, beta}; inf w_beta, sup w_p + w_beta,
      y = beta.  With beta = inf these are the limits 0, mu/p and inf,
      which no member attains;
    * high, p > t2: {a, p} with a = companion(p) < mu; inf 0 (the {0, t2}
      member sells nothing), sup (a-mu)/(a-p), y = beta;
    * upper mode, p > t1, where s only bounds the dispersion: the
      mean/maximum-only piece, inf (mu-p)/(beta-p) below the mean and 0 from
      it on (the point mass at mu), sup 1, y = beta.

    Each piece runs once, on the prices it labels: one companion solve or
    one mass solve per price.  Adjacent pieces meet at their threshold.
    The point mass (inf = sup = 1 up to mu, y = mu; low up to mu, high
    above) has one member; so, in exact mode, has the maximal-dispersion
    market {0, beta} (t2 = beta; inf = sup = mu/beta, y = beta, mid).  A
    NaN raises :class:`InternalConsistencyError`.  With ``attained`` each
    bound must be attained by a member, which with beta = inf fails in the
    mid regime between the mean and t2.  A single price runs the same pieces
    on Python floats, bit for bit (:func:`_one_price`).
    """
    if market.mode != mode:
        raise ModeError(f"this bound requires mode={mode!r}, the market has mode="
                        f"{market.mode!r}")
    mu, s, beta = market.mu, market.s, market.beta
    finite, exact = math.isfinite(beta), mode == MODE_EXACT
    if p.size == 1 and (one := _one_price(market, p, exact, attained)):
        return one

    def low_piece(x):
        a = _companion(market, x)
        if not finite:
            a = np.where(x >= mu, math.inf, a)   # the piece's limit at mu
        return (mu - x) / (a - x), 1.0, np.minimum(a, beta)

    def mid_piece(x):
        if not finite:
            return 0.0, np.minimum(mu / x, 1.0), math.inf
        wp, wb = _member_masses(mu, s, beta, x, market.measure._value(x), *market.phi_ends)
        sup = np.minimum(np.maximum(wp + wb, 0.0), 1.0)   # rounding can leave [0, 1]
        return np.minimum(np.maximum(wb, 0.0), sup), sup, beta

    def high_piece(x):
        a = _companion(market, x)
        return 0.0, (a - mu) / (a - x), beta

    def upper_piece(x):
        return np.where(x < mu, (mu - x) / (beta - x), 0.0), 1.0, beta

    # One comparison checks and labels the prices: above[k] is 1 where p > edge
    # k, the edges 0, t1, t2 and beta.
    above = (p > market._edges).view(np.int8)
    n = np.add.reduce(above, 1).tolist()
    if n[0] != p.size or n[3]:
        _check_price(p, beta)
    point = market.is_degenerate
    if point or exact and finite and market.right_threshold >= beta * (1.0 - _BAND):
        # One member: the point mass or {0, beta}.
        tail = (p <= mu).astype(float) if point else np.full(p.shape, mu / beta)
        regime = np.where(p <= mu, LOW, HIGH) if point else np.full(p.shape, MID)
        return tail, tail.copy(), np.full(p.shape, mu if point else beta), regime
    out = np.empty((3, p.size))
    pieces = (low_piece, mid_piece, high_piece) if exact else (low_piece, upper_piece, upper_piece)
    for k, piece in enumerate(pieces):   # piece k: edges k, k + 1
        count = n[k] - n[k + 1]
        if count:
            i = slice(None) if count == p.size else (above[k] != above[k + 1]).nonzero()[0]
            out[0][i], out[1][i], out[2][i] = piece(p[i])   # scalars or arrays over p[i]
    if np.isnan(out).any():
        k = np.isnan(out).any(0).argmax()
        raise InternalConsistencyError(f"the tail pass gives NaN at p={p[k].item()!r}: "
                                       f"{tuple(out[:, k].tolist())}")
    regime = above[1] + above[2]
    if attained and not finite and ((regime == MID) & (p < market.right_threshold)).any():
        raise UnboundedSupportError("three-point regime needs a finite maximum valuation")
    return out[0], out[1], out[2], regime


def _one_price(market: MarketInfo, p: np.ndarray, exact: bool, attained: bool):
    """:func:`_tails` at the one price of p on Python floats, or None for the array pass.

    Each piece repeats its array operations in order, so the bits are the
    same; the one-member markets, and a piece that divides by zero or meets
    a NaN (no piece gives -inf, so lo + hi + y shows it) or a non-finite
    mass, where numpy's rules decide, go to the array.
    """
    mu, s, beta, x, t2 = market.mu, market.s, market.beta, p.item(), market.right_threshold
    if not 0.0 < x <= min(beta, _PRICE_MAX):
        _check_price(p, beta)
    if market.is_degenerate or exact and math.isfinite(beta) and t2 >= beta * (1.0 - _BAND):
        return None
    k = (x > market.left_threshold) + (x > t2)
    try:
        if k == LOW or exact and k == HIGH:
            a = (math.inf if k == LOW and x >= mu and beta == math.inf else   # the limit at mu
                 max(mu + market.excess / (mu - x), 0.0) if market.measure.is_variance
                 else _companion(market, p).item())
            lo, hi, y = ((mu - x) / (a - x), 1.0, min(a, beta)) if k == LOW else \
                (0.0, (a - mu) / (a - x), beta)
        elif not exact:
            lo, hi, y = (mu - x) / (beta - x) if x < mu else 0.0, 1.0, beta
        elif beta == math.inf:
            if attained and x < t2:   # no member attains the limits: the array pass raises
                return None
            lo, hi, y = 0.0, min(mu / x, 1.0), beta
        else:   # _member_masses on floats; max(0.0, v) ties as np.maximum(v, 0.0)
            phi0, phib = market.phi_ends
            dp, ds, db = phi0 - market.measure._value(p).item(), phi0 - s, phib - phi0
            denom, nump, numb = beta * dp + x * db, beta * ds + mu * db, mu * dp - x * ds
            wp, wb = nump / denom, numb / denom
            if not math.isfinite(denom + nump + numb + wp + wb):
                return None
            hi = min(max(0.0, wp + wb), 1.0)
            lo, y = min(max(0.0, wb), hi), beta
    except ZeroDivisionError:
        return None
    return None if math.isnan(lo + hi + y) else tuple(np.array([v]) for v in (lo, hi, y, k))


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
    if isinstance(p, float) and not p > t2 * (1.0 + _BAND):   # one price: floats around the pass
        return float(p) * _tails(market, np.array([min(p, t2)]), attained=True)[1].item()
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

    Less-dispersed members count too, so above the left threshold the bound
    relaxes to the mean/maximum value, and from the mean on the point mass
    at the mean drives it to 0: the tail pass's upper-mode pieces.  Stated
    without full proof in the source analysis, and no oracle checks it (the
    enumeration oracle admits only members with E[phi(X)] = s): the tests
    pin 0.3902 and 0.2222 on one market, hold it bit for bit to the
    exact-mode bound up to the left threshold and to the mean/maximum value
    above it, and check that an exact-mode market is refused.
    """
    p, restore = as_price_array(p)
    return restore(_tails(market, p, MODE_UPPER)[0])
