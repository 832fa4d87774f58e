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
                        _companion, _fmax, _fmin, as_price_array, variance_companion)
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


def _member_masses(mu: float, s: float, beta: float, p, phi_p, phi0: float, phib: float,
                   isfinite=np.isfinite, where=np.where):
    """(w_p, w_beta) of the {0, p, beta} member with mean mu and dispersion s.

    phi_p, phi0, phib: the measure at p, 0 and beta; a float p may take math.isfinite
    and a float where.  No checks: outside 0 < p < beta the masses are meaningless.
    Both masses are NaN where the solve overflows (its denominator or a numerator is not finite).
    """
    dp, ds, db = phi0 - phi_p, phi0 - s, phib - phi0
    denom, nump, numb = beta * dp + p * db, beta * ds + mu * db, mu * dp - p * ds
    ok = math.isfinite(nump) and isfinite(denom) & isfinite(numb)   # nump: a float
    denom = where(ok, denom, math.nan)
    return nump / denom, numb / denom


def _piece(market: MarketInfo, k: int, exact: bool, x, ops):
    """(inf tail, sup tail, y) of the mode's piece k (LOW, MID, HIGH) at x, a price array
    with _ARRAY_OPS or a Python float with _FLOAT_OPS.  A float where takes both branches,
    so neither may divide by zero at a price the piece keeps."""
    minimum, maximum, where, isfinite, phi, companion = ops
    mu, s, beta = market.mu, market.s, market.beta
    if not exact and k:   # upper mode above t1: the mean/maximum-only piece
        return where(x < mu, (mu - x) / (beta - minimum(x, mu)), 0.0), 1.0, beta
    if k == MID:
        if beta == math.inf:
            return 0.0, minimum(mu / x, 1.0), math.inf
        wp, wb = _member_masses(mu, s, beta, x, phi(market, x), *market.phi_ends, isfinite, where)
        sup = minimum(maximum(wp + wb, 0.0), 1.0)   # rounding can leave [0, 1]
        return minimum(maximum(wb, 0.0), sup), sup, beta
    a = companion(market, x)
    if k == HIGH:
        return 0.0, (a - mu) / (a - x), beta
    if beta == math.inf:
        a = where(x >= mu, math.inf, a)   # the piece's limit at mu
    return (mu - x) / (a - x), 1.0, minimum(a, beta)


# What price arrays and floats spell differently: (minimum, maximum, where, isfinite, phi,
# companion), _companion looked up per call.  A variance float companion is the closed form
# but at the mean, where numpy's rules decide (the beta = inf low piece's end, t1 = mu).
_ARRAY_OPS = (np.minimum, np.maximum, np.where, np.isfinite,
              lambda market, x: market.measure._value(x), lambda market, x: _companion(market, x))
_FLOAT_OPS = (_fmin, _fmax, lambda c, a, b: a if c else b, math.isfinite,
              lambda market, x: market.measure._value(np.array([x])).item(),
              lambda market, x: variance_companion(market.mu, market.excess, x)
              if market.measure.is_variance and x != market.mu
              else _companion(market, np.array([x])).item())


@np.errstate(all="ignore")
def _tails(market: MarketInfo, p: np.ndarray, mode: str = MODE_EXACT, attained=False):
    """(inf tail, sup tail, sup conditional expectation, regime code) per price.

    The one tail pass and price check, for both modes: p is a 1-d price
    array, and a price outside (0, beta], NaN and inf included, raises.
    ``mode`` is the mode the caller's answer is for; a market in the other
    mode raises :class:`ModeError` here, the one place it is checked.  The
    measure enters only through phi, evaluated once per mid-regime price,
    its ends (phi(0), phi(beta)), and the companion points.  A price's
    regime alone decides its piece (:func:`_piece`), the same for every entry
    point; the pieces and the members attaining them:

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
    mid regime between the mean and t2.  A single price runs the same
    :func:`_piece` on a Python float (:func:`_one_price`).
    """
    if market.mode != mode:
        raise ModeError(f"this bound requires mode={mode!r}, the market has mode="
                        f"{market.mode!r}")
    mu, beta, point = market.mu, market.beta, market.is_degenerate
    finite, exact = math.isfinite(beta), mode == MODE_EXACT
    one_member = point or exact and finite and market.right_threshold >= beta * (1.0 - _BAND)
    if p.size == 1 and not one_member and (one := _one_price(market, p, exact, attained)):
        return one
    # One comparison checks and labels the prices: above[k] is 1 where p > edge
    # k, the edges 0, t1, t2 and beta.
    above = (p > market._edges).view(np.int8)
    n = np.add.reduce(above, 1).tolist()
    if n[0] != p.size or n[3]:
        _check_price(p, beta)
    if one_member:   # the point mass or {0, beta}
        tail = (p <= mu).astype(float) if point else np.full(p.shape, mu / beta)
        regime = np.where(p <= mu, LOW, HIGH) if point else np.full(p.shape, MID)
        return tail, tail.copy(), np.full(p.shape, mu if point else beta), regime
    out = np.empty((3, p.size))
    for k in range(3):   # piece k: edges k, k + 1
        count = n[k] - n[k + 1]
        if count:
            i = slice(None) if count == p.size else (above[k] != above[k + 1]).nonzero()[0]
            out[0][i], out[1][i], out[2][i] = _piece(market, k, exact, p[i], _ARRAY_OPS)
    if np.isnan(out).any():
        k = np.isnan(out).any(0).argmax()
        raise InternalConsistencyError(f"the tail pass gives NaN at p={p[k].item()!r}: "
                                       f"{tuple(out[:, k].tolist())}")
    regime = above[1] + above[2]
    if attained and not finite and ((regime == MID) & (p < market.right_threshold)).any():
        raise UnboundedSupportError("three-point regime needs a finite maximum valuation")
    return out[0], out[1], out[2], regime


def _one_price(market: MarketInfo, p: np.ndarray, exact: bool, attained: bool):
    """:func:`_tails` at the one price of p, in a market with more than one member: its
    :func:`_piece` on a Python float.  None hands the price to the array pass: at a beta = inf
    mid price below t2 with ``attained``, where that pass raises, and where the piece divides
    by zero or gives a NaN (no piece gives -inf, so lo + hi + y shows it): numpy's rules."""
    x, t2 = p.item(), market.right_threshold
    if not 0.0 < x <= min(market.beta, _PRICE_MAX):
        _check_price(p, market.beta)
    k = (x > market.left_threshold) + (x > t2)
    if attained and k == MID and x < t2 and market.beta == math.inf:
        return None
    try:
        lo, hi, y = _piece(market, k, exact, x, _FLOAT_OPS)
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
