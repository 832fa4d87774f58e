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


def _on_one(f, x: float) -> float:
    """f([x]).item() under np.errstate: the numpy calls the float path still makes."""
    with np.errstate(all="ignore"):
        return f(np.array([x])).item()


# What price arrays and floats spell differently: (minimum, maximum, where, isfinite, phi,
# companion), _companion looked up per call.  A variance price makes no numpy call: phi is
# x * x (np.power(x, 2.0)'s bits), the companion closed form but at the mean (numpy's rules).
_ARRAY_OPS = (np.minimum, np.maximum, np.where, np.isfinite,
              lambda market, x: market.measure._value(x), lambda market, x: _companion(market, x))
_FLOAT_OPS = (_fmin, _fmax, lambda c, a, b: a if c else b, math.isfinite,
              lambda market, x: x * x if market.measure.is_variance
              else _on_one(market.measure._value, x),
              lambda market, x: variance_companion(market.mu, market.excess, x)
              if market.measure.is_variance and x != market.mu
              else _on_one(lambda p: _companion(market, p), x))


def _one_member(market: MarketInfo, mode: str) -> bool:
    """The point mass, or {0, beta} in exact mode; a market in another mode raises ModeError."""
    if market.mode != mode:
        raise ModeError(f"this bound requires mode={mode!r}, the market has mode={market.mode!r}")
    beta = market.beta
    return market.is_degenerate or mode == MODE_EXACT and beta < math.inf and \
        market.right_threshold >= beta * (1.0 - _BAND)


def _tails(market: MarketInfo, p: np.ndarray, mode: str = MODE_EXACT, attained=False):
    """(inf tail, sup tail, sup conditional expectation, regime code) per price.

    The one tail pass and price check, for both modes: p is a 1-d price
    array, and a price outside (0, beta], NaN and inf included, raises.
    ``mode`` is the mode the caller's answer is for; a market in the other
    mode raises :class:`ModeError` (:func:`_one_member`).  The
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
    :func:`_piece` on Python floats (:func:`_one_price`), outside np.errstate.
    """
    one_member, exact = _one_member(market, mode), mode == MODE_EXACT
    if p.size == 1 and not one_member and (one := _one_price(market, p.item(), exact, attained)):
        return tuple(np.array([v]) for v in one)   # the array callers' 1-element arrays
    mu, beta, point = market.mu, market.beta, market.is_degenerate
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
    with np.errstate(all="ignore"):
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
    if attained and beta == math.inf and ((regime == MID) & (p < market.right_threshold)).any():
        raise UnboundedSupportError("three-point regime needs a finite maximum valuation")
    return out[0], out[1], out[2], regime


def _one_price(market: MarketInfo, x: float, exact: bool, attained: bool):
    """:func:`_tails` at the one price x of a market with more than one member: its
    :func:`_piece` on the float, as Python floats and an int.  None hands x to the array pass:
    at a beta = inf mid price below t2 with ``attained``, where that pass raises, and where the
    piece divides by zero or gives a NaN (no piece gives -inf, so lo + hi + y shows it)."""
    t2 = market.right_threshold
    if not 0.0 < x <= min(market.beta, _PRICE_MAX):
        _check_price(x, market.beta)
    k = (x > market.left_threshold) + (x > t2)
    if attained and k == MID and x < t2 and market.beta == math.inf:
        return None
    try:
        lo, hi, y = _piece(market, k, exact, x, _FLOAT_OPS)
    except ZeroDivisionError:
        return None
    return None if math.isnan(lo + hi + y) else (lo, hi, y, k)


def _tail_call(market: MarketInfo, p, f, mode: str = MODE_EXACT, attained=False, t2=math.inf):
    """f(p, inf tail, sup tail, y, regime code) of the tail pass at p, each argument in p's
    shape: :func:`_one_price`'s floats and int where p is one Python or numpy float it
    answers, else :func:`_tails`'s arrays restored.  best_case_revenue's finite ``t2``
    refuses a price above t2 (1 + _BAND) and runs the pass at min(p, t2)."""
    if type(p) is float or type(p) is np.float64:
        x = float(p)
        if not (x > t2 * (1.0 + _BAND) or _one_member(market, mode)) and (
                one := _one_price(market, min(x, t2), mode == MODE_EXACT, attained)):
            return f(x, *one)
    p, restore = as_price_array(p)
    if t2 < math.inf and np.count_nonzero(bad := p > t2 * (1.0 + _BAND)):   # inf too
        raise RobustPriceError(f"best-case revenue defined on (0, {t2}], got p={p[bad][0]}")
    tails = _tails(market, p if t2 == math.inf else np.minimum(p, t2), mode, attained)
    return f(*map(restore, (p, *tails)))   # the pass checks the rest of the price rule


def tail_prob_max(market: MarketInfo, p):
    """Best-case conversion rate sup P(X >= p) over the market (p: float or array)."""
    return _tail_call(market, p, lambda p, lo, hi, y, k: hi, attained=True)


def tail_prob_min(market: MarketInfo, p):
    """Worst-case conversion rate inf P(X >= p) over the market (p: float or array)."""
    return _tail_call(market, p, lambda p, lo, hi, y, k: lo, attained=True)


def cond_exp_max(market: MarketInfo, p):
    """Best-case conditional expectation sup E[X | X >= p] (p: float or array)."""
    return _tail_call(market, p, lambda p, lo, hi, y, k: y)


def best_case_revenue(market: MarketInfo, p):
    """p * sup P(X >= p); non-decreasing up to the right threshold."""
    return _tail_call(market, p, lambda p, lo, hi, y, k: p * hi, attained=True,
                      t2=market.right_threshold)


def tail_bounds(market: MarketInfo, p) -> TailBounds:
    """All three key quantities plus the best-case revenue (p: float or array)."""
    return _tail_call(market, p, lambda p, lo, hi, y, k: TailBounds(p, lo, hi, y, p * hi,
                                                                   REGIMES[k]), attained=True)


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
    return _tail_call(market, p, lambda p, lo, hi, y, k: lo, MODE_UPPER)
