"""Optimal robust prices and regime thresholds.

The outer maximization over the price has a low-regime candidate (inside
the two-point region) and high-regime candidates (inside the three-point
region); the optimum is the best candidate and the winning regime flips at
a dispersion threshold: sigma_star for the ratio objective, delta_star for
the revenue objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .ambiguity import (_BRENTQ_RTOL, _BRENTQ_XTOL, MarketInfo, companion_point,
                        left_threshold, power_market, require_feasible,
                        right_threshold, variance_market, variance_thresholds)
from .bounds import _variance_pass
from .errors import InternalConsistencyError, RobustPriceError, RootFindingError
from .ratio import _branches, worst_case_cr, worst_case_revenue

REGIME_LOW_PRICE = "low"
REGIME_HIGH_PRICE = "high"

# Scan resolutions: coarse for threshold bracketing, fine for root isolation.
_THRESHOLD_SCAN = 200
_ROOT_SCAN = 2001
_BRENTQ_MAXITER = 100
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PriceSolution:
    price: float
    value: float
    regime: str  # "low" or "high"
    label: str
    candidates: Tuple[Tuple[str, float, float], ...]
    threshold: Optional[float] = None


def _select(candidates: List[Tuple[str, float, float]], threshold=None) -> PriceSolution:
    """Pick the highest-value candidate; earlier entries win ties.

    Candidate lists are ordered low regime first, so the documented
    tie-break (prefer the low price at exact threshold equality) falls out
    of strict-inequality comparison.  A NaN value, which would otherwise
    win or lose by its position, raises.
    """
    if not candidates:
        raise RobustPriceError("no admissible price candidates")
    for label, price, value in candidates:
        if math.isnan(value):
            raise InternalConsistencyError(f"candidate {label} at price {price} has value NaN")
    label, price, value = max(candidates, key=lambda c: c[2])
    regime = REGIME_LOW_PRICE if label in ("p_l", "pi_l") else REGIME_HIGH_PRICE
    return PriceSolution(price=price, value=value, regime=regime, label=label,
                         candidates=tuple(candidates), threshold=threshold)


def _low_price(mu: float, sigma, cr: bool, compat_printed_pl: bool = False):
    """The unconstrained low candidate for sigma > 0 by Cardano's formula, with
    y = mu / (2 sigma), r**2 = 8/27 + y**2 (ratio) or y = mu / sigma, r**2 = 1 + y**2.
    compat_printed_pl takes the printed ratio radical r**2 = 8/27 + y, which
    does not reproduce the reference values."""
    k, c = (2.0, 8.0 / 27.0) if cr else (1.0, 1.0)
    y = mu / (k * sigma)
    r = np.sqrt(c + (y if compat_printed_pl else y * y))
    return mu - sigma * (np.cbrt(y + r) + np.cbrt(y - r))


def _high_prices(t2, beta: float, cr: bool):
    """The unclipped high candidates from t2: (p_h1, p_h2) of the ratio, (pi_h,) of revenue."""
    if not cr:
        return beta - np.sqrt(beta * np.maximum(beta - t2, 0.0)),
    disc = (3.0 * beta - t2) ** 2 - 4.0 * beta * beta
    return 0.5 * (beta + t2 - np.sqrt(np.maximum(disc, 0.0))), 0.5 * t2


def _variance_table(mu: float, sigma, beta: float, objective: str,
                    compat_printed_pl: bool = False):
    """(labels, prices, values, present) for a variance objective, low first.

    objective "cr" takes the ratio candidates (p_l, p_h1, p_h2) and values
    them by the worst-case ratio; "rev" takes the revenue candidates (pi_l,
    pi_h) and values them by the worst-case revenue.  sigma > 0 is a float
    or an array; prices, values and present have shape
    (len(labels), *sigma.shape), one row per candidate.  A candidate is
    present where it is admissible: the low price needs t1 > 0, the high
    prices a finite beta and a positive clipped price.  An absent entry
    keeps its clipped price, but its value (taken at t2) is to be ignored.
    """
    sigma = np.asarray(sigma, dtype=float)
    cr = objective == "cr"
    labels = ("p_l", "p_h1", "p_h2") if cr else ("pi_l", "pi_h")
    s2 = sigma * sigma
    t1, t2 = variance_thresholds(mu, s2, beta)
    high = np.minimum(np.maximum(_high_prices(t2, beta, cr), t1), t2) \
        if math.isfinite(beta) else ()
    prices = np.array((np.minimum(_low_price(mu, sigma, cr, compat_printed_pl), t1), *high))
    labels, present = labels[:len(prices)], prices > 0
    present[0] = t1 > 0
    stack = np.zeros(prices.shape)   # the pass takes s2, t1 and t2 per price
    p, s2, t1, t2 = (v.reshape(-1) for v in (np.where(present, prices, t2), s2 + stack,
                                              t1 + stack, t2 + stack))
    tails = _variance_pass(mu, s2, beta, p, t1, t2, False)   # a low price that overflowed raises
    values = np.minimum(*_branches(p, *tails)) if cr else p * tails[0]
    return labels, prices, values.reshape(prices.shape), present


def _variance_threshold(mu: float, beta: float, objective: str) -> float:
    """First sigma in (0, sigma_max) where the best low candidate stops
    beating the best high one; infinite when beta is."""
    if not (math.isfinite(mu) and mu > 0 and beta > mu):   # a NaN beta fails too
        variance_market(mu, 0.0, beta)   # raises with the market's message
    if not math.isfinite(beta):
        return math.inf

    def gap(sigma):
        _, _, values, present = _variance_table(mu, sigma, beta, objective)
        values = np.where(present, values, -np.inf)
        return values[0] - np.maximum.reduce(values[1:])

    sigma_max = math.sqrt(mu * (beta - mu))
    root = _scan_root(gap, 1e-3 * sigma_max, sigma_max * (1.0 - 1e-9), mu, _THRESHOLD_SCAN)
    if root is None:
        raise RootFindingError(f"no low/high value crossing on (0, {sigma_max})")
    return root


def _optimal_variance(mu: float, sigma: float, beta: float, objective: str,
                      compat_printed_pl: bool, with_threshold: bool) -> PriceSolution:
    """The best present candidate of the variance table, and the threshold."""
    market = variance_market(mu, sigma, beta)
    require_feasible(market)
    if market.is_degenerate:
        label, value = ("p_l", 1.0) if objective == "cr" else ("pi_l", mu)
        return PriceSolution(mu, value, REGIME_LOW_PRICE, label, ((label, mu, value),), None)
    labels, *table = _variance_table(mu, sigma, beta, objective, compat_printed_pl)
    cands = [(label, p, v) for label, p, v, keep in zip(labels, *(c.tolist() for c in table))
             if keep]
    return _select(cands, _variance_threshold(mu, beta, objective) if with_threshold else None)


def optimal_price_variance(mu: float, sigma: float, beta: float,
                           compat_printed_pl: bool = False,
                           with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case ratio under variance knowledge."""
    return _optimal_variance(mu, sigma, beta, "cr", compat_printed_pl, with_threshold)


def optimal_price_revenue_variance(mu: float, sigma: float, beta: float,
                                   with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case revenue under variance knowledge."""
    return _optimal_variance(mu, sigma, beta, "rev", False, with_threshold)


def sigma_star(mu: float, beta: float) -> float:
    """Dispersion threshold where the ratio objective switches regimes.

    Below it the low price wins, above it a high price wins.  Goes to
    infinity as beta does (the high regime never takes over).
    """
    return _variance_threshold(mu, beta, "cr")


def delta_star(mu: float, beta: float) -> float:
    """Dispersion threshold where the revenue objective switches regimes.

    Defined operationally as the sigma where the low and high revenue
    candidates' worst-case revenues cross.
    """
    return _variance_threshold(mu, beta, "rev")


def _scan_root(f, lo: float, hi: float, scale: float, n: int = _ROOT_SCAN,
               last: bool = False) -> Optional[float]:
    """The first (with ``last``, the last) sign-change root of f on [lo, hi]
    found on an n-point scan; None if there is none or the interval is empty.

    f maps a point array to residuals and a float to one.  The scan calls it
    once on the grid; a grid point where f is 0 is a root, and Brent's method
    refines the chosen sign change from the scan's residuals at its ends, one
    float per step, with xtol relative to ``scale``.  Neighbours' signs are
    compared, not multiplied: an infinite residual times 0 is NaN.
    """
    if not hi > lo:
        return None
    grid = np.linspace(lo, hi, n)
    fx = f(grid)
    sign = np.sign(fx)
    hits = np.flatnonzero((sign == 0.0) | np.append(sign[:-1] == -sign[1:], False))
    if not hits.size:
        return None
    i = int(hits[-1 if last else 0])
    j = min(i + 1, n - 1)

    def residual(x: float) -> float:
        fi = float(f(x))
        if math.isnan(fi):
            raise RootFindingError(f"residual is NaN at x = {x}")
        return fi

    return _brent(residual, *grid[[i, j]].tolist(), *fx[[i, j]].tolist(), _BRENTQ_XTOL * scale)


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float) -> float:
    """Brent's method on the bracket [xpre, xcur] with residuals fpre, fcur,
    on floats, as C brentq (Brent 1973); f is called once per step, never
    at the bracket ends."""
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise RootFindingError(f"no sign change on [{xpre}, {xcur}]: f = {fpre}, {fcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation takes a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RootFindingError(f"Brent's method did not converge in {_BRENTQ_MAXITER} steps")


def optimal_price_power(mu: float, s: float, q: float, beta: float) -> PriceSolution:
    """Price maximizing the worst-case ratio under fractional-moment knowledge.

    Four candidates: two low-regime roots (clipped by the left threshold,
    and searched only below it when beta is finite) and two high-regime
    points (clipped into the three-point region); the optimum is the
    better of the clipped low and high candidates.
    """
    market = power_market(mu, s, q, beta)
    require_feasible(market)
    if market.is_degenerate:
        return PriceSolution(mu, 1.0, REGIME_LOW_PRICE, "p_l", (("p_l", mu, 1.0),), None)
    t1 = left_threshold(market)
    t2 = right_threshold(market)
    eps = 1e-9 * mu

    # With beta = inf the companion near mu can be so large that the terms
    # below overflow; the residual is then +inf, which keeps its sign.
    def bar_pl_resid(p):
        a = companion_point(market, p)
        with np.errstate(over="ignore"):
            return p - (a - np.sqrt(a * (a - mu)))

    def hat_pl_resid(p):
        a = companion_point(market, p)
        with np.errstate(over="ignore"):
            return (np.power(a, q) - np.power(p, q)) / (a - p) - q * s / mu

    # Low roots above t1 never win (the low candidate is the smallest of
    # t1 and the roots), and at t1 the companion point is beta; scanning on
    # towards mu reaches companions beyond any bracket when q is near 1.
    top = t1 if math.isfinite(beta) else mu * (1.0 - 1e-7)
    raw = [(label, _scan_root(resid, eps, top, mu))
           for label, resid in (("bar_p_l", bar_pl_resid), ("hat_p_l", hat_pl_resid))]
    raw = [(label, root) for label, root in raw if root is not None]
    low_parts = [t1] + [root for _, root in raw]

    cands = []
    if t1 > 0:
        cands.append(("p_l", min(low_parts)))

    hat_ph = (s / (q * mu)) ** (1.0 / (q - 1.0))
    raw.append(("hat_p_h", hat_ph))
    if math.isfinite(beta):
        def bar_ph_resid(p):
            return (beta ** q - np.power(p, q) + beta * np.power(p, q - 1.0)) \
                / (2.0 * beta - p) - s / mu

        bar_ph = _scan_root(bar_ph_resid, eps, t2, mu, last=True)
        # At maximal dispersion (t1 = 0) the only member is {0, beta}, whose
        # ratio p / beta peaks at t2 = beta.
        high_parts = [t1, hat_ph] if t1 > 0 else [t2]
        if bar_ph is not None:
            raw.append(("bar_p_h", bar_ph))
            high_parts.append(bar_ph)
        p_high = min(max(high_parts), t2)
        if p_high > 0:
            cands.append(("p_h", p_high))

    # Raw candidate values are reported at their in-range clip for audit.
    cands += [(label, min(max(p, eps), t2)) for label, p in raw]
    values = worst_case_cr(market, np.array([p for _, p in cands])).cr
    cands = [(label, float(p), float(v)) for (label, p), v in zip(cands, values)]
    return _select(cands[:2] + sorted(cands[2:], key=lambda c: c[0]))


def optimal_price_general(market: MarketInfo, tol: float = 1e-8,
                          objective: str = "cr") -> PriceSolution:
    """Scan-and-rescan maximizer of the worst-case ratio (or revenue).

    Fallback path for custom dispersion measures: a fine scan of each regime
    branch, rescanned around its best point down to a step of ``tol * mu``.
    Accuracy is claimed only up to the first scan for multi-modal objectives.
    """
    require_feasible(market)
    if objective not in ("cr", "rev"):
        raise RobustPriceError(f"objective must be 'cr' or 'rev', got {objective!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise RobustPriceError(f"tol must be positive and finite, got {tol}")
    mu = market.mu
    if market.is_degenerate:
        val = 1.0 if objective == "cr" else mu
        return PriceSolution(mu, val, REGIME_LOW_PRICE, "p_l", (("p_l", mu, val),), None)

    def f(p):
        if objective == "cr":
            return worst_case_cr(market, p).cr
        return worst_case_revenue(market, p)

    t1 = left_threshold(market)
    t2 = right_threshold(market)
    if not math.isfinite(market.beta):
        t2 = mu  # beyond the low regime the objective is 0 when beta is infinite
    segments = []
    if t1 > 0:
        segments.append(("p_l", 1e-9 * mu, t1))
    if t2 > t1:
        segments.append(("p_h", t1 if t1 > 0 else 1e-9 * mu, t2))
    labels, lo, hi = (np.array(v) for v in zip(*segments))
    # A rescan spans at most two steps of the grid before it, so it divides
    # the step by (_ROOT_SCAN - 1) / 2 at least; eps * mu is the finest step.
    shrink = math.log(np.max(hi - lo) / ((_ROOT_SCAN - 1) * mu)) - math.log(max(tol, _EPS))
    rows = np.arange(len(labels))
    best_p = best_v = np.full(len(labels), -np.inf)
    for _ in range(1 + max(0, math.ceil(shrink / math.log((_ROOT_SCAN - 1) / 2)))):
        grid = np.linspace(lo, hi, _ROOT_SCAN, axis=-1)
        vals = f(grid.reshape(-1)).reshape(grid.shape)
        i = np.argmax(vals, axis=1)
        p, v = grid[rows, i], vals[rows, i]
        best_p, best_v = np.where(v > best_v, p, best_p), np.maximum(v, best_v)
        lo = grid[rows, np.maximum(i - 1, 0)]
        hi = grid[rows, np.minimum(i + 1, _ROOT_SCAN - 1)]
    return _select(list(zip(labels.tolist(), best_p.tolist(), best_v.tolist())))


@dataclass(frozen=True)
class OrderingReport:
    """Low/high price orderings between the revenue and ratio optima."""

    pi_l: float
    p_l: float
    pi_h: float
    p_h: float
    sigma: float
    sigma_star: float
    delta_star: float
    low_ordering_applies: bool
    low_ordering_holds: bool
    high_ordering_applies: bool
    high_ordering_holds: bool


def compare_prices(mu: float, sigma: float, beta: float) -> OrderingReport:
    """Report the four candidate prices and the predicted orderings.

    Predicted: the revenue-optimal low price sits below the ratio-optimal
    low price when sigma is below both thresholds, and the revenue-optimal
    high price sits above the ratio-optimal high price when sigma is above
    both.
    """
    if not math.isfinite(beta):
        raise RobustPriceError("price comparison needs a finite maximum valuation")
    market = variance_market(mu, sigma, beta)
    require_feasible(market)
    if market.is_degenerate:
        return OrderingReport(mu, mu, mu, mu, sigma, sigma_star(mu, beta),
                              delta_star(mu, beta), False, True, False, True)
    _, (pi_l, pi_h), _, (low_present, _) = _variance_table(mu, sigma, beta, "rev")
    _, prices, (_, v_h1, v_h2), _ = _variance_table(mu, sigma, beta, "cr")
    pi_l, pi_h, (p_l, p_h1, p_h2) = float(pi_l), float(pi_h), prices.tolist()
    p_h = p_h1 if v_h1 >= v_h2 else p_h2
    ss, ds = sigma_star(mu, beta), delta_star(mu, beta)
    return OrderingReport(
        pi_l=pi_l, p_l=p_l, pi_h=pi_h, p_h=p_h, sigma=sigma, sigma_star=ss, delta_star=ds,
        low_ordering_applies=sigma <= min(ss, ds) and bool(low_present),
        low_ordering_holds=pi_l < p_l,
        high_ordering_applies=sigma >= max(ss, ds),
        high_ordering_holds=pi_h > p_h)
