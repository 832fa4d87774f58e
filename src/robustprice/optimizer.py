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

from .ambiguity import (MarketInfo, companion_point, left_threshold,
                        power_market, require_feasible, right_threshold,
                        solve_bracketed, variance_market, variance_thresholds)
from .bounds import variance_tails
from .errors import RobustPriceError, RootFindingError
from .ratio import (_branches, worst_case_cr, worst_case_cr_variance,
                    worst_case_revenue)

REGIME_LOW_PRICE = "low"
REGIME_HIGH_PRICE = "high"

# Scan resolutions: coarse for threshold bracketing, fine for root isolation.
_THRESHOLD_SCAN = 200
_ROOT_SCAN = 2001
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PriceSolution:
    price: float
    value: float
    regime: str  # "low" or "high"
    label: str
    candidates: Tuple[Tuple[str, float, float], ...]
    threshold: Optional[float] = None


def _real(x):
    """A 0-d result as a float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _select(candidates: List[Tuple[str, float, float]], threshold=None) -> PriceSolution:
    """Pick the highest-value candidate; earlier entries win ties.

    Candidate lists are ordered low regime first, so the documented
    tie-break (prefer the low price at exact threshold equality) falls out
    of strict-inequality comparison.
    """
    if not candidates:
        raise RobustPriceError("no admissible price candidates")
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[2] > best[2]:
            best = cand
    label, price, value = best
    regime = REGIME_LOW_PRICE if label in ("p_l", "pi_l") else REGIME_HIGH_PRICE
    return PriceSolution(price=price, value=value, regime=regime, label=label,
                         candidates=tuple(candidates), threshold=threshold)


def low_price_variance(mu: float, sigma, compat_printed_pl: bool = False):
    """Unconstrained maximizer of the low-branch ratio (variance measure).

    The adopted radical is sqrt(8/27 + (mu/(2 sigma))**2); the printed
    variant without the square is available behind the compatibility flag
    and is known not to reproduce the reference values.  sigma may be an
    array.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = mu / (2.0 * sigma)
        r = np.sqrt(8.0 / 27.0 + (x if compat_printed_pl else x * x))
        p = mu - sigma * (np.cbrt(x + r) + np.cbrt(x - r))
    return _real(np.where(sigma == 0.0, mu, p))


def high_prices_variance(mu: float, sigma, beta: float):
    """The two high-regime candidates (three-point region), unclipped."""
    t2 = variance_thresholds(mu, np.square(sigma), beta)[1]
    disc = (3.0 * beta - t2) ** 2 - 4.0 * beta * beta
    p_h1 = 0.5 * (beta + t2 - np.sqrt(np.maximum(disc, 0.0)))
    return _real(p_h1), _real(0.5 * t2)


def _variance_cr_table(mu: float, sigma, beta: float, compat_printed_pl: bool = False):
    """[(label, price, ratio, present)] for the variance ratio objective.

    sigma > 0 is a float or an array and the columns have its shape.  A
    candidate is present where it is admissible: p_l needs t1 > 0, the high
    prices a finite beta and a positive clipped price.  Absent entries carry
    an arbitrary admissible price, and their ratio is to be ignored.
    """
    sigma = np.asarray(sigma, dtype=float)
    t1, t2 = variance_thresholds(mu, sigma * sigma, beta)
    rows = [("p_l", np.minimum(low_price_variance(mu, sigma, compat_printed_pl), t1), t1 > 0)]
    if math.isfinite(beta):
        for label, p in zip(("p_h1", "p_h2"), high_prices_variance(mu, sigma, beta)):
            p = np.minimum(np.maximum(p, t1), t2)
            rows.append((label, p, p > 0))
    prices = np.stack([np.where(present, p, t2) for _, p, present in rows])
    p, tails = _variance_pass(mu, sigma, beta, prices)
    values = np.minimum(*_branches(p, *tails)).reshape(prices.shape)
    return [(label, p, v, present)
            for (label, _, present), p, v in zip(rows, prices, values)]


def _variance_pass(mu: float, sigma: np.ndarray, beta: float, prices: np.ndarray):
    """(prices, tail pass) over a candidate table: prices has a row per
    candidate and sigma's shape, one market per sigma; both flattened."""
    p = prices.reshape(-1)
    return p, variance_tails(mu, np.broadcast_to(sigma * sigma, prices.shape).reshape(-1),
                             beta, p)


def _candidates(table) -> List[Tuple[str, float, float]]:
    """Present (label, price, value) rows of a scalar candidate table."""
    return [(label, float(p), float(v)) for label, p, v, present in table if present]


def _low_minus_high(table, low_label: str) -> np.ndarray:
    """Best low-regime value minus best high-regime value (-inf if absent)."""
    low = high = -np.inf
    for label, _, v, present in table:
        v = np.where(present, v, -np.inf)
        if label == low_label:
            low = np.maximum(low, v)
        else:
            high = np.maximum(high, v)
    return low - high


def optimal_price_variance(mu: float, sigma: float, beta: float,
                           compat_printed_pl: bool = False,
                           with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case ratio under variance knowledge."""
    market = variance_market(mu, sigma, beta)
    require_feasible(market)
    if sigma == 0.0:
        return PriceSolution(mu, 1.0, REGIME_LOW_PRICE, "p_l",
                             (("p_l", mu, 1.0),), None)
    cands = _candidates(_variance_cr_table(mu, sigma, beta, compat_printed_pl))
    thr = None
    if with_threshold:
        thr = math.inf if not math.isfinite(beta) else sigma_star(mu, beta)
    return _select(cands, threshold=thr)


def _crossing_sigma(mu: float, beta: float, gap) -> float:
    """Root of gap(sigma) = low value - high value on (0, sigma_max).

    gap maps a sigma array to an array; the scan evaluates it once on the
    whole grid and Brent's method refines the first downward crossing.
    """
    if not math.isfinite(beta):
        return math.inf
    sigma_max = math.sqrt(mu * (beta - mu))
    grid = np.linspace(1e-3 * sigma_max, sigma_max * (1.0 - 1e-9), _THRESHOLD_SCAN)
    vals = gap(grid)
    hits = np.flatnonzero((vals[:-1] == 0.0) | ((vals[:-1] > 0) & (vals[1:] <= 0)))
    if hits.size == 0:
        raise RootFindingError(
            f"no low/high value crossing on (0, {sigma_max}); "
            f"scan range [{vals.min()}, {vals.max()}]")
    return solve_bracketed(gap, grid[hits[0]], grid[hits[0] + 1], mu)


def sigma_star(mu: float, beta: float) -> float:
    """Dispersion threshold where the ratio objective switches regimes.

    Below it the low price wins, above it a high price wins.  Goes to
    infinity as beta does (the high regime never takes over).
    """
    return _crossing_sigma(
        mu, beta, lambda sigma: _low_minus_high(_variance_cr_table(mu, sigma, beta), "p_l"))


def low_price_revenue_variance(mu: float, sigma):
    """Unconstrained maximizer of the low-branch worst-case revenue."""
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = mu / sigma
        r = np.sqrt(1.0 + y * y)
        p = mu - sigma * (np.cbrt(y + r) + np.cbrt(y - r))
    return _real(np.where(sigma == 0.0, mu, p))


def high_price_revenue_variance(mu: float, sigma, beta: float):
    """Unconstrained maximizer of the mid-branch worst-case revenue."""
    t2 = variance_thresholds(mu, np.square(sigma), beta)[1]
    return _real(beta - np.sqrt(beta * np.maximum(beta - t2, 0.0)))


def _variance_rev_table(mu: float, sigma, beta: float):
    """[(label, price, revenue, present)] for the variance revenue objective,
    laid out as :func:`_variance_cr_table`."""
    sigma = np.asarray(sigma, dtype=float)
    t1, t2 = variance_thresholds(mu, sigma * sigma, beta)
    rows = [("pi_l", np.minimum(low_price_revenue_variance(mu, sigma), t1), t1 > 0)]
    if math.isfinite(beta):
        p = np.minimum(np.maximum(high_price_revenue_variance(mu, sigma, beta), t1), t2)
        rows.append(("pi_h", p, p > 0))
    prices = np.stack([np.where(present, p, t2) for _, p, present in rows])
    p, tails = _variance_pass(mu, sigma, beta, prices)
    values = (p * tails[0]).reshape(prices.shape)
    return [(label, p, v, present)
            for (label, _, present), p, v in zip(rows, prices, values)]


def optimal_price_revenue_variance(mu: float, sigma: float, beta: float,
                                   with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case revenue under variance knowledge."""
    market = variance_market(mu, sigma, beta)
    require_feasible(market)
    if sigma == 0.0:
        return PriceSolution(mu, mu, REGIME_LOW_PRICE, "pi_l",
                             (("pi_l", mu, mu),), None)
    cands = _candidates(_variance_rev_table(mu, sigma, beta))
    thr = None
    if with_threshold:
        thr = math.inf if not math.isfinite(beta) else delta_star(mu, beta)
    return _select(cands, threshold=thr)


def delta_star(mu: float, beta: float) -> float:
    """Dispersion threshold where the revenue objective switches regimes.

    Defined operationally as the sigma where the low and high revenue
    candidates' worst-case revenues cross.
    """
    return _crossing_sigma(
        mu, beta, lambda sigma: _low_minus_high(_variance_rev_table(mu, sigma, beta), "pi_l"))


def _scan_roots(f, lo: float, hi: float, scale: float,
                n: int = _ROOT_SCAN) -> List[float]:
    """All sign-change roots of f on [lo, hi] found on an n-point scan.

    f maps a price array to residuals.  The scan evaluates it once on the
    grid, and Brent's method refines each sign change (a grid point where
    f is 0 is a root), with xtol relative to ``scale``.
    """
    grid = np.linspace(lo, hi, n)
    vals = f(grid)
    hits = np.flatnonzero((vals == 0.0) | (vals * np.append(vals[1:], 0.0) < 0))
    return solve_bracketed(f, grid[hits], grid[np.minimum(hits + 1, n - 1)], scale).tolist()


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
        return PriceSolution(mu, 1.0, REGIME_LOW_PRICE, "p_l",
                             (("p_l", mu, 1.0),), None)
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
    bar_pl_roots = _scan_roots(bar_pl_resid, eps, top, mu) if top > eps else []
    hat_pl_roots = _scan_roots(hat_pl_resid, eps, top, mu) if top > eps else []
    raw = []
    low_parts = [t1]
    if bar_pl_roots:
        raw.append(("bar_p_l", bar_pl_roots[0]))  # left-most
        low_parts.append(bar_pl_roots[0])
    if hat_pl_roots:
        raw.append(("hat_p_l", hat_pl_roots[0]))
        low_parts.append(hat_pl_roots[0])

    cands = []
    if t1 > 0:
        cands.append(("p_l", min(low_parts)))

    hat_ph = (s / (q * mu)) ** (1.0 / (q - 1.0))
    raw.append(("hat_p_h", hat_ph))
    if math.isfinite(beta):
        def bar_ph_resid(p):
            return (beta ** q - np.power(p, q) + beta * np.power(p, q - 1.0)) \
                / (2.0 * beta - p) - s / mu

        bar_ph_roots = _scan_roots(bar_ph_resid, eps, t2, mu)
        high_parts = [t1, hat_ph]
        if bar_ph_roots:
            raw.append(("bar_p_h", bar_ph_roots[-1]))  # right-most
            high_parts.append(bar_ph_roots[-1])
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
        return PriceSolution(mu, val, REGIME_LOW_PRICE, "p_l",
                             (("p_l", mu, val),), None)

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
    t1, t2 = variance_thresholds(mu, sigma * sigma, beta)
    if sigma == 0.0:
        return OrderingReport(mu, mu, mu, mu, sigma, sigma_star(mu, beta),
                              delta_star(mu, beta), False, True, False, True)
    pi_l = min(low_price_revenue_variance(mu, sigma), t1)
    p_l = min(low_price_variance(mu, sigma), t1)
    pi_h = min(max(high_price_revenue_variance(mu, sigma, beta), t1), t2)
    p_h1, p_h2 = high_prices_variance(mu, sigma, beta)
    cr_at = lambda p: worst_case_cr_variance(mu, sigma, beta, p).cr
    p_h1c = min(max(p_h1, t1), t2)
    p_h2c = min(max(p_h2, t1), t2)
    p_h = p_h1c if cr_at(p_h1c) >= cr_at(p_h2c) else p_h2c
    ss = sigma_star(mu, beta)
    ds = delta_star(mu, beta)
    low_applies = sigma <= min(ss, ds) and t1 > 0
    high_applies = sigma >= max(ss, ds)
    return OrderingReport(
        pi_l=pi_l, p_l=p_l, pi_h=pi_h, p_h=p_h, sigma=sigma,
        sigma_star=ss, delta_star=ds,
        low_ordering_applies=low_applies,
        low_ordering_holds=pi_l < p_l,
        high_ordering_applies=high_applies,
        high_ordering_holds=pi_h > p_h,
    )
