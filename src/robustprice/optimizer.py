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

from .ambiguity import (_BAND, _BRENTQ_RTOL, _BRENTQ_XTOL, _DEGEN_RTOL, MODE_EXACT,
                        MarketInfo, _companion, _fmax, _fmin, _market_floats, left_threshold,
                        power_market, require_feasible, right_threshold, variance_companion,
                        variance_market, variance_thresholds)
from .errors import InternalConsistencyError, ModeError, RobustPriceError, RootFindingError
from .ratio import worst_case_cr, worst_case_revenue

REGIME_LOW_PRICE = "low"
REGIME_HIGH_PRICE = "high"

# Scan resolution for root isolation.
_ROOT_SCAN = 2001
_BRENTQ_MAXITER = 100
# sigma / mu just outside the point-mass rule sigma**2 <= _DEGEN_RTOL (mu**2 + sigma**2),
# whose edge is sqrt(_DEGEN_RTOL) (1 + _DEGEN_RTOL / 2): past it by far more than rounding.
_POINT_MASS_EDGE = math.sqrt(_DEGEN_RTOL) * (1.0 + _DEGEN_RTOL)


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


def _high_prices(t2, beta: float, cr: bool, sqrt=np.sqrt, maximum=np.maximum):
    """Unclipped high candidates from t2, (p_h1, p_h2) or (pi_h,); floats take math.sqrt, _fmax."""
    if not cr:
        return beta - sqrt(beta * maximum(beta - t2, 0.0)),
    w = 3.0 * beta - t2   # squared as w * w: ** on a float is pow()
    return 0.5 * (beta + t2 - sqrt(maximum(w * w - 4.0 * beta * beta, 0.0))), 0.5 * t2


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
    keeps its clipped price, but its value is to be ignored.  A float sigma takes
    :func:`_one_sigma`, the array code (the tests' reference) where that returns None.

    The values are the worst-case members' closed forms.  With
    a = mu + sigma**2 / (mu - p) and T = p (t2 - p) / (p (t2 - p) + beta (beta - t2)),
    {p, a} up to t1 gives the ratio min((mu - p)/(a - p), p/a) and the revenue
    p (mu - p)/(a - p); {0, p, beta} above it min(T, p/beta) and
    p mu (t2 - p) / (beta (beta - p)); {0, beta} (t2 in the band below beta)
    tails mu/beta and T = 1.
    """
    cr = objective == "cr"
    labels = ("p_l", "p_h1", "p_h2") if cr else ("pi_l", "pi_h")
    one = type(sigma) is float and _one_sigma(mu, sigma, beta, cr, compat_printed_pl)
    if one:
        return (labels[:len(one[0])], *map(np.array, one))
    sigma = np.asarray(sigma, dtype=float)
    s2 = sigma * sigma
    t1, t2 = variance_thresholds(mu, s2, beta)
    high = np.minimum(np.maximum(_high_prices(t2, beta, cr), t1), t2) \
        if math.isfinite(beta) else ()
    p = np.array((np.minimum(_low_price(mu, sigma, cr, compat_printed_pl), t1), *high))
    labels, present = labels[:len(p)], p > 0
    present[0] = t1 > 0
    with np.errstate(divide="ignore", invalid="ignore"):   # in entries np.where or present drops
        single = t2 >= beta * (1.0 - _BAND)
        low = (p <= t1) & ~single
        a = mu + s2 / (mu - p)
        if cr:
            d = p * (t2 - p)
            mid = np.minimum(np.where(single, 1.0, d / (d + beta * (beta - t2))), p / beta)
            values = np.where(low, np.minimum((mu - p) / (a - p), p / a), mid)
        else:
            mid = p * np.where(single, mu / beta, mu * (t2 - p) / (beta * (beta - p)))
            values = np.where(low, p * (mu - p) / (a - p), mid)
    return labels, p, values, present


def _one_sigma(mu: float, sigma: float, beta: float, cr: bool, compat_printed_pl: bool):
    """:func:`_variance_table`'s (prices, values, present) as lists, on the Python floats
    mu, sigma and beta, or None where numpy's rules decide (a division by zero, a NaN).
    Thresholds come from :func:`variance_companion`; the rest repeats the array steps in
    order, each value in the branch np.where keeps, and np.cbrt (math.cbrt rounds otherwise)."""
    try:
        s2 = sigma * sigma
        t1, t2 = variance_companion(mu, s2, beta), _fmin(variance_companion(mu, s2, 0.0), beta)
        high = _high_prices(t2, beta, cr, math.sqrt, _fmax) if math.isfinite(beta) else ()
        p = [_fmin(float(_low_price(mu, sigma, cr, compat_printed_pl)), t1),
             *(_fmin(_fmax(h, t1), t2) for h in high)]
        single, values = t2 >= beta * (1.0 - _BAND), []
        for x in p:
            if x <= t1 and not single:
                a = mu + s2 / (mu - x)
                v = _fmin((mu - x) / (a - x), x / a) if cr else x * (mu - x) / (a - x)
            elif cr:
                d = x * (t2 - x)
                v = _fmin(1.0 if single else d / (d + beta * (beta - t2)), x / beta)
            else:
                v = x * (mu / beta if single else mu * (t2 - x) / (beta * (beta - x)))
            values.append(v)
    except ZeroDivisionError:
        return None
    if any(v != v for v in p + values):
        return None
    return p, values, [t1 > 0, *(x > 0 for x in p[1:])]


def _variance_threshold(mu: float, beta: float, objective: str) -> float:
    """The sigma in (0, sigma_max) where the best low candidate stops beating
    the best high one, by Brent's method on floats over the whole range, which
    the gap's one sign change brackets; infinite when beta is.  The range starts
    at 1e-3 sigma_max or, if higher, at the point-mass rule's edge (capped at
    sigma_max), below which the point mass (p_l) wins: the edge if high
    already wins there, inf if the market there is the point mass."""
    mu, beta, _ = _market_floats(mu, beta)   # as a market holds and checks them
    if not math.isfinite(beta):
        return math.inf

    def gap(sigma: float) -> float:   # the array code where _one_sigma hands back
        one = _one_sigma(mu, sigma, beta, objective == "cr", False)
        if one:
            low, *high = (v if keep else -math.inf for v, keep in zip(*one[1:]))
            return low - _fmax(high[0], high[-1])   # revenue has one high candidate
        _, _, values, present = _variance_table(mu, sigma, beta, objective)
        values = np.where(present, values, -np.inf)
        return float(values[0] - np.maximum.reduce(values[1:]))

    sigma_max = math.sqrt(mu * (beta - mu))
    lo, hi = 1e-3 * sigma_max, sigma_max * (1.0 - 1e-9)
    edge = lo < _POINT_MASS_EDGE * mu
    if edge:
        lo = min(_POINT_MASS_EDGE * mu, sigma_max)
        if variance_market(mu, lo, beta).is_degenerate:
            return math.inf
    f_lo = gap(lo)
    if edge and f_lo <= 0:
        return lo
    if not hi > lo:
        raise RootFindingError(f"no low/high value crossing on (0, {sigma_max})")
    search = _brent(lo, hi, f_lo, gap(hi), _BRENTQ_XTOL * mu)
    try:
        sigma = next(search)
        while True:
            sigma = search.send(gap(sigma))
    except StopIteration as stop:
        return stop.value


def optimal_price_variance(mu: float, sigma: float, beta: float,
                           compat_printed_pl: bool = False,
                           with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case ratio under variance knowledge."""
    return _optimal(variance_market(mu, sigma, beta), "cr", compat_printed_pl, with_threshold)


def optimal_price_revenue_variance(mu: float, sigma: float, beta: float,
                                   with_threshold: bool = True) -> PriceSolution:
    """Price maximizing the worst-case revenue under variance knowledge."""
    return _optimal(variance_market(mu, sigma, beta), "rev", False, with_threshold)


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


def _refine(f, searches: list) -> list:
    """The roots of searches stepped together: each round calls f once on the
    active searches' points and sends search k its point's entry of row k."""
    roots, sends = [None] * len(searches), dict.fromkeys(range(len(searches)))
    while sends:
        points = {}
        for k, fx in sends.items():
            try:
                points[k] = searches[k].send(fx)
            except StopIteration as stop:
                roots[k] = stop.value
        rows = f(np.array(list(points.values()))) if points else ()
        sends = {k: rows[k][j].item() for j, k in enumerate(points)}
    return roots


def _search(grid: np.ndarray, fx: np.ndarray, scale: float, last=False):
    """The first (with ``last``, the last) sign-change root from the residuals fx on grid,
    None if there is none, as a generator (:func:`_brent`): a grid point where fx is 0, or
    Brent's method from the chosen sign change's ends, with xtol relative to ``scale``.
    Signs are compared, not multiplied: inf times 0 is NaN."""
    sign = np.sign(fx)
    hits = np.flatnonzero((sign == 0.0) | np.append(sign[:-1] == -sign[1:], False))
    if not hits.size:
        return None
    i = int(hits[-1 if last else 0])
    ij = i, min(i + 1, len(grid) - 1)
    return (yield from _brent(*map(grid.item, ij), *map(fx.item, ij), _BRENTQ_XTOL * scale))


def _brent(xpre: float, xcur: float, fpre: float, fcur: float, xtol: float):
    """Brent's method on the bracket [xpre, xcur] with residuals fpre, fcur, on floats, as
    C brentq (Brent 1973): a generator that yields each step's point (never a bracket end),
    is sent its float residual and returns the root; a NaN residual raises."""
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
        fcur = yield xcur
        if math.isnan(fcur):
            raise RootFindingError(f"residual is NaN at x = {xcur}")
    raise RootFindingError(f"Brent's method did not converge in {_BRENTQ_MAXITER} steps")


def _residuals(market: MarketInfo, p: np.ndarray, low: bool, cr: bool) -> dict:
    """The regime conditions' residuals at the prices p, each with the sign of
    its condition, by candidate label.  With the companion equation g(a, p) =
    phi(a)(mu - p) + phi(p)(a - mu) - s(a - p), a' = -g_p / g_a and g_a > 0;
    in the mid regime T = N / D and w_beta = N / M, N = mu (phi(0) - phi(p))
    - p (phi(0) - s), D = N + beta (phi(0) - s) + mu (phi(beta) - phi(0)),
    M = beta (phi(0) - phi(p)) + p (phi(beta) - phi(0)) > 0.

    * ``bar_p_l``: where the two low branches cross, (mu - p)/(a - p) = p/a;
    * ``hat_p_l``: where the low branch p / a is stationary, a g_a + p g_p = 0;
    * ``hat_p_h``: where T is stationary, N' = 0 (D - N does not depend on p);
    * ``bar_p_h``: where T crosses p / beta;
    * ``hat_pi_l``, ``hat_pi_h``: where the low revenue p (mu - p)/(a - p)
      and the mid revenue p w_beta are stationary.
    """
    mu, s, m = market.mu, market.s, market.measure
    phi_p, dphi_p = m._value(p), m._derivative(p)
    if low:
        a = _companion(market, p)
        g_a = m._derivative(a) * (mu - p) + phi_p - s
        g_p = s - m._value(a) + dphi_p * (a - mu)
        if cr:
            return {"bar_p_l": p - a * mu / (a + np.sqrt(a * (a - mu))),
                    "hat_p_l": a * g_a + p * g_p}
        return {"hat_pi_l": (mu - 2.0 * p) * (a - p) * g_a + p * (mu - p) * (g_a + g_p)}
    (phi0, phib), beta = market.phi_ends, market.beta
    dp, ds, db = phi0 - phi_p, phi0 - s, phib - phi0
    n = mu * dp - p * ds
    if cr:
        return {"hat_p_h": dphi_p - (s - phi0) / mu,
                "bar_p_h": n / (n + beta * ds + mu * db) - p / beta}
    return {"hat_pi_h": (n - p * (mu * dphi_p + ds)) * (beta * dp + p * db)
            - p * n * (db - beta * dphi_p)}


def _condition_roots(market: MarketInfo, lo: float, hi: float, low: bool, cr: bool):
    """[(label, root)] of the regime's conditions that change sign on [lo, hi]
    (none if it is empty): the last root for ``bar_p_h``, else the first.  The
    conditions share one scan grid, and their Brent searches step together:
    a low-regime round solves the companion points of its 1-2 points at once."""
    if not hi > lo:
        return []
    grid = np.linspace(lo, hi, _ROOT_SCAN)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scan = _residuals(market, grid, low, cr)
        roots = _refine(lambda x: list(_residuals(market, x, low, cr).values()),
                        [_search(grid, fx, market.mu, label == "bar_p_h")
                         for label, fx in scan.items()])
    return [(label, root) for label, root in zip(scan, roots) if root is not None]


def _optimal(market: MarketInfo, objective: str, compat_printed_pl: bool = False,
             with_threshold: bool = False) -> PriceSolution:
    """:func:`optimal_price_general`; a variance market may take the printed radical
    (:func:`_low_price`) and attach sigma_star or delta_star, the point mass too."""
    if objective not in ("cr", "rev"):
        raise RobustPriceError(f"objective must be 'cr' or 'rev', got {objective!r}")
    if market.mode != MODE_EXACT:
        raise ModeError(f"the optimizers require mode='exact', the market has {market.mode!r}")
    cr, mu, beta, variance = objective == "cr", market.mu, market.beta, market.measure.is_variance
    if variance:
        require_feasible(market)
    threshold = _variance_threshold(mu, beta, objective) if variance and with_threshold else None
    if market.is_degenerate:
        return _select([("p_l", mu, 1.0) if cr else ("pi_l", mu, mu)], threshold)
    if not variance:
        return _condition_optimal(market, cr)
    labels, *table = _variance_table(mu, market.sigma, beta, objective, compat_printed_pl)
    cands = [(label, p, v) for label, p, v, keep in zip(labels, *(c.tolist() for c in table))
             if keep]
    return _select(cands, threshold)


def _condition_optimal(market: MarketInfo, cr: bool) -> PriceSolution:
    """The optimal price of a market other than the point mass, any measure.

    In each regime the ratio is the smaller of a tail branch and p / y, so
    its maximum lies at a threshold, a crossing of the branches or a
    stationary point of one; the revenue's at a threshold or a stationary
    point.  The candidates, valued in one array call, are t1, t2 (beta
    finite) and the roots of :func:`_residuals`: low ones on (1e-9 mu, t1]
    (up to mu (1 - 1e-7) when beta = inf), mid ones on [t1, t2] when t1 > 0.
    The solution lists ``p_l`` and ``p_h`` (``pi_l``, ``pi_h``), the best of
    each regime, then the roots by price.
    """
    t1, t2 = left_threshold(market), right_threshold(market)
    mu, finite, ends = market.mu, math.isfinite(market.beta), [t1] if t1 > 0 else []
    low = _condition_roots(market, 1e-9 * mu, t1 if finite else mu * (1.0 - 1e-7), True, cr)
    mid = _condition_roots(market, t1, t2, False, cr) if ends and finite else []
    regimes = [("p_l" if cr else "pi_l", ends, low),
               ("p_h" if cr else "pi_h", ends + [t2] if finite else [], mid)]
    prices = sorted({p for _, e, roots in regimes for p in e + [r for _, r in roots]})
    values = worst_case_cr(market, np.array(prices)).cr if cr \
        else worst_case_revenue(market, np.array(prices))
    value = dict(zip(prices, values.tolist()))
    best = [(label, p, value[p]) for label, e, roots in regimes if e
            for p in [max(e + [r for _, r in roots], key=value.get)]]
    return _select(best + [(label, p, value[p]) for label, p in
                           sorted(low + mid, key=lambda r: r[1])])


def optimal_price_general(market: MarketInfo, objective: str = "cr") -> PriceSolution:
    """Price maximizing the worst-case ratio (objective "cr") or revenue ("rev").

    A variance measure (also :func:`power_market` with q = 2) takes the closed
    forms of :func:`_variance_table`, any other :func:`_condition_optimal`;
    an upper-mode market raises :class:`ModeError`.
    """
    return _optimal(market, objective)


def optimal_price_power(mu: float, s: float, q: float, beta: float) -> PriceSolution:
    """:func:`optimal_price_general` on the power market (ratio objective)."""
    return optimal_price_general(power_market(mu, s, q, beta))


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
    ss, ds = sigma_star(mu, beta), delta_star(mu, beta)
    if market.is_degenerate:
        return OrderingReport(mu, mu, mu, mu, sigma, ss, ds, False, True, False, True)
    _, (pi_l, pi_h), _, (low_present, _) = _variance_table(market.mu, sigma, market.beta, "rev")
    _, prices, (_, v_h1, v_h2), _ = _variance_table(market.mu, sigma, market.beta, "cr")
    pi_l, pi_h, (p_l, p_h1, p_h2) = float(pi_l), float(pi_h), prices.tolist()
    p_h = p_h1 if v_h1 >= v_h2 else p_h2
    return OrderingReport(
        pi_l=pi_l, p_l=p_l, pi_h=pi_h, p_h=p_h, sigma=sigma, sigma_star=ss, delta_star=ds,
        low_ordering_applies=sigma <= min(ss, ds) and bool(low_present),
        low_ordering_holds=pi_l < p_l,
        high_ordering_applies=sigma >= max(ss, ds),
        high_ordering_holds=pi_h > p_h)
