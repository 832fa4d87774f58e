"""Markets with mean / dispersion / maximum-valuation knowledge.

A market is the ambiguity set of all valuation distributions on [0, beta]
with mean mu and dispersion statistic E[phi(X)] = s.  The structure of the
set is governed by two support thresholds:

* ``right_threshold`` -- right support point of the extremal two-point
  distribution {0, t}; the set is non-empty iff mu <= t <= beta.
* ``left_threshold`` -- left support point of the extremal two-point
  distribution {t, beta}.

and by the companion-point map: for each price p != mu there is a unique
second support point so that the two-point distribution {p, companion(p)}
carries the required mean and dispersion.  The thresholds are its values
at the ends of the support: right = companion(0), left = companion(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dispersion import DispersionMeasure, power_moment, variance_measure
from .errors import InfeasibleMarketError, RobustPriceError, RootFindingError

MODE_EXACT = "exact"
MODE_UPPER = "upper"

# Relative tolerance used to detect the degenerate point-mass market and
# the boundary cases p ~ threshold.
_DEGEN_RTOL = 1e-12
# Relative slack: t2 >= beta (1 - _BAND) makes {0, beta} the one member (tail
# pass, variance table), and best_case_revenue takes prices up to t2 (1 + _BAND).
_BAND = 1e-12
_PRICE_MAX = float(np.finfo(float).max)   # price bounds are capped here, so inf fails them

# Root-finder tolerances of the companion solver here and of Brent's method
# in the optimizer: the absolute one is relative to the market scale mu, so
# a market and its rescaled copy are solved to the same digits.
_BRENTQ_XTOL = 1e-14
_BRENTQ_RTOL = 8.881784197001252e-16  # 4 * eps
_COMPANION_MAXITER = 200
# Doublings of the companion bracket above the mean: enough to reach the
# largest float, since near the mean the companion grows like a power of
# 1 / (mu - p) whose exponent is large for measures close to linear.
_COMPANION_DOUBLINGS = 1100


@dataclass(frozen=True)
class MarketInfo:
    """Mean mu, dispersion statistic s, maximum valuation beta, measure.

    ``mode`` selects whether s is an exact dispersion value ("exact", the
    standing assumption) or an upper bound ("upper").

    The support thresholds, the degeneracy flag and the dispersion excess
    are computed on first use and kept on the instance, as is the oracle's
    last answer (:func:`~robustprice.oracle.oracle_worst_case`); a failed
    computation is not kept, so an infeasible market raises on every access.
    None of them enters equality, hash or repr.
    ``dataclasses.replace`` computes them again: its excess is s - phi(mu),
    which loses a variance market's exact sigma**2 (see :func:`variance_market`).
    """

    mu: float
    s: float
    beta: float  # math.inf allowed
    measure: DispersionMeasure
    mode: str = MODE_EXACT

    def __post_init__(self):
        for name, value in zip(("mu", "beta", "s"), _market_floats(self.mu, self.beta, self.s)):
            object.__setattr__(self, name, value)
        if self.mode not in (MODE_EXACT, MODE_UPPER):
            raise RobustPriceError(f"mode must be 'exact' or 'upper', got {self.mode!r}")
        phi_mu = self.measure.value(self.mu)
        m, x = self.measure, np.array([self.mu])
        try:   # the solvers call a custom pair on 1-d arrays
            ok = m.is_power or np.shape(m._value(x)) == np.shape(m._derivative(x)) == (1,)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise RobustPriceError("a custom measure's value and derivative must take a "
                                   "float array and return an array of its shape")
        if self.s < phi_mu and not is_point_mass(self.s - phi_mu, self.s, phi_mu):
            raise InfeasibleMarketError(
                f"dispersion s={self.s} below the point-mass minimum phi(mu)={phi_mu}")

    @cached_property
    def excess(self) -> float:
        """Dispersion excess s - phi(mu), read-only; :func:`variance_market`
        sets it to sigma**2, which s - mu**2 keeps only to eps mu**2 / sigma**2."""
        return float(self.s - self.measure.value(self.mu))

    @cached_property
    def is_degenerate(self) -> bool:
        """True when s = phi(mu): the only member is the point mass at mu."""
        return bool(is_point_mass(self.excess, self.s, self.measure.value(self.mu)))

    @cached_property
    def right_threshold(self) -> float:
        """See :func:`right_threshold`."""
        t2 = _solve_right_threshold(self)
        # At maximal dispersion it can round just above beta; feasibility
        # allows that much, and the only member is then {0, beta}.
        return self.beta if self.beta < t2 <= self.beta + _feasibility_tol(self) else t2

    @cached_property
    def left_threshold(self) -> float:
        """See :func:`left_threshold`."""
        if not math.isfinite(self.beta):
            return self.mu
        require_feasible(self)
        return float(_companion(self, np.array([self.beta]))[0])

    @cached_property
    def phi_ends(self) -> tuple:
        """(phi(0), phi(beta)) as floats, for every {0, p, beta} mass solve."""
        beta = self.beta
        return self._phi0, float(self.measure.value(beta)) if math.isfinite(beta) else math.inf

    @cached_property
    def _phi0(self) -> float:   # apart from phi_ends: phi(beta) can overflow
        return float(self.measure.value(0.0))

    @cached_property
    def _edges(self) -> np.ndarray:
        """The tail pass's (4, 1) price edges: 0, t1, t2, beta (capped at _PRICE_MAX)."""
        return np.array((0.0, self.left_threshold, self.right_threshold,
                         min(self.beta, _PRICE_MAX))).reshape(4, 1)

    @property
    def sigma(self) -> float:
        """Standard deviation, defined for the variance measure only."""
        if not self.measure.is_variance:
            raise RobustPriceError("sigma only defined for the variance measure")
        return math.sqrt(max(self.excess, 0.0))


def variance_market(mu: float, sigma: float, beta: float, mode: str = MODE_EXACT) -> MarketInfo:
    """Convenience constructor for mean/standard-deviation/maximum knowledge;
    the market keeps sigma**2 exactly as its :attr:`MarketInfo.excess`."""
    mu, sigma = _as_float("mu", mu), _as_float("sigma", sigma)
    if not math.isfinite(sigma):
        raise RobustPriceError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise RobustPriceError(f"sigma must be nonnegative, got {sigma}")
    market = MarketInfo(mu=mu, s=mu * mu + sigma * sigma, beta=beta,
                        measure=variance_measure(), mode=mode)
    market.__dict__["excess"] = sigma * sigma   # seeds the cached property
    return market


def _as_float(name: str, value) -> float:
    """A market parameter as a Python float; a bool, complex or string is not a number here."""
    if type(value) is not float:
        as_price_array(value, name)
    return float(value)


def _market_floats(mu, beta, s=0.0):
    """(mu, beta, s) as Python floats (an int beta truncates), checked by a market's rules."""
    mu, s, beta = _as_float("mu", mu), _as_float("s", s), _as_float("beta", beta)
    for name, value in (("mu", mu), ("s", s)):
        if not math.isfinite(value):
            raise RobustPriceError(f"{name} must be finite, got {value}")
    if math.isnan(beta):
        raise RobustPriceError("beta must be a number or inf, got nan")
    if not mu > 0:
        raise RobustPriceError(f"mean must be positive, got {mu}")
    if not beta > mu:
        raise RobustPriceError(
            f"maximum valuation must exceed the mean, got beta={beta}, mu={mu}")
    return mu, beta, s


def power_market(mu: float, s: float, q: float, beta: float, mode: str = MODE_EXACT) -> MarketInfo:
    """Convenience constructor for the fractional-moment measure x**q."""
    return MarketInfo(mu=mu, s=s, beta=beta, measure=power_moment(q), mode=mode)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    right_threshold: float
    reason: str = ""


def _solve_right_threshold(market: MarketInfo) -> float:
    """The companion point of 0; the closed form for a power market other
    than the point mass and variance."""
    m = market.measure
    if m.is_power and not (m.is_variance or market.is_degenerate):
        try:
            return (market.s / market.mu) ** (1.0 / (m.q - 1.0))
        except OverflowError:   # beyond the largest float, as for q near 1
            return math.inf
    return float(_companion(market, np.zeros(1))[0])


def right_threshold(market: MarketInfo) -> float:
    """Right support point of the extremal {0, t} two-point distribution.

    The companion point of 0, solving (s - phi(0)) / mu = (phi(t) - phi(0)) / t
    for t >= mu.  Closed form (s/mu)**(1/(q-1)) for the power family; for
    variance mu + sigma**2 / mu, from the market's sigma**2.  Returns mu for
    the degenerate market.  A value above beta by no more
    than the feasibility tolerance is beta.  Computed once per market.
    """
    return market.right_threshold


def left_threshold(market: MarketInfo) -> float:
    """Left support point of the extremal {t, beta} two-point distribution.

    The companion point of beta: the root t in [0, mu) of
    phi(t)(beta-mu)/(beta-t) + phi(beta)(mu-t)/(beta-t) = s, and 0 at
    maximal dispersion.  Returns mu for beta = inf (the limiting value) and
    for the degenerate market.  Raises InfeasibleMarketError where
    :func:`check_feasible` rejects the market.  Variance closed form:
    mu - sigma**2 / (beta - mu).  Computed once per market.
    """
    return market.left_threshold


def is_point_mass(excess, s, phi_mu):
    """True where the excess s - phi(mu) is 0 to a relative _DEGEN_RTOL: the
    point-mass rule.

    Such a market's only member is the point mass at mu; for variance, whose
    excess is the exact sigma**2, that is sigma up to 1e-6 mu.  The arguments
    are floats or arrays that broadcast.
    """
    return np.abs(excess) <= _DEGEN_RTOL * np.maximum(np.abs(phi_mu), np.abs(s))


# np.maximum and np.minimum on floats: a NaN propagates, a tie (0.0, -0.0) keeps b.
def _fmax(a: float, b: float) -> float:
    return b if a <= b or b != b else a


def _fmin(a: float, b: float) -> float:
    return b if a >= b or b != b else a


def variance_companion(mu: float, s2, p):
    """Closed-form companion points of mean/variance knowledge, sigma**2 = s2.

    Above the right threshold they are 0, their limit there.  s2 and p broadcast;
    Python floats give a float, numpy's bits, and p = mu raises ZeroDivisionError.
    """
    a = mu + s2 / (mu - p)
    return _fmax(a, 0.0) if type(a) is float else np.maximum(a, 0.0)


def variance_thresholds(mu: float, s2, beta: float):
    """(left, right) thresholds of mean/variance/maximum knowledge.

    The companion points of beta (mu when beta = inf, 0 at maximal
    dispersion) and of 0, with s2 = sigma**2 a float or an array; the
    right one is capped at beta, which rounding can exceed.
    """
    return variance_companion(mu, s2, beta), np.minimum(variance_companion(mu, s2, 0.0), beta)


def _feasibility_tol(market: MarketInfo) -> float:
    """How far the right threshold may lie outside [mu, beta] in a feasible market."""
    return 1e-12 * (market.beta if math.isfinite(market.beta) else market.mu)


def check_feasible(market: MarketInfo) -> FeasibilityReport:
    """Non-emptiness test: the market is feasible iff mu <= right_threshold <= beta."""
    t2 = right_threshold(market)
    tol = _feasibility_tol(market)
    if t2 < market.mu - tol:
        return FeasibilityReport(False, t2, f"right threshold {t2} below mean {market.mu}")
    if t2 > market.beta + tol:
        return FeasibilityReport(False, t2,
                                 f"right threshold {t2} exceeds maximum valuation {market.beta}")
    return FeasibilityReport(True, t2)


def require_feasible(market: MarketInfo) -> None:
    rep = check_feasible(market)
    if not rep.feasible:
        raise InfeasibleMarketError(rep.reason)


def _check_price(p, hi: float, one: bool = False) -> None:
    """The one price rule: raise unless each price in p (float or array) is in (0, hi], finite,
    and with ``one`` unless p is one number (a numpy scalar or a 0-d array too)."""
    if one and (isinstance(p, (list, tuple)) or np.ndim(p)):
        raise RobustPriceError(f"expected one price, got {p!r}")
    p = as_price_array(p)[0]
    ok = (p > 0) & (p <= min(hi, _PRICE_MAX))
    if np.count_nonzero(ok) < p.size:
        x = p[~ok][0]
        raise RobustPriceError(f"price {x} exceeds maximum valuation {hi}" if 0 < x < math.inf
                               else f"price must be nonnegative and finite, and nonzero, got {x}")


def as_price_array(p, name: str = "price"):
    """(prices as a 1-d float array, function giving a result p's shape).

    The restoring function turns a result array of p's size back into a Python
    scalar when p was a scalar, so scalar callers keep getting floats and strings.
    A bool, complex or string p raises, named ``name``: numpy would read "0.4" and True;
    so does a list or tuple with such an entry, which numpy would coerce with the rest,
    a ragged one, and one with an entry that is no number.
    """
    try:   # numpy raises ValueError on a ragged list and an entry that is no number
        arr = np.asarray(p)
        if arr.dtype.kind not in "fiuO" or isinstance(p, (list, tuple)) and any(isinstance(
                v, (bool, np.bool_, complex, str, bytes)) for v in np.asarray(p, object).flat):
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise RobustPriceError(f"{name} must be a number, got {p!r}") from None
    shape = arr.shape
    return arr.reshape(-1), lambda v: v.reshape(shape) if shape else v.item()


def companion_point(market: MarketInfo, p):
    """Second support point of the two-point distribution containing price p.

    Unique solution a of phi(a)(mu-p)/(a-p) + phi(p)(a-mu)/(a-p) = s.
    For p < mu the companion lies in (mu, inf) and is increasing in p; for
    p > mu it lies in [0, mu).  The maximum-valuation cap is deliberately
    ignored here: for p in (left_threshold, mu) the companion exceeds beta.

    p may be a float or an array; every price takes the same iteration (on Python
    floats for up to 4 prices, :func:`_solve_companion`), so a price gets the same
    bits alone or inside an array.  Raises if a price is NaN, negative, with phi(p)
    infinite, at the mean, or strictly between the mean and the right threshold.
    """
    mu = market.mu
    p, restore = as_price_array(p)
    with np.errstate(all="ignore"):   # an overflowing phi(p) is inf and fails
        bad = ~(p >= 0) | ~np.isfinite(market.measure._value(np.abs(p)))   # NaN fails both
    if bad.any():
        raise RobustPriceError(
            f"price must be nonnegative and finite, phi(p) too, got {p[bad][0]}")
    if not market.is_degenerate:
        if np.any(np.abs(p - mu) <= _DEGEN_RTOL * mu):
            raise RobustPriceError("companion point is singular at p = mu")
        above = p > mu
        if above.any():
            gap = above & (p < market.right_threshold * (1.0 - _DEGEN_RTOL))
            if gap.any():
                raise RobustPriceError(f"no companion point in [0, mu) for p={p[gap][0]}: price "
                                       "lies strictly between the mean and the right threshold")
    return restore(_companion(market, p))


def _companion(market: MarketInfo, p: np.ndarray) -> np.ndarray:
    """Companion points of a 1-d price array, without range checks.

    Above the mean a price with no companion in [0, mu) (one in
    (mu, right_threshold)) gets 0, the companion's limit at the right
    threshold.
    """
    if market.is_degenerate:
        # Point mass at mu: no genuine two-point companion exists, but the
        # defining equation still has the limit solution mu.
        return np.full_like(p, market.mu)
    if market.measure.is_variance:
        return variance_companion(market.mu, market.excess, p)
    return _solve_companion(market, p)


def _solve_companion(market: MarketInfo, p: np.ndarray) -> np.ndarray:
    """Companion points of nondegenerate, non-variance markets (1-d p >= 0).

    Root of g(a) = phi(a)(mu-p) + phi(p)(a-mu) - s(a-p), the defining
    equation times (a - p).  Below the mean g is convex with g(mu) < 0; above
    it g is concave with g(mu) > 0; in both cases g rises through its one
    root in the bracket, found by safeguarded Newton-bisection started at
    the end from which Newton converges monotonically.  Up to 4 prices are
    solved one at a time on Python floats (:func:`_companion_float`), bit for
    bit; more, or a price the float loop hands back, take :func:`_companion_array`.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p.size <= 4:
            out = [_companion_float(market, x) for x in p.tolist()]
            if None not in out:
                return np.array(out)
        return _companion_array(market, p)


def _companion_float(market: MarketInfo, x: float):
    """:func:`_companion_array` at the one price x on Python floats: the same IEEE
    operations in order, the measure evaluated as there (np.power; a custom pair on
    a one-element array).  None where numpy's rules or the array loop's errors
    decide: phi(x) not finite or not float64, doublings run out or no convergence."""
    mu, s, m, q = market.mu, market.s, market.measure, market.measure.q
    if m.is_power:
        phi, dphi = lambda a: float(np.power(a, q)), lambda a: q * float(np.power(a, q - 1.0))
        phi_p = phi(x)
    else:
        f, df = m.value_fn, m.deriv_fn
        phi, dphi = lambda a: f(np.array([a])).item(), lambda a: df(np.array([a])).item()
        phi_p = v.item() if getattr(v := f(np.array([x])), "dtype", 0) == np.float64 else math.nan
    if not math.isfinite(phi_p):
        return None
    w, c, c0 = mu - x, phi_p - s, s * x - phi_p * mu
    below = x < mu
    if not (below or market._phi0 * w + c0 < 0):
        return 0.0
    lo, hi, k = (mu, 2.0 * mu, _COMPANION_DOUBLINGS) if below else (0.0, mu, 1)
    while below and k and not phi(hi) * w + c * hi + c0 > 0:   # k doublings left
        lo, hi, k = hi, 2.0 * hi - mu, k - 1
    if not k:
        return None
    x = hi if below else lo
    fx, dfx, dx, tol = phi(x) * w + c * x + c0, dphi(x) * w + c, hi - lo, _BRENTQ_XTOL * mu
    for _ in range(_COMPANION_MAXITER):
        step = fx / dfx if dfx else math.nan   # numpy's x / 0 is never a step taken
        newton = x - step
        dx, x = (step, newton) if lo <= newton <= hi and abs(2.0 * fx) <= abs(dx * dfx) \
            else (0.5 * (hi - lo), lo + 0.5 * (hi - lo))
        fx = phi(x) * w + c * x + c0
        if abs(dx) <= tol + _BRENTQ_RTOL * abs(x) or fx == 0:
            return x
        dfx = dphi(x) * w + c
        lo, hi = (x, hi) if fx < 0 else (lo, x)
    return None


def _companion_array(market: MarketInfo, p: np.ndarray) -> np.ndarray:
    """:func:`_solve_companion` by arrays: the operations are elementwise, so a price
    follows the same iterates alone or in an array.  A non-finite phi(p) raises."""
    mu, s, m = market.mu, market.s, market.measure
    phi, dphi = m._value, m._derivative
    out = np.zeros_like(p)
    below = p < mu
    # g(a) = phi(a) w + c a + c0, grouped so that no terms of size s*a cancel.
    phi_p = phi(p)
    if np.count_nonzero(np.isfinite(phi_p)) < p.size:
        raise RobustPriceError(f"phi(p) is not finite at p = {p[~np.isfinite(phi_p)][0]}")
    w, c, c0 = mu - p, phi_p - s, s * p - phi_p * mu
    # Above the mean: a root in [0, mu) exists iff g(0) <= 0, which holds
    # exactly for p >= right_threshold (at the threshold the companion is 0);
    # the other prices keep 0.
    pos = (below | (market._phi0 * w + c0 < 0)).nonzero()[0]
    n = pos.size
    if n == 0:
        return out
    if n < p.size:
        below, w, c, c0 = below[pos], w[pos], c[pos], c0[pos]

    # Below the mean: walk hi = mu + mu * 2**k up until g(hi) > 0,
    # raising lo to each hi passed.
    lo = np.where(below, mu, 0.0)
    hi = np.where(below, 2.0 * mu, mu)
    grow = below
    for _ in range(_COMPANION_DOUBLINGS):
        if not np.count_nonzero(grow):
            break
        grow = grow & ~(phi(hi) * w + c * hi + c0 > 0)
        np.copyto(lo, hi, where=grow)
        np.copyto(hi, 2.0 * hi - mu, where=grow)
    if np.count_nonzero(grow):
        raise RootFindingError(f"no sign change found above {mu} after bracket expansion "
                               f"at p = {p[pos[grow]][0]} on {market}")

    x = np.where(below, hi, lo)
    fx = phi(x) * w + c * x + c0
    dfx = dphi(x) * w + c
    dx = hi - lo
    tol = _BRENTQ_XTOL * mu
    for _ in range(_COMPANION_MAXITER):
        step = fx / dfx
        newton = x - step
        take = (newton >= lo) & (newton <= hi) & (np.abs(2.0 * fx) <= np.abs(dx * dfx))
        if np.count_nonzero(take) == n:
            dx, x = step, newton
        else:
            dx = 0.5 * (hi - lo)
            x = lo + dx
            np.copyto(dx, step, where=take)
            np.copyto(x, newton, where=take)
        fx = phi(x) * w + c * x + c0
        done = (np.abs(dx) <= tol + _BRENTQ_RTOL * np.abs(x)) | (fx == 0)
        k = np.count_nonzero(done)
        if k:
            out[pos[done]] = x[done]
            if k == n:
                break
            keep, n = (~done).nonzero()[0], n - k
            x, fx, lo, hi, dx, pos, w, c, c0 = (
                v[keep] for v in (x, fx, lo, hi, dx, pos, w, c, c0))
        dfx = dphi(x) * w + c
        neg = fx < 0
        np.copyto(lo, x, where=neg)
        np.copyto(hi, x, where=~neg)
    else:
        raise RootFindingError("companion point iteration did not converge")
    return out
