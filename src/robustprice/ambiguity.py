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
_BAND = 1e-12   # half-width of the tail pass's threshold bands, relative to beta (mu if inf)
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
    are computed on first use and kept on the instance; a failed
    computation is not kept, so an infeasible market raises on every access.
    ``dataclasses.replace`` computes them again: its excess is s - phi(mu),
    which loses a variance market's exact sigma**2 (see :func:`variance_market`).
    """

    mu: float
    s: float
    beta: float  # math.inf allowed
    measure: DispersionMeasure
    mode: str = MODE_EXACT

    def __post_init__(self):
        for name in ("mu", "s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise RobustPriceError(f"{name} must be finite, got {value}")
        if math.isnan(self.beta):
            raise RobustPriceError("beta must be a number or inf, got nan")
        if not self.mu > 0:
            raise RobustPriceError(f"mean must be positive, got {self.mu}")
        if not self.beta > self.mu:
            raise RobustPriceError(
                f"maximum valuation must exceed the mean, got beta={self.beta}, mu={self.mu}")
        if self.mode not in (MODE_EXACT, MODE_UPPER):
            raise RobustPriceError(f"mode must be 'exact' or 'upper', got {self.mode!r}")
        phi_mu = self.measure.value(self.mu)
        if self.s < phi_mu * (1 - 1e-12):
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
        return bool(is_point_mass(self.s, self.measure.value(self.mu)))

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
        phi, beta = self.measure.value, self.beta
        return float(phi(0.0)), float(phi(beta)) if math.isfinite(beta) else math.inf

    @cached_property
    def _edges(self) -> np.ndarray:   # the tail pass's _price_edges of the thresholds
        return _price_edges(self.mu, self.beta, self.left_threshold, self.right_threshold)

    @property
    def sigma(self) -> float:
        """Standard deviation, defined for the variance measure only."""
        if not self.measure.is_variance:
            raise RobustPriceError("sigma only defined for the variance measure")
        return math.sqrt(max(self.excess, 0.0))


def variance_market(mu: float, sigma: float, beta: float, mode: str = MODE_EXACT) -> MarketInfo:
    """Convenience constructor for mean/standard-deviation/maximum knowledge;
    the market keeps sigma**2 exactly as its :attr:`MarketInfo.excess`."""
    if not math.isfinite(sigma):
        raise RobustPriceError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise RobustPriceError(f"sigma must be nonnegative, got {sigma}")
    market = MarketInfo(mu=mu, s=mu * mu + sigma * sigma, beta=beta,
                        measure=variance_measure(), mode=mode)
    market.__dict__["excess"] = sigma * sigma   # seeds the cached property
    return market


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
        return (market.s / market.mu) ** (1.0 / (m.q - 1.0))
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


def is_point_mass(s, phi_mu):
    """True where s = phi(mu) to a relative _DEGEN_RTOL: the point-mass rule.

    Such a market's only member is the point mass at mu; for variance that is
    sigma up to about 1e-6 mu.  s and phi_mu are floats or arrays that broadcast.
    """
    return np.abs(s - phi_mu) <= _DEGEN_RTOL * np.maximum(np.abs(phi_mu), np.abs(s))


def variance_companion(mu: float, s2, p):
    """Closed-form companion points of mean/variance knowledge, sigma**2 = s2.

    Above the right threshold they are 0, their limit there.  s2 and p are
    floats or arrays that broadcast.
    """
    return np.maximum(mu + s2 / (mu - p), 0.0)


def variance_thresholds(mu: float, s2, beta: float):
    """(left, right) thresholds of mean/variance/maximum knowledge.

    The companion points of beta (mu when beta = inf, 0 at maximal
    dispersion) and of 0, with s2 = sigma**2 a float or an array; the
    right one is capped at beta, which rounding can exceed.
    """
    return variance_companion(mu, s2, beta), np.minimum(variance_companion(mu, s2, 0.0), beta)


def _price_edges(mu: float, beta: float, t1, t2) -> np.ndarray:
    """The edges the tail pass compares prices with: 0, t1 -+ band, t2 -+ band
    and beta; (6, 1) for float thresholds, (6, n) for arrays of n."""
    band = _BAND * (beta if math.isfinite(beta) else mu)
    zero = 0.0 * t1   # the thresholds' shape
    return np.array((zero, t1 - band, t1 + band, t2 - band, t2 + band,
                     zero + min(beta, _PRICE_MAX))).reshape(6, -1)


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


def _check_price(p, hi: float) -> None:
    """The one price rule: raise unless each price in p (float or array) is in (0, hi], finite."""
    p = np.asarray(p, dtype=float).reshape(-1)
    ok = (p > 0) & (p <= min(hi, _PRICE_MAX))
    if np.count_nonzero(ok) < p.size:
        x = p[~ok][0]
        raise RobustPriceError(f"price {x} exceeds maximum valuation {hi}" if 0 < x < math.inf
                               else f"price must be nonnegative and finite, and nonzero, got {x}")


def as_price_array(p):
    """(prices as a 1-d float array, function giving a result p's shape).

    The restoring function turns a result array of p's size back into a Python
    scalar when p was a scalar, so scalar callers keep getting floats and strings.
    """
    arr = np.asarray(p, dtype=float)
    shape = arr.shape
    return arr.reshape(-1), lambda v: v.reshape(shape) if shape else v.item()


def _no_companion(p) -> RobustPriceError:
    return RobustPriceError(
        f"no companion point in [0, mu) for p={p}: price lies strictly "
        "between the mean and the right threshold")


def companion_point(market: MarketInfo, p):
    """Second support point of the two-point distribution containing price p.

    Unique solution a of phi(a)(mu-p)/(a-p) + phi(p)(a-mu)/(a-p) = s.
    For p < mu the companion lies in (mu, inf) and is increasing in p; for
    p > mu it lies in [0, mu).  The maximum-valuation cap is deliberately
    ignored here: for p in (left_threshold, mu) the companion exceeds beta.

    p may be a float or an array; every price is solved by the same
    elementwise iteration, so a price gives the same companion alone or
    inside an array.  Raises if a price is NaN, negative, with phi(p) infinite,
    at the mean, or strictly between the mean and the right threshold.
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
                raise _no_companion(p[gap][0])
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
    """Companion points of nondegenerate, non-variance markets (1-d p).

    Root of g(a) = phi(a)(mu-p) + phi(p)(a-mu) - s(a-p), the defining
    equation times (a - p).  Below the mean g is convex with g(mu) < 0; above
    it g is concave with g(mu) > 0; in both cases g rises through its one
    root in the bracket, found by safeguarded Newton-bisection started at
    the end from which Newton converges monotonically.  Every operation is
    elementwise and converged entries leave the working arrays, so each
    price follows the same iterates alone or inside an array.
    """
    mu, s, m = market.mu, market.s, market.measure
    phi, dphi = m.value, m.derivative
    out = np.zeros_like(p)
    below = p < mu
    # g(a) = phi(a) w + c a + c0, grouped so that no terms of size s*a cancel.
    phi_p = phi(p)
    w, c, c0 = mu - p, phi_p - s, s * p - phi_p * mu
    # Above the mean: a root in [0, mu) exists iff g(0) <= 0, which holds
    # exactly for p >= right_threshold (at the threshold the companion is 0);
    # the other prices keep 0.
    g0 = phi(0.0) * w + c0
    pos = np.flatnonzero(below | (g0 < 0))
    if pos.size == 0:
        return out
    below, w, c, c0 = below[pos], w[pos], c[pos], c0[pos]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Below the mean: walk hi = mu + mu * 2**k up until g(hi) > 0,
        # raising lo to each hi passed.
        lo = np.where(below, mu, 0.0)
        hi = np.where(below, 2.0 * mu, mu)
        grow = below
        for _ in range(_COMPANION_DOUBLINGS):
            if not grow.any():
                break
            grow = grow & ~(phi(hi) * w + c * hi + c0 > 0)
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, 2.0 * hi - mu, hi)
        if grow.any():
            raise RootFindingError(f"no sign change found above {mu} after bracket expansion")

        x = np.where(below, hi, lo)
        fx = phi(x) * w + c * x + c0
        dfx = dphi(x) * w + c
        dx = hi - lo
        tol = _BRENTQ_XTOL * mu
        for _ in range(_COMPANION_MAXITER):
            step = fx / dfx
            newton = x - step
            take = (newton >= lo) & (newton <= hi) & (np.abs(2.0 * fx) <= np.abs(dx * dfx))
            if take.all():
                dx, x = step, newton
            else:
                half = 0.5 * (hi - lo)
                dx = np.where(take, step, half)
                x = np.where(take, newton, lo + half)
            fx = phi(x) * w + c * x + c0
            done = (np.abs(dx) <= tol + _BRENTQ_RTOL * np.abs(x)) | (fx == 0)
            if done.any():
                out[pos[done]] = x[done]
                keep = ~done
                if not keep.any():
                    break
                x, fx, lo, hi, dx, pos, w, c, c0 = (
                    v[keep] for v in (x, fx, lo, hi, dx, pos, w, c, c0))
            dfx = dphi(x) * w + c
            neg = fx < 0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
        else:
            raise RootFindingError("companion point iteration did not converge")
    return out
