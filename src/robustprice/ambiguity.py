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
carries the required mean and dispersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import brentq

from .dispersion import DispersionMeasure, power_moment, variance_measure
from .errors import (InfeasibleMarketError, RobustPriceError, RootFindingError,
                     UnboundedSupportError)

MODE_EXACT = "exact"
MODE_UPPER = "upper"

# Relative tolerance used to detect the degenerate point-mass market and
# the boundary cases p ~ threshold.
_DEGEN_RTOL = 1e-12

_BRENTQ_XTOL = 1e-14
_BRENTQ_RTOL = 8.881784197001252e-16  # 4 * eps, the minimum brentq accepts


@dataclass(frozen=True)
class MarketInfo:
    """Mean mu, dispersion statistic s, maximum valuation beta, measure.

    ``mode`` selects whether s is an exact dispersion value ("exact", the
    standing assumption) or an upper bound ("upper").
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

    @property
    def is_degenerate(self) -> bool:
        """True when s = phi(mu): the only member is the point mass at mu."""
        phi_mu = self.measure.value(self.mu)
        return abs(self.s - phi_mu) <= _DEGEN_RTOL * max(1.0, abs(phi_mu))

    @property
    def sigma(self) -> float:
        """Standard deviation, defined for the variance measure only."""
        if not self.measure.is_variance:
            raise RobustPriceError("sigma only defined for the variance measure")
        return math.sqrt(max(self.s - self.mu ** 2, 0.0))


def variance_market(mu: float, sigma: float, beta: float, mode: str = MODE_EXACT) -> MarketInfo:
    """Convenience constructor for mean/standard-deviation/maximum knowledge."""
    if not math.isfinite(sigma):
        raise RobustPriceError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise RobustPriceError(f"sigma must be nonnegative, got {sigma}")
    return MarketInfo(mu=mu, s=mu * mu + sigma * sigma, beta=beta,
                      measure=variance_measure(), mode=mode)


def power_market(mu: float, s: float, q: float, beta: float, mode: str = MODE_EXACT) -> MarketInfo:
    """Convenience constructor for the fractional-moment measure x**q."""
    return MarketInfo(mu=mu, s=s, beta=beta, measure=power_moment(q), mode=mode)


@dataclass(frozen=True)
class SupportThresholds:
    left: float
    right: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    right_threshold: float
    reason: str = ""


@dataclass(frozen=True)
class ShiftedProblem:
    """Parameter transformation absorbing a unit cost c into the market.

    Prices and valuations shift down by c; the support lower bound becomes
    -c and the measure becomes x -> phi(x + c).  This is a pure data
    mapping: solving on the shifted support is out of scope.
    """

    c: float
    mu_shift: float
    beta_shift: float
    lower_shift: float
    measure_shift: str


def _expand_bracket_up(f, lo: float, step: float, max_doublings: int = 200) -> Tuple[float, float]:
    """Find hi > lo with f(hi) > 0 by doubling, given f(lo) < 0."""
    hi = lo + step
    for _ in range(max_doublings):
        if f(hi) > 0:
            return lo, hi
        step *= 2.0
        hi = lo + step
    raise RootFindingError(f"no sign change found above {lo} after bracket expansion")


def right_threshold(market: MarketInfo) -> float:
    """Right support point of the extremal {0, t} two-point distribution.

    Solves (s - phi(0)) / mu = (phi(t) - phi(0)) / t for t >= mu.  Closed
    form (s/mu)**(1/(q-1)) for the power family; for variance this is
    mu + sigma**2 / mu.
    """
    m = market.measure
    if market.is_degenerate:
        return market.mu
    if m.is_power:
        return (market.s / market.mu) ** (1.0 / (m.q - 1.0))
    phi0 = m.value(0.0)
    target = (market.s - phi0) / market.mu

    def f(t):
        return (m.value(t) - phi0) / t - target

    # Secant slope from 0 is increasing; at t = mu it is below target for
    # nondegenerate markets, so the root lies above mu.
    lo, hi = _expand_bracket_up(f, market.mu, market.mu)
    root = brentq(f, lo, hi, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL)
    return float(root)


def left_threshold(market: MarketInfo) -> float:
    """Left support point of the extremal {t, beta} two-point distribution.

    Solves phi(t)(beta-mu)/(beta-t) + phi(beta)(mu-t)/(beta-t) = s on
    [0, mu).  Returns mu for beta = inf (the limiting value) and for the
    degenerate market.  Variance closed form: mu - sigma**2 / (beta - mu).
    """
    if market.is_degenerate:
        return market.mu
    if not math.isfinite(market.beta):
        return market.mu
    mu, beta, s, m = market.mu, market.beta, market.s, market.measure
    if m.is_variance:
        t = mu - (s - mu * mu) / (beta - mu)
        if t < -1e-12:
            raise InfeasibleMarketError(
                f"dispersion exceeds the maximum attainable on [0, {beta}] with mean {mu}")
        return max(t, 0.0)

    def f(t):
        return (m.value(t) * (beta - mu) + m.value(beta) * (mu - t)) / (beta - t) - s

    # f is decreasing in t: the {t, beta} two-point dispersion shrinks as
    # its supports pull together.  f(mu) = phi(mu) - s < 0.
    f0 = f(0.0)
    if f0 < -1e-12 * max(1.0, s):
        raise InfeasibleMarketError(
            f"dispersion exceeds the maximum attainable on [0, {beta}] with mean {mu}")
    if f0 <= 0:
        return 0.0
    root = brentq(f, 0.0, mu, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL)
    return float(root)


def support_thresholds(market: MarketInfo) -> SupportThresholds:
    return SupportThresholds(left=left_threshold(market), right=right_threshold(market))


def check_feasible(market: MarketInfo) -> FeasibilityReport:
    """Non-emptiness test: the market is feasible iff mu <= right_threshold <= beta."""
    t2 = right_threshold(market)
    tol = 1e-12 * max(1.0, market.beta if math.isfinite(market.beta) else 1.0)
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


def companion_point(market: MarketInfo, p: float) -> float:
    """Second support point of the two-point distribution containing price p.

    Unique solution a of phi(a)(mu-p)/(a-p) + phi(p)(a-mu)/(a-p) = s.
    For p < mu the companion lies in (mu, inf) and is increasing in p; for
    p > mu it lies in [0, mu).  The maximum-valuation cap is deliberately
    ignored here: for p in (left_threshold, mu) the companion exceeds beta.
    """
    mu, s, m = market.mu, market.s, market.measure
    if market.is_degenerate:
        if abs(p - mu) <= _DEGEN_RTOL * mu:
            return mu
        # Point mass at mu: no genuine two-point companion exists, but the
        # defining equation still has the limit solution mu.
        return mu
    if abs(p - mu) <= _DEGEN_RTOL * max(1.0, mu):
        raise RobustPriceError("companion point is singular at p = mu")
    if p < 0:
        raise RobustPriceError(f"price must be nonnegative, got {p}")
    if m.is_variance:
        sigma2 = s - mu * mu
        a = mu + sigma2 / (mu - p)
        if p > mu:
            if a < -1e-12 * max(1.0, mu):
                raise RobustPriceError(
                    f"no companion point in [0, mu) for p={p}: price lies strictly "
                    "between the mean and the right threshold")
            a = max(a, 0.0)
        return a

    def g(a):
        # (a - p) * (residual of the defining equation); sign-compatible
        # with the bracket direction on each side of mu.
        return m.value(a) * (mu - p) + m.value(p) * (a - mu) - s * (a - p)

    if p < mu:
        # g(mu) = (mu - p)(phi(mu) - s) < 0; g grows superlinearly in a.
        lo, hi = _expand_bracket_up(g, mu, max(mu, 1.0))
        return float(brentq(g, lo, hi, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL))
    # p > mu: companion in [0, mu).  g(mu) = (mu - p)(phi(mu) - s) > 0; a
    # root in [0, mu) exists iff g(0) <= 0, which holds exactly for
    # p >= right_threshold (at the threshold the companion is 0).
    g0 = g(0.0)
    if g0 > 1e-12 * max(1.0, s):
        raise RobustPriceError(
            f"no companion point in [0, mu) for p={p}: price lies strictly "
            "between the mean and the right threshold")
    if g0 >= 0:
        return 0.0
    return float(brentq(g, 0.0, mu, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL))


def shift_unit_cost(market: MarketInfo, c: float) -> ShiftedProblem:
    """Absorb a unit cost c into shifted market parameters (no solving)."""
    if c < 0:
        raise RobustPriceError(f"unit cost must be nonnegative, got {c}")
    if c >= market.mu:
        raise RobustPriceError(
            f"unit cost {c} >= mean {market.mu}: shifted mean would be nonpositive")
    return ShiftedProblem(
        c=c,
        mu_shift=market.mu - c,
        beta_shift=market.beta - c,
        lower_shift=-c,
        measure_shift="x -> phi(x + c)",
    )


def scale_to_unit_mean(market: MarketInfo) -> Tuple[MarketInfo, float]:
    """Rescale a power-measure market to mean 1; prices scale back by mu.

    Returns (scaled market, scale) with scale = mu, beta' = beta / mu and
    s' = s / mu**q.  Solving the scaled problem and multiplying the price
    by the scale reproduces the unscaled optimum.
    """
    if not market.measure.is_power:
        raise RobustPriceError("unit-mean scaling supported for power measures only")
    mu = market.mu
    if mu == 1.0:
        return market, 1.0
    q = market.measure.q
    scaled = replace(market, mu=1.0, s=market.s / mu ** q, beta=market.beta / mu)
    return scaled, mu
