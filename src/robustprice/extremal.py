"""Extremal finite-support valuation distributions.

The tight bounds in this package are attained by two-point and three-point
distributions; this module builds them explicitly so downstream checks can
evaluate revenue and ratio objectives on concrete scenarios.  Left limits
("price just below p") are realized with an explicit epsilon offset rather
than symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .ambiguity import (MarketInfo, _check_price, as_price_array, companion_point,
                        left_threshold, right_threshold)
from .bounds import _member_masses, _tails
from .dispersion import DispersionMeasure
from .errors import RobustPriceError, UnboundedSupportError

# Masses in [-MASS_CLAMP, 0) are rounded up to zero: floating-point guard at
# the regime boundaries where one mass vanishes analytically.
MASS_CLAMP = 1e-14


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support distribution with strictly increasing support points."""

    supports: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        sup = np.asarray(self.supports, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        if sup.shape != mas.shape or sup.ndim != 1 or sup.size == 0:
            raise RobustPriceError("supports and masses must be equal-length 1-d arrays")
        if np.any(np.diff(sup) <= 0):
            raise RobustPriceError("supports must be strictly increasing")
        if np.any(mas < 0):
            raise RobustPriceError(f"negative mass: {mas}")
        if abs(mas.sum() - 1.0) > 1e-12:
            raise RobustPriceError(f"masses sum to {mas.sum()}, not 1")
        object.__setattr__(self, "supports", sup)
        object.__setattr__(self, "masses", mas)

    def mean(self) -> float:
        return float(self.supports @ self.masses)

    def dispersion(self, measure: DispersionMeasure) -> float:
        return float(measure.value(self.supports) @ self.masses)

    def tail(self, p: float) -> float:
        """P(X >= p)."""
        return float(self.masses[self.supports >= p].sum())

    def revenue(self, p: float) -> float:
        return p * self.tail(p)

    def optimal_revenue(self) -> float:
        """max over support points of t * P(X >= t).

        For finite support the supremum over all prices is attained at a
        support point, so scanning the support is exact.
        """
        return max((t * self.tail(t) for t in self.supports if t > 0), default=0.0)

    def ratio(self, p: float) -> float:
        """Revenue at p relative to the optimal revenue for this distribution."""
        opt = self.optimal_revenue()
        if opt == 0.0:
            return 1.0 if self.revenue(p) == 0.0 else math.inf
        return self.revenue(p) / opt


def _finalize(supports, masses) -> DiscreteDistribution:
    """Clamp tiny negative masses, drop zero-mass points, renormalize."""
    supports = np.asarray(supports, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if np.any(masses < -MASS_CLAMP):
        raise RobustPriceError(f"negative probability mass: {masses}")
    masses = np.clip(masses, 0.0, None)
    keep = masses > MASS_CLAMP
    supports, masses = supports[keep], masses[keep]
    order = np.argsort(supports)
    supports, masses = supports[order], masses[order]
    masses = masses / masses.sum()
    return DiscreteDistribution(supports, masses)


def point_mass(x: float) -> DiscreteDistribution:
    return DiscreteDistribution(np.array([x]), np.array([1.0]))


def two_point(market: MarketInfo, p: float) -> DiscreteDistribution:
    """Two-point member {p, companion(p)} of the market.

    Admissible for p in [0, left_threshold] or p in [right_threshold, beta],
    where both support points stay inside [0, beta].
    """
    if isinstance(p, (list, tuple)) or np.ndim(p) or as_price_array(p)[0] != 0:
        _check_price(p, market.beta, one=True)   # all but the number 0, NaN too; False, 0j raise
    if market.is_degenerate:
        return point_mass(market.mu)
    mu = market.mu
    if p == 0.0:
        a = right_threshold(market)
    else:
        a = companion_point(market, p)
    tol = 1e-9 * (market.beta if math.isfinite(market.beta) else mu)
    if a < -tol or a > market.beta + tol:
        raise RobustPriceError(
            f"companion point {a} of p={p} violates the support [0, {market.beta}]")
    a = min(max(a, 0.0), market.beta) if math.isfinite(market.beta) else max(a, 0.0)
    v_p = (a - mu) / (a - p)
    v_a = (mu - p) / (a - p)
    if p < a:
        return _finalize([p, a], [v_p, v_a])
    return _finalize([a, p], [v_a, v_p])


def three_point(market: MarketInfo, p: float) -> DiscreteDistribution:
    """Three-point member {0, p, beta} of the market.

    Exists (all masses nonnegative) exactly for p between the two support
    thresholds; its masses need a finite maximum valuation.
    """
    _check_price(p, market.beta, one=True)
    if market.is_degenerate:
        return point_mass(market.mu)
    t1, t2 = left_threshold(market), right_threshold(market)
    tol = 1e-9 * market.beta
    if p < t1 - tol or p > t2 + tol:
        raise RobustPriceError(
            f"three-point construction needs p in [{t1}, {t2}], got {p}")
    w0, wp, wb = three_point_masses(market, p)
    return _finalize([0.0, p, market.beta], [w0, wp, wb])


def three_point_masses(market: MarketInfo, p: float) -> Tuple[float, float, float]:
    """Masses on {0, p, beta} solving the mean and dispersion constraints.

    p may be an array; the masses are then arrays of its shape.
    """
    if not math.isfinite(market.beta):
        raise UnboundedSupportError("three-point masses need a finite maximum valuation")
    x = as_price_array(p)[0]
    bad = ~((x > 0) & (x < market.beta))
    if np.any(bad):
        raise RobustPriceError(f"degenerate three-point system at p={p}: needs 0 < p < beta")
    wp, wb = _member_masses(market.mu, market.s, market.beta, p, market.measure.value(p),
                            *market.phi_ends)
    return 1.0 - wp - wb, wp, wb


def worst_case_distribution(market: MarketInfo, p: float, eps: float = None) -> DiscreteDistribution:
    """Distribution attaining (in the eps -> 0 limit) the worst ratio at p.

    For p up to the right threshold this is the two-/three-point member at
    the shifted price p - eps, written with masses expressed through the
    tail bounds: {0, p - eps, y(p - eps)} where y is the best-case
    conditional expectation.  Above the right threshold the {0, t2}
    two-point member already gives ratio 0.  With beta = inf no member
    attains the bounds between the mean and the right threshold.
    """
    _check_price(p, market.beta, one=True)
    if eps is None:
        eps = 1e-9 * (market.beta if math.isfinite(market.beta) else market.mu)
    if not 0 < eps < p:
        raise RobustPriceError(f"need 0 < eps < p, got eps={eps}, p={p}")
    pm = p - eps
    lo, hi, y, _ = _tails(market, np.array([pm]))
    if p > right_threshold(market):
        return two_point(market, 0.0)
    if not math.isfinite(y[0]):
        raise UnboundedSupportError(
            f"no member attains the worst case at p={p} with an infinite maximum valuation")
    return _finalize([0.0, pm, y[0]], [1.0 - hi[0], hi[0] - lo[0], lo[0]])
