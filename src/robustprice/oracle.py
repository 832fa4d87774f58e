"""Brute-force verification oracle and dual certificates.

Everything the closed forms claim is re-checked here by machinery that
shares no code with them: an exhaustive enumeration of grid-supported two-
and three-point distributions (upper-bounding every infimum from the
feasible side), and explicit dual certificates F(x) = l0 + l1 x + l2 phi(x)
that dominate (or are dominated by) the tail indicator, certifying each
bound by weak duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._kernels import DISP_TOL, MASS_TOL, enumerate_min
from .ambiguity import (MarketInfo, companion_point, left_threshold,
                        right_threshold, variance_market)
from .bounds import tail_prob_max, tail_prob_min
from .errors import (InfeasibleMarketError, RobustPriceError,
                     UnboundedSupportError)
from .extremal import DiscreteDistribution, _finalize, three_point

TARGET_SUP_TAIL = "sup_tail"
TARGET_INF_TAIL = "inf_tail"

DEFAULT_GRID_N = 121
MIN_GRID_N = 21
CERT_GRID_N = 2001


def oracle_grid(market: MarketInfo, p: float, grid_n: int) -> Tuple[np.ndarray, float]:
    """Uniform grid on [0, beta] augmented with the structural points.

    Returns (grid, eps) where eps is the left-limit offset used for the
    p-minus point, (beta/grid_n)/1000.
    """
    if grid_n < MIN_GRID_N:
        raise RobustPriceError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")
    if not math.isfinite(market.beta):
        raise UnboundedSupportError("the enumeration oracle needs a finite beta")
    beta = market.beta
    eps = (beta / grid_n) / 1000.0
    extras = [0.0, min(p, beta), max(p - eps, 0.0),
              left_threshold(market), right_threshold(market), beta]
    g = np.unique(np.concatenate([np.linspace(0.0, beta, grid_n), extras]))
    return g, eps


def _run_kernel(market: MarketInfo, p: float, grid_n: int):
    g, _ = oracle_grid(market, p, grid_n)
    phi = np.asarray(market.measure.value(g), dtype=float)
    cr, rev, cr_wit, rev_wit, n_feas = enumerate_min(
        g, phi, market.mu, market.s, p, DISP_TOL, MASS_TOL)
    if n_feas == 0 or not math.isfinite(cr):
        raise InfeasibleMarketError(
            f"no feasible grid-supported distribution at grid_n={grid_n}")
    return cr, rev, cr_wit, rev_wit


def _witness(wit) -> DiscreteDistribution:
    sup, mas = wit
    keep = ~np.isnan(sup)
    return _finalize(np.asarray(sup)[keep], np.asarray(mas)[keep])


def oracle_worst_case(market: MarketInfo, p: float,
                      grid_n: int = DEFAULT_GRID_N):
    """(min CR, CR witness, min revenue, revenue witness) from one enumeration.

    Both minima run over all grid-supported feasible 2-/3-point members,
    so each is an upper bound on the true infimum: every enumerated
    distribution is (within clamping tolerance) a member of the market.
    The revenue objective is p*P(X>=p).
    """
    cr, rev, cr_wit, rev_wit = _run_kernel(market, p, grid_n)
    return cr, _witness(cr_wit), rev, _witness(rev_wit)


def oracle_worst_case_cr(market: MarketInfo, p: float,
                         grid_n: int = DEFAULT_GRID_N):
    """(min CR, witness); the ratio half of :func:`oracle_worst_case`."""
    cr, cr_wit, _, _ = oracle_worst_case(market, p, grid_n)
    return cr, cr_wit


def oracle_worst_case_rev(market: MarketInfo, p: float,
                          grid_n: int = DEFAULT_GRID_N):
    """(min revenue, witness); the revenue half of :func:`oracle_worst_case`."""
    _, _, rev, rev_wit = oracle_worst_case(market, p, grid_n)
    return rev, rev_wit


@dataclass(frozen=True)
class DualCertificate:
    lambda0: float
    lambda1: float
    lambda2: float
    sense: str  # "dominates_indicator" (sup) or "dominated_by_indicator" (inf)
    target: str


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    target: str
    regime: str
    certificate: Optional[DualCertificate]
    dual_objective: float
    primal_bound: float
    max_violation: float
    worst_x: float
    note: str = ""


def _certificate(market: MarketInfo, p: float, target: str) -> Tuple[DualCertificate, str, Tuple[float, ...]]:
    """Closed-form multipliers for the active regime, plus the support
    points where complementary slackness must hold."""
    m = market.measure
    mu = market.mu
    t1 = left_threshold(market)
    t2 = right_threshold(market)
    phi0 = m.value(0.0)
    if target == TARGET_SUP_TAIL:
        if p <= t1:
            # Bound 1: the constant certificate, tight on {p, companion}.
            a = companion_point(market, p)
            return (DualCertificate(1.0, 0.0, 0.0, "dominates_indicator", target),
                    "low_two_point", (p, min(a, market.beta)))
        if p < t2:
            # Touches the indicator at {0, p, beta}; concave.
            beta = market.beta
            phip, phib = m.value(p), m.value(beta)
            denom = phip - phi0 - p * (phib - phip) / (beta - p)
            l2 = 1.0 / denom
            l1 = -l2 * (phib - phip) / (beta - p)
            l0 = -l2 * phi0
            return (DualCertificate(l0, l1, l2, "dominates_indicator", target),
                    "mid_three_point", (0.0, p, beta))
        # Convex, tangent at the companion a < mu, touching 1 at p.
        a = companion_point(market, p)
        phia, phip = m.value(a), m.value(p)
        da = m.derivative(a)
        l2 = 1.0 / (phip - phia - da * (p - a))
        l1 = -l2 * da
        l0 = -l1 * a - l2 * phia
        return (DualCertificate(l0, l1, l2, "dominates_indicator", target),
                "above_right_threshold", (a, p))
    if target == TARGET_INF_TAIL:
        if p <= t1:
            # Concave, tangent at the companion a > mu, zero at p.
            a = companion_point(market, p)
            phia, phip = m.value(a), m.value(p)
            da = m.derivative(a)
            l2 = 1.0 / (phia - phip - da * (a - p))
            l1 = -l2 * da
            l0 = 1.0 - l1 * a - l2 * phia
            return (DualCertificate(l0, l1, l2, "dominated_by_indicator", target),
                    "low_two_point", (p, a))
        if p <= t2:
            # Convex, zero at {0, p}, one at beta.
            beta = market.beta
            phip, phib = m.value(p), m.value(beta)
            denom = phib - phi0 - beta * (phip - phi0) / p
            l2 = 1.0 / denom
            l1 = -l2 * (phip - phi0) / p
            l0 = -l2 * phi0
            return (DualCertificate(l0, l1, l2, "dominated_by_indicator", target),
                    "mid_three_point", (0.0, p, beta))
        # Bound 0: the zero certificate, tight on {0, t2}.
        return (DualCertificate(0.0, 0.0, 0.0, "dominated_by_indicator", target),
                "above_right_threshold", (0.0, t2))
    raise RobustPriceError(f"unknown certificate target {target!r}")


def verify_dual_certificate(market: MarketInfo, p: float, target: str,
                            grid_n: int = CERT_GRID_N,
                            tol: float = 1e-9) -> CertificateReport:
    """Check the regime certificate on a grid and the weak-duality identity.

    Verifies (a) the sense inequality F vs the tail indicator at every grid
    point, (b) dual objective l0 + l1 mu + l2 s equals the primal bound,
    and (c) complementary slackness at the claimed support points.
    """
    if market.is_degenerate:
        return CertificateReport(True, target, "degenerate", None,
                                 float("nan"), float("nan"), 0.0, float("nan"),
                                 note="degenerate-skip")
    if p > market.beta and target == TARGET_INF_TAIL:
        raise RobustPriceError(f"price {p} exceeds maximum valuation {market.beta}")
    # Indicators at p-minus are handled by the closed forms themselves; the
    # certificate uses the plain indicator 1{x >= p}.
    cert, regime, supports = _certificate(market, p, target)
    m = market.measure
    x = np.linspace(0.0, market.beta, grid_n)
    F = cert.lambda0 + cert.lambda1 * x + cert.lambda2 * np.asarray(m.value(x))
    ind = (x >= p).astype(float)
    if cert.sense == "dominates_indicator":
        gap = ind - F
        primal = tail_prob_max(market, p)
    else:
        gap = F - ind
        primal = tail_prob_min(market, p)
    worst = int(np.argmax(gap))
    max_violation = float(max(gap[worst], 0.0))
    dual = cert.lambda0 + cert.lambda1 * market.mu + cert.lambda2 * market.s
    slack = 0.0
    for xs in supports:
        Fx = cert.lambda0 + cert.lambda1 * xs + cert.lambda2 * float(m.value(xs))
        want = 1.0 if xs >= p else 0.0
        # At the inf-tail mid regime the mass sits at p-minus, where the
        # indicator's left limit is 0.
        if cert.sense == "dominated_by_indicator" and xs == p:
            want = 0.0
        slack = max(slack, abs(Fx - want))
    passed = (max_violation <= tol and abs(dual - primal) <= tol and slack <= 1e-8)
    return CertificateReport(passed, target, regime, cert, float(dual),
                             float(primal), max_violation, float(x[worst]))


def random_feasible_instance(rng: np.random.Generator,
                             with_price: bool = True):
    """Seeded random variance market (and price below the right threshold)."""
    mu = float(rng.uniform(0.3, 1.5))
    beta = float(mu * rng.uniform(1.3, 3.5))
    sigma = float(rng.uniform(0.1, 0.9) * math.sqrt(mu * (beta - mu)))
    market = variance_market(mu, sigma, beta)
    if not with_price:
        return market
    t2 = right_threshold(market)
    p = float(rng.uniform(0.08, 0.98) * min(t2, beta))
    return market, p


def random_four_point(market: MarketInfo, rng: np.random.Generator) -> DiscreteDistribution:
    """Random feasible four-point member: a mixture of two three-point ones.

    Mixing preserves both moment constraints, giving a control family
    outside the enumerated two-/three-point class.
    """
    t1 = left_threshold(market)
    t2 = right_threshold(market)
    lo = max(t1, 1e-9 * market.beta)
    p1, p2 = rng.uniform(lo, t2 * (1.0 - 1e-9), size=2)
    d1, d2 = three_point(market, float(p1)), three_point(market, float(p2))
    lam = float(rng.uniform(0.1, 0.9))
    sup = np.concatenate([d1.supports, d2.supports])
    mas = np.concatenate([lam * d1.masses, (1.0 - lam) * d2.masses])
    order = np.argsort(sup)
    sup, mas = sup[order], mas[order]
    # Merge duplicated support points (0 and beta are shared).
    out_s, out_m = [sup[0]], [mas[0]]
    for x, w in zip(sup[1:], mas[1:]):
        if x - out_s[-1] <= 1e-15 * max(1.0, market.beta):
            out_m[-1] += w
        else:
            out_s.append(x)
            out_m.append(w)
    return _finalize(out_s, out_m)
