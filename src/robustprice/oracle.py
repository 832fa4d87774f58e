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

from ._kernels import enumerate_min
from .ambiguity import (MarketInfo, _check_price, _companion, companion_point,
                        left_threshold, right_threshold, variance_market)
from .bounds import (REGIME_HIGH, REGIME_LOW, REGIME_MID, tail_prob_max,
                     tail_prob_min)
from .errors import (InfeasibleMarketError, RobustPriceError,
                     UnboundedSupportError)
from .extremal import DiscreteDistribution, _finalize, three_point_masses

TARGET_SUP_TAIL = "sup_tail"
TARGET_INF_TAIL = "inf_tail"

DEFAULT_GRID_N = 121
MIN_GRID_N = 21
CERT_GRID_N = 2001
CERT_TOL = 1e-9   # a certificate's largest violation and duality gap


def oracle_grid(market: MarketInfo, p: float, grid_n: int) -> Tuple[np.ndarray, float]:
    """Uniform grid on [0, beta] augmented with the structural points.

    The structural points are 0, beta, both thresholds, p, the p-minus
    point p - eps, and the companions of p and p - eps where they lie in
    [0, beta] (p <= t1 or p >= t2): the worst members below t1 and above
    t2 are two-point members on a price and its companion.  Returns
    (grid, eps) where eps is the left-limit offset, (beta/grid_n)/1000.
    A p that is not one price in (0, beta], or a non-integer grid_n (bools too), raises first.
    """
    _check_price(p, market.beta, one=True)
    if isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer)):
        raise RobustPriceError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < MIN_GRID_N:
        raise RobustPriceError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")
    if not math.isfinite(market.beta):
        raise UnboundedSupportError("the enumeration oracle needs a finite beta")
    beta = market.beta
    eps = (beta / grid_n) / 1000.0
    t1, t2 = left_threshold(market), right_threshold(market)
    prices = np.array([p, max(p - eps, 0.0)])
    # t1 can round to mu when beta >> mu, where the companion is singular.
    paired = prices[(prices < market.mu) & (prices <= t1) | (prices >= t2)]
    companions = _companion(market, paired)
    extras = [0.0, *prices, t1, t2, beta,
              *companions[(companions >= 0.0) & (companions <= beta)]]
    g = np.unique(np.concatenate([np.linspace(0.0, beta, grid_n), extras]))
    return g, eps


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

    One enumeration per market, price and grid: the last answer is kept on
    the market, keyed on the checked (p, grid_n), and a repeated call reads
    it.  The checks run first on every call, an infeasible grid is not kept,
    and each call builds its own witnesses.
    """
    g, _ = oracle_grid(market, p, grid_n)
    key = float(p), int(grid_n)
    last = vars(market).get("_oracle_last")
    if last is None or last[0] != key:
        found = enumerate_min(g, market.measure.value(g), market.mu, market.s, p)
        if found[4] == 0 or not math.isfinite(found[0]):   # n_feasible, min CR
            raise InfeasibleMarketError(
                f"no feasible grid-supported distribution at grid_n={grid_n}")
        last = vars(market)["_oracle_last"] = key, found
    cr, rev, cr_wit, rev_wit, _ = last[1]
    return cr, _witness(cr_wit), rev, _witness(rev_wit)


def oracle_worst_case_cr(market: MarketInfo, p: float,
                         grid_n: int = DEFAULT_GRID_N):
    """(min CR, witness); the ratio half of the one :func:`oracle_worst_case` enumeration."""
    cr, cr_wit, _, _ = oracle_worst_case(market, p, grid_n)
    return cr, cr_wit


def oracle_worst_case_rev(market: MarketInfo, p: float,
                          grid_n: int = DEFAULT_GRID_N):
    """(min revenue, witness); the revenue half of the one :func:`oracle_worst_case` enumeration."""
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


def _certificate(market: MarketInfo, p: float, target: str) -> Optional[Tuple[DualCertificate, str, Tuple[float, ...]]]:
    """Multipliers fixed by complementary slackness on the member attaining
    the bound, plus its support points; None if they repeat ({0, beta, beta}).

    F equals the tail indicator at each support point: 1{x >= p} for the
    sup tail, its left limit 1{x > p} for the inf tail.  On a two-point
    member F also touches the indicator at the point other than p (at t2
    for {0, t2}), so F' = 0 there.  The three conditions are one 3x3 solve.
    """
    sup = target == TARGET_SUP_TAIL
    t1, t2 = left_threshold(market), right_threshold(market)
    if p <= t1:
        a = companion_point(market, p)
        regime, supports, flat = REGIME_LOW, (p, min(a, market.beta) if sup else a), a
    elif p < t2 or not sup and p == t2:
        regime, supports, flat = REGIME_MID, (0.0, p, market.beta), None
    elif sup:
        a = companion_point(market, p)
        regime, supports, flat = REGIME_HIGH, (a, p), a
    else:
        regime, supports, flat = REGIME_HIGH, (0.0, t2), t2
    if len(set(supports)) < len(supports):
        return None
    m = market.measure
    rows = [[1.0, x, m.value(x)] for x in supports]   # F(x) = row . (l0, l1, l2)
    rhs = [float(x >= p if sup else x > p) for x in supports]
    if flat is not None:   # F'(flat) = 0
        rows.append([0.0, 1.0, m.derivative(flat)])
        rhs.append(0.0)
    l0, l1, l2 = np.linalg.solve(rows, rhs).tolist()
    sense = "dominates_indicator" if sup else "dominated_by_indicator"
    return DualCertificate(l0, l1, l2, sense, target), regime, supports


def verify_dual_certificate(market: MarketInfo, p: float, target: str) -> CertificateReport:
    """Check the regime certificate on a grid and the weak-duality identity.

    Verifies (a) the sense inequality F vs the tail indicator at every grid
    point, (b) dual objective l0 + l1 mu + l2 s equals the primal bound,
    and (c) complementary slackness at the claimed support points.  The grid
    spans [0, beta], so beta = inf raises UnboundedSupportError.  The point
    mass, and {0, beta} at p = beta for the inf tail, skip ("degenerate-skip").
    """
    _check_price(p, market.beta, one=True)
    p = float(p)   # _certificate hashes its support points, and a 0-d array has no hash
    if target not in (TARGET_SUP_TAIL, TARGET_INF_TAIL):
        raise RobustPriceError(f"unknown certificate target {target!r}")
    if not math.isfinite(market.beta):
        raise UnboundedSupportError("the certificate grid needs a finite maximum valuation")
    found = None if market.is_degenerate else _certificate(market, p, target)
    if found is None:
        return CertificateReport(True, target, "degenerate", None,
                                 float("nan"), float("nan"), 0.0, float("nan"),
                                 note="degenerate-skip")
    # Indicators at p-minus are handled by the closed forms themselves; the
    # certificate uses the plain indicator 1{x >= p}.
    cert, regime, supports = found
    m = market.measure
    x = np.linspace(0.0, market.beta, CERT_GRID_N)
    F = cert.lambda0 + cert.lambda1 * x + cert.lambda2 * np.asarray(m.value(x))
    ind = (x >= p).astype(float)
    sup = cert.sense == "dominates_indicator"
    if sup:
        gap = ind - F
        primal = tail_prob_max(market, p)
    else:
        gap = F - ind
        primal = tail_prob_min(market, p)
    worst = int(np.argmax(gap))
    max_violation = float(max(gap[worst], 0.0))
    dual = cert.lambda0 + cert.lambda1 * market.mu + cert.lambda2 * market.s
    # A mass at p itself counts for the sup tail; for the inf tail it sits at
    # p-minus, where the indicator's left limit is 0.
    slack = max(abs(cert.lambda0 + cert.lambda1 * xs + cert.lambda2 * float(m.value(xs))
                    - (xs >= p if sup else xs > p)) for xs in supports)
    passed = max_violation <= CERT_TOL and abs(dual - primal) <= CERT_TOL and slack <= 1e-8
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
    outside the enumerated two-/three-point class.  Raises
    UnboundedSupportError for beta = inf and RobustPriceError where the
    members' price range [t1, t2) is empty (the point mass).
    """
    if not math.isfinite(market.beta):
        raise UnboundedSupportError("four-point members need a finite beta")
    lo = max(left_threshold(market), 1e-9 * market.beta)
    hi = right_threshold(market) * (1.0 - 1e-9)
    if lo > hi:
        raise RobustPriceError("no four-point member: the market is "
                               "(nearly) a point mass")
    p = rng.uniform(lo, hi, size=2)
    lam = float(rng.uniform(0.1, 0.9))
    w0, wp, wb = three_point_masses(market, p)   # one member per column
    mix = np.array([lam, 1.0 - lam])
    return _finalize([0.0, *p, market.beta], [mix @ w0, *(mix * wp), mix @ wb])
