"""Verification checks shared by ``robustprice verify`` and the acceptance gate.

Each check re-tests a closed-form claim with machinery that shares no code
with it (reference table, enumeration oracle, four-point members, dual
certificates) on the instances and sizes its caller passes, and returns
the numbers its verdict rests on.  :func:`run_checks` is the CLI suite.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .ambiguity import left_threshold, right_threshold
from .bounds import best_case_revenue
from .optimizer import optimal_price_variance
from .oracle import (CERT_TOL, TARGET_INF_TAIL, TARGET_SUP_TAIL, oracle_worst_case,
                     random_feasible_instance, random_four_point,
                     verify_dual_certificate)
from .ratio import worst_case_cr

# Table 1 reference rows (mu=0.5, beta=1): sigma -> (price, value).
TABLE1 = {
    0.00: (0.5000, 1.0000), 0.05: (0.4076, 0.7734), 0.10: (0.3672, 0.6382),
    0.15: (0.3404, 0.5310), 0.20: (0.3213, 0.4439), 0.25: (0.3073, 0.3728),
    0.30: (0.2967, 0.3147), 0.35: (0.3725, 0.3524), 0.40: (0.4763, 0.4763),
    0.45: (0.6406, 0.6406), 0.50: (1.0000, 1.0000),
}


def table1_deviation(compat_printed_pl: bool = False) -> float:
    """Largest price or value deviation from the Table 1 reference rows."""
    dev = 0.0
    for sigma, (p_ref, v_ref) in TABLE1.items():
        sol = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False,
                                     compat_printed_pl=compat_printed_pl)
        dev = max(dev, abs(sol.price - p_ref), abs(sol.value - v_ref))
    return dev


def sandwich_gaps(closed, worst):
    """(largest oracle excess over the closed-form CR, largest shortfall)
    from `worst_case_cr` breakdowns and `oracle_worst_case` results; the
    oracle bounds the infimum from above, so the shortfall is rounding."""
    above = below = 0.0
    for b, (o, _, _, _) in zip(closed, worst):
        above = max(above, o - b.cr)
        below = max(below, b.cr - o)
    return above, below


def support_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two support sets."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def witness_deviation(instances, closed, worst, grid_n: int) -> float:
    """Largest CR/revenue witness disagreement; 1 is the tolerance.

    Where the tail-ratio branch strictly governs, the CR minimizer is unique
    and both witnesses must share supports (to 1.5 grid steps); where the
    price-over-y branch governs, a whole family attains exactly p/y and only
    the revenue witness must near-attain the CR minimum.
    """
    dev = 0.0
    for (market, p), b, (cr_min, cw, rev_min, rw) in zip(instances, closed, worst):
        dev = max(dev, (rw.ratio(p) - cr_min) / 0.02)
        if b.cr > 0 and b.tail_ratio < b.price_over_y - 0.05:
            dev = max(dev, (p * cw.tail(p) - rev_min) / (0.02 * market.mu))
            cs = cw.supports[cw.masses > 0.02]
            rs = rw.supports[rw.masses > 0.02]
            dev = max(dev, support_distance(cs, rs) / (1.5 * market.beta / grid_n))
    return dev


def certificate_deviation(markets):
    """(certificates, largest violation or duality gap, all passed) for both
    tails at 0.5 t1, (t1 + t2)/2 and min(1.05 t2, beta) of each market."""
    n, dev, ok = 0, 0.0, True
    for market in markets:
        t1, t2 = left_threshold(market), right_threshold(market)
        for p in (0.5 * t1, 0.5 * (t1 + t2), min(1.05 * t2, market.beta)):
            if not 0 < p <= market.beta:
                continue
            for target in (TARGET_SUP_TAIL, TARGET_INF_TAIL):
                rep = verify_dual_certificate(market, p, target)
                n += 1
                ok = ok and rep.passed
                dev = max(dev, rep.max_violation,
                          abs(rep.dual_objective - rep.primal_bound))
    return n, dev, ok


def four_point_gap(instances, worst, rng: np.random.Generator) -> float:
    """Largest excess of the oracle CR minimum over the lowest ratio among
    100 random four-point members of each instance."""
    gap = 0.0
    for (market, p), (o, _, _, _) in zip(instances, worst):
        lowest = min(random_four_point(market, rng).ratio(p) for _ in range(100))
        gap = max(gap, o - lowest)
    return gap


def max_revenue_decrease(markets, n_points: int) -> float:
    """Largest step down of the best-case revenue over `n_points` prices
    spanning [1e-6 t2, t2] of each market."""
    worst = 0.0
    for market in markets:
        t2 = right_threshold(market)
        g = best_case_revenue(market, np.linspace(1e-6 * t2, t2, n_points))
        worst = max(worst, float(np.max(np.maximum(-np.diff(g), 0.0))))
    return worst


def run_checks(trials: int, grid_n: int, seed: int,
               compat_printed_pl: bool = False) -> Iterator[Tuple]:
    """The ``robustprice verify`` suite on `trials` seeded instances at one
    oracle grid, each enumerated once; yields one (name, instances,
    max_deviation, tolerance, passed) row per check."""
    dev = table1_deviation(compat_printed_pl)
    yield ("table1_reproduction", len(TABLE1), dev, 5e-4, dev <= 5e-4)
    rng = np.random.default_rng(seed)
    instances = [random_feasible_instance(rng) for _ in range(trials)]
    markets = [market for market, _ in instances]
    closed = [worst_case_cr(market, p) for market, p in instances]
    worst = [oracle_worst_case(market, p, grid_n) for market, p in instances]
    above, below = sandwich_gaps(closed, worst)
    yield ("oracle_sandwich_cr", trials, above, 0.02,
           above <= 0.02 and below <= 1e-9)
    dev = witness_deviation(instances, closed, worst, grid_n)
    yield ("witness_agreement", trials, dev, 1.0, dev <= 1.0)
    n, dev, ok = certificate_deviation(markets)
    yield ("dual_certificates", n, dev, CERT_TOL, ok)
    k = min(trials, 10)
    dev = four_point_gap(instances[:k], worst[:k], rng)
    yield ("four_point_control", k, dev, 1e-9, dev <= 1e-9)
    dev = max_revenue_decrease(markets, 2000)
    yield ("best_case_rev_monotone", trials, dev, 1e-12, dev <= 1e-12)
