"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Each test prints a single line directly to the terminal (bypassing pytest
capture) so the gate's verdict is visible in any run mode, then asserts.
"""

import math
import time

import numpy as np

from robustprice.ambiguity import (left_threshold, right_threshold,
                                   variance_market)
from robustprice.bounds import best_case_revenue
from robustprice.cli import _support_distance
from robustprice.optimizer import (compare_prices, optimal_price_power,
                                   optimal_price_revenue_variance,
                                   optimal_price_variance, sigma_star)
from robustprice.oracle import (TARGET_INF_TAIL, TARGET_SUP_TAIL,
                                oracle_worst_case, oracle_worst_case_cr,
                                random_feasible_instance,
                                verify_dual_certificate)
from robustprice.ratio import worst_case_cr, worst_case_cr_variance

from test_optimizer import TABLE1, TABLE1_UNBOUNDED, TABLE2

SEED = 7


def report(capsys, num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:2d}: {desc}{tail}")
    assert ok, f"acceptance criterion {num} failed: {desc}{tail}"


def test_01_table1_reproduction(capsys):
    t0 = time.perf_counter()
    dev = 0.0
    for sigma, (p_ref, v_ref) in TABLE1.items():
        sol = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
        dev = max(dev, abs(sol.price - p_ref), abs(sol.value - v_ref))
    for sigma, (p_ref, _) in TABLE1_UNBOUNDED.items():
        sol = optimal_price_variance(0.5, sigma, math.inf, with_threshold=False)
        dev = max(dev, abs(sol.price - p_ref))
        if sigma <= 0.30:
            dev = max(dev, abs(sol.value - TABLE1[sigma][1]))
    sol = optimal_price_variance(0.5, 0.5, math.inf, with_threshold=False)
    dev = max(dev, abs(sol.value - 0.1705))
    dt = time.perf_counter() - t0
    ok = dev <= 5e-4 and dt < 1.0
    report(capsys, 1, "Table 1 sweep incl. unbounded columns within 5e-4, <1s",
           ok, f"dev={dev:.2e}, {dt:.2f}s")


def test_02_table2_reproduction(capsys):
    t0 = time.perf_counter()
    dev, labels_ok = 0.0, True
    for (mu, beta), (label, p_ref, v_ref) in TABLE2.items():
        sol = optimal_price_variance(mu, 0.5, beta, with_threshold=False)
        labels_ok = labels_ok and sol.label == label
        dev = max(dev, abs(sol.price - p_ref), abs(sol.value - v_ref))
    dt = time.perf_counter() - t0
    ok = dev <= 5e-4 and labels_ok and dt < 1.0
    report(capsys, 2, "Table 2 grid with regime labels within 5e-4, <1s",
           ok, f"dev={dev:.2e}, labels_ok={labels_ok}, {dt:.2f}s")


def test_03_sigma_star(capsys):
    t0 = time.perf_counter()
    ss = sigma_star(0.5, 1.0)
    dt = time.perf_counter() - t0
    ok = abs(ss - 0.3194) <= 1e-3 and dt < 1.0
    report(capsys, 3, "sigma_star(0.5, 1) = 0.3194 within 1e-3, <1s",
           ok, f"got {ss:.6f}, {dt:.2f}s")


def test_04_oracle_sandwich(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    instances = [random_feasible_instance(rng) for _ in range(50)]
    hi1 = lo = hi2 = 0.0
    for market, p in instances:
        closed = worst_case_cr(market, p).cr
        o1, _ = oracle_worst_case_cr(market, p, grid_n=201)
        o2, _ = oracle_worst_case_cr(market, p, grid_n=402)
        hi1 = max(hi1, o1 - closed)
        hi2 = max(hi2, o2 - closed)
        lo = max(lo, closed - o1, closed - o2)
    dt = time.perf_counter() - t0
    ok = lo <= 1e-9 and hi1 <= 0.02 and hi2 <= hi1 + 1e-9 and dt < 300.0
    report(capsys, 4, "oracle CR sandwich on 50 instances, gap shrinks at 2x grid",
           ok, f"gap201={hi1:.2e}, gap402={hi2:.2e}, below={lo:.2e}, {dt:.0f}s")


def test_05_dual_certificates(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    dev, all_ok, n = 0.0, True, 0
    for _ in range(100):
        market = random_feasible_instance(rng, with_price=False)
        t1, t2 = left_threshold(market), right_threshold(market)
        for p in (0.5 * t1, 0.5 * (t1 + t2), min(1.05 * t2, market.beta)):
            if not 0 < p <= market.beta:
                continue
            for target in (TARGET_SUP_TAIL, TARGET_INF_TAIL):
                rep = verify_dual_certificate(market, p, target)
                n += 1
                all_ok = all_ok and rep.passed
                dev = max(dev, rep.max_violation,
                          abs(rep.dual_objective - rep.primal_bound))
    dt = time.perf_counter() - t0
    ok = all_ok and dev <= 1e-9 and dt < 60.0
    report(capsys, 5, "dual certificates on 100 instances, all regimes, 1e-9",
           ok, f"{n} certificates, dev={dev:.2e}, {dt:.0f}s")


def test_06_witness_agreement(capsys):
    # Where the tail-ratio branch strictly governs, the CR minimizer is the
    # unique worst case and both witnesses must share supports; where the
    # price branch governs, minimizers form a family and only the revenue
    # witness attaining the CR minimum is required.
    rng = np.random.default_rng(SEED)
    grid_n = 201
    dev = 0.0
    for _ in range(50):
        market, p = random_feasible_instance(rng)
        res = 1.5 * market.beta / grid_n
        cr_min, cw, rev_min, rw = oracle_worst_case(market, p, grid_n)
        dev = max(dev, (rw.ratio(p) - cr_min) / 0.02)
        b = worst_case_cr(market, p)
        if b.cr > 0 and b.tail_ratio < b.price_over_y - 0.05:
            dev = max(dev, (p * cw.tail(p) - rev_min) / (0.02 * market.mu))
            cs = cw.supports[cw.masses > 0.02]
            rs = rw.supports[rw.masses > 0.02]
            dev = max(dev, _support_distance(cs, rs) / res)
    ok = dev <= 1.0
    report(capsys, 6, "CR and revenue oracle witnesses agree on 50 instances",
           ok, f"normalized dev={dev:.3f}")


def test_07_best_case_revenue_monotone(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        market = random_feasible_instance(rng, with_price=False)
        t2 = right_threshold(market)
        ps = np.linspace(1e-6 * t2, t2, 10_000)
        g = np.array([best_case_revenue(market, p) for p in ps])
        worst = max(worst, float(np.max(np.maximum(-np.diff(g), 0.0))))
    ok = worst <= 1e-12
    report(capsys, 7, "best-case revenue non-decreasing on 10k grids, 100 markets",
           ok, f"max decrease={worst:.2e}")


def test_08_q2_equivalence(capsys):
    price_dev = cr_dev = 0.0
    for sigma in TABLE1:
        if sigma == 0.0:
            continue
        a = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
        b = optimal_price_power(0.5, 0.25 + sigma * sigma, 2.0, 1.0)
        price_dev = max(price_dev, abs(a.price - b.price), abs(a.value - b.value))
        market = variance_market(0.5, sigma, 1.0)
        general = worst_case_cr(market, a.price).cr
        closed = worst_case_cr_variance(0.5, sigma, 1.0, a.price).cr
        cr_dev = max(cr_dev, abs(general - closed), abs(general - a.value))
    ok = price_dev <= 1e-8 and cr_dev <= 1e-10
    report(capsys, 8, "q=2 power path equals variance forms; general phi within 1e-10",
           ok, f"price_dev={price_dev:.2e}, cr_dev={cr_dev:.2e}")


def test_09_price_orderings(capsys):
    rng = np.random.default_rng(SEED)
    n_low = n_high = 0
    ok = True
    while n_low < 100 or n_high < 100:
        mu = float(rng.uniform(0.3, 1.5))
        beta = float(mu * rng.uniform(1.3, 3.0))
        rep = compare_prices(mu,
                             float(rng.uniform(0.05, 0.95)
                                   * math.sqrt(mu * (beta - mu))),
                             beta)
        if rep.low_ordering_applies and n_low < 100:
            n_low += 1
            ok = ok and rep.low_ordering_holds
        if rep.high_ordering_applies and n_high < 100:
            n_high += 1
            ok = ok and rep.high_ordering_holds
    report(capsys, 9, "revenue/ratio price orderings on 100 instances each side",
           ok, f"low={n_low}, high={n_high}")


def test_10_formula_discrepancy_regression(capsys):
    printed = optimal_price_variance(0.5, 0.5, math.inf, with_threshold=False,
                                     compat_printed_pl=True)
    adopted = optimal_price_variance(0.5, 0.5, math.inf, with_threshold=False)
    compat_dev = 0.0
    for sigma, (p_ref, _) in TABLE1_UNBOUNDED.items():
        sol = optimal_price_variance(0.5, sigma, math.inf, with_threshold=False,
                                     compat_printed_pl=True)
        compat_dev = max(compat_dev, abs(sol.price - p_ref))
    ok = (abs(printed.price - 0.3077) <= 5e-4
          and abs(adopted.price - 0.2733) <= 5e-4
          and compat_dev > 5e-4)
    report(capsys, 10, "printed low-price radical fails the sweep; adopted form passes",
           ok, f"printed={printed.price:.4f}, adopted={adopted.price:.4f}, "
               f"compat_dev={compat_dev:.2e}")
