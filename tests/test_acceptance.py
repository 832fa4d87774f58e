"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Each test prints a single line directly to the terminal (bypassing pytest
capture) so the gate's verdict is visible in any run mode, then asserts.
"""

import math
import time

import numpy as np

from robustprice.ambiguity import variance_market
from robustprice.optimizer import (compare_prices, optimal_price_power,
                                   optimal_price_variance, sigma_star)
from robustprice.oracle import oracle_worst_case, random_feasible_instance
from robustprice.ratio import worst_case_cr, worst_case_cr_variance
from robustprice.verify import (certificate_deviation, max_revenue_decrease,
                                sandwich_gaps, witness_deviation)

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
    closed = [worst_case_cr(market, p) for market, p in instances]
    hi1, lo1 = sandwich_gaps(closed, [oracle_worst_case(market, p, 201)
                                      for market, p in instances])
    hi2, lo2 = sandwich_gaps(closed, [oracle_worst_case(market, p, 402)
                                      for market, p in instances])
    lo = max(lo1, lo2)
    dt = time.perf_counter() - t0
    ok = lo <= 1e-9 and hi1 <= 0.02 and hi2 <= hi1 + 1e-9 and dt < 300.0
    report(capsys, 4, "oracle CR sandwich on 50 instances, gap shrinks at 2x grid",
           ok, f"gap201={hi1:.2e}, gap402={hi2:.2e}, below={lo:.2e}, {dt:.0f}s")


def test_05_dual_certificates(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    markets = [random_feasible_instance(rng, with_price=False)
               for _ in range(100)]
    n, dev, all_ok = certificate_deviation(markets)
    dt = time.perf_counter() - t0
    ok = all_ok and dev <= 1e-9 and dt < 60.0
    report(capsys, 5, "dual certificates on 100 instances, all regimes, 1e-9",
           ok, f"{n} certificates, dev={dev:.2e}, {dt:.0f}s")


def test_06_witness_agreement(capsys):
    rng = np.random.default_rng(SEED)
    instances = [random_feasible_instance(rng) for _ in range(50)]
    closed = [worst_case_cr(market, p) for market, p in instances]
    worst = [oracle_worst_case(market, p, 201) for market, p in instances]
    dev = witness_deviation(instances, closed, worst, 201)
    ok = dev <= 1.0
    report(capsys, 6, "CR and revenue oracle witnesses agree on 50 instances",
           ok, f"normalized dev={dev:.3f}")


def test_07_best_case_revenue_monotone(capsys):
    rng = np.random.default_rng(SEED)
    markets = [random_feasible_instance(rng, with_price=False)
               for _ in range(100)]
    worst = max_revenue_decrease(markets, 10_000)
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
