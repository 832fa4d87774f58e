import math

import numpy as np
import pytest

from robustprice.ambiguity import (MODE_UPPER, left_threshold, power_market,
                                   right_threshold, variance_market)
from robustprice.bounds import (REGIME_HIGH, REGIME_LOW, REGIME_MID,
                                best_case_revenue, cond_exp_max, tail_bounds,
                                tail_prob_max, tail_prob_min,
                                tail_prob_min_dispersion_ub)
from robustprice.errors import (ModeError, RobustPriceError,
                                UnboundedSupportError)
from robustprice.extremal import three_point, two_point

from test_extremal import random_market

M = variance_market(0.5, 0.5, 1.2)


class TestSupTail:
    def test_low_regime_is_one(self):
        assert tail_prob_max(M, 0.1) == pytest.approx(1.0)

    def test_mid_regime_example(self):
        assert tail_prob_max(M, 0.6) == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert tail_prob_max(M, 0.6) == pytest.approx(0.5556, abs=5e-5)

    def test_high_regime_example(self):
        assert tail_prob_max(M, 1.1) == pytest.approx(0.4098, abs=5e-5)

    def test_high_regime_cantelli(self):
        # sigma^2 / (sigma^2 + (p - mu)^2) on [tau2, beta], variance case.
        for p in (1.0, 1.05, 1.1, 1.2):
            cantelli = 0.25 / (0.25 + (p - 0.5) ** 2)
            assert tail_prob_max(M, p) == pytest.approx(cantelli, abs=1e-12)

    def test_price_range_errors(self):
        with pytest.raises(RobustPriceError):
            tail_prob_max(M, 0.0)
        with pytest.raises(RobustPriceError):
            tail_prob_max(M, 1.3)

    def test_infinite_beta(self):
        m = variance_market(0.5, 0.5, math.inf)
        assert tail_prob_max(m, 0.3) == pytest.approx(1.0)
        assert tail_prob_max(m, 1.1) == pytest.approx(0.25 / (0.25 + 0.36), abs=1e-12)
        with pytest.raises(UnboundedSupportError):
            tail_prob_max(m, 0.7)


class TestInfTail:
    def test_low_regime_example(self):
        assert tail_prob_min(M, 0.1) == pytest.approx(0.4 / 1.025, abs=1e-12)
        assert tail_prob_min(M, 0.1) == pytest.approx(0.3902, abs=5e-5)

    def test_low_regime_cantelli(self):
        for p in (0.02, 0.08, 0.14):
            cantelli = (0.5 - p) ** 2 / ((0.5 - p) ** 2 + 0.25)
            assert tail_prob_min(M, p) == pytest.approx(cantelli, abs=1e-12)

    def test_mid_regime_example(self):
        assert tail_prob_min(M, 0.25) == pytest.approx(0.09375 / 0.285, abs=1e-12)
        assert tail_prob_min(M, 0.25) == pytest.approx(0.3289, abs=5e-5)

    def test_zero_at_right_threshold_and_above(self):
        assert tail_prob_min(M, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert tail_prob_min(M, 1.1) == 0.0

    def test_ordering_with_sup(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = random_market(rng)
            for p in np.linspace(0.05, 0.99, 13) * m.beta:
                lo, hi = tail_prob_min(m, p), tail_prob_max(m, p)
                assert -1e-12 <= lo <= hi + 1e-12
                assert hi <= 1.0 + 1e-12


class TestCondExpMax:
    def test_low_regime_is_companion(self):
        assert cond_exp_max(M, 0.1) == pytest.approx(1.125, abs=1e-12)

    def test_mid_and_high_regime_is_beta(self):
        assert cond_exp_max(M, 0.6) == pytest.approx(1.2)
        assert cond_exp_max(M, 1.1) == pytest.approx(1.2)

    def test_degenerate(self):
        assert cond_exp_max(variance_market(0.5, 0.0, 1.0), 0.3) == pytest.approx(0.5)

    def test_continuity_at_left_threshold(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            m = random_market(rng)
            t1 = left_threshold(m)
            if t1 <= 0:
                continue
            assert cond_exp_max(m, t1 * (1 - 1e-9)) == pytest.approx(m.beta, rel=1e-6)


class TestBestCaseRevenue:
    def test_low_regime(self):
        assert best_case_revenue(M, 0.1) == pytest.approx(0.1)

    def test_mid_regime(self):
        assert best_case_revenue(M, 0.6) == pytest.approx(0.6 * 5.0 / 9.0, abs=1e-12)
        assert best_case_revenue(M, 0.6) == pytest.approx(0.3333, abs=5e-5)

    def test_right_threshold_continuity(self):
        t2 = right_threshold(M)
        a = best_case_revenue(M, t2)
        d = two_point(M, t2)
        assert a == pytest.approx(t2 * d.tail(t2), abs=1e-9)

    def test_rejects_above_right_threshold(self):
        with pytest.raises(RobustPriceError):
            best_case_revenue(M, 1.1)

    def test_non_decreasing(self):
        # The scalar loop is the reference for the array call; the prices
        # at and within 1e-13 of t1, and at t2, fall in the boundary bands
        # where both adjacent branches are averaged.
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = random_market(rng)
            t1, t2 = left_threshold(m), right_threshold(m)
            ps = np.sort(np.concatenate([
                np.linspace(1e-6 * t2, t2, 2000),
                [t1 * (1 - 1e-13), t1, t1 * (1 + 1e-13), t2]]))
            g = np.array([best_case_revenue(m, p) for p in ps])
            assert np.array_equal(best_case_revenue(m, ps), g)
            assert np.all(np.diff(g) >= -1e-12)


class TestTailBoundsStruct:
    def test_regime_labels(self):
        assert tail_bounds(M, 0.1).regime == REGIME_LOW
        assert tail_bounds(M, 0.6).regime == REGIME_MID
        assert tail_bounds(M, 1.1).regime == REGIME_HIGH

    def test_invariants(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            m = random_market(rng)
            for frac in (0.1, 0.4, 0.7, 0.95):
                tb = tail_bounds(m, frac * m.beta)
                assert -1e-12 <= tb.inf_tail <= tb.sup_tail <= 1 + 1e-12
                assert max(m.mu, tb.p) <= tb.sup_cond_exp + 1e-9
                assert tb.sup_cond_exp <= m.beta + 1e-9
                assert tb.best_case_rev == pytest.approx(tb.p * tb.sup_tail)


class TestAttainmentAndSandwich:
    def test_extremal_members_attain_bounds(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            m = random_market(rng)
            t1, t2 = left_threshold(m), right_threshold(m)
            if t1 > 0:
                p = 0.6 * t1
                # Mass strictly above p (at the companion) is the inf bound;
                # the atom at p itself only counts in the left limit.
                assert float(two_point(m, p).masses[-1]) == pytest.approx(
                    tail_prob_min(m, p), abs=1e-9)
            p = t1 + 0.5 * (t2 - t1)
            d = three_point(m, p)
            assert d.tail(p) == pytest.approx(tail_prob_max(m, p), abs=1e-9)
            mass_at_beta = float(d.masses[-1]) if d.supports[-1] == m.beta else 0.0
            assert mass_at_beta == pytest.approx(tail_prob_min(m, p), abs=1e-9)

    def test_sampled_members_respect_sandwich(self):
        from robustprice.oracle import random_four_point
        rng = np.random.default_rng(26)
        for _ in range(200):
            m = random_market(rng, power_prob=0.0)
            d = random_four_point(m, rng)
            p = rng.uniform(0.05, 1.0) * m.beta
            lo, hi = tail_prob_min(m, p), tail_prob_max(m, p)
            assert lo - 1e-9 <= d.tail(p) <= hi + 1e-9


class TestDispersionUpperBound:
    MU = variance_market(0.5, 0.5, 1.2, mode=MODE_UPPER)

    def test_low_branch_matches_exact(self):
        assert tail_prob_min_dispersion_ub(self.MU, 0.1) == pytest.approx(
            tail_prob_min(M, 0.1), abs=1e-12)
        assert tail_prob_min_dispersion_ub(self.MU, 0.1) == pytest.approx(0.3902, abs=5e-5)

    def test_mid_branch_example(self):
        assert tail_prob_min_dispersion_ub(self.MU, 0.3) == pytest.approx(
            0.2 / 0.9, abs=1e-12)
        assert tail_prob_min_dispersion_ub(self.MU, 0.3) == pytest.approx(0.2222, abs=5e-5)

    def test_zero_at_and_above_mean(self):
        assert tail_prob_min_dispersion_ub(self.MU, 0.5) == 0.0
        assert tail_prob_min_dispersion_ub(self.MU, 0.8) == 0.0

    def test_mode_guard(self):
        with pytest.raises(ModeError):
            tail_prob_min_dispersion_ub(M, 0.3)

    def test_never_exceeds_exact_bound(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            m = random_market(rng, power_prob=0.0)
            mu_mode = variance_market(m.mu, m.sigma, m.beta, mode=MODE_UPPER)
            for p in np.linspace(0.02, 0.98, 25) * m.beta:
                relaxed = tail_prob_min_dispersion_ub(mu_mode, p)
                assert relaxed <= tail_prob_min(m, p) + 1e-9
