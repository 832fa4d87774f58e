import math

import numpy as np
import pytest

from robustprice.ambiguity import (left_threshold, power_market,
                                   right_threshold, variance_market)
from robustprice.bounds import tail_prob_min
from robustprice.errors import RobustPriceError, UnboundedSupportError
from robustprice.extremal import (DiscreteDistribution, point_mass,
                                  three_point, three_point_masses, two_point,
                                  worst_case_distribution)


def random_market(rng, power_prob=0.5):
    mu = rng.uniform(0.3, 1.5)
    beta = mu * rng.uniform(1.3, 3.5)
    if rng.uniform() < power_prob:
        q = rng.uniform(1.2, 3.0)
        s_min, s_max = mu ** q, (mu / beta) * beta ** q
        s = s_min + rng.uniform(0.05, 0.95) * (s_max - s_min)
        return power_market(mu=mu, s=s, q=q, beta=beta)
    sigma = rng.uniform(0.1, 0.9) * math.sqrt(mu * (beta - mu))
    return variance_market(mu, sigma, beta)


class TestDiscreteDistribution:
    def test_moments_and_tail(self):
        d = DiscreteDistribution(np.array([0.0, 0.6, 1.2]),
                                 np.array([0.25, 0.5, 0.25]))
        assert d.mean() == pytest.approx(0.6)
        assert d.tail(0.6) == pytest.approx(0.75)
        assert d.tail(0.61) == pytest.approx(0.25)
        assert d.revenue(0.6) == pytest.approx(0.45)

    def test_ratio_of_point_mass(self):
        d = point_mass(0.5)
        assert d.ratio(0.5) == pytest.approx(1.0)
        assert d.ratio(0.6) == pytest.approx(0.0)

    def test_ratio_without_revenue(self):
        # All mass at 0: no price earns anything, the optimum included.
        assert DiscreteDistribution(np.array([0.0]), np.array([1.0])).ratio(0.3) == 1.0

    def test_validation(self):
        with pytest.raises(RobustPriceError):
            DiscreteDistribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(RobustPriceError):
            DiscreteDistribution(np.array([0.1, 0.5]), np.array([0.7, 0.7]))
        with pytest.raises(RobustPriceError):
            DiscreteDistribution(np.array([0.1, 0.5]), np.array([-0.1, 1.1]))

    def test_optimal_revenue_scans_support(self):
        d = DiscreteDistribution(np.array([0.25, 1.5]), np.array([0.8, 0.2]))
        assert d.optimal_revenue() == pytest.approx(max(0.25 * 1.0, 1.5 * 0.2))


class TestTwoPoint:
    def test_low_price_example(self):
        m = variance_market(0.5, 0.5, math.inf)
        d = two_point(m, 0.25)
        np.testing.assert_allclose(d.supports, [0.25, 1.5])
        np.testing.assert_allclose(d.masses, [0.8, 0.2], atol=1e-12)

    def test_matches_market_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_market(rng)
            t1 = left_threshold(m)
            for frac in (0.25, 0.75, 1.0):
                p = frac * t1
                if p <= 0:
                    continue
                d = two_point(m, p)
                assert d.mean() == pytest.approx(m.mu, abs=1e-9)
                assert d.dispersion(m.measure) == pytest.approx(m.s, rel=1e-8)

    def test_high_price_side(self):
        m = variance_market(0.5, 0.5, 1.2)
        t2 = right_threshold(m)
        d = two_point(m, 1.1)
        assert d.supports[1] == pytest.approx(1.1)
        assert d.supports[0] < m.mu
        assert d.mean() == pytest.approx(m.mu, abs=1e-12)
        d0 = two_point(m, 0.0)
        np.testing.assert_allclose(d0.supports, [0.0, t2])

    def test_degenerate(self):
        d = two_point(variance_market(0.5, 0.0, 1.0), 0.3)
        np.testing.assert_allclose(d.supports, [0.5])

    def test_rejects_out_of_support_price(self):
        m = variance_market(0.5, 0.5, 1.2)
        with pytest.raises(RobustPriceError):
            two_point(m, 1.3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_price(self, bad):
        with pytest.raises(RobustPriceError, match="nonnegative and finite"):
            two_point(variance_market(0.5, 0.3, math.inf), bad)

    def test_rejects_mid_range_price(self):
        # Between the thresholds the companion leaves [0, beta].
        m = variance_market(0.5, 0.3, 1.2)
        with pytest.raises(RobustPriceError):
            two_point(m, 0.45)


class TestThreePoint:
    def test_example_masses(self):
        m = variance_market(0.5, 0.5, 1.2)
        w0, wp, wb = three_point_masses(m, 0.6)
        assert w0 == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert wp == pytest.approx(0.2778, abs=5e-5)
        assert wb == pytest.approx(0.2778, abs=5e-5)
        d = three_point(m, 0.6)
        np.testing.assert_allclose(d.supports, [0.0, 0.6, 1.2])
        assert d.mean() == pytest.approx(0.5, abs=1e-12)
        assert d.dispersion(m.measure) == pytest.approx(0.5, abs=1e-12)

    def test_left_boundary_drops_zero_mass(self):
        m = variance_market(0.5, 0.5, 1.2)
        t1 = left_threshold(m)
        d = three_point(m, t1)
        assert d.supports.size == 2
        np.testing.assert_allclose(d.supports, [t1, 1.2])

    def test_right_boundary_matches_two_point(self):
        m = variance_market(0.5, 0.5, 1.2)
        t2 = right_threshold(m)
        d = three_point(m, t2)
        e = two_point(m, t2)
        np.testing.assert_allclose(d.supports, e.supports, atol=1e-9)
        np.testing.assert_allclose(d.masses, e.masses, atol=1e-9)

    def test_rejects_price_outside_window(self):
        m = variance_market(0.5, 0.3, 1.2)
        with pytest.raises(RobustPriceError):
            three_point(m, 0.05)

    def test_needs_finite_beta(self):
        with pytest.raises(UnboundedSupportError):
            three_point(variance_market(0.5, 0.5, math.inf), 0.6)

    def test_masses_need_finite_beta(self):
        for p in (0.6, np.array([0.6, 0.8])):
            with pytest.raises(UnboundedSupportError):
                three_point_masses(variance_market(0.5, 0.5, math.inf), p)

    def test_moments_over_random_markets(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = random_market(rng)
            t1, t2 = left_threshold(m), right_threshold(m)
            for frac in (0.2, 0.5, 0.8):
                p = t1 + frac * (t2 - t1)
                d = three_point(m, p)
                assert d.mean() == pytest.approx(m.mu, rel=1e-9)
                assert d.dispersion(m.measure) == pytest.approx(m.s, rel=1e-8)


class TestWorstCase:
    def test_mid_regime_example(self):
        m = variance_market(0.5, 0.5, 1.2)
        d = worst_case_distribution(m, 0.6, eps=1e-9)
        assert d.supports.size == 3
        assert d.supports[1] == pytest.approx(0.6 - 1e-9)
        np.testing.assert_allclose(d.masses, [4.0 / 9.0, 0.2778, 0.2778], atol=1e-4)

    def test_above_right_threshold(self):
        m = variance_market(0.5, 0.5, 1.2)
        d = worst_case_distribution(m, 1.1)
        np.testing.assert_allclose(d.supports, [0.0, 1.0])
        np.testing.assert_allclose(d.masses, [0.5, 0.5], atol=1e-12)
        assert d.revenue(1.1) == 0.0

    def test_tail_attains_inf_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = random_market(rng)
            t2 = right_threshold(m)
            p = rng.uniform(0.1, 0.95) * t2
            eps = 1e-9 * m.beta
            d = worst_case_distribution(m, p, eps=eps)
            assert d.mean() == pytest.approx(m.mu, rel=1e-7)
            assert p * d.tail(p) == pytest.approx(
                p * tail_prob_min(m, p - eps), abs=1e-7 * p)

    def test_eps_convergence(self):
        m = variance_market(0.5, 0.5, 1.2)
        p = 0.6
        ratios = [worst_case_distribution(m, p, eps=e).ratio(p)
                  for e in (1e-3, 1e-6, 1e-9)]
        assert abs(ratios[1] - 0.5) < abs(ratios[0] - 0.5) + 1e-12
        assert ratios[2] == pytest.approx(0.5, abs=1e-6)

    def test_degenerate(self):
        # The tail pass gives the point mass up to the mean; above it the {0, t2}
        # member, t2 = mu, is the point mass too.
        for market in (variance_market(0.5, 0.0, 1.0), variance_market(0.5, 0.0, math.inf),
                       power_market(0.5, 0.5 ** 1.5, 1.5, 2.0)):
            for p in (0.3, 0.5, 0.7):
                d = worst_case_distribution(market, p)
                np.testing.assert_array_equal(d.supports, [0.5])
                np.testing.assert_array_equal(d.masses, [1.0])
