import math

import numpy as np
import pytest

from robustprice.ambiguity import (MODE_UPPER, companion_point, left_threshold,
                                   power_market, right_threshold, variance_companion,
                                   variance_market, variance_thresholds)
from robustprice.bounds import REGIME_HIGH, REGIME_LOW, REGIME_MID, tail_bounds
from robustprice.errors import (InfeasibleMarketError, ModeError,
                                RobustPriceError)
from robustprice.extremal import worst_case_distribution
from robustprice.optimizer import _variance_table
from robustprice.ratio import (BRANCH_DEGENERATE, BRANCH_PRICE, BRANCH_TAIL,
                               worst_case_cr, worst_case_cr_dispersion_ub,
                               worst_case_cr_mean_range, worst_case_cr_variance,
                               worst_case_revenue)

from test_evaluator import _market
from test_extremal import random_market

M = variance_market(0.5, 0.5, 1.2)


def _random_variance_inputs(rng):
    """(mu, sigma, beta) at scales 1e-6 to 1e6, a fifth with beta = inf; sigma
    anywhere, near the point-mass rule, near the cap or at it."""
    k = 10.0 ** rng.uniform(-6.0, 6.0)
    mu = rng.uniform(0.3, 1.5)
    beta = math.inf if rng.random() < 0.2 else mu * rng.uniform(1.05, 4.0)
    finite = math.isfinite(beta)
    smax = math.sqrt(mu * (beta - mu)) if finite else 3.0 * mu
    kind = int(rng.integers(4 if finite else 2))
    sigma = (rng.uniform(0.0, 1.0) * smax, mu * 1e-6 * 10.0 ** rng.uniform(-1.0, 1.0),
             smax * (1.0 - 10.0 ** rng.uniform(-16.0, -3.0)), smax)[kind]
    return mu * k, sigma * k, beta * k


def _random_exp_market(rng):
    """A finite-beta market of the custom measure exp(x / mu)."""
    return _market("custom", rng.uniform(0.3, 1.5), rng.uniform(1.3, 3.5),
                   rng.uniform(0.05, 0.95), None, True)


class TestWorstCaseCR:
    def test_mid_regime_tie_example(self):
        b = worst_case_cr(M, 0.6)
        assert b.cr == pytest.approx(0.5, abs=1e-9)
        assert b.tail_ratio == pytest.approx(0.5, abs=1e-9)
        assert b.price_over_y == pytest.approx(0.5, abs=1e-12)
        assert b.regime == REGIME_MID

    def test_price_branch_example(self):
        b = worst_case_cr(M, 0.25)
        assert b.cr == pytest.approx(0.25 / 1.2, abs=1e-9)
        assert b.cr == pytest.approx(0.2083, abs=5e-5)
        assert b.branch == BRANCH_PRICE
        assert b.tail_ratio == pytest.approx(0.4386, abs=5e-5)

    def test_zero_above_right_threshold(self):
        b = worst_case_cr(M, 1.1)
        assert b.cr == 0.0
        assert b.regime == REGIME_HIGH
        assert b.branch == BRANCH_DEGENERATE

    def test_degenerate_market(self):
        m = variance_market(0.5, 0.0, 1.0)
        assert worst_case_cr(m, 0.3).cr == pytest.approx(0.3 / 0.5)
        assert worst_case_cr(m, 0.5).cr == pytest.approx(1.0)
        assert worst_case_cr(m, 0.6).cr == 0.0

    def test_infeasible_market_rejected(self):
        with pytest.raises(InfeasibleMarketError):
            worst_case_cr(variance_market(0.5, 0.8, 1.0), 0.3)

    def test_upper_mode_rejected(self):
        with pytest.raises(ModeError):
            worst_case_cr(variance_market(0.5, 0.5, 1.2, mode=MODE_UPPER), 0.3)

    def test_unbounded_support(self):
        m = variance_market(0.5, 0.5, math.inf)
        assert worst_case_cr(m, 0.6).cr == 0.0
        b = worst_case_cr(m, 0.25)
        assert b.cr == pytest.approx(min(0.25 * 0.25 / (0.25 * 0.25 + 0.25),
                                         0.25 / 1.5), abs=1e-12)

    def test_range_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = random_market(rng)
            p = rng.uniform(0.02, 1.0) * m.beta
            b = worst_case_cr(m, p)
            assert -1e-12 <= b.cr <= 1.0 + 1e-12


class TestVarianceClosedForm:
    def test_matches_general_decomposition(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            m = random_market(rng, power_prob=0.0)
            p = rng.uniform(0.02, 1.0) * m.beta
            a = worst_case_cr(m, p)
            b = worst_case_cr_variance(m.mu, m.sigma, m.beta, p)
            assert b.cr == pytest.approx(a.cr, abs=1e-10)
            assert b.regime == a.regime

    def test_market_path_matches_the_closed_forms(self):
        # The optimizer table values its candidates by the closed forms of the
        # worst-case members, which share no code with the market path
        # (companion, thresholds, tail pass).  They agree to 1e-11 of the
        # objective's scale (1 for the ratio, mu for the revenue); a candidate
        # clipped to t1 near the point mass is worth about 1e-12 there, inside
        # the pass's threshold band.  Within 1e-6 of the dispersion cap both lose
        # digits with the conditioning: on 6,000 draws they differed by 2.1e-10.
        rng = np.random.default_rng(34)
        for _ in range(400):
            mu, sigma, beta = _random_variance_inputs(rng)
            m, s2 = variance_market(mu, sigma, beta), sigma * sigma
            t1, t2 = variance_thresholds(mu, s2, beta)
            top = beta if math.isfinite(beta) else 2.0 * t2
            p = np.concatenate([rng.uniform(0.0, 1.0, 12) * top, [t1, t2, mu, top]])
            p = p[(p > 0) & (p <= top)]
            if m.is_degenerate:   # thresholds and companions are mu there
                continue
            assert (m.left_threshold, m.right_threshold) == (t1, t2)
            q = p[((p <= t1) | (p >= t2)) & (np.abs(p - mu) > 1e-11 * mu)]
            np.testing.assert_array_equal(companion_point(m, q), variance_companion(mu, s2, q))
            near_cap = sigma >= (1.0 - 1e-6) * math.sqrt(mu * (beta - mu))
            for objective, value, scale in (("cr", lambda x: worst_case_cr(m, x).cr, 1.0),
                                            ("rev", lambda x: worst_case_revenue(m, x), mu)):
                _, prices, values, present = _variance_table(mu, sigma, beta, objective)
                np.testing.assert_allclose(value(prices[present]), values[present], rtol=0.0,
                                           atol=(4e-10 if near_cap else 1e-11) * scale)

    def test_low_regime_formula(self):
        # min{(mu-p)^2/((mu-p)^2+sigma^2), p(mu-p)/(mu(mu-p)+sigma^2)}
        b = worst_case_cr_variance(0.5, 0.5, 1.2, 0.1)
        d = 0.4
        assert b.tail_ratio == pytest.approx(d * d / (d * d + 0.25), abs=1e-12)
        assert b.price_over_y == pytest.approx(0.1 * d / (0.5 * d + 0.25), abs=1e-12)

    def test_mid_regime_formula(self):
        b = worst_case_cr_variance(0.5, 0.5, 1.2, 0.6)
        num = 0.6 * (0.25 + 0.25 - 0.3)
        den = 0.6 * (0.5 * (1.2 + 0.6 - 0.5) - 0.25)
        assert b.tail_ratio == pytest.approx(num / den, abs=1e-12)
        assert b.cr == pytest.approx(0.5, abs=1e-12)

    def test_sigma_zero(self):
        assert worst_case_cr_variance(0.5, 0.0, 1.0, 0.25).cr == pytest.approx(0.5)
        assert worst_case_cr_variance(0.5, 0.0, 1.0, 0.75).cr == 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleMarketError):
            worst_case_cr_variance(0.5, 0.8, 1.0, 0.3)

    @pytest.mark.parametrize("mu,sigma,beta,field", [
        (0.5, math.nan, 1.0, "sigma"), (0.5, 0.3, math.nan, "beta"),
        (-0.5, 0.3, 1.0, "mean"), (0.0, 0.3, 1.0, "mean"),
        (0.5, -0.1, 1.0, "sigma must be nonnegative")])
    def test_rejects_bad_inputs(self, mu, sigma, beta, field):
        with pytest.raises(RobustPriceError, match=field):
            worst_case_cr_variance(mu, sigma, beta, 0.3)

    def test_rejects_an_array_sigma(self):
        # sigma is a float, as in variance_market; prices may be an array.
        with pytest.raises(TypeError):
            worst_case_cr_variance(0.5, np.array([0.1, 0.3]), 1.0, np.array([0.3, 0.4]))

    def test_feasibility_decided_by_the_largest_sigma(self):
        # sigma^2 at the cap plus 3e-13: check_feasible accepts the market.
        sigma = math.sqrt(0.25 + 3e-13)
        b = worst_case_cr_variance(0.5, sigma, 1.0, 0.9)
        assert b.cr == worst_case_cr(variance_market(0.5, sigma, 1.0), 0.9).cr
        with pytest.raises(InfeasibleMarketError):
            worst_case_cr_variance(0.5, 0.6, 1.0, 0.9)

    def test_finite_where_both_thresholds_are_in_the_bands_at_the_mean(self):
        # 1e-6 mu < sigma < 1e-6 sqrt(mu beta): not the point mass.
        m = variance_market(0.5, 6.5e-7, 2.0)
        assert not m.is_degenerate
        assert math.isfinite(tail_bounds(m, 0.5).sup_tail)
        assert math.isfinite(worst_case_cr(m, 0.5).cr)

    def test_maximal_dispersion_market(self):
        # sigma^2 = mu(beta - mu): singleton market {0, beta}.
        b = worst_case_cr_variance(0.5, 0.5, 1.0, 1.0)
        assert b.cr == pytest.approx(1.0, abs=1e-9)

    def test_continuity_across_thresholds(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = random_market(rng, power_prob=0.0)
            for t in (left_threshold(m), right_threshold(m)):
                if not 0 < t <= m.beta:
                    continue
                lo = worst_case_cr_variance(m.mu, m.sigma, m.beta, t * (1 - 1e-9)).cr
                hi = worst_case_cr_variance(m.mu, m.sigma, m.beta,
                                            min(t * (1 + 1e-9), m.beta)).cr
                at = worst_case_cr_variance(m.mu, m.sigma, m.beta, t).cr
                if t == right_threshold(m):
                    continue  # cr jumps to 0 above tau2 by definition
                assert lo == pytest.approx(at, abs=1e-6)
                assert hi == pytest.approx(at, abs=1e-6)


class TestPowerClosedForm:
    def test_q2_matches_variance(self):
        for sigma in (0.1, 0.3, 0.5):
            for p in (0.1, 0.3, 0.6, 0.9):
                a = worst_case_cr_variance(0.5, sigma, 1.2, p)
                b = worst_case_cr(power_market(0.5, 0.25 + sigma * sigma, 2.0, 1.2), p)
                assert b.cr == pytest.approx(a.cr, abs=1e-12)

    def test_mid_regime_formula(self):
        mu, s, q, beta, p = 0.5, 0.45, 1.5, 1.0, 0.6
        b = worst_case_cr(power_market(mu, s, q, beta), p)
        num = p * s - mu * p ** q
        den = mu * (beta ** q - p ** q) - s * (beta - p)
        assert b.tail_ratio == pytest.approx(num / den, abs=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(RobustPriceError):
            worst_case_cr(power_market(0.5, 0.5, 1.0, 1.2), 0.3)


class TestMeanRange:
    def test_low_price(self):
        assert worst_case_cr_mean_range(0.5, 1.0, 0.25) == pytest.approx(0.25)

    def test_at_mean(self):
        assert worst_case_cr_mean_range(0.5, 1.0, 0.5) == 0.0

    def test_branch_crossing(self):
        p_star = 1.0 - math.sqrt(0.5)
        lhs = (0.5 - p_star) / (1.0 - p_star)
        assert lhs == pytest.approx(p_star, abs=1e-12)
        assert worst_case_cr_mean_range(0.5, 1.0, p_star) == pytest.approx(p_star, abs=1e-12)
        # p_star maximizes the mean-range worst case.
        grid = np.linspace(1e-4, 0.5, 4001)
        vals = [worst_case_cr_mean_range(0.5, 1.0, p) for p in grid]
        assert max(vals) <= p_star + 1e-7


class TestDispersionUpperBound:
    MU = variance_market(0.5, 0.5, 1.2, mode=MODE_UPPER)

    def test_low_branch(self):
        assert worst_case_cr_dispersion_ub(self.MU, 0.1) == pytest.approx(
            0.1 / 1.125, abs=1e-12)
        assert worst_case_cr_dispersion_ub(self.MU, 0.1) == pytest.approx(0.0889, abs=5e-5)

    def test_mid_branch(self):
        assert worst_case_cr_dispersion_ub(self.MU, 0.3) == pytest.approx(
            0.2 / 0.9, abs=1e-12)
        assert worst_case_cr_dispersion_ub(self.MU, 0.3) == pytest.approx(0.2222, abs=5e-5)

    def test_at_mean(self):
        assert worst_case_cr_dispersion_ub(self.MU, 0.5) == 0.0

    def test_array_equals_scalar_calls(self):
        # Prices on both sides of t1 = 1/7 and of the mean, in both orders.
        t1 = left_threshold(self.MU)
        prices = [0.1, t1, 0.3, 0.5, 0.8, 1.2, 0.05]
        for ps in (prices, prices[::-1]):
            got = worst_case_cr_dispersion_ub(self.MU, np.array(ps))
            assert got.tolist() == [worst_case_cr_dispersion_ub(self.MU, p) for p in ps]

    def test_mode_guard(self):
        with pytest.raises(ModeError):
            worst_case_cr_dispersion_ub(M, 0.3)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            m = random_market(rng, power_prob=0.0)
            mu_mode = variance_market(m.mu, m.sigma, m.beta, mode=MODE_UPPER)
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                p = frac * m.beta
                assert (worst_case_cr_dispersion_ub(mu_mode, p)
                        <= worst_case_cr(m, p).cr + 1e-9)


class TestWorstCaseRevenue:
    def test_mid_regime_example(self):
        assert worst_case_revenue(M, 0.25) == pytest.approx(0.25 * 0.09375 / 0.285,
                                                            abs=1e-12)
        assert worst_case_revenue(M, 0.25) == pytest.approx(0.0822, abs=5e-5)

    def test_low_regime_example(self):
        assert worst_case_revenue(M, 0.1) == pytest.approx(0.1 * 0.4 / 1.025, abs=1e-12)

    def test_zero_above_right_threshold(self):
        assert worst_case_revenue(M, 1.1) == 0.0

    def test_degenerate(self):
        m = variance_market(0.5, 0.0, 1.0)
        assert worst_case_revenue(m, 0.5) == pytest.approx(0.5)
        assert worst_case_revenue(m, 0.6) == 0.0

    def test_unbounded_support(self):
        m = variance_market(0.5, 0.5, math.inf)
        assert worst_case_revenue(m, 0.25) == pytest.approx(
            0.25 * 0.25 * 0.25 / (0.25 * 0.25 + 0.25), abs=1e-12)
        assert worst_case_revenue(m, 0.6) == 0.0


class TestWitnessConsistency:
    def test_worst_case_distribution_attains_cr(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            m = random_market(rng)
            t2 = right_threshold(m)
            p = rng.uniform(0.05, 0.98) * min(t2, m.beta)
            b = worst_case_cr(m, p)
            d = worst_case_distribution(m, p, eps=1e-9 * m.beta)
            assert d.ratio(p) == pytest.approx(b.cr, abs=1e-6)

    def test_worst_case_distribution_attains_revenue(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = random_market(rng)
            t2 = right_threshold(m)
            p = rng.uniform(0.05, 0.98) * min(t2, m.beta)
            rev = worst_case_revenue(m, p)
            d = worst_case_distribution(m, p, eps=1e-9 * m.beta)
            assert p * d.tail(p) == pytest.approx(rev, abs=1e-6 * m.mu)

    # The worst-case market for the ratio is also the worst case for
    # revenue: the same member attains both, also for a custom measure.
    def test_worst_case_distribution_attains_cr_custom_measure(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            m = _random_exp_market(rng)
            p = rng.uniform(0.05, 0.98) * min(right_threshold(m), m.beta)
            d = worst_case_distribution(m, p, eps=1e-9 * m.beta)
            assert d.ratio(p) == pytest.approx(worst_case_cr(m, p).cr, abs=1e-6)

    def test_worst_case_distribution_attains_revenue_custom_measure(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            m = _random_exp_market(rng)
            p = rng.uniform(0.05, 0.98) * min(right_threshold(m), m.beta)
            d = worst_case_distribution(m, p, eps=1e-9 * m.beta)
            assert p * d.tail(p) == pytest.approx(worst_case_revenue(m, p), abs=1e-6 * m.mu)

    def test_beta_collapse_to_unbounded(self):
        # Far maximum valuation: low-regime values approach the beta-free ones.
        for p in (0.1, 0.2, 0.3):
            far = worst_case_cr_variance(0.5, 0.3, 50.0, p).cr
            unb = worst_case_cr_variance(0.5, 0.3, math.inf, p).cr
            assert far == pytest.approx(unb, abs=1e-9)
