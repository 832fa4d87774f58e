import math

import numpy as np
import pytest

from robustprice.ambiguity import (MarketInfo, check_feasible, companion_point,
                                   left_threshold, power_market,
                                   right_threshold, scale_to_unit_mean,
                                   shift_unit_cost, support_thresholds,
                                   variance_market)
from robustprice.dispersion import custom_measure, power_moment
from robustprice.errors import InfeasibleMarketError, RobustPriceError


class TestConstruction:
    def test_sigma_roundtrip(self):
        m = variance_market(0.5, 0.3, 1.0)
        assert m.s == pytest.approx(0.34)
        assert m.sigma == pytest.approx(0.3)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(RobustPriceError):
            variance_market(0.0, 0.1, 1.0)

    def test_rejects_beta_below_mean(self):
        with pytest.raises(RobustPriceError):
            variance_market(0.5, 0.1, 0.4)

    def test_rejects_s_below_point_mass(self):
        with pytest.raises(InfeasibleMarketError):
            power_market(mu=0.5, s=0.2, q=2.0, beta=1.0)

    def test_degenerate_flag(self):
        assert variance_market(0.5, 0.0, 1.0).is_degenerate
        assert not variance_market(0.5, 0.1, 1.0).is_degenerate

    def test_sigma_requires_variance_measure(self):
        with pytest.raises(RobustPriceError):
            power_market(0.5, 0.45, 1.5, 1.0).sigma

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_nonfinite_mean(self, mu):
        with pytest.raises(RobustPriceError, match="mu"):
            MarketInfo(mu, 1.0, math.inf, power_moment(2.0))

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_rejects_nonfinite_dispersion(self, s):
        # Unchecked, a NaN statistic yields a plausible worst-case ratio 0.0.
        with pytest.raises(RobustPriceError, match="s must be finite"):
            MarketInfo(0.5, s, 1.0, power_moment(2.0))

    def test_rejects_nan_beta(self):
        with pytest.raises(RobustPriceError, match="beta"):
            MarketInfo(0.5, 0.3, math.nan, power_moment(2.0))

    def test_infinite_beta_stays_legal(self):
        assert MarketInfo(0.5, 0.3, math.inf, power_moment(2.0)).beta == math.inf

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_nonfinite_sigma(self, sigma):
        with pytest.raises(RobustPriceError, match="sigma"):
            variance_market(0.5, sigma, 1.0)


class TestRightThreshold:
    def test_variance_closed_form(self):
        # mu + sigma^2 / mu = 0.5 + 0.25 / 0.5
        assert right_threshold(variance_market(0.5, 0.5, 1.2)) == pytest.approx(1.0)

    def test_degenerate(self):
        assert right_threshold(variance_market(0.5, 0.0, 1.0)) == pytest.approx(0.5)

    def test_power_closed_form(self):
        # (0.45 / 0.5)^(1 / 0.5) = 0.81
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        assert right_threshold(m) == pytest.approx(0.81, abs=1e-12)

    def test_custom_root_matches_power(self):
        q = 1.5
        custom = MarketInfo(
            mu=0.5, s=0.45, beta=1.0,
            measure=custom_measure(lambda x: np.power(x, q),
                                   lambda x: q * np.power(np.maximum(x, 1e-300), q - 1)))
        assert right_threshold(custom) == pytest.approx(0.81, abs=1e-10)


class TestLeftThreshold:
    def test_variance_closed_form(self):
        # mu - sigma^2 / (beta - mu) = 0.5 - 0.25 / 0.7
        m = variance_market(0.5, 0.5, 1.2)
        assert left_threshold(m) == pytest.approx(0.5 - 0.25 / 0.7, abs=1e-12)
        assert left_threshold(m) == pytest.approx(0.142857142857, abs=1e-9)

    def test_degenerate(self):
        assert left_threshold(variance_market(0.5, 0.0, 1.0)) == pytest.approx(0.5)

    def test_maximal_dispersion_hits_zero(self):
        # sigma^2 = mu (beta - mu): only member is {0, beta}.
        m = variance_market(0.5, 0.5, 1.0)
        assert left_threshold(m) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_beta_limit(self):
        assert left_threshold(variance_market(0.5, 0.3, math.inf)) == pytest.approx(0.5)

    def test_power_root_between_zero_and_mean(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        t1 = left_threshold(m)
        assert 0.0 < t1 < 0.5
        # The {t1, beta} two-point must carry the dispersion exactly.
        w_b = (m.mu - t1) / (m.beta - t1)
        disp = (1 - w_b) * m.measure.value(t1) + w_b * m.measure.value(m.beta)
        assert disp == pytest.approx(m.s, abs=1e-12)

    def test_ordering(self):
        m = variance_market(0.5, 0.3, 1.2)
        th = support_thresholds(m)
        assert th.left < m.mu < th.right


class TestFeasibility:
    def test_feasible_example(self):
        assert check_feasible(variance_market(0.5, 0.5, 1.2)).feasible

    def test_boundary_feasible(self):
        assert check_feasible(variance_market(0.5, 0.5, 1.0)).feasible

    def test_infeasible_example(self):
        rep = check_feasible(variance_market(0.5, 0.8, 1.0))
        assert not rep.feasible
        assert rep.right_threshold == pytest.approx(0.5 + 0.64 / 0.5)

    def test_variance_feasibility_criterion(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mu = rng.uniform(0.2, 2.0)
            beta = mu * rng.uniform(1.1, 4.0)
            sigma = rng.uniform(0.0, 1.5) * math.sqrt(mu * (beta - mu))
            feas = check_feasible(variance_market(mu, sigma, beta)).feasible
            assert feas == (sigma * sigma <= mu * (beta - mu) * (1 + 1e-9))

    def test_infinite_beta_always_feasible(self):
        assert check_feasible(variance_market(0.5, 5.0, math.inf)).feasible


class TestCompanionPoint:
    def test_low_price_example(self):
        m = variance_market(0.5, 0.5, 1.2)
        assert companion_point(m, 0.25) == pytest.approx(1.5, abs=1e-12)

    def test_second_low_price_example(self):
        m = variance_market(0.5, 0.5, 1.2)
        assert companion_point(m, 0.1) == pytest.approx(1.125, abs=1e-12)

    def test_two_point_reconstruction(self):
        m = variance_market(0.5, 0.5, 1.2)
        p, a = 0.1, companion_point(m, 0.1)
        w_a = (m.mu - p) / (a - p)
        assert p * (1 - w_a) + a * w_a == pytest.approx(m.mu, abs=1e-12)
        assert p * p * (1 - w_a) + a * a * w_a == pytest.approx(m.s, abs=1e-12)

    def test_singular_at_mean(self):
        with pytest.raises(RobustPriceError):
            companion_point(variance_market(0.5, 0.5, 1.2), 0.5)

    def test_no_companion_between_mean_and_right_threshold(self):
        m = variance_market(0.5, 0.5, 1.2)
        with pytest.raises(RobustPriceError):
            companion_point(m, 0.75)

    def test_companion_at_right_threshold_is_zero(self):
        m = variance_market(0.5, 0.5, 1.2)
        assert companion_point(m, right_threshold(m)) == pytest.approx(0.0, abs=1e-9)

    def test_companion_at_left_threshold_is_beta(self):
        for m in (variance_market(0.5, 0.3, 1.2),
                  power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)):
            t1 = left_threshold(m)
            assert companion_point(m, t1) == pytest.approx(m.beta, abs=1e-8)

    def test_increasing_on_low_range(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        t1 = left_threshold(m)
        ps = np.linspace(1e-4, t1, 500)
        vals = np.array([companion_point(m, p) for p in ps])
        assert np.all(np.diff(vals) > -1e-12)

    def test_power_companion_solves_defining_equation(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        for p in (0.05, 0.15, 0.25):
            a = companion_point(m, p)
            lhs = (m.measure.value(a) * (m.mu - p)
                   + m.measure.value(p) * (a - m.mu)) / (a - p)
            assert lhs == pytest.approx(m.s, abs=1e-12)


class TestTransforms:
    def test_shift_unit_cost(self):
        sp = shift_unit_cost(variance_market(0.5, 0.3, 1.0), 0.2)
        assert sp.mu_shift == pytest.approx(0.3)
        assert sp.beta_shift == pytest.approx(0.8)
        assert sp.lower_shift == pytest.approx(-0.2)

    def test_shift_rejects_cost_at_mean(self):
        with pytest.raises(RobustPriceError):
            shift_unit_cost(variance_market(0.5, 0.3, 1.0), 0.5)

    def test_scale_to_unit_mean_variance(self):
        scaled, scale = scale_to_unit_mean(variance_market(0.5, 0.3, 1.0))
        assert scale == pytest.approx(0.5)
        assert scaled.mu == pytest.approx(1.0)
        assert scaled.beta == pytest.approx(2.0)
        assert scaled.sigma == pytest.approx(0.6)

    def test_scale_to_unit_mean_power(self):
        scaled, scale = scale_to_unit_mean(power_market(mu=2.0, s=8.0, q=1.5, beta=4.0))
        assert scale == pytest.approx(2.0)
        assert scaled.s == pytest.approx(8.0 / 2.0 ** 1.5, abs=1e-12)
        assert scaled.beta == pytest.approx(2.0)

    def test_scale_identity_at_unit_mean(self):
        m = variance_market(1.0, 0.5, 2.0)
        scaled, scale = scale_to_unit_mean(m)
        assert scale == 1.0 and scaled is m

    def test_scale_preserves_thresholds(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        scaled, scale = scale_to_unit_mean(m)
        assert scale * right_threshold(scaled) == pytest.approx(right_threshold(m), abs=1e-10)
        assert scale * left_threshold(scaled) == pytest.approx(left_threshold(m), abs=1e-10)

    def test_scale_rejects_custom_measure(self):
        m = MarketInfo(mu=0.5, s=0.34, beta=1.0,
                       measure=custom_measure(lambda x: np.square(x), lambda x: 2 * x))
        with pytest.raises(RobustPriceError):
            scale_to_unit_mean(m)
