import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from robustprice import ambiguity, bounds, optimizer, ratio
from robustprice.ambiguity import (MODE_EXACT, MODE_UPPER, MarketInfo, _solve_right_threshold,
                                   check_feasible, companion_point,
                                   left_threshold, power_market,
                                   right_threshold, variance_market,
                                   variance_thresholds)
from robustprice.bounds import tail_bounds, variance_tails
from robustprice.dispersion import custom_measure
from robustprice.errors import (InfeasibleMarketError, InternalConsistencyError,
                                RobustPriceError)
from robustprice.optimizer import (_ROOT_SCAN, _THRESHOLD_SCAN, _scan_root, _variance_table,
                                   compare_prices, delta_star,
                                   optimal_price_general, optimal_price_power,
                                   optimal_price_revenue_variance,
                                   optimal_price_variance, sigma_star)
from robustprice.ratio import (worst_case_cr, worst_case_cr_dispersion_ub,
                               worst_case_cr_variance, worst_case_revenue)

from test_evaluator import _exp_measure

# Reference sweep (mu = 0.5, beta = 1): sigma -> (price, value).
TABLE1 = {
    0.00: (0.5000, 1.0000), 0.05: (0.4076, 0.7734), 0.10: (0.3672, 0.6382),
    0.15: (0.3404, 0.5310), 0.20: (0.3213, 0.4439), 0.25: (0.3073, 0.3728),
    0.30: (0.2967, 0.3147), 0.35: (0.3725, 0.3524), 0.40: (0.4763, 0.4763),
    0.45: (0.6406, 0.6406), 0.50: (1.0000, 1.0000),
}

# Same sweep without the maximum-valuation cap: sigma -> (price, value).
TABLE1_UNBOUNDED = {
    0.00: (0.5000, 1.0000), 0.05: (0.4076, 0.7734), 0.10: (0.3672, 0.6382),
    0.15: (0.3404, 0.5310), 0.20: (0.3213, 0.4439), 0.25: (0.3073, 0.3728),
    0.30: (0.2967, 0.3147), 0.35: (0.2886, 0.2886), 0.40: (0.2823, 0.2823),
    0.45: (0.2773, 0.2773), 0.50: (0.2733, 0.2733),
}

# Reference grid (sigma = 0.5): (mu, beta) -> (label, price, value).
TABLE2 = {
    (0.5, 1.0): ("p_h1", 1.0000, 1.0000),
    (0.5, 1.1): ("p_h1", 0.7146, 0.6496),
    (0.5, 1.2): ("p_h1", 0.6000, 0.5000),
    (0.5, 1.3): ("p_h1", 0.5077, 0.3906),
    (0.5, 1.4): ("p_h2", 0.5000, 0.3086),
    (0.5, 1.5): ("p_h2", 0.5000, 0.2500),
    (0.5, 1.6): ("p_h2", 0.5000, 0.2066),
    (0.5, 1.8): ("p_l", 0.2733, 0.1705),
    (0.5, 2.0): ("p_l", 0.2733, 0.1705),
    (0.5, math.inf): ("p_l", 0.2733, 0.1705),
    (1.0, 1.3): ("p_h1", 1.0188, 0.7837),
    (1.0, 1.4): ("p_h1", 0.8606, 0.6147),
    (1.0, 1.5): ("p_h1", 0.7500, 0.5000),
    (1.0, 1.6): ("p_h1", 0.6565, 0.4103),
    (1.0, 1.8): ("p_l", 0.6145, 0.3728),
    (1.0, 2.0): ("p_l", 0.6145, 0.3728),
    (1.0, math.inf): ("p_l", 0.6145, 0.3728),
}

TOL = 5e-4


class TestVarianceSweep:
    def test_table1(self):
        for sigma, (p_ref, v_ref) in TABLE1.items():
            sol = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
            assert sol.price == pytest.approx(p_ref, abs=TOL), f"sigma={sigma}"
            assert sol.value == pytest.approx(v_ref, abs=TOL), f"sigma={sigma}"

    def test_table1_unbounded(self):
        # The reference value column reports the ratio the cap-free price
        # earns inside the capped (beta = 1) market: the cost of ignoring
        # the cap when it actually binds.
        for sigma, (p_ref, v_ref) in TABLE1_UNBOUNDED.items():
            sol = optimal_price_variance(0.5, sigma, math.inf, with_threshold=False)
            assert sol.price == pytest.approx(p_ref, abs=TOL), f"sigma={sigma}"
            assert sol.label == "p_l"
            capped = worst_case_cr_variance(0.5, sigma, 1.0, sol.price).cr
            assert capped == pytest.approx(v_ref, abs=TOL), f"sigma={sigma}"

    def test_table2(self):
        for (mu, beta), (label, p_ref, v_ref) in TABLE2.items():
            sol = optimal_price_variance(mu, 0.5, beta, with_threshold=False)
            assert sol.label == label, f"mu={mu}, beta={beta}"
            assert sol.price == pytest.approx(p_ref, abs=TOL), f"mu={mu}, beta={beta}"
            assert sol.value == pytest.approx(v_ref, abs=TOL), f"mu={mu}, beta={beta}"

    def test_value_matches_ratio_module(self):
        for sigma in (0.05, 0.2, 0.35, 0.45):
            sol = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
            assert sol.value == pytest.approx(
                worst_case_cr_variance(0.5, sigma, 1.0, sol.price).cr, abs=1e-10)

    def test_candidate_dominance(self):
        for sigma in (0.1, 0.3, 0.32, 0.4):
            sol = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
            for _, _, v in sol.candidates:
                assert sol.value >= v - 1e-12

    def test_infeasible_sigma(self):
        with pytest.raises(InfeasibleMarketError):
            optimal_price_variance(0.5, 0.8, 1.0)

    def test_nan_sigma_names_the_field(self):
        # Unchecked, NaN reaches the candidate search, whose error
        # ("no admissible price candidates") hides the cause.
        with pytest.raises(RobustPriceError, match="sigma must be finite"):
            optimal_price_variance(0.5, math.nan, 1.0)

    def test_degenerate(self):
        sol = optimal_price_variance(0.5, 0.0, 1.0)
        assert sol.price == pytest.approx(0.5)
        assert sol.value == pytest.approx(1.0)

    def test_compat_printed_formula_differs(self):
        # The printed low-price radical does not reproduce the reference
        # sweep; the adopted squared form does.
        adopted = optimal_price_variance(0.5, 0.5, math.inf, with_threshold=False)
        printed = optimal_price_variance(0.5, 0.5, math.inf, with_threshold=False,
                                         compat_printed_pl=True)
        assert adopted.price == pytest.approx(0.2733, abs=TOL)
        assert printed.price == pytest.approx(0.3077, abs=TOL)
        assert abs(printed.price - 0.2733) > 0.03

    def test_adopted_low_price_maximizes_low_branch(self):
        # The low-branch ratio is the min of a decreasing and an increasing
        # curve, so its maximum sits at their crossing; the adopted closed
        # form must hit that crossing and dominate a fine grid.
        for mu, sigma in ((0.5, 0.2), (1.0, 0.4), (0.7, 0.15)):
            # With beta = inf the low price is the only candidate, unclipped.
            p = optimal_price_variance(mu, sigma, math.inf, with_threshold=False).price
            b = worst_case_cr_variance(mu, sigma, math.inf, p)
            assert b.tail_ratio == pytest.approx(b.price_over_y, abs=1e-10)
            grid = np.linspace(1e-6, mu * (1 - 1e-6), 20_000)
            vals = worst_case_cr_variance(mu, sigma, math.inf, grid).cr
            assert max(vals) <= b.cr + 1e-8
            assert [worst_case_cr_variance(mu, sigma, math.inf, g).cr
                    for g in grid[::997].tolist()] == vals[::997].tolist()

    def test_scaling_property(self):
        for mu, sigma, beta in ((0.5, 0.2, 1.0), (2.0, 0.7, 5.0), (0.8, 0.35, 1.3)):
            a = optimal_price_variance(mu, sigma, beta, with_threshold=False)
            b = optimal_price_variance(1.0, sigma / mu, beta / mu, with_threshold=False)
            assert a.price == pytest.approx(mu * b.price, abs=1e-9)
            assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_argmax_certification(self):
        for mu, sigma, beta in ((0.5, 0.2, 1.0), (0.5, 0.4, 1.0), (1.0, 0.5, 1.5)):
            sol = optimal_price_variance(mu, sigma, beta, with_threshold=False)
            t2 = mu + sigma * sigma / mu
            grid = np.linspace(1e-6, min(t2, beta), 10_000)
            vals = worst_case_cr_variance(mu, sigma, beta, grid).cr
            assert max(vals) <= sol.value + 1e-6
            assert [worst_case_cr_variance(mu, sigma, beta, p).cr
                    for p in grid[::499].tolist()] == vals[::499].tolist()


class TestSigmaStar:
    def test_reference_value(self):
        assert sigma_star(0.5, 1.0) == pytest.approx(0.3194, abs=1e-3)

    def test_crossing_residual(self):
        ss = sigma_star(0.5, 1.2)
        assert 0 < ss < math.sqrt(0.35)
        cands = optimal_price_variance(0.5, ss, 1.2, with_threshold=False).candidates
        low = max(v for l, _, v in cands if l == "p_l")
        high = max(v for l, _, v in cands if l != "p_l")
        assert low == pytest.approx(high, abs=1e-10)

    def test_regime_switch_around_threshold(self):
        ss = sigma_star(0.5, 1.0)
        below = optimal_price_variance(0.5, ss - 1e-4, 1.0, with_threshold=False)
        above = optimal_price_variance(0.5, ss + 1e-4, 1.0, with_threshold=False)
        assert below.regime == "low" and above.regime == "high"
        # Value is continuous across the switch while the price jumps.
        assert below.value == pytest.approx(above.value, abs=1e-3)
        assert abs(above.price - below.price) > 0.05

    def test_tie_prefers_low_price(self):
        ss = sigma_star(0.5, 1.0)
        at = optimal_price_variance(0.5, ss, 1.0, with_threshold=False)
        assert at.regime == "low"

    def test_unbounded_beta(self):
        assert sigma_star(0.5, math.inf) == math.inf

    @pytest.mark.parametrize("threshold", [sigma_star, delta_star])
    @pytest.mark.parametrize("mu,beta,message", [
        (0.5, 0.4, "maximum valuation must exceed the mean"),
        (-1.0, 2.0, "mean must be positive"),
        (0.5, math.nan, "beta must be a number or inf"),
        (math.nan, 1.0, "mu must be finite"),
    ])
    def test_rejects_bad_market_with_market_messages(self, threshold, mu, beta, message):
        # Unchecked, these raised a bare math domain error, returned inf or
        # failed in the root search.
        with pytest.raises(RobustPriceError, match=message):
            threshold(mu, beta)

    def test_branch_value_monotonicity(self):
        # Low-branch value falls and high-branch value rises in sigma.
        sigmas = np.linspace(0.05, 0.49, 30)
        lows, highs = [], []
        for sg in sigmas:
            cands = optimal_price_variance(0.5, sg, 1.0,
                                           with_threshold=False).candidates
            lows.append(max(v for l, _, v in cands if l == "p_l"))
            highs.append(max(v for l, _, v in cands if l != "p_l"))
        assert np.all(np.diff(lows) <= 1e-10)
        assert np.all(np.diff(highs) >= -1e-10)


class TestRevenuePrices:
    def test_low_example(self):
        sol = optimal_price_revenue_variance(0.5, 0.1, 1.0, with_threshold=False)
        assert sol.label == "pi_l"
        assert sol.price == pytest.approx(0.3301, abs=TOL)

    def test_low_example_grid_cross_check(self):
        grid = np.linspace(1e-5, 1.0, 100_000)
        m = variance_market(0.5, 0.1, 1.0)
        vals = np.array([worst_case_revenue(m, p) for p in grid])
        sol = optimal_price_revenue_variance(0.5, 0.1, 1.0, with_threshold=False)
        assert grid[int(np.argmax(vals))] == pytest.approx(sol.price, abs=2e-5)
        assert vals.max() <= sol.value + 1e-9

    def test_high_example_maximal_dispersion(self):
        sol = optimal_price_revenue_variance(0.5, 0.5, 1.0, with_threshold=False)
        assert sol.label == "pi_h"
        assert sol.price == pytest.approx(1.0, abs=1e-9)

    def test_degenerate(self):
        sol = optimal_price_revenue_variance(0.5, 0.0, 1.0)
        assert sol.price == pytest.approx(0.5)
        assert sol.value == pytest.approx(0.5)

    def test_closed_forms(self):
        y = 0.5 / 0.1
        r = math.sqrt(1 + y * y)
        p = 0.5 - 0.1 * (np.cbrt(y + r) + np.cbrt(y - r))
        low = optimal_price_revenue_variance(0.5, 0.1, math.inf, with_threshold=False)
        assert low.price == pytest.approx(p, abs=1e-12)
        # pi_h = 0.69 lies inside [t1, t2] = [0.095, 0.905], so it is not clipped.
        sol = optimal_price_revenue_variance(0.5, 0.45, 1.0, with_threshold=False)
        assert {label: p for label, p, _ in sol.candidates}["pi_h"] == pytest.approx(
            1.0 - math.sqrt(1.0 * (1.0 - 0.5 - 0.2025 / 0.5)), abs=1e-12)

    def test_delta_star(self):
        ds = delta_star(0.5, 1.0)
        assert ds == pytest.approx(0.31015, abs=1e-3)
        assert delta_star(0.5, math.inf) == math.inf


class TestPowerOptimizer:
    def test_q2_matches_variance(self):
        for sigma in TABLE1:
            if sigma == 0.0:
                continue
            a = optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
            b = optimal_price_power(0.5, 0.25 + sigma * sigma, 2.0, 1.0)
            assert b.price == pytest.approx(a.price, abs=1e-8), f"sigma={sigma}"
            assert b.value == pytest.approx(a.value, abs=1e-8), f"sigma={sigma}"

    def test_hat_ph_candidate(self):
        sol = optimal_price_power(0.5, 0.45, 1.5, 1.0)
        cands = {label: p for label, p, _ in sol.candidates}
        assert cands["hat_p_h"] == pytest.approx(0.36, abs=1e-9)

    def test_degenerate(self):
        s = 0.5 ** 1.5
        sol = optimal_price_power(0.5, s, 1.5, 1.0)
        assert sol.price == pytest.approx(0.5)
        assert sol.value == pytest.approx(1.0)

    def test_argmax_certification(self):
        for (mu, s, q, beta) in ((0.5, 0.45, 1.5, 1.0), (0.5, 0.40, 1.5, 1.0),
                                 (1.0, 1.15, 1.3, 2.0)):
            sol = optimal_price_power(mu, s, q, beta)
            t2 = (s / mu) ** (1.0 / (q - 1.0))
            grid = np.linspace(1e-6, min(t2, beta), 10_000)
            m = power_market(mu=mu, s=s, q=q, beta=beta)
            vals = worst_case_cr(m, grid).cr
            assert max(vals) <= sol.value + 1e-6
            assert [worst_case_cr(m, p).cr for p in grid[::499].tolist()] == vals[::499].tolist()

    def test_left_threshold_never_optimal(self):
        for (mu, s, q, beta) in ((0.5, 0.45, 1.5, 1.0), (0.5, 0.32, 2.2, 1.1)):
            sol = optimal_price_power(mu, s, q, beta)
            t1 = left_threshold(power_market(mu=mu, s=s, q=q, beta=beta))
            assert abs(sol.price - t1) > 1e-9


class TestGeneralOptimizer:
    def test_matches_variance_closed_form(self):
        m = variance_market(0.5, 0.3, 1.0)
        sol = optimal_price_general(m)
        ref = optimal_price_variance(0.5, 0.3, 1.0, with_threshold=False)
        assert sol.price == pytest.approx(ref.price, abs=1e-6)
        assert sol.value == pytest.approx(ref.value, abs=1e-6)

    def test_matches_power_closed_form(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        sol = optimal_price_general(m)
        ref = optimal_price_power(0.5, 0.45, 1.5, 1.0)
        assert sol.price == pytest.approx(ref.price, abs=1e-6)
        assert sol.value == pytest.approx(ref.value, abs=1e-6)

    def test_degenerate(self):
        sol = optimal_price_general(variance_market(0.5, 0.0, 1.0))
        assert sol.price == pytest.approx(0.5)
        assert sol.value == pytest.approx(1.0)

    def test_revenue_objective(self):
        m = variance_market(0.5, 0.1, 1.0)
        sol = optimal_price_general(m, objective="rev")
        ref = optimal_price_revenue_variance(0.5, 0.1, 1.0, with_threshold=False)
        assert sol.price == pytest.approx(ref.price, abs=1e-6)
        assert sol.value == pytest.approx(ref.value, abs=1e-6)

    def test_bad_objective(self):
        with pytest.raises(RobustPriceError):
            optimal_price_general(variance_market(0.5, 0.1, 1.0), objective="welfare")

    # Toward either end of the dispersion range both paths lose digits with
    # the conditioning, about 1e-12 at u = 1e-6 or 1 - 1e-6; the ends
    # themselves are pinned by test_table_ends.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.01, 6.0), u=st.floats(0.01, 0.99),
           bounded=st.booleans(), objective=st.sampled_from(["cr", "rev"]))
    def test_equals_the_variance_table(self, mu, spread, u, bounded, objective):
        beta = mu * spread if bounded else math.inf
        sigma = u * math.sqrt(mu * (mu * spread - mu))
        table = (optimal_price_variance if objective == "cr"
                 else optimal_price_revenue_variance)(mu, sigma, beta, with_threshold=False)
        sol = optimal_price_general(variance_market(mu, sigma, beta), objective)
        assert abs(sol.value - table.value) <= 1e-13 * (1.0 if objective == "cr" else mu)
        assert abs(sol.price - table.price) <= 1e-12 * mu
        assert sol.regime == table.regime

    @pytest.mark.parametrize("objective", ["cr", "rev"])
    def test_table_ends(self, objective):
        # Table 1's ends: the point mass, and the {0, beta} member priced at beta.
        table = optimal_price_variance if objective == "cr" else optimal_price_revenue_variance
        for sigma in (0.0, 0.5):
            sol = optimal_price_general(variance_market(0.5, sigma, 1.0), objective)
            ref = table(0.5, sigma, 1.0, with_threshold=False)
            assert (sol.price, sol.value, sol.regime) == (ref.price, ref.value, ref.regime)


class TestComparePrices:
    def test_low_dispersion_ordering(self):
        rep = compare_prices(0.5, 0.1, 1.0)
        assert rep.pi_l == pytest.approx(0.3301, abs=TOL)
        assert rep.p_l == pytest.approx(0.3672, abs=TOL)
        assert rep.low_ordering_applies and rep.low_ordering_holds

    def test_high_dispersion_ordering(self):
        rep = compare_prices(0.5, 0.45, 1.0)
        assert rep.pi_h == pytest.approx(0.6918, abs=TOL)
        assert rep.p_h == pytest.approx(0.6406, abs=TOL)
        assert rep.high_ordering_applies and rep.high_ordering_holds

    def test_degenerate(self):
        rep = compare_prices(0.5, 0.0, 1.0)
        assert rep.pi_l == rep.p_l == rep.pi_h == rep.p_h == 0.5
        assert not rep.low_ordering_applies and not rep.high_ordering_applies

    def test_needs_finite_beta(self):
        with pytest.raises(RobustPriceError):
            compare_prices(0.5, 0.1, math.inf)

    def test_random_orderings(self):
        rng = np.random.default_rng(41)
        n_low = n_high = 0
        while n_low < 10 or n_high < 10:
            mu = rng.uniform(0.3, 1.5)
            beta = mu * rng.uniform(1.3, 3.0)
            sigma = rng.uniform(0.05, 0.95) * math.sqrt(mu * (beta - mu))
            rep = compare_prices(mu, sigma, beta)
            if rep.low_ordering_applies:
                n_low += 1
                assert rep.low_ordering_holds
            if rep.high_ordering_applies:
                n_high += 1
                assert rep.high_ordering_holds

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.3, 3.5), u=st.floats(0.05, 0.95))
    def test_reads_the_optimizers_candidates(self, mu, spread, u):
        beta = mu * spread
        sigma = u * math.sqrt(mu * (beta - mu))
        rep = compare_prices(mu, sigma, beta)
        cr = optimal_price_variance(mu, sigma, beta, with_threshold=False).candidates
        rev = optimal_price_revenue_variance(mu, sigma, beta, with_threshold=False).candidates
        assert (rep.p_l, rep.pi_l) == (cr[0][1], rev[0][1])
        assert (cr[0][0], rev[0][0]) == ("p_l", "pi_l")
        assert rev[1][0] == "pi_h" and rep.pi_h == rev[1][1]
        (l1, p1, v1), (l2, p2, v2) = cr[1:]
        assert (l1, l2) == ("p_h1", "p_h2")
        assert rep.p_h == (p1 if v1 >= v2 else p2)
        assert (rep.sigma_star, rep.delta_star) == (sigma_star(mu, beta), delta_star(mu, beta))


class TestPointMassRule:
    """Dispersion within the market's point-mass rule (sigma up to about 1e-6 mu)
    gets the point-mass answer, as the market's own evaluator gives it."""

    @pytest.mark.parametrize("sigma", [1e-155, 1e-50, 1e-20, 1e-7, 4.9e-7])
    def test_answers_follow_the_market(self, sigma):
        mu, beta = 0.5, 1.0
        m = variance_market(mu, sigma, beta)
        assert m.is_degenerate
        sol = optimal_price_variance(mu, sigma, beta)
        assert (sol.price, sol.value) == (mu, 1.0) == (mu, worst_case_cr(m, mu).cr)
        sol = optimal_price_revenue_variance(mu, sigma, beta)
        assert (sol.price, sol.value) == (mu, mu) == (mu, worst_case_revenue(m, mu))
        rep = compare_prices(mu, sigma, beta)
        assert rep.pi_l == rep.p_l == rep.pi_h == rep.p_h == mu
        p = np.array([0.25, 0.49999999999996314, mu, 0.75, beta])
        np.testing.assert_array_equal(worst_case_cr_variance(mu, sigma, beta, p).cr,
                                      worst_case_cr(m, p).cr)

    def test_rule_ends_at_the_market_threshold(self):
        # Just above the rule the market is a genuine one and the table answers.
        m = variance_market(0.5, 5e-7, 1.0)
        assert not m.is_degenerate
        sol = optimal_price_variance(0.5, 5e-7, 1.0)
        assert sol.label == "p_l" and sol.price < 0.5 and sol.value < 1.0
        assert sol.value == worst_case_cr_variance(0.5, 5e-7, 1.0, sol.price).cr
        # The market keeps sigma**2 = 2.5e-13 exactly, so it reads the table's value.
        assert worst_case_cr(m, sol.price).cr == sol.value == 0.9998999966668553


class TestMaximalDispersion:
    """At maximal dispersion the only member is {0, beta}, and the right
    threshold can round above beta."""

    def test_variance_example(self):
        mu, sigma, beta = 0.1, 0.30000000000000004, 1.0
        assert mu + sigma * sigma / mu > beta
        m = variance_market(mu, sigma, beta)
        assert check_feasible(m).feasible
        assert right_threshold(m) == variance_thresholds(mu, sigma * sigma, beta)[1] == beta
        sol = optimal_price_variance(mu, sigma, beta)
        assert sol.price == beta and sol.value == pytest.approx(1.0, rel=1e-12)
        rev = optimal_price_revenue_variance(mu, sigma, beta)
        assert rev.price == beta and rev.value == pytest.approx(mu, rel=1e-12)
        assert compare_prices(mu, sigma, beta).p_h == beta

    def test_random_variance_markets(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mu = rng.uniform(0.1, 2.0)
            beta = mu * rng.uniform(1.05, 5.0)
            sigma = math.sqrt(mu * (beta - mu))
            sol = optimal_price_variance(mu, sigma, beta, with_threshold=False)
            rev = optimal_price_revenue_variance(mu, sigma, beta, with_threshold=False)
            # The high prices take a square root of a difference that cancels
            # at t2 = beta, which costs half the digits.
            assert sol.price == pytest.approx(beta, rel=1e-7)
            assert sol.value == pytest.approx(1.0, abs=1e-7)
            assert rev.price == pytest.approx(beta, rel=1e-7)
            assert rev.value == pytest.approx(mu, rel=1e-7)
            assert compare_prices(mu, sigma, beta).p_h <= beta

    def test_random_power_markets(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            mu = rng.uniform(0.1, 1.5)
            beta = mu * rng.uniform(1.05, 5.0)
            q = rng.uniform(1.1, 4.0)
            m = power_market(mu, mu * beta ** (q - 1.0), q, beta)
            assert right_threshold(m) <= beta
            for sol in (optimal_price_power(mu, m.s, q, beta), optimal_price_general(m)):
                assert sol.price == pytest.approx(beta, rel=1e-9)
                assert sol.value == pytest.approx(1.0, abs=1e-9)
            rev = optimal_price_general(m, objective="rev")
            assert rev.price == pytest.approx(beta, rel=1e-9)
            assert rev.value == pytest.approx(mu, rel=1e-9)

    def test_feasibility_unchanged_near_the_cap(self):
        mu, beta, q = 0.4, 1.3, 1.5
        verdicts = set()
        for k in range(-20, 21):
            m = power_market(mu, mu * beta ** (q - 1.0) * (1.0 + k * 2e-13), q, beta)
            feasible = _solve_right_threshold(m) <= beta + 1e-12 * beta
            assert check_feasible(m).feasible == feasible
            if feasible:
                assert right_threshold(m) <= beta
            verdicts.add(feasible)
        assert verdicts == {True, False}
        # One feasibility rule: every entry point answers exactly where
        # check_feasible accepts, and raises InfeasibleMarketError elsewhere.
        for family in ("variance", "power1.5", "power3", "exp"):
            verdicts = set()
            for k in range(-20, 21, 2):
                m, calls = _market_near_cap(family, mu, beta, 1.0 + k * 2e-13)
                upper, _ = _market_near_cap(family, mu, beta, 1.0 + k * 2e-13, MODE_UPPER)
                feasible = check_feasible(m).feasible
                p = 0.9 * beta
                calls += [lambda: left_threshold(m), lambda: worst_case_cr(m, p),
                          lambda: tail_bounds(m, p), lambda: optimal_price_general(m, "rev"),
                          lambda: worst_case_cr_dispersion_ub(upper, p)]
                for call in calls:
                    if feasible:
                        call()
                    else:
                        with pytest.raises(InfeasibleMarketError):
                            call()
                verdicts.add(feasible)
            assert verdicts == {True, False}, family

    def test_compare_prices_reports_no_negative_price(self):
        # The unclipped left threshold mu - sigma**2 / (beta - mu) rounds below 0 here.
        r = compare_prices(0.1, 0.30000000000000004, 1.0)
        assert min(r.pi_l, r.p_l, r.pi_h, r.p_h) >= 0.0


def _market_near_cap(family, mu, beta, factor, mode=MODE_EXACT):
    """A market whose dispersion is factor times its cap on [0, beta], built
    in ``mode`` by the family's constructor, and the family's optimizer
    calls on it."""
    if family == "variance":
        sigma = math.sqrt(mu * (beta - mu) * factor)
        return variance_market(mu, sigma, beta, mode), [
            lambda: optimal_price_variance(mu, sigma, beta, with_threshold=False),
            lambda: optimal_price_revenue_variance(mu, sigma, beta, with_threshold=False),
            lambda: worst_case_cr_variance(mu, sigma, beta, 0.9 * beta)]
    if family.startswith("power"):
        q = float(family[len("power"):])
        s = mu * beta ** (q - 1.0) * factor
        return power_market(mu, s, q, beta, mode), [lambda: optimal_price_power(mu, s, q, beta)]
    cap = (1.0 - mu / beta) + (mu / beta) * math.exp(beta / mu)
    m = MarketInfo(mu=mu, s=cap * factor, beta=beta, measure=_exp_measure(mu), mode=mode)
    return m, [lambda: optimal_price_general(m)]


# --------------------------------------------------------------------------
# Array scans against the scalar loops they replace.

_XTOL, _RTOL = 1e-14, 4 * np.finfo(float).eps


def _scan_roots_loop(f, lo, hi, n, scale):
    """Reference: one scalar call per grid point, brentq per sign change."""
    grid = np.linspace(lo, hi, n)
    vals = [f(x) for x in grid]
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=_XTOL * scale, rtol=_RTOL))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _crossing_loop(mu, beta, gap):
    """Reference for sigma_star/delta_star: scalar gap per grid sigma."""
    sigma_max = math.sqrt(mu * (beta - mu))
    grid = np.linspace(1e-3 * sigma_max, sigma_max * (1.0 - 1e-9), _THRESHOLD_SCAN)
    vals = [gap(s) for s in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] > 0 >= vals[i + 1]:
            return brentq(gap, grid[i], grid[i + 1], xtol=_XTOL * mu, rtol=_RTOL)
    raise AssertionError("no crossing")


def _gap_from_candidates(solve, low_label):
    def gap(sigma):
        cands = solve(sigma).candidates
        low = max((v for l, _, v in cands if l == low_label), default=-math.inf)
        high = max((v for l, _, v in cands if l != low_label), default=-math.inf)
        return low - high
    return gap


_MU_BETA = [(0.5, 1.0), (0.5, 1.2), (1.0, 1.5), (0.8, 2.9), (1.3, 1.7)]


class TestArrayScans:
    def test_scan_roots_matches_scalar_loop(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)

        def hat_pl_resid(p):
            a = companion_point(m, p)
            return (np.power(a, 1.5) - np.power(p, 1.5)) / (a - p) - 1.5 * 0.45 / 0.5

        cubic = lambda p: (p - 0.1) * (p - 0.25) * (p - 0.4)  # noqa: E731
        for f, lo, hi in ((hat_pl_resid, 5e-10, 0.5 * (1 - 1e-7)), (cubic, 0.0, 0.5)):
            scalar = lambda x, f=f: float(f(np.array([x]))[0])  # noqa: E731
            ref = _scan_roots_loop(scalar, lo, hi, _ROOT_SCAN, 0.5)
            assert ref
            assert _scan_root(f, lo, hi, 0.5) == ref[0]
            assert _scan_root(f, lo, hi, 0.5, last=True) == ref[-1]

    @pytest.mark.parametrize("mu,beta", _MU_BETA)
    def test_sigma_star_matches_scalar_loop(self, mu, beta):
        gap = _gap_from_candidates(
            lambda sg: optimal_price_variance(mu, sg, beta, with_threshold=False), "p_l")
        assert sigma_star(mu, beta) == _crossing_loop(mu, beta, gap)

    @pytest.mark.parametrize("mu,beta", _MU_BETA)
    def test_delta_star_matches_scalar_loop(self, mu, beta):
        gap = _gap_from_candidates(
            lambda sg: optimal_price_revenue_variance(mu, sg, beta, with_threshold=False),
            "pi_l")
        assert delta_star(mu, beta) == _crossing_loop(mu, beta, gap)

    @pytest.mark.parametrize("mu,sigma,beta", [(0.5, 0.1, 1.0), (0.5, 0.3, 1.2),
                                               (1.0, 0.45, 1.6), (0.5, 0.5, 1.0),
                                               (0.5, 0.3, math.inf)])
    def test_variance_revenue_closed_form(self, mu, sigma, beta):
        m = variance_market(mu, sigma, beta)
        t1, t2 = left_threshold(m), right_threshold(m)
        top = min(beta, 1.2 * t2)
        ps = np.concatenate([np.linspace(1e-3 * mu, top, 400),
                             [p for p in (t1, t2) if 0 < p <= top]])
        # p d^2 / (d^2 + sigma^2), d = mu - p, up to t1; then
        # p (mu^2 + sigma^2 - mu p) / (beta (beta - p)) up to t2; 0 above.
        s2, d = sigma * sigma, mu - ps
        with np.errstate(divide="ignore", invalid="ignore"):
            # p = beta lies in [t1, t2] only in the maximal-dispersion market
            # {0, beta}, whose revenue there is mu.
            mid = np.where(ps < beta, ps * (mu * mu + s2 - mu * ps) / (beta * (beta - ps)), mu)
        ref = np.where(ps <= t1, ps * d * d / (d * d + s2), np.where(ps <= t2, mid, 0.0))
        for got in (worst_case_revenue(m, ps), ps * variance_tails(mu, s2, beta, ps)[0]):
            assert np.max(np.abs(got - ref)) <= 1e-13 * mu

    def test_general_objective_array_equals_scalar(self):
        mu, beta = 0.7, 1.8
        measure = custom_measure(lambda x: np.exp(np.asarray(x, dtype=float) / mu),
                                 lambda x: np.exp(np.asarray(x, dtype=float) / mu) / mu)
        s = math.e + 0.4 * ((1 - mu / beta) + (mu / beta) * math.exp(beta / mu) - math.e)
        m = MarketInfo(mu=mu, s=s, beta=beta, measure=measure)
        ps = np.concatenate([np.linspace(1e-6, right_threshold(m), 300),
                             [left_threshold(m), right_threshold(m), beta]])
        b = worst_case_cr(m, ps)
        assert list(b.cr) == [worst_case_cr(m, float(p)).cr for p in ps]
        assert list(worst_case_revenue(m, ps)) == [worst_case_revenue(m, float(p)) for p in ps]
        assert list(b.regime) == [worst_case_cr(m, float(p)).regime for p in ps]


class TestVarianceTable:
    """The candidate table is array-first in sigma: one code path for the
    threshold scan and for each Brent step."""

    @pytest.mark.parametrize("objective", ["cr", "rev"])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_columns_do_not_depend_on_the_shape_of_sigma(self, objective, beta):
        mu = 0.5
        # From near 0 up to sigma_max, where t1 = 0 (finite beta).
        top = math.sqrt(mu * (beta - mu)) if math.isfinite(beta) else 1.0
        sigmas = np.linspace(1e-6 * top, top, 200)
        labels, *full = _variance_table(mu, sigmas, beta, objective)
        for k in (0, 1, 57, 123, 198, 199):
            for sigma in (float(sigmas[k]), np.array(sigmas[k]), sigmas[k:k + 1]):
                got, *cols = _variance_table(mu, sigma, beta, objective)
                assert got == labels
                for col, ref in zip(cols, full):
                    assert col.shape == (len(labels),) + np.shape(sigma)
                    assert col.reshape(-1).tobytes() == ref[:, k].tobytes()
        if math.isfinite(beta):
            # At sigma_max the low candidate is absent and keeps its clipped price.
            prices, _, present = full
            assert variance_thresholds(mu, top * top, beta)[0] == 0.0
            assert not present[0, -1] and prices[0, -1] == 0.0 and present[1:, -1].all()


class TestThresholdCost:
    """Each gap evaluation of sigma_star/delta_star, the scan and every Brent
    step, computes the thresholds once and runs one tail pass."""

    @pytest.mark.parametrize("threshold", [sigma_star, delta_star])
    def test_one_threshold_computation_and_one_pass_per_gap(self, monkeypatch, threshold):
        originals = {"variance_thresholds": ambiguity.variance_thresholds,
                     "_evaluate": bounds._evaluate}
        counts = dict.fromkeys(originals, 0)

        def counted(name, f):
            def g(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            return g

        # Every module's binding, however it imported the function.
        for name, f in originals.items():
            for module in (ambiguity, bounds, optimizer, ratio):
                if getattr(module, name, None) is f:
                    monkeypatch.setattr(module, name, counted(name, f))
        gaps = []
        scan_root = optimizer._scan_root

        def recording_scan(f, *args, **kwargs):
            def gap(x):
                before = dict(counts)
                y = f(x)
                gaps.append((x, {k: counts[k] - before[k] for k in counts}))
                return y
            return scan_root(gap, *args, **kwargs)

        monkeypatch.setattr(optimizer, "_scan_root", recording_scan)
        threshold(0.5, 1.0)
        assert [d for _, d in gaps] == [{"variance_thresholds": 1, "_evaluate": 1}] * len(gaps)
        (grid, _), *steps = gaps
        assert isinstance(grid, np.ndarray) and grid.size == _THRESHOLD_SCAN
        assert steps and all(type(x) is float for x, _ in steps)   # Brent passes floats


# --------------------------------------------------------------------------
# Scale invariance: prices scale with the market, ratios do not move.

class TestScaleInvariance:
    def test_small_scale_variance_regression(self):
        # Absolute tolerances once raised InternalConsistencyError here.
        small = optimal_price_variance(5e-7, 3e-7, 1e-6)
        unit = optimal_price_variance(0.5, 0.3, 1.0)
        assert small.price / 5e-7 == pytest.approx(0.59338, abs=5e-6)
        assert small.price / 5e-7 == pytest.approx(unit.price / 0.5, rel=1e-9)
        assert small.value == pytest.approx(unit.value, rel=1e-9)

    def test_nan_candidate_raises(self):
        # At 1e103 the {0, p, beta} mass solve overflows and every candidate
        # value is NaN; unit scale gives p_h1 at 0.6406.
        with pytest.raises(InternalConsistencyError, match="candidate p_l .* NaN"):
            optimal_price_variance(0.5e103, 0.45e103, 1e103, with_threshold=False)
        assert optimal_price_variance(0.5, 0.45, 1.0, with_threshold=False).label == "p_h1"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.3, 3.5), u=st.floats(0.1, 0.9),
           log10_k=st.floats(-6.0, 6.0))
    def test_variance_homogeneity(self, mu, spread, u, log10_k):
        beta = mu * spread
        sigma = u * math.sqrt(mu * (beta - mu))
        k = 10.0 ** log10_k
        for solve in (optimal_price_variance, optimal_price_revenue_variance):
            a, b = solve(mu, sigma, beta), solve(k * mu, k * sigma, k * beta)
            assert b.price == pytest.approx(k * a.price, rel=1e-9)
            assert b.value == pytest.approx(a.value * (1.0 if solve is optimal_price_variance
                                                       else k), rel=1e-9)
            assert b.threshold == pytest.approx(k * a.threshold, rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.3, 3.5), u=st.floats(0.1, 0.9),
           q=st.floats(1.0, 4.0, exclude_min=True), log10_k=st.floats(-6.0, 6.0))
    def test_power_homogeneity(self, mu, spread, u, q, log10_k):
        beta = mu * spread
        lo, hi = mu ** q, mu * beta ** (q - 1.0)
        s = lo + u * (hi - lo)
        k = 10.0 ** log10_k
        a = optimal_price_power(mu, s, q, beta)
        b = optimal_price_power(k * mu, s * k ** q, q, k * beta)
        assert b.price == pytest.approx(k * a.price, rel=1e-9)
        assert b.value == pytest.approx(a.value, rel=1e-9)
