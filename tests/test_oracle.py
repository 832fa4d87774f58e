import dataclasses
import math

import numpy as np
import pytest

import robustprice.oracle as oracle_module

from robustprice._kernels import (DISP_TOL, KERNEL_BACKEND, MASS_TOL, _KERNEL,
                                  _enumerate_impl, _enumerate_numpy,
                                  enumerate_min)
from robustprice.ambiguity import (MarketInfo, companion_point, left_threshold,
                                   power_market, right_threshold,
                                   variance_market)
from robustprice.bounds import (REGIME_HIGH, REGIME_LOW, REGIME_MID,
                                tail_prob_max, tail_prob_min)
from robustprice.errors import (InfeasibleMarketError, RobustPriceError,
                                UnboundedSupportError)
from robustprice.oracle import (CERT_TOL, TARGET_INF_TAIL, TARGET_SUP_TAIL,
                                oracle_grid, oracle_worst_case,
                                oracle_worst_case_cr,
                                oracle_worst_case_rev, random_feasible_instance,
                                random_four_point, verify_dual_certificate)
from robustprice.ratio import worst_case_cr, worst_case_revenue
from robustprice.verify import certificate_deviation

from test_evaluator import _exp_measure

M = variance_market(0.5, 0.5, 1.2)


class TestGrid:
    def test_contains_structural_points(self):
        g, eps = oracle_grid(M, 0.6, 121)
        for x in (0.0, 0.6, 0.6 - eps, 1.0, 1.2):
            assert np.min(np.abs(g - x)) < 1e-12
        assert np.all(np.diff(g) > 0)
        assert g[0] == 0.0 and g[-1] == 1.2
        # Below t1 (0.143) and from t2 (1.0) on, the companions of p and of
        # the p-minus point lie in [0, beta] and are grid points too.
        for p in (0.1, 1.05, 1.2):
            g, eps = oracle_grid(M, p, 121)
            companions = companion_point(M, np.array([p, p - eps]))
            assert np.all((companions >= 0.0) & (companions <= 1.2))
            for x in (p, p - eps, *companions, left_threshold(M)):
                assert np.min(np.abs(g - x)) == 0.0
            assert np.all(np.diff(g) > 0)

    def test_rejects_small_grid(self):
        with pytest.raises(RobustPriceError):
            oracle_grid(M, 0.6, 11)

    def test_rejects_unbounded(self):
        with pytest.raises(UnboundedSupportError):
            oracle_grid(variance_market(0.5, 0.5, math.inf), 0.3, 121)


class TestOracleCR:
    def test_mid_regime_example(self):
        cr, wit = oracle_worst_case_cr(M, 0.6, grid_n=121)
        assert cr == pytest.approx(0.5, abs=1e-6)
        assert wit.mean() == pytest.approx(0.5, abs=1e-8)
        assert wit.dispersion(M.measure) == pytest.approx(0.5, abs=1e-7)

    def test_above_right_threshold(self):
        cr, wit = oracle_worst_case_cr(M, 1.1, grid_n=121)
        assert cr == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(wit.supports, [0.0, 1.0], atol=1e-9)

    def test_degenerate_market(self):
        m = variance_market(0.5, 0.0, 1.0)
        cr, wit = oracle_worst_case_cr(m, 0.5, grid_n=121)
        assert cr == pytest.approx(1.0, abs=1e-9)

    def test_sandwich_against_closed_form(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            market, p = random_feasible_instance(rng)
            closed = worst_case_cr(market, p).cr
            oracle, _ = oracle_worst_case_cr(market, p, grid_n=121)
            assert oracle >= closed - 1e-9
            assert oracle <= closed + 0.03

    @pytest.mark.parametrize("mu,sigma,beta,p", [
        # Low-regime instances where the price-over-y branch governs: the
        # worst member is {p-, a(p)}, and a grid without a(p) overshot the
        # closed form by 0.0219 and 0.0232 at grid 61.
        (0.9539792177496049, 0.18376568768106197, 2.721807545376645,
         0.6845465247661818),
        (1.0978005533801813, 0.18108514772162496, 3.0189875170858675,
         0.7734461212990421),
    ], ids=["mu0.95", "mu1.10"])
    def test_companion_closes_the_low_regime_gap(self, mu, sigma, beta, p):
        market = variance_market(mu, sigma, beta)
        closed = worst_case_cr(market, p).cr
        oracle, _ = oracle_worst_case_cr(market, p, grid_n=61)
        assert closed - 1e-9 <= oracle <= closed + 1e-3

    def test_power_of_two_scale_leaves_the_ratio_unchanged(self):
        # Scaling by 2**k is exact on the grid, phi, mu, s and p, so the
        # ratio cannot move when the dispersion bound scales with phi.  An
        # absolute bound admitted non-members below a scale of about 1e-3.
        rng = np.random.default_rng(3)
        for _ in range(20):
            market, p = random_feasible_instance(rng)
            mu, sigma, beta = market.mu, market.sigma, market.beta
            unit, _ = oracle_worst_case_cr(variance_market(mu, sigma, beta), p, grid_n=61)
            for k in (-40, -20, -10, 10, 20, 40):
                c = 2.0 ** k
                scaled = variance_market(mu * c, sigma * c, beta * c)
                assert oracle_worst_case_cr(scaled, p * c, grid_n=61)[0] == unit, (mu, k)

    def test_gap_shrinks_with_grid(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            market, p = random_feasible_instance(rng)
            closed = worst_case_cr(market, p).cr
            g1, _ = oracle_worst_case_cr(market, p, grid_n=61)
            g2, _ = oracle_worst_case_cr(market, p, grid_n=241)
            assert g2 - closed <= (g1 - closed) + 1e-9


class TestOracleRev:
    def test_mid_regime_example(self):
        rev, wit = oracle_worst_case_rev(M, 0.25, grid_n=201)
        closed = worst_case_revenue(M, 0.25)
        assert closed == pytest.approx(0.0822, abs=5e-5)
        assert rev >= closed - 1e-9
        assert rev <= closed + 0.01

    def test_degenerate_price_at_mean(self):
        m = variance_market(0.5, 0.0, 1.0)
        rev, _ = oracle_worst_case_rev(m, 0.5, grid_n=121)
        assert rev == pytest.approx(0.5, abs=1e-9)

    def test_zero_above_right_threshold(self):
        rev, _ = oracle_worst_case_rev(M, 1.1, grid_n=121)
        assert rev == pytest.approx(0.0, abs=1e-12)

    def test_rev_witness_attains_cr_min(self):
        # One-direction exchangeability: the revenue minimizer also attains
        # the CR minimum (the converse fails where the price branch governs
        # and the CR minimizer is non-unique).
        rng = np.random.default_rng(53)
        for _ in range(10):
            market, p = random_feasible_instance(rng)
            cr_min, _ = oracle_worst_case_cr(market, p, grid_n=121)
            _, rev_wit = oracle_worst_case_rev(market, p, grid_n=121)
            # Grid discretization separates the two minimizers slightly.
            assert rev_wit.ratio(p) <= cr_min + 0.02


def _same_answer(a, b):
    """Two oracle_worst_case answers agree bit for bit, witnesses included."""
    assert a[0] == b[0] and a[2] == b[2]
    for wa, wb in ((a[1], b[1]), (a[3], b[3])):
        assert np.array_equal(wa.supports, wb.supports)
        assert np.array_equal(wa.masses, wb.masses)


class TestOracleWorstCase:
    def test_equals_separate_calls(self):
        # The halves read the answer kept on the market, so each instance is
        # also drawn again from the same seed: an equal market with nothing
        # kept, whose one enumeration must give the same bits.
        rng, again = np.random.default_rng(59), np.random.default_rng(59)
        for _ in range(3):
            market, p = random_feasible_instance(rng)
            fresh, p_fresh = random_feasible_instance(again)
            assert fresh == market and p_fresh == p
            cr, cw, rev, rw = oracle_worst_case(market, p, grid_n=61)
            cr1, cw1 = oracle_worst_case_cr(market, p, grid_n=61)
            rev1, rw1 = oracle_worst_case_rev(market, p, grid_n=61)
            assert cr == cr1 and rev == rev1
            for a, b in ((cw, cw1), (rw, rw1)):
                assert np.array_equal(a.supports, b.supports)
                assert np.array_equal(a.masses, b.masses)
            _same_answer((cr, cw, rev, rw), oracle_worst_case(fresh, p, grid_n=61))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The oracle's enumerate_min calls, recorded; each still runs the kernel."""
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_min(*args)

    monkeypatch.setattr(oracle_module, "enumerate_min", counted)
    return calls


class TestOracleKeepsItsLastAnswer:
    @staticmethod
    def market():
        return variance_market(0.5, 0.5, 1.2)

    def test_one_enumeration_per_market_price_and_grid(self, kernel_calls):
        m = self.market()
        first = oracle_worst_case(m, 0.6, 61)
        cr, cw = oracle_worst_case_cr(m, 0.6, 61)
        rev, rw = oracle_worst_case_rev(m, 0.6, 61)
        _same_answer(first, (cr, cw, rev, rw))
        _same_answer(first, oracle_worst_case(m, 0.6, np.int64(61)))
        assert len(kernel_calls) == 1

    def test_a_new_key_or_market_enumerates_again(self, kernel_calls):
        m = self.market()
        first = oracle_worst_case(m, 0.6, 61)
        oracle_worst_case(m, 0.7, 61)        # new price
        oracle_worst_case(m, 0.7, 81)        # new grid
        assert len(kernel_calls) == 3
        _same_answer(first, oracle_worst_case(m, 0.6, 61))   # one entry: the first key is gone
        assert len(kernel_calls) == 4
        for other in (self.market(), dataclasses.replace(m)):   # equal, built anew
            assert other == m
            _same_answer(first, oracle_worst_case(other, 0.6, 61))
        assert len(kernel_calls) == 6

    def test_editing_a_witness_leaves_the_next_answer(self):
        m = self.market()
        first = oracle_worst_case(m, 0.6, 61)
        kept = [(w.supports.copy(), w.masses.copy()) for w in (first[1], first[3])]
        for w in (first[1], first[3]):
            w.supports[:] = -1.0
            w.masses[:] = 7.0
        again = oracle_worst_case(m, 0.6, 61)
        for w, (supports, masses) in zip((again[1], again[3]), kept):
            assert np.array_equal(w.supports, supports)
            assert np.array_equal(w.masses, masses)

    @pytest.mark.parametrize("p,grid_n", [
        (0.0, 61), (math.nan, 61), (1.3, 61), (np.array([0.6]), 61),
        (0.6, 11), (0.6, 61.0), (0.6, True),
    ], ids=["zero", "nan", "above_beta", "array_price", "small_grid",
            "float_grid", "bool_grid"])
    def test_a_bad_input_raises_after_an_answer(self, kernel_calls, p, grid_n):
        m = self.market()
        oracle_worst_case(m, 0.6, 61)
        for _ in range(2):
            for f in (oracle_worst_case, oracle_worst_case_cr, oracle_worst_case_rev):
                with pytest.raises(RobustPriceError):
                    f(m, p, grid_n)
        oracle_worst_case(m, 0.6, 61)
        assert len(kernel_calls) == 1

    def test_an_infeasible_grid_is_not_kept(self, monkeypatch):
        # A grid with no feasible member raises on every call, before and
        # after an answer on the same market and key.
        calls, infeasible = [], [True]

        def kernel(*args):
            calls.append(args)
            cr, rev, cw, rw, nf = enumerate_min(*args)
            return (math.inf, math.inf, cw, rw, 0) if infeasible[0] else (cr, rev, cw, rw, nf)

        monkeypatch.setattr(oracle_module, "enumerate_min", kernel)
        m = self.market()
        for _ in range(2):
            with pytest.raises(InfeasibleMarketError, match="no feasible"):
                oracle_worst_case(m, 0.6, 61)
        infeasible[0] = False
        _same_answer(oracle_worst_case(m, 0.6, 61), oracle_worst_case(self.market(), 0.6, 61))
        infeasible[0] = True
        for _ in range(2):
            with pytest.raises(InfeasibleMarketError, match="no feasible"):
                oracle_worst_case(m, 0.6, 81)
        assert len(calls) == 6

    def test_an_infeasible_market_raises_on_every_call(self):
        m = MarketInfo(0.5, 0.6, 1.0, variance_market(0.5, 0.1, 1.0).measure)   # t2 > beta
        for _ in range(2):
            with pytest.raises(InfeasibleMarketError):
                oracle_worst_case(m, 0.6, 61)

    def test_equality_hash_and_repr_are_unchanged(self):
        m, twin = self.market(), self.market()
        before = repr(m), hash(m)
        oracle_worst_case(m, 0.6, 61)
        assert (repr(m), hash(m)) == before == (repr(twin), hash(twin))
        assert m == twin and len({m, twin}) == 1


class TestFourPointControl:
    def test_oracle_below_controls(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            market, p = random_feasible_instance(rng)
            cr_min, _ = oracle_worst_case_cr(market, p, grid_n=121)
            rev_min, _ = oracle_worst_case_rev(market, p, grid_n=121)
            for _ in range(50):
                d = random_four_point(market, rng)
                assert cr_min <= d.ratio(p) + 1e-9
                assert rev_min <= p * d.tail(p) + 1e-9

    def test_point_mass_market_raises_package_error(self):
        for sigma in (0.0, 1e-6):
            with pytest.raises(RobustPriceError):
                random_four_point(variance_market(0.5, sigma, 1.0),
                                  np.random.default_rng(1))

    def test_unbounded_market_raises(self):
        with pytest.raises(UnboundedSupportError):
            random_four_point(variance_market(0.5, 0.3, math.inf),
                              np.random.default_rng(1))

    def test_four_point_is_feasible(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            market = random_feasible_instance(rng, with_price=False)
            d = random_four_point(market, rng)
            assert d.mean() == pytest.approx(market.mu, rel=1e-9)
            assert d.dispersion(market.measure) == pytest.approx(market.s, rel=1e-8)


class TestDualCertificates:
    PROBES = (0.07, 0.6, 1.1)  # one per regime for the example market

    def test_sup_tail_all_regimes(self):
        from robustprice.bounds import tail_prob_max
        for p in self.PROBES:
            rep = verify_dual_certificate(M, p, TARGET_SUP_TAIL)
            assert rep.passed, (p, rep)
            assert rep.dual_objective == pytest.approx(tail_prob_max(M, p), abs=1e-9)

    def test_inf_tail_all_regimes(self):
        from robustprice.bounds import tail_prob_min
        for p in self.PROBES:
            rep = verify_dual_certificate(M, p, TARGET_INF_TAIL)
            assert rep.passed, (p, rep)
            assert rep.dual_objective == pytest.approx(tail_prob_min(M, p), abs=1e-9)

    def test_sup_mid_example_value(self):
        rep = verify_dual_certificate(M, 0.6, TARGET_SUP_TAIL)
        assert rep.primal_bound == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert rep.certificate.lambda2 < 0  # concave majorant

    def test_inf_low_curvature(self):
        rep = verify_dual_certificate(M, 0.1, TARGET_INF_TAIL)
        assert rep.certificate.lambda2 < 0

    def test_inf_mid_curvature(self):
        rep = verify_dual_certificate(M, 0.6, TARGET_INF_TAIL)
        assert rep.certificate.lambda2 > 0

    def test_unbounded_market_raises(self):
        for target in (TARGET_SUP_TAIL, TARGET_INF_TAIL):
            with pytest.raises(UnboundedSupportError):
                verify_dual_certificate(variance_market(0.5, 0.3, math.inf), 0.3, target)

    def test_degenerate_skip(self):
        rep = verify_dual_certificate(variance_market(0.5, 0.0, 1.0), 0.3,
                                      TARGET_SUP_TAIL)
        assert rep.passed and rep.note == "degenerate-skip"

    def test_deviation_skips_the_zero_price(self):
        # At maximal dispersion t1 = 0, so of 0.5 t1, (t1 + t2)/2 and beta the
        # first is no price: two prices, each for both tails.
        n, dev, ok = certificate_deviation([variance_market(0.5, 0.5, 1.0)])
        assert (n, ok) == (4, True) and dev <= CERT_TOL

    @staticmethod
    def _check_market(m, extra=()):
        # Prices in each regime and exactly at t1 and t2.  At t1 both tails
        # take the low member {t1, beta}; at t2 the sup tail takes {0, t2}
        # from above and the inf tail the mid member {0, t2, beta}.
        t1, t2 = left_threshold(m), right_threshold(m)
        at = {t1: (REGIME_LOW, REGIME_LOW), t2: (REGIME_HIGH, REGIME_MID)}
        for p in (0.5 * t1, t1, 0.5 * (t1 + t2), t2, min(1.05 * t2, m.beta), *extra):
            if p <= 0:
                continue
            for k, (target, bound) in enumerate(((TARGET_SUP_TAIL, tail_prob_max),
                                                 (TARGET_INF_TAIL, tail_prob_min))):
                rep = verify_dual_certificate(m, p, target)
                assert rep.passed, (m, p, target, rep)
                assert rep.dual_objective == pytest.approx(bound(m, p), abs=1e-9)
                if p in at:
                    assert rep.regime == at[p][k], (m, p, target)

    def test_power_market_certificates(self):
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        for p in (0.1, 0.5, 0.9):
            for target in (TARGET_SUP_TAIL, TARGET_INF_TAIL):
                rep = verify_dual_certificate(m, p, target)
                assert rep.passed, (p, target, rep)
        self._check_market(m)

    def test_random_instances(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            self._check_market(random_feasible_instance(rng, with_price=False))

    @pytest.mark.parametrize("mu, spread, u", [(0.5, 2.4, 0.3), (1.0, 3.0, 0.7),
                                               (0.8, 1.5, 0.5), (1.3, 1.3, 0.9)])
    def test_custom_measure_certificates(self, mu, spread, u):
        # exp(x/mu): no closed-form companion, so the companion solver gives
        # every two-point member.
        beta = mu * spread
        lo, hi = math.e, (1.0 - 1.0 / spread) + math.exp(spread) / spread
        self._check_market(MarketInfo(mu, lo + u * (hi - lo), beta, _exp_measure(mu)),
                           extra=(beta,))


class TestKernelBackends:
    def test_backend_name(self):
        assert KERNEL_BACKEND in ("numba", "numpy")

    def test_numpy_matches_active_backend(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            market, p = random_feasible_instance(rng)
            g, _ = oracle_grid(market, p, 61)
            phi = np.asarray(market.measure.value(g), dtype=float)
            args = (g, phi, market.mu, market.s, p, DISP_TOL, MASS_TOL)
            a = _KERNEL(*args)
            b = _enumerate_numpy(*args)
            assert a[0] == pytest.approx(b[0], abs=1e-14)  # min CR
            assert a[1] == pytest.approx(b[1], abs=1e-14)  # min revenue
            assert a[6] == b[6]  # feasible count
            for i in range(2, 6):  # witnesses match (same first-min order)
                np.testing.assert_allclose(np.asarray(a[i]),
                                           np.asarray(b[i]), equal_nan=True)

    @staticmethod
    def _loop_cases():
        rng = np.random.default_rng(58)
        for grid_n in (21, 31, 41):
            for _ in range(2):
                yield (grid_n,) + random_feasible_instance(rng)
        # Other measures, and dispersion near the point mass and within 1e-9
        # of its cap (t2 = beta (1 - 1e-9)), where witnesses sit on the
        # feasibility boundary.
        mu, beta, cap = 0.4, 1.3, 1.3 * (1.0 - 1e-9)
        for market in (power_market(mu, mu * 0.9 ** 0.5, 1.5, beta),
                       power_market(mu, mu * 0.9 ** 2.0, 3.0, beta),
                       MarketInfo(mu, 0.5 * (math.e + (1 - mu / beta) + mu / beta
                                             * math.exp(beta / mu)),
                                  beta, _exp_measure(mu)),
                       variance_market(mu, 1e-4, beta),
                       variance_market(mu, math.sqrt(mu * (cap - mu)), beta),
                       power_market(mu, mu * cap ** 0.5, 1.5, beta)):
            yield 31, market, 0.5 * (left_threshold(market) + mu)

    def test_numpy_matches_python_loop(self):
        # The uncompiled loop kernel is the reference on every platform.  The
        # numpy kernel does the same arithmetic in the same enumeration order
        # and skips only triples it cannot accept, so minima, witnesses and
        # counts must agree exactly, ties included.
        for grid_n, market, p in self._loop_cases():
            t2 = right_threshold(market)
            # Above t2 the revenue minimum 0 is attained many times over; at
            # mu the price has no companion.
            prices = (p, left_threshold(market), market.mu, t2,
                      min(1.05 * t2, market.beta))
            for price in prices:
                g, _ = oracle_grid(market, price, grid_n)
                phi = np.asarray(market.measure.value(g), dtype=float)
                args = (g, phi, market.mu, market.s, price, DISP_TOL, MASS_TOL)
                a = _enumerate_impl(*args)
                b = _enumerate_numpy(*args)
                assert a[0] == b[0] and a[1] == b[1] and a[6] == b[6]
                for i in range(2, 6):
                    assert np.array_equal(np.asarray(a[i]), np.asarray(b[i]),
                                          equal_nan=True), (grid_n, price, i)

    def test_numpy_matches_python_loop_on_ties(self):
        # At p = 0 every candidate has revenue and ratio 0, and a plain grid
        # has no feasible pair, so the witnesses are decided by tie-breaking
        # across the triple blocks alone.
        rng = np.random.default_rng(60)
        for _ in range(3):
            market = random_feasible_instance(rng, with_price=False)
            g = np.linspace(0.0, market.beta, 31)
            phi = np.asarray(market.measure.value(g), dtype=float)
            args = (g, phi, market.mu, market.s, 0.0, DISP_TOL, MASS_TOL)
            a = _enumerate_impl(*args)
            b = _enumerate_numpy(*args)
            assert a[0] == b[0] == 0.0 and a[1] == b[1] == 0.0 and a[6] == b[6]
            for i in range(2, 6):
                assert np.array_equal(np.asarray(a[i]), np.asarray(b[i]),
                                      equal_nan=True)

    def test_enumerate_min_wrapper(self):
        g, _ = oracle_grid(M, 0.6, 61)
        phi = np.asarray(M.measure.value(g), dtype=float)
        cr, rev, cr_wit, rev_wit, n_feas = enumerate_min(g, phi, M.mu, M.s, 0.6)
        assert n_feas > 0
        assert 0.0 <= cr <= 1.0
        assert rev >= 0.0
