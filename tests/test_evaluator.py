"""The one regime evaluator: threshold bands, modes, and its properties.

Every worst-case quantity (the tail bounds, the ratio, both revenues, the
worst-case distribution) reads one pass over the prices, so a price near
a threshold gets one answer and one regime label whatever the entry point.
"""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustprice.ambiguity import (MODE_UPPER, MarketInfo, left_threshold,
                                   power_market, right_threshold,
                                   variance_companion, variance_market,
                                   variance_thresholds)
from robustprice.bounds import (REGIME_MID, _evaluate, best_case_revenue,
                                cond_exp_max, tail_bounds, tail_prob_max,
                                tail_prob_min, tail_prob_min_dispersion_ub)
from robustprice.dispersion import custom_measure
from robustprice.errors import (InternalConsistencyError, ModeError,
                                UnboundedSupportError)
from robustprice.extremal import worst_case_distribution
from robustprice.optimizer import optimal_price_power
from robustprice.ratio import (worst_case_cr, worst_case_cr_variance,
                               worst_case_revenue)

from test_cli import run_json, usage_error
from test_extremal import random_market


class TestThresholdBands:
    def test_just_below_right_threshold_answers(self, capsys):
        m = variance_market(0.5, 0.1, 1.0)
        p = right_threshold(m) * (1 - 1e-13)
        tb = tail_bounds(m, p)
        assert tb.inf_tail == pytest.approx(0.0, abs=1e-12)
        assert tb.sup_tail == pytest.approx(0.5 / right_threshold(m), abs=1e-12)
        assert worst_case_cr(m, p).cr == pytest.approx(0.0, abs=1e-12)
        obj = run_json(capsys, ["bounds", "--mu", "0.5", "--sigma", "0.1", "--beta", "1",
                                "--p", "0.519999999999948"])
        assert obj["regime"] == REGIME_MID

    def test_just_below_right_threshold_random_markets(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            m = random_market(rng, power_prob=0.0)
            p = right_threshold(m) * (1 - 1e-13)
            tb = tail_bounds(m, p)
            assert tb.regime == REGIME_MID
            assert tb.inf_tail == pytest.approx(0.0, abs=1e-12)
            assert worst_case_cr(m, p).regime == REGIME_MID

    def test_no_negative_tail_just_above_right_threshold(self):
        m = variance_market(0.5, 0.1, 1.0)
        tb = tail_bounds(m, right_threshold(m) * (1 + 1e-13))
        assert tb.inf_tail >= 0.0
        assert tb.inf_tail <= tb.sup_tail

    def test_unbounded_just_below_the_mean(self):
        m = variance_market(0.5, 0.3, math.inf)
        p = 0.5 * (1 - 1e-13)
        b = worst_case_cr(m, p)
        assert b.cr == pytest.approx(0.0, abs=1e-12)
        assert tail_bounds(m, p).inf_tail == pytest.approx(0.0, abs=1e-12)
        assert worst_case_revenue(m, p) == pytest.approx(0.0, abs=1e-12)
        v = worst_case_cr_variance(0.5, 0.3, math.inf, p)
        assert v.cr == pytest.approx(b.cr, abs=1e-12)
        assert (v.regime, v.branch) == (b.regime, b.branch)

    @pytest.mark.parametrize("family", ["variance", "power", "custom"])
    @pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9, 1e-11])
    def test_band_near_maximal_dispersion_is_exact(self, family, gap):
        # t2 close to beta: the mid inf tail falls to 0 over beta - t2, so the
        # pieces really differ across the band and each price takes its own
        # side's piece.  The mass solve keeps about eps * beta / (beta - p);
        # averaging the pieces would be off by about mu * 5e-13 / (beta - t2).
        m = _market(family, 0.4, 3.25, 1.0 - gap, 1.5, True)
        t2 = right_threshold(m)
        assert t2 < m.beta
        for p in (t2, t2 * (1 - 0.5e-12), t2 * (1 + 0.5e-12)):
            tb = tail_bounds(m, p)
            inf, sup = _exact_tails(family, m, 1.5, p)
            tol = 1e-15 * m.beta / (m.beta - p)
            assert tb.inf_tail == pytest.approx(inf, abs=tol)
            assert tb.sup_tail == pytest.approx(sup, abs=tol)
            assert worst_case_cr(m, p).regime == tb.regime == REGIME_MID

    def test_band_disagreement_still_raises(self):
        # Away from maximal dispersion a wrong piece is still caught.
        mu, s2, beta = 0.5, 0.01, 1.0
        t1, t2 = variance_thresholds(mu, s2, beta)
        p = np.array([t2])
        with pytest.raises(InternalConsistencyError):
            _evaluate(p, mu, mu * mu + s2, beta, t1, t2, np.square,
                      lambda i: variance_companion(mu, s2, p[i]) + 0.01, False)

    def test_one_label_just_above_left_threshold(self, capsys):
        argv = ["--mu", "0.5", "--sigma", "0.3", "--beta", "1", "--p", "0.320000000000032"]
        cr = run_json(capsys, ["cr", *argv])
        bounds = run_json(capsys, ["bounds", *argv])
        assert cr["regime"] == bounds["regime"] == "low_two_point"
        m = variance_market(0.5, 0.3, 1.0)
        assert worst_case_cr(m, 0.320000000000032).regime == "low_two_point"


class TestModes:
    UPPER = variance_market(0.5, 0.3, 1.0, mode=MODE_UPPER)

    @pytest.mark.parametrize("f", [tail_bounds, tail_prob_min, tail_prob_max, cond_exp_max,
                                   best_case_revenue, worst_case_revenue, worst_case_cr,
                                   worst_case_distribution])
    def test_exact_bounds_reject_upper_market(self, f):
        with pytest.raises(ModeError):
            f(self.UPPER, 0.4)

    def test_upper_bound_reads_the_pass(self):
        assert tail_prob_min_dispersion_ub(self.UPPER, 0.4) == pytest.approx(0.1 / 0.6)

    @pytest.mark.parametrize("sub,extra", [("price", []), ("bounds", ["--p", "0.4"]),
                                           ("dist", ["--p", "0.4"]),
                                           ("sweep", ["--vary", "sigma", "--values", "0.1"])])
    def test_mode_flag_only_on_cr(self, capsys, sub, extra):
        err = usage_error(capsys, [sub, "--mu", "0.5", "--sigma", "0.3", "--beta", "1",
                                   *extra, "--mode", "upper"])
        assert "--mode" in err


class TestPowerNearLinear:
    @pytest.mark.parametrize("q", [1.02, 1.05, 1.08])
    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
    def test_optimizer_solves(self, q, k):
        mu0, beta0, u = 0.6, 1.5, 0.5
        lo, hi = mu0 ** q, mu0 * beta0 ** (q - 1.0)
        s0 = lo + u * (hi - lo)
        m = power_market(k * mu0, s0 * k ** q, q, k * beta0)
        sol = optimal_price_power(m.mu, m.s, q, m.beta)
        unit = optimal_price_power(mu0, s0, q, beta0)
        assert sol.price == pytest.approx(k * unit.price, rel=1e-9)
        assert sol.value == pytest.approx(unit.value, rel=1e-9)
        assert sol.value == pytest.approx(worst_case_cr(m, sol.price).cr, rel=1e-12)
        t1 = left_threshold(m)
        assert all(p <= t1 for label, p, _ in sol.candidates
                   if label in ("bar_p_l", "hat_p_l"))
        grid = np.linspace(1e-6 * m.mu, right_threshold(m), 2001)
        assert worst_case_cr(m, grid).cr.max() <= sol.value + 1e-6

    def test_unbounded_scan_emits_no_warning(self):
        # The low scans reach residuals of +inf; multiplied by a neighbour
        # (or the scan's padding 0) in the sign test they gave NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = optimal_price_power(0.6, 0.6 ** 1.03 * 1.05, 1.03, math.inf)
        assert 0.0 < sol.price < 0.6


# --------------------------------------------------------------------------
# Properties at prices within 1e-12 of t1, t2 and mu.

def _exp_measure(mu):
    return custom_measure(lambda x: np.exp(np.asarray(x, dtype=float) / mu),
                          lambda x: np.exp(np.asarray(x, dtype=float) / mu) / mu)


def _market(family, mu, spread, u, q, bounded):
    beta = mu * spread if bounded else math.inf
    if family == "variance":
        smax = math.sqrt(mu * (beta - mu)) if bounded else 2.0 * mu
        return variance_market(mu, u * smax, beta)
    if family == "power":
        lo = mu ** q
        hi = mu * beta ** (q - 1.0) if bounded else 4.0 * lo
        return power_market(mu, lo + u * (hi - lo), q, beta)
    lo = math.e
    hi = (1 - 1 / spread) + math.exp(spread) / spread if bounded else 4.0 * lo
    return MarketInfo(mu, lo + u * (hi - lo), beta, _exp_measure(mu))


def _exact_tails(family, m, q, p):
    """(inf, sup) tail of a _market at the float price p, in 50-digit
    decimal arithmetic: the {0, p, beta} member's masses where its beta
    mass is not negative (p up to t2), else the {a, p} member, with the
    companion a < mu by bisection."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu, s, beta, x = Decimal(m.mu), Decimal(m.s), Decimal(m.beta), Decimal(p)
        phi = {"variance": lambda v: v * v,
               "power": lambda v: v ** Decimal(q) if v else v,
               "custom": lambda v: (v / mu).exp()}[family]
        phi0 = phi(Decimal(0))
        den = x * (phi(beta) - phi0) - beta * (phi(x) - phi0)
        wp = (mu * (phi(beta) - phi0) - beta * (s - phi0)) / den
        wb = (x * (s - phi0) - mu * (phi(x) - phi0)) / den
        if wb >= 0:
            return float(wb), float(wp + wb)
        lo, hi = Decimal(0), mu
        for _ in range(170):
            a = (lo + hi) / 2
            if ((x - mu) * phi(a) + (mu - a) * phi(x)) / (x - a) > s:
                lo = a
            else:
                hi = a
        return 0.0, float((mu - lo) / (x - lo))


_markets = st.builds(
    _market, st.sampled_from(["variance", "power", "custom"]), st.floats(0.3, 1.5),
    st.floats(1.3, 3.5), st.floats(0.1, 0.9), st.floats(1.1, 8.0, exclude_min=True),
    st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=_markets, anchor=st.sampled_from(["t1", "t2", "mu"]),
       offset=st.floats(-1e-12, 1e-12))
def test_evaluator_properties_near_thresholds(m, anchor, offset):
    at = {"t1": left_threshold(m), "t2": right_threshold(m), "mu": m.mu}[anchor]
    p = at * (1.0 + offset)
    assume(0 < p <= m.beta)
    b = worst_case_cr(m, p)
    assert 0.0 <= b.cr <= 1.0
    assert 0.0 <= worst_case_revenue(m, p) <= p
    if not math.isfinite(m.beta) and b.regime == REGIME_MID and p < right_threshold(m):
        # Between the mean and t2 no member attains the bounds when beta = inf.
        with pytest.raises(UnboundedSupportError):
            tail_bounds(m, p)
    else:
        tb = tail_bounds(m, p)
        assert 0.0 <= tb.inf_tail <= tb.sup_tail <= 1.0
        assert tb.regime == b.regime
    if m.measure.is_variance:
        v = worst_case_cr_variance(m.mu, m.sigma, m.beta, p)
        assert v.cr == pytest.approx(b.cr, abs=1e-12)
        assert (v.regime, v.branch) == (b.regime, b.branch)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=_markets)
def test_thresholds_are_the_two_point_members(m):
    # t2 = companion(0) and t1 = companion(beta): the members {0, t2} and
    # {t1, beta} with mean mu carry the dispersion s.
    phi, mu, beta = m.measure.value, m.mu, m.beta
    t1, t2 = left_threshold(m), right_threshold(m)
    w = mu / t2
    assert (1.0 - w) * phi(0.0) + w * phi(t2) == pytest.approx(m.s, rel=1e-12)
    if math.isfinite(beta) and t1 > 0:
        w = (mu - t1) / (beta - t1)
        assert (1.0 - w) * phi(t1) + w * phi(beta) == pytest.approx(m.s, rel=1e-12)


_bounded_markets = st.builds(
    _market, st.sampled_from(["variance", "power", "custom"]), st.floats(0.3, 1.5),
    st.floats(1.3, 3.5), st.floats(0.1, 0.9), st.floats(1.1, 8.0, exclude_min=True),
    st.just(True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=_bounded_markets, anchor=st.sampled_from(["t1", "t2", "beta", "between"]),
       frac=st.floats(1e-3, 1.0))
def test_worst_case_member_attains_ratio_and_revenue(m, anchor, frac):
    # The worst-case market for the ratio is also the worst case for revenue:
    # one member attains both bounds.  It is built eps below p, so at p it
    # misses a bound f by f's change over [p - eps, p] plus the factor
    # p / (p - eps) on f(p - eps); the tolerance is twice that first-order
    # shift, which rounding cannot fill.
    p = {"t1": left_threshold(m), "t2": right_threshold(m), "beta": m.beta,
         "between": frac * m.beta}[anchor]
    eps = 1e-9 * m.beta
    assume(p > 1e3 * eps)
    d = worst_case_distribution(m, p)
    assert d.mean() == pytest.approx(m.mu, rel=1e-9)
    assert d.dispersion(m.measure) == pytest.approx(m.s, rel=1e-8)
    for got, bound, scale in ((d.ratio(p), lambda x: worst_case_cr(m, x).cr, 1.0),
                              (d.revenue(p), lambda x: worst_case_revenue(m, x), p)):
        at, before = bound(p), bound(p - eps)
        tol = 2.0 * (abs(at - before) + abs(before) * eps / (p - eps)) + 1e-12 * scale
        assert abs(got - at) <= tol, (got, at, before)
