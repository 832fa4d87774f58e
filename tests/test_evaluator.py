"""The one regime evaluator: prices near the thresholds, modes, and its properties.

Every worst-case quantity (the tail bounds, the ratio, both revenues, the
worst-case distribution) reads one pass over the prices, so a price near
a threshold gets one answer and one regime label whatever the entry point.
"""

import math
import warnings
from decimal import Decimal, localcontext
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustprice import bounds
from robustprice.ambiguity import (MODE_EXACT, MODE_UPPER, MarketInfo, _companion,
                                   left_threshold, power_market, right_threshold,
                                   variance_market)
from robustprice.bounds import (_BAND, REGIME_HIGH, REGIME_LOW, REGIME_MID, best_case_revenue,
                                cond_exp_max, tail_bounds, tail_prob_max,
                                tail_prob_min, tail_prob_min_dispersion_ub)
from robustprice.dispersion import DispersionMeasure, custom_measure
from robustprice.errors import (InternalConsistencyError, ModeError, RobustPriceError,
                                UnboundedSupportError)
from robustprice.extremal import worst_case_distribution
from robustprice.optimizer import optimal_price_power
from robustprice.ratio import (worst_case_cr, worst_case_cr_dispersion_ub,
                               worst_case_cr_mean_range, worst_case_cr_variance,
                               worst_case_revenue)

from test_cli import run, run_json, usage_error
from test_extremal import random_market


class TestNearThresholds:
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
        # t2 close to beta: the mid inf tail falls to 0 over beta - t2, so a
        # price within 1e-12 of t2 must take its own side's piece.  The mass
        # solve keeps about eps * beta / (beta - p).
        m = _market(family, 0.4, 3.25, 1.0 - gap, 1.5, True)
        t2 = right_threshold(m)
        assert t2 < m.beta
        for p in (t2, t2 * (1 - 0.5e-12), t2 * (1 + 0.5e-12)):
            tb = tail_bounds(m, p)
            inf, sup = _exact_tails(family, m, 1.5, p)
            tol = 1e-15 * m.beta / (m.beta - p)
            assert tb.inf_tail == pytest.approx(inf, abs=tol)
            assert tb.sup_tail == pytest.approx(sup, abs=tol)
            own = REGIME_MID if p <= t2 else REGIME_HIGH
            assert worst_case_cr(m, p).regime == tb.regime == own

    def test_a_nan_piece_raises(self, monkeypatch):
        # The pass checks its output for NaN and names the price as a float.
        m = variance_market(0.5, 0.1, 1.0)
        p = min(1.05 * right_threshold(m), m.beta)
        monkeypatch.setattr(bounds, "_companion", lambda market, x: _companion(market, x) * math.nan)
        with pytest.raises(InternalConsistencyError, match=f"p={p!r}") as exc:
            tail_bounds(m, np.array([0.5, p]))
        assert "np.float64" not in str(exc.value)

    def test_one_label_just_above_left_threshold(self, capsys):
        argv = ["--mu", "0.5", "--sigma", "0.3", "--beta", "1", "--p", "0.320000000000032"]
        cr = run_json(capsys, ["cr", *argv])
        bounds = run_json(capsys, ["bounds", *argv])
        assert cr["regime"] == bounds["regime"] == REGIME_MID
        m = variance_market(0.5, 0.3, 1.0)
        assert worst_case_cr(m, 0.320000000000032).regime == REGIME_MID


class TestNearPointMass:
    """Variance markets just outside the point-mass rule, where t1 and t2
    both lie within 1e-12 beta of the mean."""

    @pytest.mark.parametrize("frac", [1.0, 1.0 - 1e-13])
    def test_ratio_at_left_threshold_is_exact(self, frac):
        m = variance_market(0.5, 6.5e-7, 1.9173)
        p = left_threshold(m) * frac
        assert worst_case_cr(m, p).cr == pytest.approx(_exact_low_cr(m, p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.5, 0.5 * (1.0 - 1e-13)])
    def test_cond_exp_within_support_at_the_mean(self, p):
        m = variance_market(0.5, 6.5e-7, 2.0)
        assert tail_bounds(m, p).sup_cond_exp <= m.beta

    @pytest.mark.parametrize("beta", [2.0, 1.9173])
    def test_cond_exp_within_support_at_left_threshold(self, beta):
        # The float t1 rounds above the true threshold, so its companion lies
        # past beta; the low piece's conditional expectation stops at beta.
        m = variance_market(0.5, 6.5e-7, beta)
        assert tail_bounds(m, left_threshold(m)).sup_cond_exp <= m.beta


class TestExtremeScale:
    """Beyond about 1e+-100 in scale the {0, p, beta} mass solve overflows or
    underflows.  Every exact-mode answer is then that of the unit-scale market
    or a RobustPriceError, never NaN and never a wrong number; the upper mode,
    which runs no mass solve, answers as the unit-scale market."""

    @staticmethod
    def _as_unit_or_error(m, p, unit, unit_p):
        # Each entry point's outputs that do not scale with the market are the
        # unit-scale market's, or it raises: "finite" alone passes an answer 20% off.
        for f in (lambda m, p: attrgetter("cr", "tail_ratio", "price_over_y")(worst_case_cr(m, p)),
                  lambda m, p: attrgetter("inf_tail", "sup_tail")(tail_bounds(m, p)),
                  lambda m, p: worst_case_revenue(m, p) / p):
            try:
                got = f(m, p)
            except RobustPriceError:
                continue
            assert got == pytest.approx(f(unit, unit_p), rel=1e-12, abs=0.0), (m, p)

    @pytest.mark.parametrize("k", [1e103, 1e-110, 1e150])
    def test_repros(self, k):
        self._as_unit_or_error(variance_market(0.5 * k, 0.45 * k, k), 0.64 * k,
                               variance_market(0.5, 0.45, 1.0), 0.64)

    # In the first the mass solve's denominator overflows, which must not read as
    # masses of 0; in the second a numerator, which the mid piece's clip to
    # [0, 1] must not hide (the unit-scale ratio is 0.2612).
    OVERFLOW_REPROS = [
        (2.4677259612567147e102, 3.3281609872141574e102, 8.01115883693618e102,
         4.3414452273498397e102),
        (2.935271635327524e102, 3.0659204400989813e102, 8.620346703126592e102,
         2.251786646033724e102)]

    @pytest.mark.parametrize("mu,sigma,beta,p", OVERFLOW_REPROS)
    def test_overflowing_mass_solve_repros(self, mu, sigma, beta, p):
        unit = variance_market(mu / 1e102, sigma / 1e102, beta / 1e102)
        self._as_unit_or_error(variance_market(mu, sigma, beta), p, unit, p / 1e102)

    @classmethod
    def _check_scaled(cls, mu, spread, u, frac, e):
        k, beta = 2.0 ** e, mu * spread
        sigma = u * math.sqrt(mu * (beta - mu))
        cls._as_unit_or_error(variance_market(mu * k, sigma * k, beta * k), frac * beta * k,
                              variance_market(mu, sigma, beta), frac * beta)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.3, 3.5), u=st.floats(0.1, 0.9),
           frac=st.floats(1e-3, 1.0), e=st.integers(-400, 400))
    def test_scaled_variance_markets(self, mu, spread, u, frac, e):
        self._check_scaled(mu, spread, u, frac, e)

    @pytest.mark.parametrize("e", range(338, 343))
    def test_scales_where_the_mass_solve_starts_to_overflow(self, e):
        # The draws above never land here; at 2**340 some denominators overflow
        # and some do not.
        rng = np.random.default_rng(e)
        for _ in range(40):
            mu, spread, u = rng.uniform((0.3, 1.3, 0.1), (1.5, 3.5, 0.9)).tolist()
            for frac in rng.uniform(1e-3, 1.0, 8).tolist():
                self._check_scaled(mu, spread, u, frac, e)

    def test_power_repro_raises_without_warnings(self):
        # The companion solve's coefficients overflow at 1e150 silently (the
        # suite turns a RuntimeWarning into an error); the mass solve then
        # overflows and the optimizer raises.  At 1e103 it prices as the unit market.
        k = 1e150
        with pytest.raises(InternalConsistencyError):
            optimal_price_power(0.5 * k, 0.45 * k ** 1.5, 1.5, k)
        k, unit = 1e103, optimal_price_power(0.5, 0.45, 1.5, 1.0).price
        assert optimal_price_power(0.5 * k, 0.45 * k ** 1.5, 1.5, k).price / k == \
            pytest.approx(unit, rel=1e-12)

    @pytest.mark.parametrize("sub", ["cr", "bounds"])
    def test_cli_exits_2(self, capsys, sub):
        code, out, _ = run(capsys, [sub, "--mu", "5e102", "--sigma", "4.5e102",
                                    "--beta", "1e103", "--p", "6.4e102"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("sub", ["cr", "bounds"])
    def test_cli_exits_2_where_the_mass_solve_overflows(self, capsys, sub):
        mu, sigma, beta, p = map(repr, self.OVERFLOW_REPROS[0])
        code, out, _ = run(capsys, [sub, "--mu", mu, "--sigma", sigma, "--beta", beta, "--p", p])
        assert (code, out) == (2, "")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mu=st.floats(0.3, 1.5), spread=st.floats(1.3, 3.5), u=st.floats(0.1, 0.9),
           fracs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
           e=st.integers(-400, 400))
    def test_upper_mode_is_exact_under_binary_scaling(self, mu, spread, u, fracs, e):
        k, beta = 2.0 ** e, mu * spread
        sigma = u * math.sqrt(mu * (beta - mu))
        unit = variance_market(mu, sigma, beta, mode=MODE_UPPER)
        big = variance_market(mu * k, sigma * k, beta * k, mode=MODE_UPPER)
        for f in (tail_prob_min_dispersion_ub, worst_case_cr_dispersion_ub):
            for frac in fracs:
                assert f(big, frac * beta * k) == f(unit, frac * beta)

    @pytest.mark.parametrize("k", [1e103, 1e-110, 1e150])
    @pytest.mark.parametrize("x", [0.1, 0.3, 0.64])
    def test_upper_mode_repros(self, k, x):
        # Decimal scaling is not exact: within 1e-12 of the unit-scale market.
        unit, big = (variance_market(0.5 * c, 0.45 * c, c, mode=MODE_UPPER) for c in (1.0, k))
        for f in (tail_prob_min_dispersion_ub, worst_case_cr_dispersion_ub):
            assert f(big, x * k) == pytest.approx(f(unit, x), rel=1e-12, abs=0.0)

    def test_cli_upper_mode_answers(self, capsys):
        obj = run_json(capsys, ["cr", "--mode", "upper", "--mu", "5e102", "--sigma", "4.5e102",
                                "--beta", "1e103", "--p", "3e102"])
        assert obj["cr"] == 0.285714285714


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


class TestPriceCheck:
    """Every entry point rejects a price that is not a positive finite number,
    also where the maximum valuation is infinite."""

    EXACT = variance_market(0.5, 0.3, math.inf)
    UPPER = variance_market(0.5, 0.3, math.inf, mode=MODE_UPPER)

    @pytest.mark.parametrize("price", [math.inf, math.nan])
    @pytest.mark.parametrize("f,upper", [
        (tail_bounds, False), (tail_prob_min, False), (tail_prob_max, False),
        (cond_exp_max, False), (best_case_revenue, False), (worst_case_revenue, False),
        (worst_case_cr, False), (worst_case_distribution, False),
        (tail_prob_min_dispersion_ub, True), (worst_case_cr_dispersion_ub, True)])
    def test_non_finite_price_raises(self, f, upper, price):
        m = self.UPPER if upper else self.EXACT
        with pytest.raises(RobustPriceError, match="price|p="):
            f(m, price)
        if f is not worst_case_distribution:   # it takes one price
            with pytest.raises(RobustPriceError, match="price|p="):
                f(m, np.array([0.2, price]))


def test_measure_evaluated_once_per_price():
    # The pass evaluates the measure at the price alone: phi(0) and phi(beta)
    # are kept on the market with its thresholds.
    calls = []

    def value(x):
        calls.append(np.size(x))
        return np.exp(np.asarray(x, dtype=float) / 0.5)

    m = MarketInfo(0.5, 3.0, 1.0, custom_measure(value, lambda x: value(x) / 0.5))
    p = 0.5 * (left_threshold(m) + right_threshold(m))
    tail_bounds(m, p)   # warms the market up
    for f in (tail_bounds, best_case_revenue):
        calls.clear()
        assert f(m, p) is not None
        assert calls == [1]


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


def _market(family, mu, spread, u, q, bounded, mode=MODE_EXACT):
    beta = mu * spread if bounded else math.inf
    if family == "variance":
        smax = math.sqrt(mu * (beta - mu)) if bounded else 2.0 * mu
        return variance_market(mu, u * smax, beta, mode=mode)
    if family == "power":
        lo = mu ** q
        hi = mu * beta ** (q - 1.0) if bounded else 4.0 * lo
        return power_market(mu, lo + u * (hi - lo), q, beta, mode=mode)
    lo = math.e
    hi = (1 - 1 / spread) + math.exp(spread) / spread if bounded else 4.0 * lo
    return MarketInfo(mu, lo + u * (hi - lo), beta, _exp_measure(mu), mode)


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


def _exact_low_cr(m, p):
    """The ratio of a variance market at a float price p up to t1, in 50-digit
    decimal arithmetic, from the market's exact sigma**2: the {p, a} member
    with a = mu + sigma**2 / (mu - p); inf tail (mu - p) / (a - p), sup 1,
    conditional expectation a."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu, x = Decimal(m.mu), Decimal(p)
        a = mu + Decimal(m.excess) / (mu - x)
        return float(min((mu - x) / (a - x), x / a))

_MARKET_ARGS = (st.sampled_from(["variance", "power", "custom"]), st.floats(0.3, 1.5),
                st.floats(1.3, 3.5), st.floats(0.1, 0.9),
                st.floats(1.1, 8.0, exclude_min=True))
_markets = st.builds(_market, *_MARKET_ARGS, st.booleans())
# The same market in exact and in upper mode.
_market_pairs = st.builds(lambda *args: (_market(*args), _market(*args, mode=MODE_UPPER)),
                          *_MARKET_ARGS, st.booleans())


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



@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=_markets, anchor=st.sampled_from(["t1", "t2"]))
def test_pieces_meet_at_the_thresholds(m, anchor):
    # Continuity at the thresholds is a theorem: the pieces on either side of
    # t, each run on its own side 1e-13 t away, give the same tails.  The
    # mass solve divides by about p * beta, so the tolerance grows like
    # beta / t near p = 0.
    t = {"t1": left_threshold(m), "t2": right_threshold(m)}[anchor]
    p = np.array([t * (1.0 - 1e-13), t * (1.0 + 1e-13)])
    assume(p[1] <= m.beta)
    inf, sup, _, regime = bounds._tails(m, p)
    assert regime[0] < regime[1]
    scale = m.beta if math.isfinite(m.beta) else m.mu
    tol = 1e-9 * max(1.0, scale / t)
    assert abs(inf[1] - inf[0]) <= tol
    assert abs(sup[1] - sup[0]) <= tol

@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=_market_pairs, fracs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
def test_upper_mode_pieces(pair, fracs):
    # The upper mode's rule, which only the pass's pieces spell out: up to t1
    # the exact-mode tail and ratio, above it the mean/maximum-only ones; bit
    # for bit, a price alone and inside an array.
    exact, upper = pair
    mu, beta = exact.mu, exact.beta
    t1, t2 = left_threshold(exact), right_threshold(exact)
    top = beta if math.isfinite(beta) else 3.0 * t2
    ps = [t1 * (1.0 - 1e-13), t1, t1 * (1.0 + 1e-13), mu * (1.0 - 1e-13), mu, t2, top,
          *(frac * top for frac in fracs)]
    ps = [p for p in ps if 0 < p <= top]
    want = [(tail_prob_min(exact, p), worst_case_cr(exact, p).cr) if p <= t1 else
            ((mu - p) / (beta - p) if p < mu else 0.0, worst_case_cr_mean_range(mu, beta, p))
            for p in ps]
    assert [(tail_prob_min_dispersion_ub(upper, p), worst_case_cr_dispersion_ub(upper, p))
            for p in ps] == want
    arr = np.array(ps)
    assert list(zip(tail_prob_min_dispersion_ub(upper, arr).tolist(),
                    worst_case_cr_dispersion_ub(upper, arr).tolist())) == want


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


_bounded_markets = st.builds(_market, *_MARKET_ARGS, st.just(True))


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


# --------------------------------------------------------------------------
# One price alone and inside an array.

def _outcome(f, m, p):
    """f(m, p) with every float as its repr, so -0.0 is not 0.0, or the error's
    class and message."""
    try:
        v = f(m, p)
    except RobustPriceError as e:
        return type(e), str(e)
    if isinstance(v, np.ndarray):
        return [repr(x) for x in v.tolist()]
    fields = vars(v) if hasattr(v, "__dataclass_fields__") else {"": v}
    return {k: [repr(x) for x in x.tolist()] if isinstance(x, np.ndarray) else
            (type(x), repr(x)) for k, x in fields.items()}


def _as_array_entries(f, m, ps):
    """f on the price array ps, as a list of per-price outcomes like _outcome's
    on a scalar: each price's floats are Python floats, its labels str."""
    got = _outcome(f, m, np.array(ps))
    if isinstance(got, list):
        return [{"": (float, x)} for x in got]
    return [{k: (str if k in ("branch", "regime") else float, v[i]) for k, v in got.items()}
            for i in range(len(ps))]


# The entry points of the tail pass, exact mode and upper mode.
_EXACT_FS = [tail_bounds, worst_case_cr, worst_case_revenue, cond_exp_max, best_case_revenue,
             tail_prob_min, tail_prob_max]
_UPPER_FS = [tail_prob_min_dispersion_ub, worst_case_cr_dispersion_ub]


def _check_alone_as_in_array(m, f, prices):
    """Each price's outcome alone is its entry in an array of the prices that
    answer, in both orders, and a price that raises alone raises the same class
    and message beside one that answers.  Arrays of two or more prices run the
    numpy pieces; a price alone runs the pass's float path."""
    alone = [(p, _outcome(f, m, p)) for p in prices]
    ok = [(p, got) for p, got in alone if not isinstance(got, tuple)]
    for pairs in (ok, ok[::-1]):
        if len(pairs) >= 2:
            ps, want = zip(*pairs)
            assert _as_array_entries(f, m, ps) == list(want), (m, f.__name__)
    for p, got in alone:
        if isinstance(got, tuple) and ok:
            assert _outcome(f, m, np.array([ok[0][0], p])) == got, (m, f.__name__, p)
    return ok


class TestScalarEqualsArray:
    """A price gets the same bits alone as inside an array, in every regime,
    within 5e-13 beta of each threshold, at the mean and at beta, and a bad
    price the same error.  One price takes the tail pass's float path and an
    array its numpy pieces, so this holds the two paths to each other."""

    MARKETS = {
        "power_q1.5": lambda mode: power_market(0.5, 0.45, 1.5, 1.0, mode=mode),
        "custom_exp": lambda mode: MarketInfo(0.5, 3.0, 1.0, _exp_measure(0.5), mode),
        "beta_inf": lambda mode: variance_market(0.5, 0.3, math.inf, mode=mode),
        "point_mass": lambda mode: variance_market(0.5, 0.0, 1.0, mode=mode),
        "maximal_dispersion": lambda mode: variance_market(0.5, 0.5, 1.0, mode=mode),
        "variance": lambda mode: variance_market(0.5, 0.3, 1.0, mode=mode),
    }

    @classmethod
    def _market(cls, name, f):
        return cls.MARKETS[name](MODE_UPPER if f in _UPPER_FS else MODE_EXACT)

    @staticmethod
    def _prices(m):
        t1, t2 = left_threshold(m), right_threshold(m)
        half = 0.5 * _BAND * (m.beta if math.isfinite(m.beta) else m.mu)
        ps = [0.3 * t1, t1 - half, t1, t1 + half, 0.5 * (t1 + t2), m.mu, t2 - half, t2,
              t2 + half, 0.5 * (t2 + min(m.beta, 2.0 * t2)), m.beta]
        return [p for p in ps if 0 < p < math.inf]

    @pytest.mark.parametrize("name", list(MARKETS))
    @pytest.mark.parametrize("f", _EXACT_FS[:5] + _UPPER_FS + _EXACT_FS[5:])
    def test_array_entries_equal_scalar_calls(self, name, f):
        m = self._market(name, f)
        assert len(_check_alone_as_in_array(m, f, self._prices(m))) >= 4

    @pytest.mark.parametrize("name", list(MARKETS))
    @pytest.mark.parametrize("f", _EXACT_FS + _UPPER_FS)
    def test_bad_prices_raise_alike(self, name, f):
        m = self._market(name, f)
        bad = [0.0, -1.0, math.nan, math.inf, 1.5 * m.beta, -0.0]
        if f is best_case_revenue and right_threshold(m) < m.beta:
            bad.append(0.5 * (right_threshold(m) + m.beta))   # defined up to t2 only
        for p in bad:
            assert isinstance(_outcome(f, m, p), tuple), p
        _check_alone_as_in_array(m, f, bad + [0.3 * m.mu])

    @pytest.mark.parametrize("name", list(MARKETS))
    @pytest.mark.parametrize("f", _EXACT_FS + _UPPER_FS)
    def test_scalar_results_are_python_floats_and_str(self, name, f):
        m = self._market(name, f)
        for p in self._prices(m):
            for x in (p, np.float64(p)):
                got = _outcome(f, m, x)
                if not isinstance(got, tuple):
                    assert {t for t, _ in got.values()} <= {float, str}
                    assert {k for k, (t, _) in got.items() if t is str} <= {"branch", "regime"}

    def test_infinite_beta_at_the_mean(self):
        # The low piece's limit at mu, where mu - p is 0: a float path that
        # divided by it would raise ZeroDivisionError, numpy gives inf.
        m = variance_market(0.5, 0.3, math.inf)
        tb = tail_bounds(m, 0.5)
        assert (tb.inf_tail, tb.sup_tail, tb.sup_cond_exp, tb.regime) == \
            (0.0, 1.0, math.inf, REGIME_LOW)
        assert _outcome(tail_bounds, m, 0.5) == _as_array_entries(tail_bounds, m, [0.5, 0.4])[0]

    def test_variance_companion_clipped_above_t2(self):
        # At the first float above this market's t2 the companion
        # mu + sigma**2 / (mu - p) rounds below 0; both paths clip it to 0,
        # which moves the last bit of the sup tail.
        m = variance_market(0.40276056288760104, 0.47507602817276334, 1.1661986016348287)
        p = math.nextafter(right_threshold(m), math.inf)
        assert m.mu + m.excess / (m.mu - p) < 0
        for f in (tail_bounds, tail_prob_max):
            _check_alone_as_in_array(m, f, [p, 0.5 * (p + m.beta)])
        assert tail_prob_max(m, p) == m.mu / p


class TestTailPassCost:
    """A one-price call runs its regime's piece once, on a Python float: the
    piece the array pass runs on each regime's prices.  The price goes back to
    the array pieces only in a one-member market, which runs no piece, and at
    a beta = inf mid price below t2 where the bounds must be attained, which
    raises there.  The scalar returners answer from those floats: a variance
    price makes no numpy call, and another measure enters np.errstate only
    around its phi or companion call."""

    MARKETS = {
        "power": lambda mode: power_market(0.5, 0.45, 1.5, 1.0, mode=mode),
        "custom_exp": lambda mode: MarketInfo(0.5, 3.0, 1.0, _exp_measure(0.5), mode),
        "variance": lambda mode: variance_market(0.5, 0.3, 1.0, mode=mode),
        "variance_beta_inf": lambda mode: variance_market(0.5, 0.3, math.inf, mode=mode),
        "power_beta_inf": lambda mode: power_market(0.5, 0.45, 1.5, math.inf, mode=mode),
    }
    CALLS = {MODE_EXACT: (tail_bounds, worst_case_cr, worst_case_revenue),
             MODE_UPPER: (worst_case_cr_dispersion_ub,)}

    @pytest.fixture
    def pieces(self, monkeypatch):
        calls, piece = [], bounds._piece

        def counted(market, k, exact, x, ops):
            calls.append(type(x))
            return piece(market, k, exact, x, ops)

        monkeypatch.setattr(bounds, "_piece", counted)
        return calls

    @staticmethod
    def _prices(m):
        t1, t2, top = left_threshold(m), right_threshold(m), min(m.beta, 2.0 * right_threshold(m))
        return [p for p in (0.3 * t1, t1, 0.5 * (t1 + t2), m.mu, t2, 0.5 * (t2 + top), m.beta)
                if 0 < p < math.inf]

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_UPPER])
    @pytest.mark.parametrize("name", list(MARKETS))
    def test_one_price_runs_its_piece_on_a_float(self, pieces, name, mode):
        m = self.MARKETS[name](mode)
        backs = []
        for f in self.CALLS[mode]:
            for p in self._prices(m):
                pieces.clear()
                try:
                    f(m, p)
                except UnboundedSupportError:
                    backs.append((f.__name__, p))
                    assert pieces == [np.ndarray]
                else:
                    assert pieces == [float], (f.__name__, p)
        raising = {"variance_beta_inf": 0.59, "power_beta_inf": 0.655}
        assert backs == ([("tail_bounds", pytest.approx(raising[name]))]
                         if name in raising and mode == MODE_EXACT else [])

    # The point mass in both modes; {0, beta} is the one member in exact mode only.
    @pytest.mark.parametrize("m", [variance_market(0.5, 0.0, 1.0), variance_market(0.5, 0.5, 1.0),
                                   variance_market(0.5, 0.0, 1.0, mode=MODE_UPPER)],
                             ids=["point_mass", "maximal_dispersion", "point_mass_upper"])
    def test_a_one_member_market_runs_no_piece(self, pieces, m):
        for f in self.CALLS[m.mode]:
            for p in self._prices(m):
                f(m, p)
        assert pieces == []

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_UPPER])
    @pytest.mark.parametrize("name", list(MARKETS))
    def test_an_array_runs_the_same_pieces_on_arrays(self, pieces, name, mode):
        m = self.MARKETS[name](mode)
        f = worst_case_cr if mode == MODE_EXACT else worst_case_cr_dispersion_ub
        f(m, np.array(self._prices(m)))
        assert pieces and set(pieces) == {np.ndarray}

    # The scalar returners: one Python float or np.float64 price stays on floats.
    SCALAR_FS = {MODE_EXACT: (best_case_revenue, tail_prob_max, tail_prob_min, cond_exp_max,
                              worst_case_revenue, tail_bounds),
                 MODE_UPPER: (tail_prob_min_dispersion_ub,)}

    @pytest.fixture
    def events(self, monkeypatch):
        """What a call does outside the pieces' own float arithmetic, in order: 'errstate'
        for an np.errstate entered outside a phi or companion call, 'phi' and 'companion'
        for those calls, 'tails' for the array pass."""
        log, depth = [], [0]

        def logged(tag, f):
            def run(*args, **kwargs):
                if not depth[0]:
                    log.append(tag)
                depth[0] += 1
                try:
                    return f(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return run

        monkeypatch.setattr(np, "errstate", logged("errstate", np.errstate))
        monkeypatch.setattr(DispersionMeasure, "_value", logged("phi", DispersionMeasure._value))
        monkeypatch.setattr(bounds, "_companion", logged("companion", bounds._companion))
        monkeypatch.setattr(bounds, "_tails", logged("tails", bounds._tails))
        return log

    def _one_price_events(self, events, m):
        """{(function name, price): events of its second one-price call (the market's
        thresholds are then cached)}.  A price that must be attained where no member
        attains it goes to the array pass, which raises; best_case_revenue raises above
        t2 before any pass."""
        out = {}
        for f in self.SCALAR_FS[m.mode]:
            for p in self._prices(m):
                if f is best_case_revenue and p > right_threshold(m):
                    continue
                for x in (p, np.float64(p)):
                    events.clear()
                    try:
                        f(m, x)
                        events.clear()
                        f(m, x)
                    except UnboundedSupportError:
                        assert events[-1:] == ["tails"], (f.__name__, p)
                        continue
                    out[f.__name__, p] = list(events)
        return out

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_UPPER])
    @pytest.mark.parametrize("name", ["variance", "variance_beta_inf"])
    def test_a_variance_price_makes_no_numpy_call(self, events, name, mode):
        # phi is x * x and the companion the closed form: no errstate, no array pass.
        # The one numpy call left is the beta = inf low piece's companion at t1 = mu.
        m = self.MARKETS[name](mode)
        for (f, p), got in self._one_price_events(events, m).items():
            at_mean = p == m.mu and m.beta == math.inf
            assert got == (["errstate", "companion"] if at_mean else []), (f, p)

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_UPPER])
    @pytest.mark.parametrize("name", ["power", "custom_exp", "power_beta_inf"])
    def test_other_measures_enter_errstate_only_around_phi_or_companion(self, events, name,
                                                                        mode):
        m = self.MARKETS[name](mode)
        seen = self._one_price_events(events, m)
        for (f, p), got in seen.items():
            assert got[::2] == ["errstate"] * (len(got) // 2) and len(got) % 2 == 0, (f, p)
            assert set(got[1::2]) <= {"phi", "companion"}, (f, p)
        assert any(seen.values())   # each market has low prices, and each a companion


class TestScalarContract:
    """The scalar returners at one Python float or np.float64 price: a Python float (a
    str for the regime), bit for bit entry 0 of the call on np.array([p]), and a bad
    price the array call's error class and message, with every warning an error.  An
    upper-mode market raises ModeError as the array call does."""

    FS = TestTailPassCost.SCALAR_FS[MODE_EXACT]
    MARKETS = {
        **{f"{name}_{mode}": (lambda name=name, mode=mode: TestTailPassCost.MARKETS[name](mode))
           for name in TestTailPassCost.MARKETS for mode in (MODE_EXACT, MODE_UPPER)},
        "point_mass": lambda: variance_market(0.5, 0.0, 1.0),
        "maximal_dispersion": lambda: variance_market(0.5, 0.5, 1.0),
        # phi(beta) overflows, so every call raises in t1's companion solve, and
        # phi(p) overflows at the prices from 3.4e38 on.
        "power_q8_overflow": lambda: power_market(1e37, 1e300, 8.0, 1e40),
    }

    @staticmethod
    def _prices(m, f):
        """(prices in each regime and at the edges, prices that raise)."""
        good = [1e30, 1e37, 5e38, 1e39] if m.measure.q == 8.0 else TestTailPassCost._prices(m)
        bad = [0.0, -1.0, math.nan, math.inf] + ([1.5 * m.beta] if m.beta < math.inf else [])
        t2 = right_threshold(m)
        if f is best_case_revenue:   # defined up to t2 (1 + _BAND)
            bad += [t2 * (1.0 + 4.0 * _BAND)] + ([0.5 * (t2 + m.beta)] if t2 < m.beta else [])
        return good, bad

    @staticmethod
    def _entry0(f, m, p):
        got = _outcome(f, m, np.array([p]))
        return got if isinstance(got, tuple) else _as_array_entries(f, m, [p])[0]

    @pytest.mark.parametrize("name", list(MARKETS))
    @pytest.mark.parametrize("f", FS)
    def test_a_float_price_answers_as_its_one_element_array(self, name, f):
        m = self.MARKETS[name]()
        good, bad = self._prices(m, f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in good + bad:
                want = self._entry0(f, m, p)
                assert isinstance(want, tuple) or (p in good and m.mode == MODE_EXACT), p
                for x in (p, np.float64(p)):
                    assert _outcome(f, m, x) == want, (f.__name__, p, type(x))
        if m.mode == MODE_UPPER:
            for p in good:
                if not (f is best_case_revenue and p > right_threshold(m) * (1.0 + _BAND)):
                    with pytest.raises(ModeError):
                        f(m, p)


def _edge_prices(m, fracs):
    """Prices in every regime, at t1, t2, mu and beta and 1e-13 either side of
    them, and the first floats above t2."""
    t1, t2, mu, beta = left_threshold(m), right_threshold(m), m.mu, m.beta
    top = beta if math.isfinite(beta) else 3.0 * t2
    ups = [math.nextafter(t2, math.inf)]
    for _ in range(3):
        ups.append(math.nextafter(ups[-1], math.inf))
    ps = [0.5 * t1, 0.5 * (t1 + t2), 0.5 * (t2 + top), *ups, *(f * top for f in fracs)]
    for t in (t1, t2, mu, beta):
        ps += [t * (1.0 - 1e-13), t, t * (1.0 + 1e-13)]
    return [p for p in ps if 0 < p <= top]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=_market_pairs, fracs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
def test_scalar_equals_array_near_every_edge(pair, fracs):
    for m, fs in zip(pair, (_EXACT_FS, _UPPER_FS)):
        for f in fs:
            _check_alone_as_in_array(m, f, _edge_prices(m, fracs))
