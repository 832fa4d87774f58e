import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustprice import ambiguity, optimizer
from robustprice.ambiguity import (MarketInfo, _companion_array, _companion_float,
                                   _solve_companion, check_feasible, companion_point,
                                   is_point_mass, left_threshold, power_market,
                                   right_threshold, variance_market)
from robustprice.dispersion import custom_measure, power_moment
from robustprice.errors import InfeasibleMarketError, RobustPriceError, RootFindingError
from robustprice.optimizer import _ROOT_SCAN, optimal_price_general, optimal_price_power
from robustprice.ratio import worst_case_cr


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

    @pytest.mark.parametrize("value,deriv", [
        (lambda x: float(x) ** 2, lambda x: 2.0 * float(x)),   # scalars only
        (np.square, lambda x: 2.0 * float(x)),                  # the derivative scalars only
        (lambda x: float(np.sum(np.square(x))), lambda x: 2.0 * x)])   # not elementwise
    def test_custom_measure_must_map_arrays(self, value, deriv):
        # Such a pair passes a scalar probe, but the solvers call it on 1-d
        # arrays: the constructor says so instead of a builtin TypeError later.
        with pytest.raises(RobustPriceError, match="float array"):
            MarketInfo(0.5, 0.34, 1.0, custom_measure(value, deriv))
        m = MarketInfo(0.5, 0.34, 1.0, custom_measure(np.square, lambda x: 2.0 * x))
        assert left_threshold(m) == pytest.approx(0.32, rel=1e-12)

    @pytest.mark.parametrize("shift", [-10.0, 10.0])   # phi(mu) = -9.75 and 10.25
    def test_point_mass_of_a_measure_of_either_sign_at_the_mean(self, shift):
        measure = custom_measure(lambda x: np.square(np.asarray(x, dtype=float)) + shift,
                                 lambda x: 2.0 * np.asarray(x, dtype=float))
        phi_mu = 0.25 + shift
        for s in (phi_mu, phi_mu - 5e-12, phi_mu + 5e-12):
            m = MarketInfo(mu=0.5, s=s, beta=1.0, measure=measure)
            assert m.is_degenerate
            assert optimal_price_general(m).price == 0.5
        with pytest.raises(InfeasibleMarketError, match="point-mass minimum"):
            MarketInfo(mu=0.5, s=phi_mu - 1e-9, beta=1.0, measure=measure)

    @pytest.mark.parametrize("mu,q", [(0.5, 2.0), (0.7, 1.5), (3e5, 3.0), (2e-6, 2.0),
                                      (1.3, 1.1)])
    def test_positive_phi_verdicts_kept_around_the_old_edge(self, mu, q):
        # The former rule rejected s < phi(mu) (1 - 1e-12).  Within 40 ulps of that
        # edge the verdict is unchanged except at the edge itself, where the old
        # rule accepted a market below phi(mu) that is not the point mass.
        phi_mu = power_moment(q).value(mu)
        edge = phi_mu * (1 - 1e-12)
        grid, below, above = [edge], edge, edge
        for _ in range(40):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            grid += [below, above]
        for s in grid:
            try:
                power_market(mu, s, q, 2.0 * mu)
                accepted = True
            except InfeasibleMarketError:
                accepted = False
            assert accepted == bool(s >= phi_mu or is_point_mass(s - phi_mu, s, phi_mu))
            if s != edge:
                assert accepted == (not s < edge)

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
        assert left_threshold(m) < m.mu < right_threshold(m)


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
    def test_scale_preserves_thresholds(self):
        # Scaling (mu, beta) by k and s by k**q scales both thresholds by k.
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        k = 2.0
        scaled = power_market(mu=k * 0.5, s=0.45 * k ** 1.5, q=1.5, beta=k * 1.0)
        assert right_threshold(scaled) == pytest.approx(k * right_threshold(m), abs=1e-10)
        assert left_threshold(scaled) == pytest.approx(k * left_threshold(m), abs=1e-10)


def _exp_measure(mu):
    """phi(x) = exp(x / mu), a strictly convex custom measure."""
    return custom_measure(lambda x: np.exp(np.asarray(x, dtype=float) / mu),
                          lambda x: np.exp(np.asarray(x, dtype=float) / mu) / mu)


def _companion_markets():
    mu, beta = 0.7, 1.8
    out = []
    for q in (1.05, 1.5, 2.5, 4.0):
        lo, hi = mu ** q, mu * beta ** (q - 1.0)
        out.append(power_market(mu=mu, s=lo + 0.4 * (hi - lo), q=q, beta=beta))
    lo, hi = math.e, (1 - mu / beta) + (mu / beta) * math.exp(beta / mu)
    out.append(MarketInfo(mu=mu, s=lo + 0.4 * (hi - lo), beta=beta, measure=_exp_measure(mu)))
    return out


def _brentq_companion(market, p):
    """Scalar reference: bracket above the mean by doubling, then brentq.

    The defining equation phi(a)(mu-p) + phi(p)(a-mu) - s(a-p) = 0 is
    grouped as phi(a)(mu-p) + (phi(p)-s) a + (s p - phi(p) mu): expanded, its
    terms of size s*a cancel, which for q near 1 and p near mu (a ~ 1e5 mu)
    moves the computed root by about 1e-13 relative.  phi is evaluated on
    one-element arrays, as the solver does: numpy's vectorized pow may round
    differently from the scalar one, which there moves the root as much.
    """
    from scipy.optimize import brentq
    mu, s, m = market.mu, market.s, market.measure
    phi_p = m.value(np.array([p]))[0]

    def g(a):
        return m.value(np.array([a]))[0] * (mu - p) + (phi_p - s) * a + (s * p - phi_p * mu)

    if p < mu:
        step = mu
        while g(mu + step) <= 0:
            step *= 2.0
        return brentq(g, mu, mu + step, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    if g(0.0) >= 0:
        return 0.0
    return brentq(g, 0.0, mu, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def _companion_prices(market):
    t1, t2 = left_threshold(market), right_threshold(market)
    return np.concatenate([np.linspace(1e-6, market.mu * 0.999, 40), [t1, t2],
                           np.linspace(t2, market.beta, 12)[1:]])


class TestCompanionArray:
    @pytest.mark.parametrize("market", _companion_markets(),
                             ids=["q1.05", "q1.5", "q2.5", "q4", "exp"])
    def test_matches_brentq_reference(self, market):
        ps = _companion_prices(market)
        got = companion_point(market, ps)
        ref = np.array([_brentq_companion(market, p) for p in ps])
        # Relative to the companion, or to the mean where it is near 0.
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), market.mu))

    @pytest.mark.parametrize("market", _companion_markets(),
                             ids=["q1.05", "q1.5", "q2.5", "q4", "exp"])
    def test_array_entries_equal_scalar_calls(self, market):
        ps = _companion_prices(market)
        got = companion_point(market, ps)
        assert got.shape == ps.shape
        assert [companion_point(market, float(p)) for p in ps] == list(got)

    def test_shape_kept(self):
        m = _companion_markets()[1]
        ps = np.linspace(0.1, 0.6, 6).reshape(2, 3)
        assert companion_point(m, ps).shape == (2, 3)
        assert isinstance(companion_point(m, 0.3), float)

    @pytest.mark.parametrize("market", _companion_markets()[1:2]
                             + [variance_market(0.5, 0.5, 1.2)], ids=["power", "variance"])
    def test_array_raises_like_scalar(self, market):
        mu, t2 = market.mu, right_threshold(market)
        inside = 0.5 * (mu + t2)
        for bad, match in ((mu, "singular"), (-0.1, "nonnegative"),
                           (inside, "no companion point")):
            with pytest.raises(RobustPriceError, match=match):
                companion_point(market, bad)
            with pytest.raises(RobustPriceError, match=match):
                companion_point(market, np.array([0.2, bad, t2]))


    @pytest.mark.parametrize("market", [power_market(0.5, 0.45, 1.5, 1.0),
                                        variance_market(0.5, 0.3, math.inf),
                                        variance_market(0.5, 0.3, 1.0),
                                        variance_market(0.5, 0.0, 1.0)],
                             ids=["power", "variance-unbounded", "variance", "point-mass"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_raises(self, market, bad):
        with pytest.raises(RobustPriceError, match="nonnegative and finite"):
            companion_point(market, bad)
        with pytest.raises(RobustPriceError, match="nonnegative and finite"):
            companion_point(market, np.array([0.2, bad]))


class TestThresholdCache:
    def test_solved_once_per_market(self):
        calls = []
        q = 1.5

        def value(x):
            calls.append(1)
            return np.power(x, q)

        m = MarketInfo(mu=0.5, s=0.45, beta=1.0,
                       measure=custom_measure(value, lambda x: q * np.sqrt(x)))
        t1, t2 = left_threshold(m), right_threshold(m)
        n = len(calls)
        assert n > 0
        assert (left_threshold(m), right_threshold(m)) == (t1, t2)
        assert m.is_degenerate is False
        assert len(calls) == n

    def test_replace_gives_fresh_thresholds(self):
        from dataclasses import replace
        m = power_market(mu=0.5, s=0.45, q=1.5, beta=1.0)
        t1 = left_threshold(m)
        m2 = replace(m, s=0.40)
        fresh = power_market(mu=0.5, s=0.40, q=1.5, beta=1.0)
        assert left_threshold(m2) == left_threshold(fresh) != t1
        assert right_threshold(m2) == right_threshold(fresh) != right_threshold(m)
        assert left_threshold(m) == t1

    def test_failure_not_cached(self):
        m = variance_market(0.5, 0.8, 1.0)   # sigma^2 > mu (beta - mu)
        for _ in range(2):
            with pytest.raises(InfeasibleMarketError):
                left_threshold(m)


# --------------------------------------------------------------------------
# Companion solves of a few prices on Python floats.

def _answer(solve, market, p):
    """solve(market, p) as a list of floats, or its (error type, message)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return solve(market, np.array(p)).tolist()
        except RobustPriceError as e:
            return type(e), str(e)


@st.composite
def _float_cases(draw):
    """(market, 1-4 prices): a power q in (1, 8], q within 1e-3 of 1 included,
    or exp(x / mu); scales 2**-60, 1, 2**60; beta = inf or mu (1 + r); the
    dispersion near the point mass, inside or near the cap; prices near 0, t1,
    mu (1 -+ 1e-9), t2, t2 (1 + 1e-12) and above t2."""
    mu = 0.7 * draw(st.sampled_from([2.0 ** -60, 1.0, 2.0 ** 60]))
    finite = draw(st.booleans())
    beta = mu * (1.0 + draw(st.floats(1e-6, 100.0))) if finite else math.inf
    frac = draw(st.sampled_from([1e-10, 1e-6, 0.4, 1.0 - 1e-6, 1.0 - 1e-12]))
    if draw(st.booleans()):
        q = draw(st.floats(1.0, 1.001, exclude_min=True) | st.floats(1.0, 8.0, exclude_min=True))
        measure, lo = power_moment(q), mu ** q
        hi = mu * beta ** (q - 1.0) if finite else 4.0 * lo
    else:
        measure, lo = _exp_measure(mu), math.e
        hi = (1.0 - mu / beta) + (mu / beta) * math.exp(beta / mu) if finite else 4.0 * lo
    try:
        market = MarketInfo(mu=mu, s=lo + frac * (hi - lo), beta=beta, measure=measure)
        t1, t2 = left_threshold(market), right_threshold(market)
    except RobustPriceError:
        t1 = t2 = math.nan
    assume(t2 == t2 and not market.is_degenerate)
    near = {"0": mu * draw(st.floats(0.0, 1e-6)), "t1": t1 * (1.0 + draw(st.floats(-1e-9, 1e-9))),
            "mu-": mu * (1.0 - 1e-9), "mu+": mu * (1.0 + 1e-9), "t2": t2,
            "t2+": t2 * (1.0 + 1e-12), "above": t2 * (1.0 + draw(st.floats(1e-6, 10.0)))}
    prices = [near[k] for k in draw(st.lists(st.sampled_from(sorted(near)), min_size=1,
                                             max_size=4))]
    assume(all(math.isfinite(x) for x in prices))
    return market, prices


class TestCompanionFloat:
    """A few prices are solved on Python floats with the array loop's bits;
    a price the float loop hands back takes the array loop, which answers or
    raises as before."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_float_cases())
    def test_float_path_is_the_array_loop_bit_for_bit(self, case):
        market, prices = case
        assert _answer(_solve_companion, market, prices) == \
            _answer(_companion_array, market, prices)
        for x in prices:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                got = _companion_float(market, x)
            if got is not None:   # an answer is the array's, its sign bit included
                want, = _answer(_companion_array, market, [x])
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    def test_a_custom_phi_other_than_float64_is_handed_to_the_array_loop(self):
        # numpy keeps float32 in phi(p) - s, which Python floats would not.
        f32 = custom_measure(lambda x: np.power(x, 1.5).astype(np.float32),
                             lambda x: (1.5 * np.sqrt(x)).astype(np.float32))
        market = MarketInfo(mu=0.5, s=0.45, beta=1.0, measure=f32)
        prices = [0.1, 0.2, 0.9]
        assert [_companion_float(market, x) for x in prices] == [None] * 3
        assert _answer(_solve_companion, market, prices) == \
            _answer(_companion_array, market, prices)

    def test_a_non_finite_phi_is_handed_to_the_array_loop(self):
        market = power_market(0.5, 0.45, 1.5, math.inf)
        with np.errstate(over="ignore"):
            assert _companion_float(market, 1e300) is None
        assert _answer(_solve_companion, market, [1e300]) == \
            (RobustPriceError, "phi(p) is not finite at p = 1e+300")

    def test_doublings_that_run_out_raise_as_the_array_loop(self):
        market = power_market(1.0398010416042363, 1.0400556057023267, 1.000213072623831,
                              math.inf)
        p = 1.0387611366875478
        with np.errstate(over="ignore", invalid="ignore"):
            assert _companion_float(market, p) is None
        with pytest.raises(RootFindingError) as info:
            companion_point(market, p)
        assert str(info.value) == (
            f"no sign change found above {market.mu} after bracket expansion at p = {p} on "
            "MarketInfo(mu=1.0398010416042363, s=1.0400556057023267, beta=inf, measure="
            "DispersionMeasure(family='power', q=1.000213072623831), mode='exact')")


class TestCompanionCost:
    """One-price companions, the thresholds and the optimizer's Brent rounds
    never enter the array loop; the optimizer's low scan enters it once."""

    @pytest.fixture
    def array_calls(self, monkeypatch):
        calls = []

        def counted(market, p):
            calls.append(p.size)
            return _companion_array(market, p)

        monkeypatch.setattr(ambiguity, "_companion_array", counted)
        return calls

    def test_one_price_calls_stay_on_floats(self, array_calls):
        assert companion_point(power_market(0.5, 0.45, 1.5, 1.0), 0.2) > 0.5
        assert left_threshold(power_market(0.5, 0.45, 1.5, 1.0)) > 0
        exp = _companion_markets()[-1]
        assert companion_point(exp, [0.1, 0.2, 0.3, 0.4]).shape == (4,)
        low = power_market(0.5, 0.45, 1.5, 1.0)
        assert worst_case_cr(low, 0.1).regime == "low_two_point"
        assert array_calls == []

    # The first market's Brent rounds are all mid-regime ones; the others have low ones.
    @pytest.mark.parametrize("args, low_rounds", [((0.5, 0.45, 1.5, 1.0), False),
                                                  ((0.5, 0.3, 3.0, 1.0), True),
                                                  ((0.5, 0.45, 1.5, math.inf), True)])
    def test_the_optimizer_enters_the_array_loop_once(self, monkeypatch, array_calls, args,
                                                      low_rounds):
        rounds, residuals = [], optimizer._residuals

        def recording(market, p, low, cr):
            before = len(array_calls)
            out = residuals(market, p, low, cr)
            rounds.append((p.size, low, len(array_calls) - before))
            return out

        monkeypatch.setattr(optimizer, "_residuals", recording)
        optimal_price_power(*args)
        scans = [(low, n) for size, low, n in rounds if size == _ROOT_SCAN]
        steps = [(low, n) for size, low, n in rounds if size < _ROOT_SCAN]
        assert scans == [(True, 1), (False, 0)] if math.isfinite(args[3]) else [(True, 1)]
        assert steps and all(n == 0 for _, n in steps)
        assert any(low for low, _ in steps) == low_rounds
        assert array_calls == [_ROOT_SCAN]
