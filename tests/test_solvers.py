"""The package's own solvers: the scan-and-refine root search (Brent's
method on the scan's bracket), and optimal_price_general against the
scan-and-rescan maximizer it replaced, kept here as the reference."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import robustprice
from robustprice import optimizer
from robustprice.ambiguity import MarketInfo, left_threshold, right_threshold
from robustprice.dispersion import custom_measure, power_moment
from robustprice.errors import RootFindingError
from robustprice.optimizer import (_ROOT_SCAN, _brent, _refine, _search, _select,
                                   optimal_price_general, optimal_price_power)
from robustprice.ratio import worst_case_cr, worst_case_revenue

_XTOL, _RTOL = 1e-14, 4 * np.finfo(float).eps


def _wavy(x):
    return np.sin(3.0 * x) + 0.3 * x - 0.2


def _scalar(f):
    """f on one-element arrays, as a float-to-float function."""
    return lambda x: float(f(np.array([x]))[0])


def _reference(f, lo, hi, scale):
    """brentq root and its number of f calls, f evaluated on one-element arrays."""
    root, info = brentq(_scalar(f), lo, hi, xtol=_XTOL * scale, rtol=_RTOL, full_output=True)
    return root, info.function_calls


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)

    return g, calls


def _run(f, search):
    """The root of one Brent search, sent f(x) at each point x it yields."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def _solve(f, lo, hi, scale):
    """_brent on [lo, hi], handed the end residuals as a scan would."""
    g = _scalar(f)
    return _run(g, _brent(lo, hi, g(lo), g(hi), _XTOL * scale))


# Brackets of _wavy: sign changes of several widths, one wide bracket with
# three roots inside, and one very narrow.
_LO = [-0.5, 0.9, 1.8, -0.5, 0.0609137539]
_HI = [0.5, 1.6, 2.6, 2.6, 0.0609137559]


class TestSolveBracketed:
    """_brent: Brent's method on one bracket whose end residuals are known."""

    def test_several_brackets_match_brentq(self):
        for scale in (1.0, 1e-3, 1e3):
            for a, b in zip(_LO, _HI):
                assert _solve(_wavy, a, b, scale) == _reference(_wavy, a, b, scale)[0]

    def test_cubic_and_exponential_match_brentq(self):
        for f, lo, hi in ((lambda x: (x - 0.1) * (x - 0.25) * (x - 0.4), [0.0, 0.2, 0.3],
                           [0.2, 0.3, 0.5]),
                          (lambda x: np.exp(x) - 5.0, [0.0, -3.0, 1.6], [3.0, 10.0, 1.7])):
            for a, b in zip(lo, hi):
                assert _solve(f, a, b, 1.0) == _reference(f, a, b, 1.0)[0]

    def test_exact_root_at_bracket_end(self):
        f = lambda x: x - 0.5  # noqa: E731
        assert _solve(f, 0.5, 1.0, 1.0) == 0.5
        assert _solve(f, 0.0, 0.5, 1.0) == 0.5
        assert _solve(f, 0.2, 0.9, 1.0) == brentq(f, 0.2, 0.9, xtol=_XTOL, rtol=_RTOL)

    def test_no_sign_change_raises(self):
        with pytest.raises(RootFindingError, match="no sign change"):
            _solve(_wavy, 0.55, 0.6, 1.0)

    def test_f_calls_follow_brentq(self):
        # brentq evaluates the bracket ends; _brent is handed their residuals.
        f = _scalar(_wavy)
        for a, b in zip(_LO, _HI):
            g, calls = _recording(f)
            root = _run(g, _brent(a, b, f(a), f(b), _XTOL))
            assert (root, len(calls) + 2) == _reference(_wavy, a, b, 1.0)


class TestScanRoot:
    def test_nan_residual_raises(self):
        # A two-point scan brackets the root; the first step lands in the NaN.
        f = lambda x: np.where((x > 0.0) & (x < 1.0), np.nan, x - 0.5)  # noqa: E731
        grid = np.array([0.0, 1.0])
        with pytest.raises(RootFindingError, match="NaN"):
            _refine(lambda x: [f(x)], [_search(grid, f(grid), 1.0)])

    def test_refinement_never_revisits_the_scan(self, monkeypatch):
        # After the scan, each Brent round is one residual call with one point
        # per active search, in search order, and none of them on the grid.
        calls, runs = [], []
        residuals, refine = optimizer._residuals, optimizer._refine

        def recording_residuals(market, p, *args):
            calls.append(np.array(p, copy=True))
            return residuals(market, p, *args)

        def recording_refine(f, searches):
            points = [[] for _ in searches]
            first = len(calls)
            roots = refine(f, [_tapped(s, xs) for s, xs in zip(searches, points)])
            runs.append((calls[first - 1], calls[first:], points, roots))
            return roots

        monkeypatch.setattr(optimizer, "_residuals", recording_residuals)
        monkeypatch.setattr(optimizer, "_refine", recording_refine)
        optimal_price_power(0.5, 0.45, 1.5, 1.0)  # both mid roots
        optimal_price_power(0.5, 0.4, 1.5, 1.0)   # the low crossing only
        optimal_price_power(0.5, 0.45, 1.5, math.inf)  # both low roots, no mid regime
        # bar_p_l, hat_p_l, hat_p_h and bar_p_h of each market.
        roots = [r for *_, rs in runs for r in rs]
        assert [root is not None for root in roots] == [False, False, True, True] \
            + [True, False, False, False] + [True, True]
        for grid, rounds, points, roots in runs:
            assert grid.size == _ROOT_SCAN
            assert len(rounds) == max(map(len, points))
            for r, x in enumerate(rounds):
                assert x.tolist() == [xs[r] for xs in points if len(xs) > r]
                assert not np.isin(x, grid).any()
            for xs, root in zip(points, roots):
                assert len(xs) > 0 or root is None


def _tapped(search, points):
    """The generator search, recording each point it yields in points."""
    fx = None
    try:
        while True:
            points.append(search.send(fx))
            fx = yield points[-1]
    except StopIteration as stop:
        return stop.value


def _exp_market(k, u=0.5, mu0=0.5, beta0=1.2):
    """phi(x) = exp(x / mu): a custom measure whose s is scale-free."""
    mu = mu0 * k
    measure = custom_measure(lambda x: np.exp(np.asarray(x, dtype=float) / mu),
                             lambda x: np.exp(np.asarray(x, dtype=float) / mu) / mu)
    hi = (1 - mu0 / beta0) + (mu0 / beta0) * math.exp(beta0 / mu0)
    return MarketInfo(mu=mu, s=math.e + u * (hi - math.e), beta=beta0 * k, measure=measure)


class TestLockstepRefinement:
    """The searches of a regime step together and find the roots that each
    finds alone: the reference runs one condition's Brent search at a time,
    with its residual at one price per step."""

    @staticmethod
    def _one_at_a_time(market, lo, hi, low, cr):
        grid = np.linspace(lo, hi, _ROOT_SCAN)
        roots = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for label, fx in optimizer._residuals(market, grid, low, cr).items():
                def f(x, label=label):
                    return float(optimizer._residuals(market, np.array([x]), low, cr)[label][0])
                root = _run(f, optimizer._search(grid, fx, market.mu, label == "bar_p_h"))
                if root is not None:
                    roots.append((label, root))
        return roots

    @pytest.mark.parametrize("market", [
        MarketInfo(0.5, 0.45, 1.0, power_moment(1.5)),
        MarketInfo(0.5, 0.45, math.inf, power_moment(1.5)),
        _exp_market(1.0), _exp_market(1.0, u=0.2), _exp_market(1.0, u=0.8)],
        ids=["power", "power_unbounded", "exp", "exp_low_s", "exp_high_s"])
    @pytest.mark.parametrize("cr", [True, False], ids=["cr", "rev"])
    def test_roots_equal_one_search_at_a_time(self, market, cr):
        mu, t1, t2 = market.mu, left_threshold(market), right_threshold(market)
        finite = math.isfinite(market.beta)
        regimes = [(True, 1e-9 * mu, t1 if finite else mu * (1.0 - 1e-7))]
        regimes += [(False, t1, t2)] if finite and t1 > 0 else []
        found = 0
        for low, lo, hi in regimes:
            roots = optimizer._condition_roots(market, lo, hi, low, cr)
            assert roots == self._one_at_a_time(market, lo, hi, low, cr)
            found += len(roots)
        assert found > 0


def scan_and_rescan(market, objective="cr", tol=1e-8):
    """The reference maximizer: a 2,001-point scan of each regime, rescanned
    around its best point until the step is at most tol * mu (eps * mu at
    the finest).  Accurate up to the first scan for multi-modal objectives."""
    mu, eps = market.mu, float(np.finfo(float).eps)
    if market.is_degenerate:
        return _select([("p_l", mu, 1.0 if objective == "cr" else mu)])

    def f(p):
        return worst_case_cr(market, p).cr if objective == "cr" else worst_case_revenue(market, p)

    t1, t2 = left_threshold(market), right_threshold(market)
    if not math.isfinite(market.beta):
        t2 = mu  # beyond the low regime the objective is 0 when beta is infinite
    segments = [("p_l", 1e-9 * mu, t1)] if t1 > 0 else []
    if t2 > t1:
        segments.append(("p_h", t1 if t1 > 0 else 1e-9 * mu, t2))
    labels, lo, hi = (np.array(v) for v in zip(*segments))
    # A rescan spans at most two steps of the grid before it, so it divides
    # the step by (_ROOT_SCAN - 1) / 2 at least.
    shrink = math.log(np.max(hi - lo) / ((_ROOT_SCAN - 1) * mu)) - math.log(max(tol, eps))
    rows = np.arange(len(labels))
    best_p = best_v = np.full(len(labels), -np.inf)
    for _ in range(1 + max(0, math.ceil(shrink / math.log((_ROOT_SCAN - 1) / 2)))):
        grid = np.linspace(lo, hi, _ROOT_SCAN, axis=-1)
        vals = f(grid.reshape(-1)).reshape(grid.shape)
        i = np.argmax(vals, axis=1)
        p, v = grid[rows, i], vals[rows, i]
        best_p, best_v = np.where(v > best_v, p, best_p), np.maximum(v, best_v)
        lo = grid[rows, np.maximum(i - 1, 0)]
        hi = grid[rows, np.minimum(i + 1, _ROOT_SCAN - 1)]
    return _select(list(zip(labels.tolist(), best_p.tolist(), best_v.tolist())))


class TestGeneralOptimizerScale:
    @pytest.mark.parametrize("objective", ["cr", "rev"])
    @pytest.mark.parametrize("u", [0.3, 0.5, 0.8])
    def test_scale_invariant(self, objective, u):
        prices, values = [], []
        for k in (1e-6, 1.0, 1e6):
            sol = optimal_price_general(_exp_market(k, u), objective=objective)
            mu = _exp_market(k, u).mu
            prices.append(sol.price / mu)
            values.append(sol.value / (1.0 if objective == "cr" else mu))
        assert max(prices) - min(prices) <= 1e-7
        assert max(values) - min(values) <= 1e-12 * max(values)


class TestScanAndRescanReference:
    @pytest.mark.parametrize("objective", ["cr", "rev"])
    def test_coarse_tol_is_the_scan(self, objective):
        # A tol above the scan step needs no rescan, so the price is a scan
        # point; a finer tol only adds points, so its value is never lower.
        m = _exp_market(1.0)
        coarse = scan_and_rescan(m, objective, tol=1.0)
        fine = scan_and_rescan(m, objective, tol=1e-12)
        t1, t2 = left_threshold(m), right_threshold(m)
        lo, hi = (1e-9 * m.mu, t1) if coarse.label == "p_l" else (t1, t2)
        assert coarse.price in np.linspace(lo, hi, _ROOT_SCAN)
        assert fine.value >= coarse.value

    def test_tol_below_float_resolution_stops_at_eps(self):
        m = _exp_market(1.0)
        at_eps = scan_and_rescan(m, tol=np.finfo(float).eps)
        assert scan_and_rescan(m, tol=1e-300) == at_eps


def test_cli_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(robustprice.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, robustprice.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert "'robustprice'" in out
    assert "'scipy'" not in out


def test_public_names_resolve_once():
    names = robustprice.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(robustprice, name) is not None, name


def _family_market(family, mu, spread, u, q, bounded):
    """A market of phi = x**q, exp(x / mu) or x log1p(x) whose dispersion is
    the fraction u of its range on [0, mu * spread]: u = 0 is the point mass
    and u = 1 the {0, beta} member (t1 = 0); unbounded keeps that s."""
    if family == "power":
        measure = power_moment(q)
    elif family == "exp":
        measure = _exp_market(1.0, mu0=mu, beta0=mu * spread).measure
    else:
        measure = custom_measure(lambda x: x * np.log1p(x),
                                 lambda x: np.log1p(x) + x / (1.0 + x))
    beta = mu * spread
    lo = float(measure.value(mu))
    hi = (1.0 - mu / beta) * float(measure.value(0.0)) + mu / beta * float(measure.value(beta))
    return MarketInfo(mu, lo + u * (hi - lo), beta if bounded else math.inf, measure)


class TestGeneralOptimizerAgainstReference:
    # The markets of the quote workload (beta / mu in [1.3, 3.5]), with the
    # point mass and the {0, beta} member drawn as well.  Closer to the point
    # mass a low-regime value carries the companion solve's tolerance, about
    # 1e-13 relative where a - p is small, and the reference keeps the best
    # of thousands of such values, so it can sit above any one of them.
    # With q below about 1.01 the maxima are flat enough for the same reason.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(family=st.sampled_from(["power", "exp", "xlog1p"]), mu=st.floats(0.3, 1.5),
           spread=st.floats(1.3, 3.5),
           u=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 0.99)),
           q=st.floats(1.01, 4.0), bounded=st.booleans(), objective=st.sampled_from(["cr", "rev"]))
    @example(family="power", mu=0.5, spread=2.0, u=1.0, q=1.5, bounded=True, objective="cr")
    @example(family="exp", mu=0.5, spread=2.0, u=1.0, q=2.0, bounded=True, objective="rev")
    @example(family="xlog1p", mu=0.7, spread=3.0, u=0.0, q=2.0, bounded=True, objective="cr")
    @example(family="power", mu=0.5, spread=2.0, u=0.4, q=1.3, bounded=False, objective="rev")
    @example(family="xlog1p", mu=0.7, spread=3.0, u=0.6, q=2.0, bounded=False, objective="cr")
    def test_never_below_the_reference(self, family, mu, spread, u, q, bounded, objective):
        m = _family_market(family, mu, spread, u, q, bounded)
        got, ref = optimal_price_general(m, objective), scan_and_rescan(m, objective)
        assert got.value >= ref.value - 1e-13 * (1.0 if objective == "cr" else mu)
        if u == 1.0 and bounded and left_threshold(m) == 0.0:   # the {0, beta} member
            assert (got.label, got.price) == ("p_h" if objective == "cr" else "pi_h",
                                              right_threshold(m))
