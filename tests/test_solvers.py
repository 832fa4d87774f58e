"""The package's own solvers: the scan-and-refine root search (Brent's
method on the scan's bracket), and the scan-and-rescan maximizer of
optimal_price_general."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import robustprice
from robustprice import optimizer
from robustprice.ambiguity import MarketInfo, left_threshold, right_threshold
from robustprice.dispersion import custom_measure
from robustprice.errors import RobustPriceError, RootFindingError
from robustprice.optimizer import (_ROOT_SCAN, _brent, _scan_root, optimal_price_general,
                                   optimal_price_power, sigma_star)

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


def _solve(f, lo, hi, scale):
    """_brent on [lo, hi], handed the end residuals as a scan would."""
    g = _scalar(f)
    return _brent(g, lo, hi, g(lo), g(hi), _XTOL * scale)


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
            root = _brent(g, a, b, f(a), f(b), _XTOL)
            assert (root, len(calls) + 2) == _reference(_wavy, a, b, 1.0)


class TestScanRoot:
    def test_nan_residual_raises(self):
        # A two-point scan brackets the root; the first step lands in the NaN.
        f = lambda x: np.where((x > 0.0) & (x < 1.0), np.nan, x - 0.5)  # noqa: E731
        with pytest.raises(RootFindingError, match="NaN"):
            _scan_root(f, 0.0, 1.0, 1.0, n=2)

    def test_no_root_is_none(self):
        assert _scan_root(lambda x: np.exp(x), -1.0, 1.0, 1.0) is None

    def test_empty_interval_is_none_and_calls_nothing(self):
        g, calls = _recording(_wavy)
        assert _scan_root(g, 0.5, 0.5, 1.0) is None
        assert _scan_root(g, 0.5, 0.4, 1.0) is None
        assert calls == []

    def test_refinement_never_revisits_the_scan(self, monkeypatch):
        # Every call after the scan is one Brent step, at a point off its grid.
        scans = []
        scan_root = optimizer._scan_root

        def recording_scan(f, *args, **kwargs):
            g, calls = _recording(f)
            root = scan_root(g, *args, **kwargs)
            scans.append((calls, root))
            return root

        monkeypatch.setattr(optimizer, "_scan_root", recording_scan)
        sigma_star(0.5, 1.0)
        optimal_price_power(0.5, 0.45, 1.5, 1.0)  # no low root below t1
        optimal_price_power(0.5, 0.4, 1.5, 1.0)   # all three roots
        # The threshold, then bar_p_l, hat_p_l and bar_p_h of each market.
        assert [root is not None for _, root in scans] == [True] + [False, False, True] \
            + [True] * 3
        for (grid, *steps), root in scans:
            assert len(steps) > 0 or root is None
            for x in steps:
                assert x.size == 1 and not np.isin(x, grid).any()


def _exp_market(k, u=0.5, mu0=0.5, beta0=1.2):
    """phi(x) = exp(x / mu): a custom measure whose s is scale-free."""
    mu = mu0 * k
    measure = custom_measure(lambda x: np.exp(np.asarray(x, dtype=float) / mu),
                             lambda x: np.exp(np.asarray(x, dtype=float) / mu) / mu)
    hi = (1 - mu0 / beta0) + (mu0 / beta0) * math.exp(beta0 / mu0)
    return MarketInfo(mu=mu, s=math.e + u * (hi - math.e), beta=beta0 * k, measure=measure)


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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(RobustPriceError, match="tol"):
            optimal_price_general(_exp_market(1.0), tol=tol)

    @pytest.mark.parametrize("objective", ["cr", "rev"])
    def test_coarse_tol_is_the_scan(self, objective):
        # A tol above the scan step needs no rescan, so the price is a scan
        # point; a finer tol only adds points, so its value is never lower.
        m = _exp_market(1.0)
        coarse = optimal_price_general(m, tol=1.0, objective=objective)
        fine = optimal_price_general(m, tol=1e-12, objective=objective)
        t1, t2 = left_threshold(m), right_threshold(m)
        lo, hi = (1e-9 * m.mu, t1) if coarse.label == "p_l" else (t1, t2)
        assert coarse.price in np.linspace(lo, hi, _ROOT_SCAN)
        assert fine.value >= coarse.value

    def test_tol_below_float_resolution_stops_at_eps(self):
        m = _exp_market(1.0)
        at_eps = optimal_price_general(m, tol=np.finfo(float).eps)
        assert optimal_price_general(m, tol=1e-300) == at_eps


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
