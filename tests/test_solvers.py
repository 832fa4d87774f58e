"""The package's own solvers: Brent's method on brackets, and the
scan-and-rescan maximizer of optimal_price_general."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import robustprice
from robustprice.ambiguity import (MarketInfo, left_threshold, right_threshold,
                                   solve_bracketed)
from robustprice.dispersion import custom_measure
from robustprice.errors import RobustPriceError, RootFindingError
from robustprice.optimizer import _ROOT_SCAN, optimal_price_general

_XTOL, _RTOL = 1e-14, 4 * np.finfo(float).eps


def _wavy(x):
    return np.sin(3.0 * x) + 0.3 * x - 0.2


def _reference(f, lo, hi, scale):
    """brentq root and its number of f calls, f evaluated on one-element arrays."""
    root, info = brentq(lambda x: float(f(np.array([x]))[0]), lo, hi,
                        xtol=_XTOL * scale, rtol=_RTOL, full_output=True)
    return root, info.function_calls


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)

    return g, calls


# Brackets of _wavy: sign changes of several widths, one wide bracket with
# three roots inside, and one very narrow.
_LO = np.array([-0.5, 0.9, 1.8, -0.5, 0.0609137539])
_HI = np.array([0.5, 1.6, 2.6, 2.6, 0.0609137559])


class TestSolveBracketed:
    def test_several_brackets_match_brentq(self):
        for scale in (1.0, 1e-3, 1e3):
            got = solve_bracketed(_wavy, _LO, _HI, scale)
            ref = [_reference(_wavy, a, b, scale)[0] for a, b in zip(_LO, _HI)]
            assert got.tolist() == ref

    def test_cubic_and_exponential_match_brentq(self):
        for f, lo, hi in ((lambda x: (x - 0.1) * (x - 0.25) * (x - 0.4), [0.0, 0.2, 0.3],
                           [0.2, 0.3, 0.5]),
                          (lambda x: np.exp(x) - 5.0, [0.0, -3.0, 1.6], [3.0, 10.0, 1.7])):
            got = solve_bracketed(f, np.array(lo), np.array(hi), 1.0)
            assert got.tolist() == [_reference(f, a, b, 1.0)[0] for a, b in zip(lo, hi)]

    def test_scalar_bracket_gives_float(self):
        got = solve_bracketed(_wavy, 0.9, 1.6, 1.0)
        assert isinstance(got, float)
        assert got == _reference(_wavy, 0.9, 1.6, 1.0)[0]

    def test_exact_root_at_bracket_end(self):
        f = lambda x: x - 0.5  # noqa: E731
        got = solve_bracketed(f, np.array([0.5, 0.0, 0.2]), np.array([1.0, 0.5, 0.9]), 1.0)
        assert got.tolist() == [0.5, 0.5, _reference(f, 0.2, 0.9, 1.0)[0]]
        assert got[2] == brentq(f, 0.2, 0.9, xtol=_XTOL, rtol=_RTOL)

    def test_all_brackets_solved_before_the_first_step(self):
        g, calls = _recording(lambda x: (x - 0.25) * (x - 0.75))
        got = solve_bracketed(g, np.array([0.25, 0.5, 0.0]), np.array([0.5, 0.75, 0.25]), 1.0)
        assert got.tolist() == [0.25, 0.75, 0.25]
        # The bracket ends only, one call per bracket.
        assert [c.tolist() for c in calls] == [[0.25, 0.5], [0.5, 0.75], [0.0, 0.25]]

    def test_empty_brackets_call_nothing(self):
        g, calls = _recording(_wavy)
        assert solve_bracketed(g, np.array([]), np.array([]), 1.0).size == 0
        assert calls == []

    def test_no_sign_change_raises(self):
        with pytest.raises(RootFindingError, match="no sign change"):
            solve_bracketed(_wavy, np.array([-0.5, 0.55]), np.array([0.5, 0.6]), 1.0)

    def test_nan_residual_raises(self):
        with pytest.raises(RootFindingError, match="NaN"):
            solve_bracketed(lambda x: np.where(x > 0.3, np.nan, x - 0.2), 0.0, 1.0, 1.0)

    def test_f_calls_follow_brentq(self):
        g, calls = _recording(_wavy)
        got = solve_bracketed(g, _LO, _HI, 1.0)
        ref = [_reference(_wavy, a, b, 1.0) for a, b in zip(_LO, _HI)]
        # Per bracket: its two ends in one call, then one point per brentq step.
        sizes = []
        for a, b, (_, n) in zip(_LO, _HI, ref):
            assert calls[len(sizes)].tolist() == [a, b]
            sizes += [2] + [1] * (n - 2)
        assert [c.size for c in calls] == sizes
        assert got.tolist() == [root for root, _ in ref]


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
