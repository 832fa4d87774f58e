"""Every public function that takes a price, on hostile prices.

The contract: a call raises a RobustPriceError subclass or returns numbers
with no NaN (inf only for the conditional expectation when beta = inf).
Outside (0, beta], NaN and inf included, every call raises, the point
mass and {0, beta} too, except where a domain of its own is documented:
two_point at p = 0, and companion_point on [0, inf) where phi(p) is
finite.  RuntimeWarnings fail the suite (pyproject filterwarnings).
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustprice as rp
from robustprice import (MODE_UPPER, MarketInfo, RobustPriceError, power_market,
                         variance_market)
from robustprice.oracle import MIN_GRID_N

from test_evaluator import _exp_measure

MU, BETA = 0.5, 1.0


def _exp_market(beta, mode=rp.MODE_EXACT):
    lo = math.e
    hi = (1.0 - MU / beta) + (MU / beta) * math.exp(beta / MU)
    return MarketInfo(MU, lo + 0.5 * (hi - lo), beta, _exp_measure(MU), mode)


# name -> a constructor by mode, so the upper-mode copies are built the same way.
MARKETS = {
    "variance": lambda mode: variance_market(MU, 0.3, BETA, mode),
    "variance_unbounded": lambda mode: variance_market(MU, 0.3, math.inf, mode),
    "power1.5": lambda mode: power_market(MU, 0.45, 1.5, BETA, mode),
    "exp": lambda mode: _exp_market(BETA, mode),
    "point_mass": lambda mode: variance_market(MU, 0.0, BETA, mode),
    "max_dispersion": lambda mode: variance_market(MU, math.sqrt(MU * (BETA - MU)), BETA, mode),
}
EXACT = {name: make(rp.MODE_EXACT) for name, make in MARKETS.items()}
UPPER = {name: make(MODE_UPPER) for name, make in MARKETS.items()}

_GRID = {"grid_n": MIN_GRID_N}
# call name -> (function name, call on (market, p)); the upper-mode functions
# get the upper copy of the market, and the variance-only one variance markets.
CALLS = {
    "companion_point": ("companion_point", rp.companion_point),
    "two_point": ("two_point", rp.two_point),
    "three_point": ("three_point", rp.three_point),
    "three_point_masses": ("three_point_masses", rp.three_point_masses),
    "worst_case_distribution": ("worst_case_distribution", rp.worst_case_distribution),
    "tail_prob_max": ("tail_prob_max", rp.tail_prob_max),
    "tail_prob_min": ("tail_prob_min", rp.tail_prob_min),
    "cond_exp_max": ("cond_exp_max", rp.cond_exp_max),
    "best_case_revenue": ("best_case_revenue", rp.best_case_revenue),
    "tail_bounds": ("tail_bounds", rp.tail_bounds),
    "tail_prob_min_dispersion_ub": ("tail_prob_min_dispersion_ub",
                                    rp.tail_prob_min_dispersion_ub),
    "worst_case_cr": ("worst_case_cr", rp.worst_case_cr),
    "worst_case_cr_dispersion_ub": ("worst_case_cr_dispersion_ub",
                                    rp.worst_case_cr_dispersion_ub),
    "worst_case_revenue": ("worst_case_revenue", rp.worst_case_revenue),
    "worst_case_cr_mean_range": ("worst_case_cr_mean_range",
                                 lambda m, p: rp.worst_case_cr_mean_range(m.mu, m.beta, p)),
    "worst_case_cr_variance": ("worst_case_cr_variance",
                               lambda m, p: rp.worst_case_cr_variance(m.mu, m.sigma, m.beta, p)),
    "oracle_worst_case": ("oracle_worst_case",
                          lambda m, p: rp.oracle_worst_case(m, p, **_GRID)),
    "oracle_worst_case_cr": ("oracle_worst_case_cr",
                             lambda m, p: rp.oracle_worst_case_cr(m, p, **_GRID)),
    "oracle_worst_case_rev": ("oracle_worst_case_rev",
                              lambda m, p: rp.oracle_worst_case_rev(m, p, **_GRID)),
    "certificate_sup_tail": ("verify_dual_certificate",
                             lambda m, p: rp.verify_dual_certificate(m, p, "sup_tail")),
    "certificate_inf_tail": ("verify_dual_certificate",
                             lambda m, p: rp.verify_dual_certificate(m, p, "inf_tail")),
}


def _hostile_prices(m):
    t1, t2, b = rp.left_threshold(m), rp.right_threshold(m), m.beta
    return [math.nan, math.inf, -math.inf, -0.1, 0.0, 1e-300, m.mu, t1, t2, b,
            b * (1.0 + 1e-9), 1e300]


def _numbers(x):
    """Every float in a result: dataclasses, tuples and arrays are walked."""
    if dataclasses.is_dataclass(x):
        return [v for f in dataclasses.fields(x) for v in _numbers(getattr(x, f.name))]
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _numbers(item)]
    if isinstance(x, (float, int, np.ndarray, np.floating)) and not isinstance(x, bool):
        arr = np.asarray(x)
        return np.asarray(x, dtype=float).ravel().tolist() if arr.dtype.kind in "fiu" else []
    return []


def _in_domain(name, m, p):
    """Whether the call's documented domain holds p."""
    if name == "companion_point":
        with np.errstate(over="ignore"):
            return p >= 0 and math.isfinite(m.measure.value(abs(p)))
    return 0 < p <= m.beta and p < math.inf or name == "two_point" and p == 0


def _violation(call, market_name, p):
    """None if the call keeps the contract, else what went wrong."""
    name, f = CALLS[call]
    if name in ("tail_prob_min_dispersion_ub", "worst_case_cr_dispersion_ub"):
        m = UPPER[market_name]
    else:
        m = EXACT[market_name]
    if name == "worst_case_cr_variance" and not m.measure.is_variance:
        return None
    try:
        out = f(m, p)
    except RobustPriceError:
        return None
    except Exception as e:   # numpy's LinAlgError, a RuntimeWarning made an error, ...
        return f"raised {type(e).__name__}: {e}"
    if not _in_domain(name, m, p):
        return f"answered outside its domain: {out!r}"
    if isinstance(out, rp.CertificateReport) and out.note == "degenerate-skip":
        # A one-member market has no certificate; the report's NaN fields
        # stand for the missing dual and primal values.
        return None if out.passed and out.certificate is None else f"bad skip {out!r}"
    values = _numbers(out)
    if any(math.isnan(v) for v in values):
        return f"NaN in {out!r}"
    inf_ok = name in ("cond_exp_max", "tail_bounds") and not math.isfinite(m.beta)
    if not inf_ok and not all(math.isfinite(v) for v in values):
        return f"inf in {out!r}"
    return None


def test_every_price_taking_function_is_covered():
    takes_price = {name for name in rp.__all__
                   if inspect.isfunction(getattr(rp, name))
                   and "p" in inspect.signature(getattr(rp, name)).parameters}
    assert takes_price == {name for name, _ in CALLS.values()}


@pytest.mark.parametrize("call", CALLS)
def test_hostile_prices(call):
    found = [(market_name, p, v) for market_name, m in EXACT.items()
             for p in _hostile_prices(m)
             for v in [_violation(call, market_name, p)] if v]
    assert not found


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=st.sampled_from(sorted(CALLS)), market_name=st.sampled_from(sorted(MARKETS)),
       p=st.one_of(st.floats(), st.floats(-0.1, 1.2 * BETA)))
def test_price_sweep(call, market_name, p):
    assert _violation(call, market_name, p) is None


@pytest.mark.parametrize("market_name", MARKETS)
def test_documented_domains_answer(market_name):
    # p = 0 gives the {0, t2} member; the companion ignores beta by design.
    m = EXACT[market_name]
    t2 = rp.right_threshold(m)
    d = rp.two_point(m, 0.0)
    assert d.mean() == pytest.approx(MU)
    assert d.supports[-1] == pytest.approx(t2 if not m.is_degenerate else MU)
    assert rp.companion_point(m, 0.0) == pytest.approx(t2)
    above = 3.0 * (m.beta if math.isfinite(m.beta) else t2)
    assert 0.0 <= rp.companion_point(m, above) < MU or m.is_degenerate


def test_companion_rejects_an_overflowing_phi():
    # phi(1e300) overflows the power measure, and a solve on phi(p) = inf gave 3.6e-15.
    with pytest.raises(RobustPriceError, match="phi"):
        rp.companion_point(power_market(MU, 0.45, 1.5, BETA), 1e300)


@pytest.mark.parametrize("market_name", MARKETS)
def test_certificate_rejects_an_unknown_target(market_name):
    # The point mass has no certificate, so its skip report must not hide a bad target.
    with pytest.raises(RobustPriceError, match="target"):
        rp.verify_dual_certificate(EXACT[market_name], MU, "mid_tail")


def test_repeated_support_certificate_is_skipped():
    # At maximal dispersion and p = t2 = beta the inf tail's {0, p, beta}
    # repeats beta: the market's one member is {0, beta}.
    m = EXACT["max_dispersion"]
    rep = rp.verify_dual_certificate(m, BETA, "inf_tail")
    assert rep.passed and rep.note == "degenerate-skip"
    assert rp.verify_dual_certificate(m, BETA, "sup_tail").certificate is not None
