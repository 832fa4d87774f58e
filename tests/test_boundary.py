"""Every public function that takes a price, on hostile prices; every market
constructor, on fields of every number type.

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
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("call", [rp.tail_bounds, rp.worst_case_cr, rp.worst_case_revenue])
def test_pass_rejects_an_overflowing_phi(call):
    # With beta = inf every finite price is in the domain, but phi(1e300)
    # overflows: the companion solve once read best_case_rev 0.49999999999999645
    # there (about s / sqrt(p) = 4.5e-151 in truth), and the ratio 0.
    m = power_market(MU, 0.45, 1.5, math.inf)
    with pytest.raises(RobustPriceError, match="phi"):
        call(m, 1e300)
    call(m, 1e100)   # phi(1e100) = 1e150 is finite


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


ORACLE_CALLS = ("oracle_worst_case", "oracle_worst_case_cr", "oracle_worst_case_rev")


@pytest.mark.parametrize("call", ORACLE_CALLS)
@pytest.mark.parametrize("grid_n", [121.0, 61.5, np.float64(121), True, np.True_, "121", None],
                         ids=["float", "fraction", "float64", "bool", "np_bool", "str", "none"])
def test_the_oracle_rejects_a_grid_that_is_not_an_integer(call, grid_n):
    # numpy's linspace raised a builtin TypeError on 121.0 and 61.5.
    with pytest.raises(RobustPriceError, match="grid_n must be an integer"):
        getattr(rp, call)(EXACT["variance"], 0.4, grid_n)


@pytest.mark.parametrize("call", ORACLE_CALLS)
@pytest.mark.parametrize("p", [np.array([0.4]), np.array([[0.4]]), np.array([0.2, 0.4]), [0.4]],
                         ids=["one_element", "2d", "two_prices", "list"])
def test_the_oracle_rejects_a_price_that_is_not_a_scalar(call, p):
    # A one-element array raised numpy's ValueError from the grid build.
    with pytest.raises(RobustPriceError, match="one price"):
        getattr(rp, call)(EXACT["variance"], p, MIN_GRID_N)


@pytest.mark.parametrize("grid_n", [np.int64(61), np.int32(61), np.uint16(61)],
                         ids=["int64", "int32", "uint16"])
def test_the_oracle_takes_a_numpy_integer_grid(grid_n):
    # Fresh markets, so neither answer is one kept from an earlier call.
    a = rp.oracle_worst_case(MARKETS["variance"](rp.MODE_EXACT), np.float64(0.4), grid_n)
    b = rp.oracle_worst_case(MARKETS["variance"](rp.MODE_EXACT), 0.4, 61)
    assert _numbers(a) == _numbers(b)


# A value that is not a real number: numpy reads "0.4" as 0.4 and True as 1.0,
# so such a price was priced, and a complex one raised a builtin TypeError.
NOT_REAL = {"str": "0.4", "np_str": np.str_("0.4"), "bool": True, "np_bool": np.True_,
            "complex": 0.4 + 0j, "complex64": np.complex64(0.4)}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("p", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_a_price_that_is_not_a_real_number_raises(call, p):
    name, f = CALLS[call]
    m = (UPPER if name.endswith("_dispersion_ub") else EXACT)["variance"]
    with pytest.raises(RobustPriceError, match="price must be a number"):
        f(m, p)


# numpy coerces a list's bool with its numbers, so [True, 0.4] was priced at 1.0 and 0.4.
@pytest.mark.parametrize("call", ["worst_case_cr", "tail_bounds", "best_case_revenue",
                                  "companion_point"])
@pytest.mark.parametrize("p", [[True, 0.4], (0.3, np.True_), [[0.3], [False]]],
                         ids=["bool", "np_bool", "nested"])
def test_a_list_with_a_bool_raises(call, p):
    m = EXACT["power1.5" if call == "companion_point" else "variance"]
    with pytest.raises(RobustPriceError, match="price must be a number"):
        getattr(rp, call)(m, p)


# numpy raised its own ValueError on a ragged price list ("inhomogeneous shape") and
# on an object array with an entry that is no number.
RAGGED = {"nested": [[0.3, 0.4], [0.5]], "array_and_float": [np.array([0.3, 0.4]), 0.5],
          "object_str": np.array([0.3, "x"], dtype=object)}


@pytest.mark.parametrize("call", ["worst_case_cr", "tail_bounds", "companion_point",
                                  "three_point_masses"])
@pytest.mark.parametrize("p", RAGGED.values(), ids=RAGGED.keys())
def test_a_ragged_price_raises(call, p):
    m = EXACT["power1.5" if call == "companion_point" else "variance"]
    with pytest.raises(RobustPriceError, match="price must be a number"):
        getattr(rp, call)(m, p)


# A function of one price took prices its own way: worst_case_distribution and three_point
# raised numpy's ValueError on np.array([0.4]), two_point answered it and found [0.1, 0.2]
# ambiguous, and the certificate raised TypeError (unhashable) on it and on np.array(0.4).
ONE_PRICE = {"two_point": (rp.two_point, 0.1), "three_point": (rp.three_point, 0.4),
             "worst_case_distribution": (rp.worst_case_distribution, 0.4),
             "certificate": (CALLS["certificate_inf_tail"][1], 0.4)}


@pytest.mark.parametrize("call", ONE_PRICE)
def test_a_one_price_function_takes_one_number(call):
    f, p = ONE_PRICE[call]
    m = EXACT["variance"]
    for prices in ([p, 0.2], (p,), np.array([p]), np.array([[p]])):
        with pytest.raises(RobustPriceError, match="expected one price"):
            f(m, prices)
    answer = _numbers(f(m, p))
    assert answer and all(_numbers(f(m, x)) == answer for x in (np.float64(p), np.array(p)))


# worst_case_cr_mean_range checked the price only, so it answered where no market exists:
# 0.75 with beta below mu, 0.0 for a NaN or negative mu, 0.15 for mu = inf.
@pytest.mark.parametrize("mu, beta", [(0.5, 0.4), (math.nan, 1.0), (-0.5, 1.0), (math.inf, 2.0),
                                      (0.5, math.nan), (0.5, True), ("0.5", 1.0)],
                         ids=["beta_below_mu", "nan_mu", "negative_mu", "inf_mu", "nan_beta",
                              "bool_beta", "str_mu"])
def test_mean_range_keeps_a_markets_rules(mu, beta):
    with pytest.raises(RobustPriceError) as market_error:
        variance_market(mu, 0.1, beta)
    with pytest.raises(RobustPriceError) as error:
        rp.worst_case_cr_mean_range(mu, beta, 0.3)
    assert str(error.value) == str(market_error.value)
    assert rp.worst_case_cr_mean_range(0.5, math.inf, 0.3) == 0.0


@pytest.mark.parametrize("p", [False, np.False_, 0j], ids=["bool", "np_bool", "complex"])
def test_two_point_takes_no_false_zero_price(p):
    # p = 0 gives the {0, t2} member, and False == 0j == 0.
    with pytest.raises(RobustPriceError, match="price must be a number"):
        rp.two_point(EXACT["variance"], p)


# --------------------------------------------------------------------------
# Market parameters: every constructor stores its fields as floats, so an
# int, a numpy integer or a float32 field answers as the float market does.

# constructor on (mu, s or sigma, beta), with integer-valued fields that every
# type below holds exactly; s sits inside its feasible range.
CONSTRUCTORS = {
    "variance": (lambda mu, sigma, beta: variance_market(mu, sigma, beta), (2, 1, 5)),
    "power": (lambda mu, s, beta: power_market(mu, s, 1.5, beta), (2, 4, 5)),
    "exp": (lambda mu, s, beta: MarketInfo(mu, s, beta, _exp_measure(2.0)), (2, 4, 5)),
}
NUMBER_TYPES = (int, np.int64, np.float32, float)


def _answers(m):
    """Thresholds, the optimal price and the pass at a price in each regime, as floats."""
    t1, t2 = rp.left_threshold(m), rp.right_threshold(m)
    sol = rp.optimal_price_general(m)
    prices = np.array([0.5 * t1, 0.5 * (t1 + t2), 0.5 * (t2 + m.beta)])
    tb = rp.tail_bounds(m, prices)
    return ((t1, t2, sol.price, sol.value, sol.label, m.mu, m.s, m.beta),
            [np.asarray(v).tolist() for v in (tb.inf_tail, tb.sup_tail, tb.sup_cond_exp,
                                               tb.regime, rp.worst_case_cr(m, prices).cr)])


@pytest.mark.parametrize("name", CONSTRUCTORS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(types=st.tuples(*[st.sampled_from(NUMBER_TYPES)] * 3))
@example(types=(int,) * 3)
@example(types=(np.int64,) * 3)
@example(types=(np.float32,) * 3)
def test_market_fields_of_any_number_type(name, types):
    make, fields = CONSTRUCTORS[name]
    m = make(*(t(v) for t, v in zip(types, fields)))
    assert all(type(getattr(m, f)) is float for f in ("mu", "s", "beta"))
    assert _answers(m) == _answers(make(*map(float, fields)))


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_field_raises(name, field, flag):
    make, fields = CONSTRUCTORS[name]
    with pytest.raises(RobustPriceError, match="must be a number"):
        make(*(flag if k == field else v for k, v in enumerate(fields)))


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("kind", [str, np.str_, complex, np.complex128])
def test_a_field_that_is_not_a_real_number_raises(name, field, kind):
    make, fields = CONSTRUCTORS[name]
    with pytest.raises(RobustPriceError, match="must be a number"):
        make(*(kind(v) if k == field else v for k, v in enumerate(fields)))


@pytest.mark.parametrize("call", [
    lambda v: rp.optimal_price_variance(MU, v, BETA),
    lambda v: rp.optimal_price_revenue_variance(v, 0.3, BETA),
    lambda v: rp.worst_case_cr_variance(MU, 0.3, v, 0.4),
    lambda v: rp.compare_prices(MU, v, BETA),
    lambda v: rp.sigma_star(v, BETA),
    lambda v: rp.delta_star(MU, v),
], ids=["optimal_price_variance", "optimal_price_revenue_variance", "worst_case_cr_variance",
        "compare_prices", "sigma_star", "delta_star"])
@pytest.mark.parametrize("v", ["0.3", 0.3 + 0j], ids=["str", "complex"])
def test_variance_functions_reject_a_field_that_is_not_a_real_number(call, v):
    # A bool field already raised (test_a_bool_field_raises).
    with pytest.raises(RobustPriceError, match="must be a number"):
        call(v)


def test_an_integer_beta_solves_the_left_threshold_in_floats():
    # The companion of beta was solved into an integer array and truncated to 0.
    assert rp.left_threshold(power_market(MU, 0.45, 1.5, 1)) == pytest.approx(0.13701562)
    sol = rp.optimal_price_power(MU, 0.45, 1.5, 1)
    assert sol == rp.optimal_price_power(MU, 0.45, 1.5, 1.0)
    assert sol.value == pytest.approx(0.49356, abs=1e-5)
    assert rp.optimal_price_variance(MU, np.float32(0.25), np.int64(1)) == \
        rp.optimal_price_variance(MU, 0.25, 1.0)


def test_a_power_threshold_beyond_the_floats_is_infinite():
    # q near 1: (s / mu)**(1 / (q - 1)) overflows, so t2 = inf, past any finite beta.
    report = rp.check_feasible(power_market(MU, 1.0, 1.0005, 2.0))
    assert not report.feasible and report.right_threshold == math.inf
    with pytest.raises(rp.InfeasibleMarketError):
        rp.optimal_price_power(MU, 1.0, 1.0005, 2.0)


def test_a_companion_bracket_that_runs_out_names_the_market():
    # q near 1 with beta = inf: t2 = inf, and a low price's companion lies
    # beyond the largest float, so the bracket doublings run out.
    with pytest.raises(rp.RootFindingError, match=r"q=1\.0005") as info:
        rp.optimal_price_power(MU, 1.0, 1.0005, math.inf)
    assert all(f in str(info.value) for f in ("at p = 5e-10", "mu=0.5", "s=1.0", "beta=inf"))


def _answers_or_error(make, fields):
    """:func:`_answers` of the market, or the RobustPriceError subclass it raises."""
    try:
        return _answers(make(*fields))
    except RobustPriceError as e:
        return type(e)


# Power markets with q in (1, 1.01], where the companion's bracket grows the
# most, and s near either end of [mu**q, mu * beta**(q - 1)] (the point mass
# and {0, beta}): a typed market answers or raises as the float market of the
# same values.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(types=st.tuples(*[st.sampled_from(NUMBER_TYPES)] * 3),
       q=st.floats(1.0, 1.01, exclude_min=True), upper=st.booleans(),
       u=st.floats(1e-9, 1e-2))
@example(types=(float,) * 3, q=1.01, upper=False, u=1e-9)
@example(types=(np.float32,) * 3, q=1.0005, upper=True, u=1e-6)
def test_power_fields_near_q_1_of_any_number_type(types, q, upper, u):
    mu, beta = 2, 5
    lo, hi = mu ** q, mu * beta ** (q - 1.0)
    s = hi - u * (hi - lo) if upper else lo + u * (hi - lo)
    make = lambda mu, s, beta: power_market(mu, s, q, beta)  # noqa: E731
    fields = [t(v) for t, v in zip(types, (mu, s, beta))]
    assert _answers_or_error(make, fields) == _answers_or_error(make, map(float, fields))
