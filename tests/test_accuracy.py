"""Accuracy of the variance optimizers' candidate values against a 50-digit
reference built from the definitions, not from the package's formulas.

The reference takes the table's float prices as exact inputs and values each
one by its worst-case member: below t1 the two-point {p, a} whose mean and
variance are the market's ((mu - p)(a - mu) = sigma**2), above it the
{0, p, beta} whose masses solve the moment equations.  The inf tail is the
member's mass above p (the mass at p sits just below it), the sup tail adds
the mass at p, and y is the top support point; the ratio is min(inf/sup,
p/y) and the revenue p inf.

A candidate clipped to a threshold sits on a kink of the value, whose
regime one ulp of price decides; there the bound adds the condition in the
price, the reference's change under a one-ulp move of p.  On 2,000 markets
the largest error was 2.1e-15 off the thresholds and 9.4e-13 (0.37 of the
bound) at them, with the tail pass's values 4.5e-13 (0.21).  Near the point
mass and near the dispersion cap the values are ill-conditioned in sigma too
(a p_h1 clipped to t1 at sigma = 9e-5 mu is 1.5e-9 off on both the table and
the tail pass), so sigma stays in 0.01-0.99 of its cap here.

The thresholds sigma_star and delta_star are checked against the root of a
50-digit gap: the best low minus the best high candidate value, with each
candidate's price from its closed form (Cardano's low price, the high
prices from t2, clipped to [t1, t2]) and its value from the reference
above.  The bound is the solver's tolerance 1e-14 mu + 4 eps |x| times
THRESHOLD_TOLS; on 540 thresholds the largest error was 3.1 of it at
beta / mu 1e3-1e6 and 0.26 below.
"""

import math

import numpy as np
import pytest

from robustprice.optimizer import _variance_table, delta_star, sigma_star

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# Relative bound on a candidate value, plus its condition in the price.
VALUE_RTOL = 1e-12
# A threshold's bound, in solver tolerances 1e-14 mu + 4 eps |x|.
THRESHOLD_TOLS = 8.0


def _reference(mu, sigma, beta, p, cr):
    """The worst-case ratio (cr) or revenue at price p, to 50 digits."""
    with mp.workdps(50):
        mu, s2, p = mp.mpf(mu), mp.mpf(sigma) ** 2, mp.mpf(p)
        t1 = mu - s2 / (mp.mpf(beta) - mu) if math.isfinite(beta) else mu
        if p <= t1:   # {p, a}
            a = mu + s2 / (mu - p)
            inf_tail, sup_tail, y = (mu - p) / (a - p), mp.mpf(1), a
        else:         # {0, p, beta}
            beta = mp.mpf(beta)
            w = mp.lu_solve(mp.matrix([[1, 1, 1], [0, p, beta], [0, p * p, beta * beta]]),
                            mp.matrix([1, mu, mu * mu + s2]))
            inf_tail, sup_tail, y = w[2], w[1] + w[2], beta
        return min(inf_tail / sup_tail, p / y) if cr else p * inf_tail


def _markets(seed, n):
    """(mu, sigma, beta) at scales 1e-6 to 1e6, a fifth with beta = inf."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = 10.0 ** rng.uniform(-6.0, 6.0)
        mu = rng.uniform(0.3, 1.5)
        beta = math.inf if rng.random() < 0.2 else mu * rng.uniform(1.05, 4.0)
        cap = math.sqrt(mu * (beta - mu)) if math.isfinite(beta) else 2.0 * mu
        yield mu * k, rng.uniform(0.01, 0.99) * cap * k, beta * k


@pytest.mark.parametrize("objective", ["cr", "rev"])
def test_table_values_match_the_reference(objective):
    worst, cr = 0.0, objective == "cr"
    for mu, sigma, beta in _markets(61, 200):
        labels, prices, values, present = _variance_table(mu, sigma, beta, objective)
        for label, p, v in zip(labels, prices[present].tolist(), values[present].tolist()):
            ref = _reference(mu, sigma, beta, p, cr)
            cond = max(abs(_reference(mu, sigma, beta, math.nextafter(p, end), cr) - ref)
                       for end in (0.0, math.inf))
            err = float(abs(v - ref) / abs(ref))
            assert err <= VALUE_RTOL + float(cond / abs(ref)), (label, mu, sigma, beta, p, v)
            worst = max(worst, err)
    assert worst > 0.0   # the reference is not the table's own arithmetic


def _reference_gap(mu, sigma, beta, cr):
    """Best low minus best high candidate value at sigma (mp numbers), to 50 digits."""
    s2 = sigma * sigma
    t1, t2 = mu - s2 / (beta - mu), min(mu + s2 / mu, beta)
    k, c = (2, mp.mpf(8) / 27) if cr else (1, 1)
    y = mu / (k * sigma)
    r = mp.sqrt(c + y * y)
    low = min(mu - sigma * (mp.cbrt(y + r) - mp.cbrt(r - y)), t1)
    if cr:   # p_h1 and p_h2
        w = 3 * beta - t2
        high = [(beta + t2 - mp.sqrt(max(w * w - 4 * beta * beta, 0))) / 2, t2 / 2]
    else:    # pi_h
        high = [beta - mp.sqrt(beta * max(beta - t2, 0))]
    high = [min(max(p, t1), t2) for p in high]
    low_value = _reference(mu, sigma, beta, low, cr) if t1 > 0 else -mp.inf
    return low_value - max(_reference(mu, sigma, beta, p, cr) for p in high if p > 0)


def _reference_threshold(mu, beta, cr):
    """The sigma on (1e-3, 1 - 1e-9) sigma_max where the 50-digit gap crosses 0."""
    with mp.workdps(50):
        mu, beta = mp.mpf(mu), mp.mpf(beta)
        top = mp.sqrt(mu * (beta - mu))
        return mp.findroot(lambda sigma: _reference_gap(mu, sigma, beta, cr),
                           (top / 1000, top * (1 - mp.mpf(10) ** -9)), solver="anderson",
                           tol=mp.mpf(10) ** -30, verify=False, maxsteps=100)


@pytest.mark.parametrize("objective", ["cr", "rev"])
def test_thresholds_match_the_reference(objective):
    # Binary scales 2**-20 to 2**20, beta / mu - 1 from 1e-5 to 1e6.
    rng, eps = np.random.default_rng(67), np.finfo(float).eps
    threshold, cr = (sigma_star, True) if objective == "cr" else (delta_star, False)
    for _ in range(30):
        mu = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-20, 21)))
        beta = mu * (1.0 + 10.0 ** rng.uniform(-5.0, 6.0))
        x, ref = threshold(mu, beta), _reference_threshold(mu, beta, cr)
        tol = 1e-14 * mu + 4 * eps * abs(ref)
        assert float(abs(x - ref)) <= THRESHOLD_TOLS * tol, (mu, beta, x, float(ref))
