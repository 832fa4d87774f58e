"""Convex dispersion measures.

The dispersion statistic of a valuation distribution is the expectation of a
strictly convex differentiable function of the valuation.  The power family
``x**q`` (q > 1) covers fractional moments; q = 2 with
``s = mu**2 + sigma**2`` encodes variance.  Arbitrary strictly convex
measures can be plugged in through an evaluator pair (value, derivative);
their convexity is the caller's to ensure, since it is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import RobustPriceError


@dataclass(frozen=True)
class DispersionMeasure:
    """A strictly convex differentiable function on [0, beta] and its slope.

    Use the :func:`power_moment`, :func:`variance_measure` or
    :func:`custom_measure` constructors instead of instantiating directly.
    """

    family: str  # "power" or "custom"
    q: Optional[float] = None
    value_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    deriv_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.family == "power":
            if self.q is None or not 1.0 < self.q < np.inf:
                raise RobustPriceError(
                    f"power measure needs a finite exponent q > 1, got {self.q}")
        elif self.family == "custom":
            if self.value_fn is None or self.deriv_fn is None:
                raise RobustPriceError("custom measure needs a (value, derivative) pair")
        else:
            raise RobustPriceError(f"unknown dispersion family {self.family!r}")

    @property
    def is_power(self) -> bool:
        return self.family == "power"

    @property
    def is_variance(self) -> bool:
        return self.family == "power" and self.q == 2.0

    def value(self, x):
        """Evaluate the measure at x >= 0 (scalar or array); a scalar goes
        through the same ufunc as an array's entries, so a point gets the
        same value alone or inside an array."""
        return self._value(_domain(x))

    def _value(self, x):   # value without the domain check, for x known to be >= 0
        return np.power(x, self.q) if self.family == "power" else self.value_fn(x)

    def derivative(self, x):
        """Slope of the measure at x >= 0 (scalar or array, as :meth:`value`).

        For 1 < q < 2 the power derivative is singular-free but the
        derivative formula at x = 0 involves a negative exponent; the
        right-limit value 0 is returned there so dual certificates stay
        evaluable on the whole support.
        """
        return self._derivative(_domain(x))

    def _derivative(self, x):   # derivative without the domain check, as _value
        # 0 ** (q - 1) = 0 for q > 1: the right-limit value at x = 0.
        return self.q * np.power(x, self.q - 1.0) if self.family == "power" \
            else self.deriv_fn(x)


def _domain(x) -> np.ndarray:
    """x as a float array (0-d for a scalar); raises outside x >= 0."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise RobustPriceError(f"dispersion measure domain is x >= 0, got {x}")
    return x


def power_moment(q: float) -> DispersionMeasure:
    """Fractional-moment measure x**q with q > 1."""
    return DispersionMeasure(family="power", q=float(q))


def variance_measure() -> DispersionMeasure:
    """Second-moment measure x**2; pair with s = mu**2 + sigma**2."""
    return power_moment(2.0)


def custom_measure(value_fn, deriv_fn) -> DispersionMeasure:
    """Wrap a user-supplied strictly convex measure given as (value, derivative);
    both must map a float array to an array of its shape, as numpy ufuncs do."""
    return DispersionMeasure(family="custom", value_fn=value_fn, deriv_fn=deriv_fn)
