"""Exception types shared across the package."""


class RobustPriceError(ValueError):
    """Base class for all domain errors raised by this package."""


class InfeasibleMarketError(RobustPriceError):
    """The market statistics admit no valuation distribution."""


class UnboundedSupportError(RobustPriceError):
    """Operation needs a finite maximum valuation but beta is infinite."""


class ModeError(RobustPriceError):
    """Operation called with the wrong dispersion constraint mode."""


class RootFindingError(RobustPriceError):
    """A bracketed root search failed to converge or found no bracket."""


class InternalConsistencyError(RobustPriceError):
    """Two formulas that must agree at a regime boundary disagreed, or a
    price candidate's value is NaN.

    Continuity of the piecewise bounds is a theorem, so this always
    signals a bug rather than bad input.
    """
