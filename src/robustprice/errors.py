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
    """The tail pass gave NaN at a valid price, or a price candidate's value
    is NaN.

    Every bound is finite at a price of a feasible market, so this signals
    a bug or a market beyond the scales the formulas hold, not bad input:
    an overflowing {0, p, beta} mass solve gives NaN masses.
    """
