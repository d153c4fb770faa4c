"""Exception taxonomy.

Every error raised by this package derives from LorenzLabError. The class
attribute ``exit_code`` is what the CLI returns when the error escapes:
1 for usage problems, 2 for bad input data, 3 for numeric failures.
"""


class LorenzLabError(Exception):
    exit_code = 3


class UsageError(LorenzLabError):
    """Bad command line or bad call arguments."""

    exit_code = 1


class DataError(LorenzLabError):
    """Input data cannot be used as given."""

    exit_code = 2


class NumericError(LorenzLabError):
    """A numeric precondition or convergence requirement failed."""

    exit_code = 3


# -- curve construction and evaluation ---------------------------------------


class NonMonotone(NumericError):
    pass


class NonFinite(NumericError):
    pass


class OutOfDomain(NumericError):
    pass


class OutOfRange(NumericError):
    pass


class EmptySample(DataError):
    pass


class BadParameter(UsageError):
    pass


# -- Lorenz operators ---------------------------------------------------------


class NonPositiveMean(NumericError):
    pass


class UnitSupportRequired(BadParameter):
    """The reflected operator's support precondition failed: the quantile's
    maximum exceeds 1, or is so small that 1 minus it rounds to 1. Both are
    mended by rescaling, unit_support(quantile, normalize=True)."""


class DegenerateAfterTruncation(NumericError):
    pass


class CrossCheckError(NumericError):
    """The two independent evaluation routes of an operator disagreed."""


# -- risk and portfolio -------------------------------------------------------


class BadSpec(UsageError):
    """A target-curve specification violates its own constraints."""


class InfeasibleTarget(NumericError):
    pass


class NonPositiveMeanRegion(NumericError):
    pass


class TooManyAssets(UsageError):
    pass


# -- data pipeline ------------------------------------------------------------


class ParseError(DataError):
    pass


class DuplicateDate(DataError):
    pass


class NonPositivePrice(DataError):
    pass


class EmptyAfterCleaning(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class DegenerateColumnWarning(UserWarning):
    """A scenario column is constant; its rank correlations are undefined."""
