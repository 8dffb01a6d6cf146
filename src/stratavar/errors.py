"""Exception and warning taxonomy.

The base classes group failures the way the command line reports them:
input problems (bad files, bad options), invalid designs, estimators that
do not apply to the design at hand, and numerical failures in the linear
algebra. ``stratavar.cli`` maps each group to a process exit code.
"""
from __future__ import annotations


class StratavarError(Exception):
    """Base class for all package errors."""


class InputError(StratavarError):
    """Unusable input: malformed files or invalid option values."""


class ParseError(InputError):
    """A CSV cell or row could not be parsed."""


class NonFiniteResponse(InputError):
    """An observed response is NaN or infinite."""


class SchemaError(InputError):
    """A file's column layout does not match the experiment schema."""


class InvalidAlpha(InputError):
    """Confidence level outside (0, 1)."""


class DesignError(StratavarError):
    """The block design itself violates an invariant."""


class TooFewBlocks(DesignError):
    """Fewer than two blocks."""


class InfeasibleBlock(DesignError):
    """A block cannot host both treated and control units."""


class DimensionMismatch(DesignError):
    """Array shapes disagree with the design."""


class IncompatibleEstimator(StratavarError):
    """A requested estimator does not apply to this design."""


class UnequalBlocks(IncompatibleEstimator):
    """Paired-design formula requested with unequal block weights."""


class NotCoarse(IncompatibleEstimator):
    """Stratum-wise sample variances need >= 2 treated and >= 2 control per block."""


class NumericalError(StratavarError):
    """Linear algebra failed or would produce meaningless output."""


class SpaceTooLarge(NumericalError):
    """Assignment space exceeds the enumeration cap."""


class InsufficientBlocks(NumericalError):
    """Fewer blocks than basis columns."""


class TooManyColumns(NumericalError):
    """Covariate basis would leave no residual degrees of freedom."""


class DegenerateCovariate(NumericalError):
    """Every supplied covariate column vanished after weighting and centering."""


class RankDeficient(NumericalError):
    """Matrix does not have full column rank at the working tolerance."""


class LeverageOne(NumericalError):
    """A leverage reached one; leverage-adjusted estimators are undefined."""


class ZeroDenominator(NumericalError):
    """Residual sum of squares is zero; the test statistic is unbounded."""


class BadQPair(NumericalError):
    """A basis adds no covariate columns beyond intercept and weights."""


class PreconditionViolated(StratavarError):
    """An oracle formula was called outside its stated premises."""


class EstimatorWarning(UserWarning):
    """Estimator applied outside its sweet spot (still well defined)."""


class DegenerateCovariateWarning(UserWarning):
    """Some covariate columns were dropped during basis construction."""
