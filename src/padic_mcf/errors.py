"""Exception types shared across the package.

Division by zero is reported with the builtin ZeroDivisionError; everything
else that can go wrong gets a named class so callers can tell an undecidable
situation (precision ran out) apart from a genuine defect (two exact
evaluation routes disagree).
"""


class FieldMismatch(ValueError):
    """Operands belong to different number fields."""


class InsufficientPrecision(ArithmeticError):
    """A digit or an exact decision is needed beyond the known precision."""
    certified_rows = None  # rows a truncated jp_expand emitted before raising


class PrecisionExhausted(ArithmeticError):
    """An arithmetic result would carry no usable digit information."""


class LiftingObstruction(ArithmeticError):
    """A residual root could not be separated or lifted."""


class NoRoot(ValueError):
    """Root selection was asked on an empty root list."""


class AmbiguousSelection(ValueError):
    """Two or more roots share the maximal p-adic norm."""


class ZeroDenominatorConvergent(ArithmeticError):
    """The convergent denominator vanishes at the queried index."""


class ZeroWeight(ValueError):
    """A rescaling weight is zero."""


class ZeroIntermediate(ArithmeticError):
    """Backward evaluation hit a vanishing intermediate quotient."""


class InternalMismatch(RuntimeError):
    """Two independent exact evaluation routes disagree; indicates a bug."""


class VerificationFailed(RuntimeError):
    """A consequence that must hold for a finite expansion does not hold."""
