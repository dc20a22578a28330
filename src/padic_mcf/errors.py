"""Exception types shared across the package, and the base of its records.

Division by zero is reported with the builtin ZeroDivisionError; everything
else that can go wrong gets a named class so callers can tell an undecidable
situation (precision ran out) apart from a genuine defect (two exact
evaluation routes disagree).
"""


class Record:
    """Immutable value whose fields are the annotated names of a subclass, in
    order; a class attribute is a field's default.  Records are built by
    position or keyword, compare and hash by class and values, print as
    Name(field=value, ...), refuse assignment and deletion with
    AttributeError and copy with changes by replace().  Subclasses share
    these methods, so defining one generates and compiles no code."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(dict.fromkeys((*cls._fields, *cls.__annotations__)))
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args))}
        wrong = [k for k in kwargs if k not in names or k in names[: len(args)]]
        if len(args) > len(names) or wrong or not values.keys() | kwargs >= set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        values.update(kwargs)
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(self.__dict__[n] for n in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**self.__dict__, **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldMismatch(ValueError):
    """Operands belong to different number fields."""


class InsufficientPrecision(ArithmeticError):
    """A digit or an exact decision is needed beyond the known precision."""
    certified_rows = None  # rows an expansion emitted before raising


class PrecisionExhausted(ArithmeticError):
    """An arithmetic result would carry no usable digit information."""


class LiftingObstruction(ArithmeticError):
    """A residual root could not be lifted."""


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
