"""Exception types shared across the package, the integer check behind them,
and the package's one rule for a Python-float result past double range.

Python's float arithmetic raises where IEEE arithmetic gives inf: a power or
``math`` function past double range raises ``OverflowError``, and 0 to a
negative power ``ZeroDivisionError``.  :func:`inf_past_range` turns both
into inf; every such site in the package goes through it.
"""

import math
import numbers


class InvalidParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


class DimensionMismatchError(ValueError):
    """Vector length differs from the declared problem dimension."""


class NonFiniteInputError(ValueError):
    """An input contains NaN or infinity."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (numpy's included) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def inf_past_range(f, *args):
    """``f(*args)``, or inf where Python raises ``OverflowError`` or
    ``ZeroDivisionError``: a result past double range, or 0 to a negative
    power, both inf in IEEE arithmetic."""
    try:
        return f(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf
