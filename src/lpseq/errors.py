"""Exception types shared across the package, and the integer check behind them."""

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
