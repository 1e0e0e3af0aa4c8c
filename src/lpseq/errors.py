"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


class DimensionMismatchError(ValueError):
    """Vector length differs from the declared problem dimension."""


class NonFiniteInputError(ValueError):
    """An input contains NaN or infinity."""
