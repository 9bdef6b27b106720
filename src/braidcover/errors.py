"""Exception types shared across the package."""


class ParameterMismatchError(ValueError):
    """Operands were built for different ambient (d, n) parameters."""


class BudgetExceededError(RuntimeError):
    """A result would exceed the configured letter budget."""


class EndpointMismatchError(ValueError):
    """Edge-path steps that do not meet end to end."""
