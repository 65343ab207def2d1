"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "CrossingNotFound", "ResourceBudgetError"]


class ConvergenceError(RuntimeError):
    """A series or quadrature could not reach the requested accuracy."""


class ResourceBudgetError(RuntimeError):
    """A scan would exceed its term budget; nothing was computed."""


class CrossingNotFound(RuntimeError):
    """The ratio |zeta(1+it)| / log t never reaches the requested level."""
