"""Exception types shared across the package.

Invalid arguments raise plain ValueError; the classes below mark numerical
failures that callers may want to catch separately (the CLI maps ValueError
to exit code 2 and NumericalError subclasses to exit code 3).
"""


class NumericalError(Exception):
    """Base class for runtime numerical failures."""


class DegenerateEigenvalueError(NumericalError):
    """A formula valid only for simple eigenvalues was applied to a degenerate one."""


class SolverFailureError(NumericalError):
    """A linear solve did not reach the requested residual."""


class QuadraturePrecisionError(NumericalError):
    """Quadrature precision failure; no package code raises it, perfbench/tracing.py counts it."""


class DurationCapError(NumericalError):
    """A synthesized pulse exceeds the configured duration cap."""


class InstabilityError(NumericalError):
    """Norm drift in a time integration exceeded the stability threshold."""
