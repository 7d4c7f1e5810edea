"""Exception types shared across the package, and the three checks that
every number from outside passes: each raises a ValueError that starts
with the argument's name, which scenario paths and CLI flags prefix."""

from __future__ import annotations

import math
import numbers


def require_positive_real(name: str, value) -> float:
    """`value` as a float; ValueError, naming it, unless a finite real > 0."""
    # bool is an int subclass, so `True` would otherwise pass as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name}: must be a finite positive number, got {value!r}")
    return float(value)


def require_finite_real(name: str, value) -> float:
    """`value` as a float; ValueError, naming it, unless a finite real of
    either sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name}: must be a finite real number, got {value!r}")
    return float(value)


def require_integer(name: str, value, lowest: int):
    """`value`; ValueError, naming it, unless an integer >= lowest."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lowest:
        raise ValueError(f"{name}: must be an integer >= {lowest}, got {value!r}")
    return value


class ShapeMismatch(ValueError):
    """Two grid functions do not live on the same grid / component count."""


class DegenerateSet(ValueError):
    """A constraint set is degenerate (e.g. projection onto a zero price curve)."""


class DomainViolation(ValueError):
    """Input lies outside the domain of a utility family."""


class NumericFailure(ArithmeticError):
    """An operator changed the shape of its argument (non-finite values
    raise ValueError from `OperatorHandle.values` itself)."""


class SamplingFailure(RuntimeError):
    """The feasible-point sampler could not produce usable samples."""


class NonConvergence(RuntimeError):
    """An iterative routine exhausted its budget before reaching tolerance.

    Carries the last iterate and the residuals observed when it gave up so
    callers can inspect or resume.
    """

    def __init__(self, message, last_iterate=None, residuals=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = residuals


class InnerSolveFailure(RuntimeError):
    """One or more per-agent inner solves failed to certify.  Nothing in
    qvex raises it (`solve_qvi` reports converged=False instead); it stays
    only because `perfbench/layertrace.py` and a test helper import it."""

    def __init__(self, message, failed_agents=()):
        super().__init__(message)
        self.failed_agents = tuple(failed_agents)
