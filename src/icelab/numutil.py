"""Small numeric helpers shared by the model modules."""

from __future__ import annotations

import cmath
from typing import Callable, Iterable

from .errors import EvaluationOverflowError, NonFiniteParameterError


def stable_sum(terms: Iterable[complex]) -> complex:
    """Sum in ascending magnitude.

    The interesting sums here are exact cancellations; accumulating small
    terms first keeps the roundoff floor at a few ulp of the largest term
    and makes the result independent of enumeration order.
    """
    total = 0j
    for t in sorted(terms, key=abs):
        total += t
    return total


def finite(value: complex, name: str) -> complex:
    """value as a complex; NonFiniteParameterError, naming it, if it is not
    finite (NaN included): the one check of rapidities, eta and theta arguments."""
    if not cmath.isfinite(value := complex(value)):
        raise NonFiniteParameterError(f"{name} {value} is not finite")
    return value


def guarded(fn: Callable[[complex], complex], x: complex, name: str = "x") -> complex:
    """fn(x) for a cmath function fn such as sin or exp; EvaluationOverflowError,
    naming x and chained from cmath's error, where it overflows the doubles:
    an OverflowError, or the ValueError of an x that overflowed to inf."""
    try:
        return fn(x)
    except (OverflowError, ValueError) as exc:
        raise EvaluationOverflowError(f"{fn.__name__}({name}) overflows at {name} = {x}") from exc


def rel_residual(lhs: complex, rhs: complex, scale: float = 0.0) -> float:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|, scale)).

    The extra scale is for identities whose exact value is zero, where the
    natural magnitude must come from the summands that cancelled.
    """
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs), scale))


def severity(residual: float) -> tuple[bool, float]:
    """Sort key for the worst of several residuals: a larger residual is
    worse, and NaN is worse than any number.  A plain max or > skips a NaN,
    so a check that computed one would pass its gate.  max(..., key=severity)
    and verify's running worst per identity, where a residual replaces the
    held one only under a greater key, both keep the first of equal keys."""
    return residual != residual, residual  # only NaN is unequal to itself
