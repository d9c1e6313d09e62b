"""Small numeric helpers shared by the model modules."""

from __future__ import annotations

from typing import Iterable


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


def rel_residual(lhs: complex, rhs: complex, scale: float = 0.0) -> float:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|, scale)).

    The extra scale is for identities whose exact value is zero, where the
    natural magnitude must come from the summands that cancelled.
    """
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs), scale))

