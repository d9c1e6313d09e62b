"""Small numeric helpers shared by the model modules."""

from __future__ import annotations

from typing import Iterable


def cmul(x, y):
    """Elementwise x * y of complex numpy arrays, rounded like Python's complex
    product (numpy's own may fuse multiply-adds and move the last bit)."""
    import numpy as np  # deferred: importing icelab should not load numpy
    re, im = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


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

