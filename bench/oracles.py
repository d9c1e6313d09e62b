"""Reference values computed independently of icelab.

* ``asm_count(n)``: the alternating-sign-matrix numbers 1, 2, 7, 42, 429, ...
  from the closed product formula; these count the domain-wall ice states and
  give Z_n at zero rapidities with eta = 2*pi/3.
* ``census_counts(rows, cols, bc)``: colourings of a rows x cols face grid by
  colour multiplicities (k0, k1, k2), from a row transfer matrix carrying an
  exact integer polynomial in the face weights.  icelab's census is a
  backtracking enumeration, so the two share no code.

``Checks`` records every comparison against these values as one gate
result; the negative controls perturb one gate's expected value.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def asm_count(n: int) -> int:
    """A_n = prod_{k=0}^{n-1} (3k+1)! / (n+k)!."""
    num = math.prod(math.factorial(3 * k + 1) for k in range(n))
    den = math.prod(math.factorial(n + k) for k in range(n))
    return num // den


def _row_states(cols: int, toroidal: bool) -> list[tuple[int, ...]]:
    out = []
    for row in itertools.product(range(3), repeat=cols):
        if any(row[j] == row[j + 1] for j in range(cols - 1)):
            continue
        if toroidal and row[0] == row[-1]:
            continue
        out.append(row)
    return out


def census_counts(rows: int, cols: int, bc: str) -> dict[tuple[int, int, int], int]:
    """Proper 3-colourings of a rows x cols face grid, free or toroidal, by
    colour multiplicities.  Polynomials are int64 arrays indexed by (k0, k1);
    k2 follows from the face count."""
    if bc not in ("free", "toroidal"):
        raise ValueError(f"unsupported boundary condition {bc!r}")
    toroidal = bc == "toroidal"
    states = _row_states(cols, toroidal)
    if not states:
        return {}
    faces = rows * cols
    deg = faces + 1
    s = len(states)
    c0 = [row.count(0) for row in states]
    c1 = [row.count(1) for row in states]
    compat = np.array([[all(a != b for a, b in zip(x, y)) for y in states] for x in states],
                      dtype=np.int64)

    # v[a, t] is the polynomial of partial colourings whose first row is
    # state a (toroidal) or summed over first rows (free) and whose current
    # last row is state t.
    starts = s if toroidal else 1
    v = np.zeros((starts, s, deg, deg), dtype=np.int64)
    for t in range(s):
        v[t if toroidal else 0, t, c0[t], c1[t]] = 1
    for _ in range(rows - 1):
        moved = np.moveaxis(np.tensordot(v, compat, axes=([1], [0])), -1, 1)
        v = np.zeros_like(moved)
        for t in range(s):
            v[:, t, c0[t]:, c1[t]:] = moved[:, t, :deg - c0[t], :deg - c1[t]]
    if toroidal:
        # close the cylinder: the last row must be compatible with the first
        poly = np.einsum("at,at...->...", compat, v)
    else:
        poly = v.sum(axis=(0, 1))
    return {(int(k0), int(k1), faces - int(k0) - int(k1)): int(poly[k0, k1])
            for k0, k1 in zip(*np.nonzero(poly))}


def generating_function(counts: dict[tuple[int, int, int], int],
                        z: tuple[float, float, float]) -> float:
    """sum over multiplicities of count * z0^k0 z1^k1 z2^k2."""
    return math.fsum(c * z[0] ** k[0] * z[1] ** k[1] * z[2] ** k[2]
                     for k, c in counts.items())


#: tolerance of the benchmark's own relative checks (symmetry, lambda shift,
#: exact Z_n); draws are taken where every weight is positive, so these
#: comparisons see no cancellation and sit at ~1e-14
REL_TOL = 1e-12


class Checks:
    """Records each oracle comparison; ``corrupt`` names one gate whose
    expected value is deliberately perturbed (negative control)."""

    def __init__(self, corrupt: str | None) -> None:
        self.corrupt = corrupt
        self.records: list[dict] = []

    def wrong(self, gate: str) -> bool:
        return self.corrupt == gate

    def equal(self, gate: str, got, want) -> None:
        if self.wrong(gate):
            want = want + 1
        self.records.append({"gate": gate, "ok": got == want, "got": got, "want": want})

    def within(self, gate: str, residual: float, tolerance: float) -> None:
        if self.wrong(gate):
            tolerance = 0.0
        self.records.append({"gate": gate, "ok": bool(residual < tolerance),
                             "residual": residual, "tolerance": tolerance})

    def rel(self, gate: str, got: complex, want: complex) -> None:
        if self.wrong(gate):
            want = want * (1 + 1e-6)
        scale = max(abs(got), abs(want))
        self.within(gate, abs(got - want) / scale if scale else 0.0, REL_TOL)
