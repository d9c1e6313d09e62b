"""Six-vertex model on a square lattice with domain-wall boundaries.

A state assigns an orientation to every edge so that each vertex has exactly
two arrows in and two arrows out (the ice rule).  Edges are stored as
booleans: h[i][j] is the horizontal edge left of vertex (i, j) with True
meaning "points right"; v[i][j] is the vertical edge above vertex (i, j)
with True meaning "points up".  Rows are counted from the top, so for a
square lattice of n vertices per row h has shape n x (n+1) and v has shape
(n+1) x n.

Domain-wall boundary conditions: boundary horizontal arrows point in
(leftmost right, rightmost left) and boundary vertical arrows point out
(top up, bottom down).  One row transfer table, the moves between tuples of
vertical edges row by row, yields the states as its paths and the partition
functions as a complex amplitude per row state, no state being listed.

The six vertex kinds, by (left, right, top, bottom) edge booleans:

    ALPHA   (T,T,T,T)    ALPHA_P (F,F,F,F)
    BETA    (T,T,F,F)    BETA_P  (F,F,T,T)
    GAMMA   (T,F,T,F)    GAMMA_P (F,T,F,T)

Trigonometric weights with spectral parameter phi and crossing parameter eta:

    alpha = alpha' = sin(eta/2 - phi) / sin(eta)
    beta  = beta'  = sin(eta/2 + phi) / sin(eta)
    gamma = gamma' = 1
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import (CrossingParameterError, DegenerateCrossingError,
                     InvalidStateError, SizeGuardError)
from .numutil import rel_residual, stable_sum

MAX_ENUM_N = 7
ETA_COMBINATORIAL = 2.0 * math.pi / 3.0


class VertexKind(Enum):
    ALPHA = "alpha"
    ALPHA_P = "alpha_prime"
    BETA = "beta"
    BETA_P = "beta_prime"
    GAMMA = "gamma"
    GAMMA_P = "gamma_prime"

    @property
    def is_gamma(self) -> bool:
        return self in (VertexKind.GAMMA, VertexKind.GAMMA_P)


_KIND_FROM_EDGES = {
    (True, True, True, True): VertexKind.ALPHA,
    (False, False, False, False): VertexKind.ALPHA_P,
    (True, True, False, False): VertexKind.BETA,
    (False, False, True, True): VertexKind.BETA_P,
    (True, False, True, False): VertexKind.GAMMA,
    (False, True, False, True): VertexKind.GAMMA_P,
}


@dataclass(frozen=True)
class SixVertexState:
    """Edge orientations of one ice state; vertex kinds are derived on demand."""

    h: tuple[tuple[bool, ...], ...]
    v: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        rows = len(self.h)
        if rows == 0 or len(self.v) != rows + 1:
            raise InvalidStateError("edge arrays have inconsistent shapes")
        cols = len(self.v[0])
        if cols == 0 or set(map(len, self.h)) != {cols + 1} or set(map(len, self.v)) != {cols}:
            raise InvalidStateError("edge arrays have inconsistent shapes")
        for i in range(rows):
            j = _first_bad_vertex(tuple(self.h[i]), tuple(self.v[i]), tuple(self.v[i + 1]))
            if j is not None:
                raise InvalidStateError(f"ice rule violated at vertex ({i}, {j})")

    @property
    def nrows(self) -> int:
        return len(self.h)

    @property
    def ncols(self) -> int:
        return len(self.v[0])

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise InvalidStateError("state is not square")
        return self.nrows

    def edges_at(self, i: int, j: int) -> tuple[bool, bool, bool, bool]:
        """(left, right, top, bottom) edge booleans at 0-based vertex (i, j)."""
        return (self.h[i][j], self.h[i][j + 1], self.v[i][j], self.v[i + 1][j])

    def kind_at(self, i: int, j: int) -> VertexKind:
        return _KIND_FROM_EDGES[self.edges_at(i, j)]

    def kind_matrix(self) -> tuple[tuple[VertexKind, ...], ...]:
        return tuple(tuple(self.kind_at(i, j) for j in range(self.ncols))
                     for i in range(self.nrows))

    def satisfies_dwbc(self) -> bool:
        n_r, n_c = self.nrows, self.ncols
        return (all(self.h[i][0] for i in range(n_r))
                and not any(self.h[i][n_c] for i in range(n_r))
                and all(self.v[0][j] for j in range(n_c))
                and not any(self.v[n_r][j] for j in range(n_c)))

    def gamma_counts_odd(self) -> bool:
        """Odd number of gamma-type vertices in every row and every column."""
        kinds = self.kind_matrix()
        for i in range(self.nrows):
            if sum(kinds[i][j].is_gamma for j in range(self.ncols)) % 2 == 0:
                return False
        for j in range(self.ncols):
            if sum(kinds[i][j].is_gamma for i in range(self.nrows)) % 2 == 0:
                return False
        return True

    def to_json_obj(self) -> list[list[str]]:
        return [[k.value for k in row] for row in self.kind_matrix()]

    def sort_key(self):
        return (self.h, self.v)


@lru_cache(maxsize=4096)
def _first_bad_vertex(h_row: tuple, v_top: tuple, v_bottom: tuple) -> int | None:
    """Column of the first vertex in one row of a state that breaks the ice
    rule, or None.  Rows of the enumerated states repeat across states, so
    each distinct (h row, v above, v below) triple is checked once."""
    for j, edges in enumerate(zip(h_row, h_row[1:], v_top, v_bottom)):
        if edges not in _KIND_FROM_EDGES:
            return j
    return None


def _row_moves(v_in: tuple[bool, ...]) -> list[tuple[tuple[bool, ...], tuple[bool, ...]]]:
    """The (h row, v out) pairs of one domain-wall row below the vertical
    edges v_in, h rows ascending.  The row enters pointing right, leaves
    pointing left, and every vertex conserves arrows:
    left - right - top + bottom = 0."""
    rows = [((True,), ())]
    for top in v_in:
        extended = []
        for h, v in rows:
            for right in (False, True):
                bottom = right + top - h[-1]
                if bottom in (0, 1):
                    extended.append((h + (right,), v + (bottom == 1,)))
        rows = extended
    return [(h, v) for h, v in rows if not h[-1]]


#: VertexKind by position: the kind codes of the row transfer table
_KINDS = tuple(VertexKind)


@lru_cache(maxsize=None)
def _transfer_table(n: int):
    """Per row, top first, (below, moves, codes): the row states (vertical
    edge tuples) under the row, and in moves[src] the moves (dst, h, picks),
    h ascending, from row state src above to below[dst]; picks[j] indexes
    codes[j], vertex j's distinct (kind index, offset) codes.  offset is the
    base color (top-left face; bottom-left for alpha) at top-left color 0,
    by the height function: faces above row i are i plus the running +-1
    steps along v_in, faces below are i + 1 plus those along v_out."""
    rows, states = [], [(True,) * n]
    for i in range(n):
        below: dict[tuple[bool, ...], int] = {}
        codes: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
        moves = []
        for v_in in states:
            moves.append([])
            for h, v_out in _row_moves(v_in):
                picks, top, bottom = [], i, i + 1
                for j, seen in enumerate(codes):
                    kind = _KIND_FROM_EDGES[h[j], h[j + 1], v_in[j], v_out[j]]
                    alpha = kind in (VertexKind.ALPHA, VertexKind.ALPHA_P)
                    code = (_KINDS.index(kind), (bottom if alpha else top) % 3)
                    picks.append(seen.setdefault(code, len(seen)))
                    top, bottom = top + 2 * v_in[j] - 1, bottom + 2 * v_out[j] - 1
                moves[-1].append((below.setdefault(v_out, len(below)), h, tuple(picks)))
        states = list(below)
        rows.append((tuple(states), tuple(map(tuple, moves)), tuple(map(tuple, codes))))
    return tuple(rows)


def _row_transfer(n: int, vertex_weights) -> complex:
    """Sum over the n x n domain-wall states of their vertex weight products,
    row by row; vertex_weights(i, j, codes) lists vertex (i, j)'s weights."""
    amp = [1.0 + 0j]
    for i, (below, moves, codes) in enumerate(_transfer_table(n)):
        tables = [vertex_weights(i, j, c) for j, c in enumerate(codes)]
        summed = [0j] * len(below)
        for a, out in zip(amp, moves):
            for dst, _, picks in out:
                w = a
                for table, pick in zip(tables, picks):
                    w *= table[pick]
                summed[dst] += w
        amp = summed
    return amp[0]


Edges = tuple[tuple[tuple[bool, ...], ...], tuple[tuple[bool, ...], ...]]


@lru_cache(maxsize=None)
def _enumerate_dwbc(n: int) -> tuple[Edges, ...]:
    """The (h, v) edge tuples of every domain-wall ice state, the paths
    through the row transfer table.  Moves come in ascending h order and h
    fixes v, so the states come out in SixVertexState.sort_key order."""
    if not 1 <= n <= MAX_ENUM_N:
        raise SizeGuardError(f"n = {n} outside the enumeration guard 1..{MAX_ENUM_N}")
    table, states = _transfer_table(n), []

    def descend(i: int, src: int, h_rows: tuple, v_rows: tuple) -> None:
        if i == n:
            states.append((h_rows, v_rows))
            return
        below, moves, _ = table[i]
        for dst, h_row, _ in moves[src]:
            descend(i + 1, dst, h_rows + (h_row,), v_rows + (below[dst],))

    descend(0, 0, (), ((True,) * n,))
    return tuple(states)


def enumerate_dwbc_states(n: int) -> list[SixVertexState]:
    """All domain-wall ice states on the n x n lattice, in row-major
    lexicographic edge order.  Counts follow the alternating-sign-matrix
    sequence 1, 2, 7, 42, 429, ...
    """
    return [SixVertexState(h=h, v=v) for h, v in _enumerate_dwbc(n)]


@dataclass(frozen=True)
class SpectralAssignment:
    """Line rapidities: chi for horizontal lines (top first), psi for vertical
    lines (left first), plus the crossing parameter eta."""

    chi: tuple[complex, ...]
    psi: tuple[complex, ...]
    eta: complex = ETA_COMBINATORIAL

    def __post_init__(self) -> None:
        self._init(tuple(complex(x) for x in self.chi),
                   tuple(complex(x) for x in self.psi), complex(self.eta))

    def _init(self, chi: tuple[complex, ...], psi: tuple[complex, ...], eta: complex) -> None:
        if len(chi) != len(psi):
            raise ValueError("chi and psi must have equal length")
        self.__dict__.update(chi=chi, psi=psi, eta=eta)

    @classmethod
    def _derived(cls, chi: tuple[complex, ...], psi: tuple[complex, ...],
                 eta: complex) -> "SpectralAssignment":
        """Assignment from tuples that are already complex: the length check
        of the public constructor without its coercion."""
        new = object.__new__(cls)
        new._init(chi, psi, eta)
        return new

    @property
    def n(self) -> int:
        return len(self.chi)

    def replace_chi(self, k: int, value: complex) -> "SpectralAssignment":
        """New assignment with chi_k (1-based) replaced."""
        chi = list(self.chi)
        chi[k - 1] = complex(value)
        return self._derived(tuple(chi), self.psi, self.eta)

    def shift_chi(self, k: int, delta: complex) -> "SpectralAssignment":
        return self.replace_chi(k, self.chi[k - 1] + delta)

    def shift_psi(self, k: int, delta: complex) -> "SpectralAssignment":
        psi = list(self.psi)
        psi[k - 1] = complex(psi[k - 1] + delta)
        return self._derived(self.chi, tuple(psi), self.eta)

    def drop(self, k: int, l: int) -> "SpectralAssignment":
        """Remove chi_k and psi_l (1-based), for the reduced-lattice side of
        the recursion relations."""
        chi = tuple(x for i, x in enumerate(self.chi) if i != k - 1)
        psi = tuple(x for i, x in enumerate(self.psi) if i != l - 1)
        return self._derived(chi, psi, self.eta)


def _sin_eta(eta: complex) -> complex:
    s = cmath.sin(eta)
    if abs(s) < 1e-12:
        raise DegenerateCrossingError(f"sin(eta) ~ 0 at eta = {eta}")
    return s


def weight6v(kind: VertexKind, phi: complex, eta: complex) -> complex:
    """Trigonometric vertex weight at spectral parameter phi."""
    s = _sin_eta(eta)
    if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
        return cmath.sin(eta / 2 - phi) / s
    if kind in (VertexKind.BETA, VertexKind.BETA_P):
        return cmath.sin(eta / 2 + phi) / s
    return 1.0 + 0j


def partition_function_6v(assign: SpectralAssignment) -> complex:
    """Domain-wall partition function: sum over ice states of the product of
    vertex weights at chi_i - psi_j, by the row transfer.  Symmetric in the
    chi and in the psi separately; the empty lattice has Z_0 = 1."""
    n = assign.n
    if n == 0:
        return 1.0 + 0j
    s = _sin_eta(assign.eta)
    if n > MAX_ENUM_N:
        raise SizeGuardError(f"n = {n} outside the enumeration guard 1..{MAX_ENUM_N}")
    half = assign.eta / 2

    def weights(i, j, codes):
        phi = assign.chi[i] - assign.psi[j]
        a, b = cmath.sin(half - phi) / s, cmath.sin(half + phi) / s
        return [(a, a, b, b, 1.0 + 0j, 1.0 + 0j)[kind] for kind, _ in codes]

    return _row_transfer(n, weights)


def F_n_6v(assign: SpectralAssignment) -> complex:
    """Partition function dressed with the antisymmetrizing sine prefactor:

        F_n = prod_{i<j} sin(chi_i - chi_j) * prod_{i,j} sin(chi_i - psi_j)
              * prod_{i<j} sin(psi_i - psi_j) * Z_n
    """
    n = assign.n
    if n == 0:
        return 1.0 + 0j
    pre = 1.0 + 0j
    for i in range(n):
        for j in range(i + 1, n):
            pre *= cmath.sin(assign.chi[i] - assign.chi[j])
            pre *= cmath.sin(assign.psi[i] - assign.psi[j])
    for i in range(n):
        for j in range(n):
            pre *= cmath.sin(assign.chi[i] - assign.psi[j])
    return pre * partition_function_6v(assign)


def _require_combinatorial_eta(eta: complex) -> None:
    if abs(eta - ETA_COMBINATORIAL) > 1e-12:
        raise CrossingParameterError(
            f"functional sums require eta = 2*pi/3, got eta = {eta}")


def functional_residual_6v(assign: SpectralAssignment, k: int, side: str = "chi",
                           shift_sign: int | None = None) -> float:
    """Residual of the three-term sum of F_n over 2*pi/3 shifts of one rapidity.

    side="chi" shifts chi_k by +2*pi*s/3, side="psi" shifts psi_k by
    -2*pi*s/3 (s = 0, 1, 2).  Both sums vanish identically at eta = 2*pi/3;
    shift_sign overrides the shift direction (the psi-side sum vanishes with
    either sign for this model).  |S| is normalized by the largest of the
    three summands.
    """
    _require_combinatorial_eta(assign.eta)
    if not 1 <= k <= assign.n:
        raise IndexError(f"k = {k} outside 1..{assign.n}")
    if side not in ("chi", "psi"):
        raise ValueError("side must be 'chi' or 'psi'")
    sign = shift_sign if shift_sign is not None else (1 if side == "chi" else -1)
    terms = []
    for s in range(3):
        delta = sign * ETA_COMBINATORIAL * s
        shifted = assign.shift_chi(k, delta) if side == "chi" else assign.shift_psi(k, delta)
        terms.append(F_n_6v(shifted))
    return rel_residual(stable_sum(terms), 0.0, scale=max(abs(t) for t in terms))


def check_recursion_6v(assign: SpectralAssignment, k: int, l: int, sign: int,
                       form: str = "Z") -> float:
    """Relative residual of a reduce-by-one recursion at chi_k pinned to psi_l.

    form="Z": pin chi_k = psi_l + sign*eta/2; then

        Z_n = sin(eta)^{2-2n} * prod_{i!=k} sin(chi_i - psi_l + sign*eta/2)
              * prod_{i!=l} sin(psi_l - psi_i + sign*eta) * Z_{n-1}

    valid at any non-degenerate eta.  form="F": pin chi_k = psi_l + sign*pi/3
    with eta = 2*pi/3; then

        F_n = sign * (-1)^{n-k+l-1} * 4^{2-2n} * sin(2*pi/3)^{3-2n}
              * prod_{i!=k} sin(3(psi_l - chi_i)) * prod_{i!=l} sin(3(psi_l - psi_i))
              * F_{n-1}

    The (-1)^{n-k+l-1} sign carries the parity of moving the pinned pair to
    the corner through the antisymmetric prefactor; at k = l = n it reduces
    to (-1)^{n-1}.
    """
    n = assign.n
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"(k, l) = ({k}, {l}) outside 1..{n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if form not in ("Z", "F"):
        raise ValueError("form must be 'Z' or 'F'")
    eta = assign.eta

    if form == "Z":
        pinned = assign.replace_chi(k, assign.psi[l - 1] + sign * eta / 2)
        reduced = pinned.drop(k, l)  # its chi are the i != k, its psi the i != l
        lhs = partition_function_6v(pinned)
        pre = cmath.sin(eta) ** (2 - 2 * n)
        for x in reduced.chi:
            pre *= cmath.sin(x - assign.psi[l - 1] + sign * eta / 2)
        for y in reduced.psi:
            pre *= cmath.sin(assign.psi[l - 1] - y + sign * eta)
        rhs = pre * partition_function_6v(reduced)
        return rel_residual(lhs, rhs)

    _require_combinatorial_eta(eta)
    pinned = assign.replace_chi(k, assign.psi[l - 1] + sign * math.pi / 3)
    reduced = pinned.drop(k, l)
    lhs = F_n_6v(pinned)
    pre = (sign * (-1) ** (n - k + l - 1) * 4.0 ** (2 - 2 * n)
           * cmath.sin(ETA_COMBINATORIAL) ** (3 - 2 * n))
    for x in reduced.chi:
        pre *= cmath.sin(3 * (assign.psi[l - 1] - x))
    for y in reduced.psi:
        pre *= cmath.sin(3 * (assign.psi[l - 1] - y))
    rhs = pre * F_n_6v(reduced)
    return rel_residual(lhs, rhs)


def trig_cubic_residual(phi: complex) -> float:
    """Residual of sin(phi) sin(phi + pi/3) sin(phi + 2pi/3) = sin(3 phi)/4."""
    lhs = (cmath.sin(phi) * cmath.sin(phi + math.pi / 3)
           * cmath.sin(phi + 2 * math.pi / 3))
    return rel_residual(lhs, cmath.sin(3 * phi) / 4.0)
