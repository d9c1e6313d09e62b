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
(top up, bottom down).  States are enumerated by a depth-first walk over the
ice-rule moves of one row, each move a chain of entries of the ice-rule
table, so the walk's states skip the public constructor's ice-rule check; the
partition functions list none, a sweep adding one vertex at a time with one
amplitude per mask of vertical edges under it.

The six vertex kinds are defined once, in _KINDS, by their edges and by
their faces in the three-coloring model: the ice rule, the sweep's base
colors and threecoloring's classification all read that table.

Trigonometric weights with spectral parameter phi and crossing parameter eta:

    alpha = alpha' = sin(eta/2 - phi) / sin(eta)
    beta  = beta'  = sin(eta/2 + phi) / sin(eta)
    gamma = gamma' = 1

The dressed sums, the reduce-by-one recursions and the three-term
functional sums have one shape in both models, the three-coloring one with
sin replaced by theta1: _dressed, _recursion_residual and _three_term_residual
each implement one shape, and the model functions add only their prefactors.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache, partial

from .errors import (CrossingParameterError, DegenerateCrossingError,
                     EvaluationOverflowError, InvalidStateError, SizeGuardError)
from .numutil import finite, guarded, rel_residual, stable_sum

MAX_ENUM_N = 7
MAX_EVAL_N = 12
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


#: the one definition of the six kinds: per kind, its (left, right, top,
#: bottom) edges, True pointing right or up, and its (bl, tl, tr, br) faces
#: less the base color, the bottom-left face for the alpha kinds and the
#: top-left face for the others; the two agree under threecoloring's arrow map
_KINDS: dict[VertexKind, tuple[tuple[bool, ...], tuple[int, ...]]] = {
    VertexKind.ALPHA: ((True, True, True, True), (0, -1, 0, 1)),
    VertexKind.ALPHA_P: ((False, False, False, False), (0, 1, 0, -1)),
    VertexKind.BETA: ((True, True, False, False), (1, 0, -1, 0)),
    VertexKind.BETA_P: ((False, False, True, True), (-1, 0, 1, 0)),
    VertexKind.GAMMA: ((True, False, True, False), (1, 0, 1, 0)),
    VertexKind.GAMMA_P: ((False, True, False, True), (-1, 0, -1, 0)),
}
_KIND_FROM_EDGES = {edges: kind for kind, (edges, _) in _KINDS.items()}
#: per (left, top) edge pair, the (right, bottom, kind) completing a vertex
#: under the ice rule, right ascending
_COMPLETIONS = {(left, top): sorted((r, b, kind) for (l, r, t, b), kind
                                    in _KIND_FROM_EDGES.items() if (l, t) == (left, top))
                for left in (False, True) for top in (False, True)}
_ALPHAS = (VertexKind.ALPHA, VertexKind.ALPHA_P)
_BETAS = (VertexKind.BETA, VertexKind.BETA_P)


@lru_cache(maxsize=None)
def _unchecked(cls):
    """Constructor of the frozen dataclass cls that takes its field values
    positionally and skips its __post_init__ checks: for values built from
    input the public constructors checked, or read from the ice-rule tables,
    which the tests check entry by entry.  It is compiled once per class, as
    dataclass compiles __init__, with one object.__setattr__ per field and
    no loop, so it costs what a hand-unrolled constructor does and, as the
    public constructors do, materialises no per-instance __dict__."""
    names = [f.name for f in fields(cls)]
    scope = {"cls": cls, "new": object.__new__, "set_field": object.__setattr__}
    exec(f"def make({', '.join(names)}):\n    obj = new(cls)\n"
         + "".join(f"    set_field(obj, {name!r}, {name})\n" for name in names)
         + "    return obj\n", scope)
    return scope["make"]


@dataclass(frozen=True)
class SixVertexState:
    """Edge orientations of one ice state; vertex kinds are derived on demand.
    List rows are stored as tuples; every vertex is checked against the ice
    rule in one loop, which names the first that breaks it."""

    h: tuple[tuple[bool, ...], ...]
    v: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        h, v = tuple(map(tuple, self.h)), tuple(map(tuple, self.v))
        rows = len(h)
        if rows == 0 or len(v) != rows + 1:
            raise InvalidStateError("edge arrays have inconsistent shapes")
        cols = len(v[0])
        if cols == 0 or set(map(len, h)) != {cols + 1} or set(map(len, v)) != {cols}:
            raise InvalidStateError("edge arrays have inconsistent shapes")
        for i, j in itertools.product(range(rows), range(cols)):
            if (h[i][j], h[i][j + 1], v[i][j], v[i + 1][j]) not in _KIND_FROM_EDGES:
                raise InvalidStateError(f"ice rule violated at vertex ({i}, {j})")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    @property
    def nrows(self) -> int:
        return len(self.h)

    @property
    def ncols(self) -> int:
        return len(self.v[0])

    def kind_at(self, i: int, j: int) -> VertexKind:
        """Kind of 0-based vertex (i, j), from its (left, right, top, bottom)
        edges; IndexError for a vertex off the lattice."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"vertex ({i}, {j}) outside 0..{self.nrows - 1} x 0..{self.ncols - 1}")
        return _KIND_FROM_EDGES[self.h[i][j], self.h[i][j + 1], self.v[i][j], self.v[i + 1][j]]

    def kind_matrix(self) -> tuple[tuple[VertexKind, ...], ...]:
        """kind_at of every vertex, row by row, read without its range checks."""
        return tuple(tuple(map(_KIND_FROM_EDGES.__getitem__, zip(h, h[1:], top, bottom)))
                     for h, top, bottom in zip(self.h, self.v, self.v[1:]))

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


@lru_cache(maxsize=None)
def _row_moves(v_in: tuple[bool, ...]) -> tuple[tuple[tuple[bool, ...], tuple[bool, ...]], ...]:
    """The (h row, v out) pairs of one domain-wall row below the vertical
    edges v_in, h rows ascending: the row enters pointing right, leaves
    pointing left, and every vertex obeys the ice rule: each move is a
    chain of _COMPLETIONS entries, one per top edge after the entry edge."""
    rows = [((True,), ())]
    for top in v_in:
        rows = [(h + (right,), v + (bottom,))
                for h, v in rows for right, bottom, _ in _COMPLETIONS[h[-1], top]]
    return tuple((h, v) for h, v in rows if not h[-1])


def enumerate_dwbc_states(n: int) -> list[SixVertexState]:
    """All domain-wall ice states on the n x n lattice, in row-major
    lexicographic edge order, by a depth-first walk over the row moves:
    moves come in ascending h order and h fixes v, so the states come out in
    (h, v) order.  Counts follow the alternating-sign-matrix sequence 1, 2,
    7, 42, 429, ...; only the row moves are cached, never the states.
    """
    if type(n) is not int:
        raise SizeGuardError(f"n must be an int, got {n!r}")
    if not 1 <= n <= MAX_ENUM_N:
        raise SizeGuardError(f"n = {n} outside the enumeration guard 1..{MAX_ENUM_N}")
    states = []
    make = _unchecked(SixVertexState)

    def descend(h_rows: tuple, v_rows: tuple) -> None:
        if len(h_rows) == n:
            states.append(make(h_rows, v_rows))
            return
        for h_row, v_out in _row_moves(v_rows[-1]):
            descend(h_rows + (h_row,), v_rows + (v_out,))

    descend((), ((True,) * n,))
    return states


#: value as a complex rapidity; NonFiniteParameterError if it is not finite
_rapidity = partial(finite, name="rapidity")


@dataclass(frozen=True)
class SpectralAssignment:
    """Line rapidities: chi for horizontal lines (top first), psi for vertical
    lines (left first), plus the crossing parameter eta, all finite."""

    chi: tuple[complex, ...]
    psi: tuple[complex, ...]
    eta: complex = ETA_COMBINATORIAL

    def __post_init__(self) -> None:
        chi, psi = tuple(map(_rapidity, self.chi)), tuple(map(_rapidity, self.psi))
        if len(chi) != len(psi):
            raise ValueError("chi and psi must have equal length")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "eta", finite(self.eta, "eta"))

    @property
    def n(self) -> int:
        return len(self.chi)

    def _index(self, k: int) -> int:
        """Position of the 1-based line index k; IndexError outside 1..n."""
        if not 1 <= k <= self.n:
            raise IndexError(f"line index {k} outside 1..{self.n}")
        return k - 1

    def replace_chi(self, k: int, value: complex) -> "SpectralAssignment":
        """New assignment with chi_k (1-based) replaced."""
        chi = list(self.chi)
        chi[self._index(k)] = _rapidity(value)
        return _unchecked(SpectralAssignment)(tuple(chi), self.psi, self.eta)

    def shift_chi(self, k: int, delta: complex) -> "SpectralAssignment":
        return self.replace_chi(k, self.chi[self._index(k)] + delta)

    def shift_psi(self, k: int, delta: complex) -> "SpectralAssignment":
        psi = list(self.psi)
        i = self._index(k)
        psi[i] = _rapidity(psi[i] + delta)
        return _unchecked(SpectralAssignment)(self.chi, tuple(psi), self.eta)

    def drop(self, k: int, l: int) -> "SpectralAssignment":
        """Remove chi_k and psi_l (1-based), for the reduced-lattice side of
        the recursion relations."""
        k, l = self._index(k), self._index(l)
        chi = tuple(x for i, x in enumerate(self.chi) if i != k)
        psi = tuple(x for i, x in enumerate(self.psi) if i != l)
        return _unchecked(SpectralAssignment)(chi, psi, self.eta)


#: sin(x[, name]); EvaluationOverflowError, naming x, where it overflows the doubles
_sin = partial(guarded, cmath.sin)


def _sin_eta(eta: complex) -> complex:
    """sin(eta); NonFiniteParameterError for an eta that is not finite (NaN
    included), DegenerateCrossingError for a sin(eta) near 0,
    EvaluationOverflowError past the doubles."""
    s = _sin(finite(eta, "eta"), "eta")
    if not abs(s) >= 1e-12:
        raise DegenerateCrossingError(f"sin(eta) ~ 0 at eta = {eta}")
    return s


def weight6v(kind: VertexKind, phi: complex, eta: complex) -> complex:
    """Trigonometric vertex weight at spectral parameter phi, a finite one
    (else NonFiniteParameterError)."""
    _rapidity(phi)
    s = _sin_eta(eta)
    if kind in _ALPHAS:
        return _sin(eta / 2 - phi) / s
    if kind in _BETAS:
        return _sin(eta / 2 + phi) / s
    return 1.0 + 0j


@lru_cache(maxsize=None)
def _vertex_program(n: int):
    """The domain-wall sweep over the n x n lattice, one vertex at a time:
    per vertex (i, j), row-major, (i, j, codes, two, one).

    A state is the mask of the vertical edges under the sweep front, bit k
    set if the edge points up (column k's bottom edge for k < j, its top
    edge from j on).  Arrow conservation along the row fixes the arrow
    carried into the vertex, left = popcount(mask) - (n - i - 1), 1 pointing
    right.  An arrow carried right must meet an up edge later in its row;
    every other state reaches the bottom boundary.  codes are the vertex's
    distinct (kind, offset), offset the base color at top-left corner color
    0: the bottom-left face i + 1 + 2 popcount(mask below j) - j less the
    kind's bottom-left offset in _KINDS.  The states behind the vertex
    are numbered those with two predecessors first, (a, p, b, q) in two,
    then the others, (a, p) in one: a, b number states in front, p, q codes."""
    program, index = [], {(1 << n) - 1: 0}
    for i, j in itertools.product(range(n), repeat=2):
        codes, preds = {}, {}
        for mask, a in index.items():
            left = mask.bit_count() - (n - i - 1)
            bl = i + 1 + 2 * (mask & ((1 << j) - 1)).bit_count() - j
            for right, bottom, kind in _COMPLETIONS[left, mask >> j & 1]:
                if right and not mask >> (j + 1):
                    continue
                p = codes.setdefault((kind, (bl - _KINDS[kind][1][0]) % 3), len(codes))
                dst = mask & ~(1 << j) | bottom << j
                preds[dst] = preds.get(dst, ()) + (a, p)
        two = [dst for dst, p in preds.items() if len(p) == 4]
        one = [dst for dst, p in preds.items() if len(p) == 2]
        index = {dst: k for k, dst in enumerate(two + one)}
        program.append((i, j, tuple(codes), tuple(preds[dst] for dst in two),
                        tuple(preds[dst] for dst in one)))
    return tuple(program)


def _vertex_sweep(n: int, vertex_weights) -> complex:
    """Sum over the n x n domain-wall states of their vertex weight products,
    one vertex at a time; vertex_weights(i, j, codes) lists vertex (i, j)'s
    weights, one per code of _vertex_program.  The empty lattice sums to 1.
    The weights are touched only by * and +, from the int 1, so they may come
    from any ring: Python ints give exact integer sums."""
    if n > MAX_EVAL_N:
        raise SizeGuardError(f"n = {n} outside the evaluation guard 0..{MAX_EVAL_N}")
    amp = [1]
    for i, j, codes, two, one in _vertex_program(n):
        w = vertex_weights(i, j, codes)
        amp = ([amp[a] * w[p] + amp[b] * w[q] for a, p, b, q in two]
               + [amp[a] * w[p] for a, p in one])
    return amp[0]


def partition_function_6v(assign: SpectralAssignment) -> complex:
    """Domain-wall partition function: sum over ice states of the product of
    vertex weights at chi_i - psi_j, by the vertex sweep.  Symmetric in the
    chi and in the psi separately; the empty lattice has Z_0 = 1."""
    n = assign.n
    if n == 0:
        return 1.0 + 0j
    s = _sin_eta(assign.eta)
    half = assign.eta / 2

    def weights(i, j, codes):
        phi = assign.chi[i] - assign.psi[j]
        a, b = cmath.sin(half - phi) / s, cmath.sin(half + phi) / s
        return [a if kind in _ALPHAS else b if kind in _BETAS else 1.0 + 0j
                for kind, _ in codes]

    try:  # around the sweep, so its per-vertex closure gains no call
        return _vertex_sweep(n, weights)
    except (OverflowError, ValueError) as exc:  # ValueError: an argument overflowed to inf
        raise EvaluationOverflowError(f"a weight overflows the doubles at {assign}") from exc


def _dressed(f, assign: SpectralAssignment, pre: complex) -> complex:
    """pre times the antisymmetrizing prefactor of the dressed sums,

        prod_{i<j} f(chi_i - chi_j) f(psi_i - psi_j) * prod_{i,j} f(chi_i - psi_j),

    multiplied in that order; f is sin for the six-vertex model and theta1
    for the three-coloring model."""
    chi, psi = assign.chi, assign.psi
    pairs = itertools.combinations(range(assign.n), 2)
    return math.prod(itertools.chain(
        (f(d) for i, j in pairs for d in (chi[i] - chi[j], psi[i] - psi[j])),
        (f(x - y) for x in chi for y in psi)), start=pre)


def F_n_6v(assign: SpectralAssignment) -> complex:
    """Partition function dressed with the antisymmetrizing sine prefactor:

        F_n = prod_{i<j} sin(chi_i - chi_j) * prod_{i,j} sin(chi_i - psi_j)
              * prod_{i<j} sin(psi_i - psi_j) * Z_n
    """
    return _dressed(_sin, assign, 1.0 + 0j) * partition_function_6v(assign)


def _require_combinatorial_eta(eta: complex) -> None:
    if not math.hypot(eta.real - ETA_COMBINATORIAL, eta.imag) <= 1e-12:  # NaN too; abs overflows
        raise CrossingParameterError(
            f"functional sums require eta = 2*pi/3, got eta = {eta}")


def _three_term_residual(term, assign: SpectralAssignment, k: int, side: str) -> float:
    """Residual of the three-term sum S = sum_{s=0}^{2} term(s, shifted_s),
    shifted_s the assignment with chi_k shifted by +2 pi s / 3 (side="chi")
    or psi_k by -2 pi s / 3 (side="psi"), which vanishes identically in both
    models.  |S| is normalized by the largest of the three summands.  Checks
    side, then k, by SpectralAssignment._index as shifted_0 is built."""
    if side not in ("chi", "psi"):
        raise ValueError("side must be 'chi' or 'psi'")
    shift, delta = ((assign.shift_chi, ETA_COMBINATORIAL) if side == "chi"
                    else (assign.shift_psi, -ETA_COMBINATORIAL))
    terms = [term(s, shift(k, delta * s)) for s in range(3)]
    return rel_residual(stable_sum(terms), 0.0, scale=max(abs(t) for t in terms))


def functional_residual_6v(assign: SpectralAssignment, k: int, side: str = "chi") -> float:
    """Residual of the three-term sum of F_n over 2*pi/3 shifts of one rapidity.

    side="chi" shifts chi_k by +2*pi*s/3, side="psi" shifts psi_k by
    -2*pi*s/3 (s = 0, 1, 2).  Both sums vanish identically at eta = 2*pi/3.
    |S| is normalized by the largest of the three summands.
    """
    _require_combinatorial_eta(assign.eta)
    return _three_term_residual(lambda s, shifted: F_n_6v(shifted), assign, k, side)


def _recursion_residual(assign: SpectralAssignment, k: int, l: int, sign: int, form: str,
                        offset: complex, lhs, rhs, f, start: complex) -> float:
    """Residual of the reduce-by-one recursion lhs(pinned) = pre * rhs(reduced).

    Checks sign, form, then l and k by SpectralAssignment._index as psi_l is
    read and chi_k pinned, before lhs or rhs runs.  Pins chi_k = psi_l + h
    with h = sign * offset and drops chi_k and psi_l to reduce.  pre is start
    times prod_{i!=k} f(chi_i - psi_l + h) * prod_{i!=l} f(psi_l - psi_i + 2h)
    for form="Z", and sign * (-1)^{n-k+l-1} * prod f(3(psi_l - y)), y over
    the reduced chi, then psi, for form="F": that sign is the parity of moving
    the pinned pair to the corner through the antisymmetric prefactor."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if form not in ("Z", "F"):
        raise ValueError("form must be 'Z' or 'F'")
    psi_l, h = assign.psi[assign._index(l)], sign * offset
    pinned = assign.replace_chi(k, psi_l + h)
    reduced = pinned.drop(k, l)
    value = lhs(pinned)
    if form == "Z":
        factors = itertools.chain((f(x - psi_l + h) for x in reduced.chi),
                                  (f(psi_l - y + 2 * h) for y in reduced.psi))
    else:
        factors = (f(3 * (psi_l - y)) for y in reduced.chi + reduced.psi)
        start = start * sign * (-1) ** (assign.n - k + l - 1)
    return rel_residual(value, math.prod(factors, start=start) * rhs(reduced))


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

    eta is checked first, then sign, form, l and k (_recursion_residual),
    before any weight is evaluated.
    """
    n, eta = assign.n, assign.eta
    if form == "F":
        _require_combinatorial_eta(eta)
        return _recursion_residual(assign, k, l, sign, form, math.pi / 3, F_n_6v, F_n_6v, _sin,
                                   4.0 ** (2 - 2 * n) * _sin(ETA_COMBINATORIAL) ** (3 - 2 * n))
    return _recursion_residual(assign, k, l, sign, form, eta / 2, partition_function_6v,
                               partition_function_6v, _sin, _sin_eta(eta) ** (2 - 2 * n))
