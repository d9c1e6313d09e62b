"""Proper three-colorings of a square face lattice and their Boltzmann weights.

Faces carry colors from Z3; horizontally and vertically adjacent faces must
differ (equivalently, differ by +1 or -1 mod 3).  Boundary conditions:

  free      no extra constraint;
  toroidal  additionally first != last in every row and every column;
  dwbc      the boundary colors are forced: walking the boundary
            anticlockwise the color steps by +1 on the vertical sides and
            by -1 on the horizontal sides.  For an (n+1) x (n+1) face grid
            with top-left corner color c this pins row 0 to c+j, column 0 to
            c+i, row n to c+n-j and column n to c+n-i.

Every internal vertex of the face lattice sees four face colors
(bottom-left, top-left, top-right, bottom-right).  Exactly one diagonal of
the quadruple is constant, which sorts the 18 admissible patterns into six
kinds with a base color r:

    ALPHA   (r,   r-1, r,   r+1)      ALPHA_P (r,   r+1, r,   r-1)
    BETA    (r+1, r,   r-1, r  )      BETA_P  (r-1, r,   r+1, r  )
    GAMMA   (r+1, r,   r+1, r  )      GAMMA_P (r-1, r,   r-1, r  )

in (bl, tl, tr, br) order.  The arrow map sends a coloring to an ice state:
a horizontal edge points right iff its south face is its north face + 1, a
vertical edge points up iff its east face is its west face + 1; the vertex
kind of the face quadruple equals the arrow kind, and the map is three to
one (fixing any single face color makes it a bijection).  The domain-wall
partial partition functions therefore run the six-vertex row transfer, the
base colors read off the height function of each row move.

Two weight families are evaluated for a vertex of kind/base (k, r) at
spectral parameter phi, both built on theta functions of nome p with the
fixed parameter lambda (zeta_r as in theta.zeta):

raw family:
    alpha_r  = zeta_r^{1/4 + 3phi/4pi} theta1(pi/3 - phi) / theta1(2pi/3)
    beta_r   = zeta_r^{1/4 - 3phi/4pi} theta1(pi/3 + phi) / theta1(2pi/3)
    gamma_r  = [zeta_{r+1}/zeta_r]^{1/6 + phi/2pi}
               theta4(lambda + 2pi(r + 1/2)/3 + phi) / theta4(lambda + 2pi r/3)
    gamma'_r = [zeta_{r-1}/zeta_r]^{1/6 + phi/2pi}
               theta4(lambda + 2pi(r - 1/2)/3 - phi) / theta4(lambda + 2pi r/3)

tilde family (the raw family gauged by Phi_r = zeta_r^{1/12 + phi/4pi}):
    alpha_r  = theta1(pi/3 - phi) / theta1(2pi/3)
    beta_r   = zeta_r^{1/2} theta1(pi/3 + phi) / theta1(2pi/3)
    gamma_r  = theta4(lambda + 2pi(r + 1/2)/3 + phi) / theta4(lambda + 2pi r/3)
    gamma'_r = theta4(lambda + 2pi(r - 1/2)/3 - phi) / theta4(lambda + 2pi r/3)

alpha' = alpha and beta' = beta in both families.  At p -> 0 the tilde
family degenerates to the six-vertex trigonometric weights at eta = 2pi/3.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import ne
from typing import Iterator, Mapping

from .errors import (BranchDomainError, InvalidColoringError, PoleError,
                     SizeGuardError)
from .numutil import rel_residual, stable_sum
from .theta import (DEFAULT_SERIES, PI, TWO_PI_OVER_3, EllipticParams,
                    SeriesConfig, ThetaTriple, cubic_factor_D, theta1,
                    theta1_reduced, theta4, theta_triple)
from .sixvertex import (_KINDS, SixVertexState, SpectralAssignment,
                        VertexKind, _row_transfer)

MAX_FREE_CELLS = 25
MAX_DWBC_N = 5


class Color(int):
    """Element of Z3 with wrap-around arithmetic.

    Integers coerce by reduction mod 3; arithmetic stays in Z3.
    """

    def __new__(cls, value: int) -> "Color":
        return super().__new__(cls, int(value) % 3)

    def __add__(self, other):  # type: ignore[override]
        return Color(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):  # type: ignore[override]
        return Color(int(self) - int(other))

    def __rsub__(self, other):  # type: ignore[override]
        return Color(int(other) - int(self))

    def __neg__(self) -> "Color":
        return Color(-int(self))

    def __repr__(self) -> str:
        return f"Color({int(self)})"


#: the three colors, shared by every face the enumerations build
_COLORS = (Color(0), Color(1), Color(2))


class BoundaryCondition(str, Enum):
    FREE = "free"
    TOROIDAL = "toroidal"
    DWBC = "dwbc"


@dataclass(frozen=True)
class FaceWeightParams:
    """Per-color face Boltzmann weights for the coloring census."""

    z0: complex = 1.0
    z1: complex = 1.0
    z2: complex = 1.0

    def weight(self, c: int) -> complex:
        return (self.z0, self.z1, self.z2)[c % 3]


@dataclass(frozen=True)
class ColoredVertexKind:
    """A vertex kind together with the base color of its four-face pattern."""

    kind: VertexKind
    r: Color

    def corner_lifts(self) -> tuple[int, int, int, int]:
        """(bl, tl, tr, br) as plain integers with the base color in {0,1,2}
        and its neighbours written literally as r-1 / r+1 (possibly -1 or 3).
        Gauge factors that are not periodic in the integer label (such as
        exp(i r phi / 2) terms) must be fed these lifts."""
        r = int(self.r)
        pattern = _CORNER_PATTERN[self.kind]
        return tuple(r + d for d in pattern)

    def corner_colors(self) -> tuple[Color, Color, Color, Color]:
        return tuple(Color(x) for x in self.corner_lifts())


_CORNER_PATTERN: dict[VertexKind, tuple[int, int, int, int]] = {
    VertexKind.ALPHA: (0, -1, 0, 1),
    VertexKind.ALPHA_P: (0, 1, 0, -1),
    VertexKind.BETA: (1, 0, -1, 0),
    VertexKind.BETA_P: (-1, 0, 1, 0),
    VertexKind.GAMMA: (1, 0, 1, 0),
    VertexKind.GAMMA_P: (-1, 0, -1, 0),
}


def classify_vertex(bl: int, tl: int, tr: int, br: int) -> ColoredVertexKind:
    """Sort a four-face quadruple into its kind and base color."""
    bl, tl, tr, br = Color(bl), Color(tl), Color(tr), Color(br)
    for a, b in ((bl, tl), (tl, tr), (tr, br), (br, bl)):
        if a == b:
            raise InvalidColoringError(f"adjacent faces equal in ({bl},{tl},{tr},{br})")
    if bl == tr and tl == br:
        kind = VertexKind.GAMMA if bl == tl + 1 else VertexKind.GAMMA_P
        return ColoredVertexKind(kind, tl)
    if bl == tr:
        kind = VertexKind.ALPHA if tl == bl - 1 else VertexKind.ALPHA_P
        return ColoredVertexKind(kind, bl)
    if tl == br:
        kind = VertexKind.BETA if bl == tl + 1 else VertexKind.BETA_P
        return ColoredVertexKind(kind, tl)
    raise InvalidColoringError(f"inadmissible quadruple ({bl},{tl},{tr},{br})")


@dataclass(frozen=True)
class GridColoring:
    """rows x cols face colors, row 0 at the top."""

    faces: tuple[tuple[Color, ...], ...]

    def __post_init__(self) -> None:
        if not self.faces or not self.faces[0]:
            raise InvalidColoringError("empty face grid")
        cols = len(self.faces[0])
        if any(len(row) != cols for row in self.faces):
            raise InvalidColoringError("ragged face grid")
        if any(c not in _COLORS for row in self.faces for c in row):
            raise InvalidColoringError("face colors must be 0, 1 or 2")

    @classmethod
    def from_rows(cls, rows) -> "GridColoring":
        return cls(faces=tuple(tuple(_COLORS[int(c) % 3] for c in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.faces)

    @property
    def cols(self) -> int:
        return len(self.faces[0])

    @property
    def corner(self) -> Color:
        return self.faces[0][0]

    def is_proper(self) -> bool:
        f = self.faces
        return (all(a != b for row in f for a, b in zip(row, row[1:]))
                and all(a != b for upper, lower in zip(f, f[1:]) for a, b in zip(upper, lower)))

    def satisfies_dwbc(self) -> bool:
        if self.rows != self.cols or self.rows < 2:
            return False
        n = self.rows - 1
        forced = dwbc_boundary(n, self.corner)
        return all(self.faces[i][j] == c for (i, j), c in forced.items())

    def shifted(self, delta: int) -> "GridColoring":
        """Add delta to every face color."""
        return GridColoring(faces=tuple(tuple(c + delta for c in row) for row in self.faces))

    def vertex(self, i: int, j: int) -> ColoredVertexKind:
        """Kind of the internal vertex between face rows i-1, i and columns
        j-1, j (1-based internal-vertex indices)."""
        f = self.faces
        return classify_vertex(f[i][j - 1], f[i - 1][j - 1], f[i - 1][j], f[i][j])

    def color_counts(self) -> tuple[int, int, int]:
        counts = [0, 0, 0]
        for row in self.faces:
            for c in row:
                counts[int(c)] += 1
        return tuple(counts)

    def to_json_obj(self) -> list[list[int]]:
        return [[int(c) for c in row] for row in self.faces]


def dwbc_boundary(n: int, corner: int) -> dict[tuple[int, int], Color]:
    """Boundary colors forced by the domain-wall walk on an (n+1)x(n+1) grid."""
    c = Color(corner)
    forced: dict[tuple[int, int], Color] = {}
    for j in range(n + 1):
        forced[(0, j)] = c + j
        forced[(n, j)] = c + n - j
    for i in range(n + 1):
        forced[(i, 0)] = c + i
        forced[(i, n)] = c + n - i
    return forced


def _grid_guard(rows: int, cols: int, bc: BoundaryCondition,
                corner: int | None) -> tuple[BoundaryCondition, bool]:
    """Size and shape guards shared by iter_colorings and compute_census.

    Returns the boundary condition and whether the grid has no valid coloring
    at all: a single row or column cannot be toroidal, since some face would
    be its own first/last neighbour.
    """
    bc = BoundaryCondition(bc)
    if rows < 1 or cols < 1:
        raise SizeGuardError("grid must be at least 1x1")
    if bc is BoundaryCondition.DWBC:
        if rows != cols or rows < 2:
            raise InvalidColoringError("dwbc requires a square grid of at least 2x2 faces")
        if rows - 1 > MAX_DWBC_N:
            raise SizeGuardError(
                f"dwbc n = {rows - 1} outside the enumeration guard 1..{MAX_DWBC_N}")
        if corner is not None and corner not in (0, 1, 2):
            raise InvalidColoringError(f"corner must be a color 0, 1 or 2, got {corner}")
        return bc, False
    if rows * cols > MAX_FREE_CELLS:
        raise SizeGuardError(
            f"{rows}x{cols} = {rows * cols} faces exceeds the guard of {MAX_FREE_CELLS}")
    if corner is not None:
        raise InvalidColoringError(
            f"corner pins the top-left color of dwbc grids only, not of {bc.value} grids")
    return bc, bc is BoundaryCondition.TOROIDAL and (rows == 1 or cols == 1)


def iter_colorings(rows: int, cols: int, bc: BoundaryCondition,
                   corner: int | None = None) -> Iterator[GridColoring]:
    """Generate all valid colorings in lexicographic face-grid order
    (row-major, colors ascending).

    A depth-first walk over the face rows of the row transfer sectors, each
    row generated lazily among those that differ from the row above it.
    For dwbc, rows == cols == n+1 and corner (when given) pins the top-left
    color; otherwise all three corner choices are produced.
    """
    bc, empty = _grid_guard(rows, cols, bc, corner)
    if empty:
        return
    for levels, ring in _row_sectors(rows, cols, bc, corner):
        def walk(grid: tuple[Row, ...]) -> Iterator[GridColoring]:
            i = len(grid)
            for row in _rows(levels[i], ring, grid[-1:]):
                if i + 1 < len(levels):
                    yield from walk(grid + (row,))
                else:
                    yield GridColoring(grid + (row,))

        yield from walk(())


def enumerate_colorings(rows: int, cols: int, bc: BoundaryCondition,
                        corner: int | None = None) -> list[GridColoring]:
    return list(iter_colorings(rows, cols, bc, corner))


@dataclass(frozen=True)
class ColoringCensus:
    """Counts of colorings by color multiplicities (k0, k1, k2)."""

    rows: int
    cols: int
    bc: BoundaryCondition
    counts: Mapping[tuple[int, int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def generating_function(self, z: FaceWeightParams) -> complex:
        val = 0j
        for (k0, k1, k2), cnt in sorted(self.counts.items()):
            val += cnt * (z.z0 ** k0) * (z.z1 ** k1) * (z.z2 ** k2)
        return val

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        return sorted(self.counts.items())


def compute_census(rows: int, cols: int, bc: BoundaryCondition,
                   corner: int | None = None) -> ColoringCensus:
    """Census of the colorings iter_colorings would produce, counted row by
    row with a transfer matrix (Baxter 1970) instead of one by one."""
    bc, empty = _grid_guard(rows, cols, bc, corner)
    # free and toroidal counts are unchanged by transposing the grid, so the
    # rows run along the shorter side
    counts = {} if empty else _transfer_counts(
        rows * cols, _row_sectors(max(rows, cols), min(rows, cols), bc, corner))
    return ColoringCensus(rows=rows, cols=cols, bc=bc, counts=counts)


Row = tuple[int, ...]
#: the colors allowed in each column of a face row
Level = tuple[tuple[int, ...], ...]
#: the allowed colors per face row, top to bottom, and whether the rows are
#: rings, their first and last faces adjacent
Sector = tuple[list[Level], bool]


def _rows(level: Level, ring: bool, avoid: tuple[Row, ...] = ()) -> Iterator[Row]:
    """Face rows in ascending order, generated lazily: column j colored from
    level[j] and unlike column j of each row in avoid, adjacent faces (also
    the first and last when ring) colored differently."""
    tails = [_tails(colors, *banned) for colors, *banned in zip(level, *avoid)]
    stack = list(tails[0][3])
    while stack:
        row = stack.pop()
        if len(row) < len(level):
            stack.extend(map(row.__add__, tails[len(row)][row[-1]]))
        elif not ring or row[0] != row[-1]:
            yield row


@lru_cache(maxsize=None)
def _tails(colors: tuple[int, ...], *banned: int) -> tuple[tuple[Row, ...], ...]:
    """One-face extensions, colored from colors but not banned, of a row ending
    in color 0, 1 or 2 (3: the empty row), descending for _rows' stack."""
    ok = [_COLORS[c] for c in reversed(colors) if c not in banned]
    return tuple(tuple((c,) for c in ok if c != left) for left in range(4))


def _row_sectors(rows: int, cols: int, bc: BoundaryCondition,
                 corner: int | None) -> Iterator[Sector]:
    """The independent sectors of the row transfer matrix over rows face rows
    of cols faces, lazily in ascending first-row or corner order: one for a
    free grid, one per first row for a toroidal grid (its last row colored
    unlike the first in every column) and one per corner color for a
    domain-wall grid (first and last rows forced, the others' ends pinned)."""
    anything = (_COLORS,) * cols
    if bc is BoundaryCondition.FREE:
        yield [anything] * rows, False
    elif bc is BoundaryCondition.TOROIDAL:
        for first in _rows(anything, True):
            unlike = tuple(tuple(c for c in _COLORS if c != f) for f in first)
            yield [tuple((f,) for f in first)] + [anything] * (rows - 2) + [unlike], True
    else:
        for c in [corner] if corner is not None else range(3):
            forced = dwbc_boundary(rows - 1, c)
            yield [tuple((_COLORS[forced[i, j]],) if (i, j) in forced else _COLORS
                         for j in range(cols)) for i in range(rows)], False


def _transfer_counts(faces: int, sectors: Iterator[Sector]) -> dict[tuple[int, int, int], int]:
    """Sum the sectors' row transfer products into counts by (k0, k1, k2).

    Each row state carries the polynomial sum x0^k0 x1^k1 over the partial
    colorings that end in it, packed into one Python integer: the coefficient
    of x0^k0 x1^k1 sits in bit slot k0 * (faces + 1) + k1.  No coefficient
    exceeds 3^faces, so slots of that bit width never carry into each other,
    adding polynomials is integer addition and multiplying by a row's monomial
    is a left shift.
    """
    width = (3 ** faces).bit_length()
    stride = faces + 1

    def shift(row: Row) -> int:
        return width * (row.count(0) * stride + row.count(1))

    # state and predecessor lists by level, shared by the sectors
    @lru_cache(maxsize=None)
    def states(level: Level, ring: bool) -> list[Row]:
        return list(_rows(level, ring))

    @lru_cache(maxsize=None)
    def predecessors(above: Level, level: Level, ring: bool) -> list[list[int]]:
        return [[a for a, x in enumerate(states(above, ring)) if all(map(ne, x, y))]
                for y in states(level, ring)]

    total = 0
    for levels, ring in sectors:
        vec = [1 << shift(row) for row in states(levels[0], ring)]
        for above, level in zip(levels, levels[1:]):
            vec = [sum(vec[a] for a in pred) << shift(row) for row, pred
                   in zip(states(level, ring), predecessors(above, level, ring))]
        total += sum(vec)

    mask = (1 << width) - 1
    counts: dict[tuple[int, int, int], int] = {}
    slot = 0
    while total:
        if total & mask:
            k0, k1 = divmod(slot, stride)
            counts[(k0, k1, faces - k0 - k1)] = total & mask
        total >>= width
        slot += 1
    return counts


def lenard_map(coloring: GridColoring) -> SixVertexState:
    """Arrow state of a coloring: horizontal edges point right iff the south
    face is the north face + 1, vertical edges point up iff the east face is
    the west face + 1.  Adding a constant to all colors leaves the image
    unchanged, so the map is three to one."""
    if not coloring.is_proper():
        raise InvalidColoringError("coloring violates proper adjacency")
    if coloring.rows < 2 or coloring.cols < 2:
        raise InvalidColoringError("need at least one internal vertex")
    f = [list(map(int, row)) for row in coloring.faces]
    h = tuple(tuple((south - north) % 3 == 1 for north, south in zip(f[i], f[i + 1]))
              for i in range(coloring.rows - 1))
    v = tuple(tuple((east - west) % 3 == 1 for west, east in zip(row, row[1:])) for row in f)
    return SixVertexState(h=h, v=v)


# ---------------------------------------------------------------------------
# Boltzmann weights
# ---------------------------------------------------------------------------

_BRANCH_TOL = 1e-9


@lru_cache(maxsize=64)
def _weight_constants(params: EllipticParams, cfg: SeriesConfig) -> tuple[ThetaTriple, complex]:
    """The theta4 triple behind zeta_r, checked to have positive-real zeta_r,
    and theta1(2pi/3) / p^{1/4}, the denominator of the alpha and beta weights."""
    tri = theta_triple(theta4, params, cfg)
    for r, lz in enumerate(tri.log_zeta):
        if abs(lz.imag) > _BRANCH_TOL:
            raise BranchDomainError(
                f"zeta_{r} is not positive real (log zeta = {lz}); fractional "
                "powers are only taken on the positive-real domain")
    t1_23 = theta1_reduced(TWO_PI_OVER_3, params, cfg)
    if abs(t1_23) < 1e-12:
        raise PoleError("theta1(2*pi/3) vanishes")
    return tri, t1_23


def raw_weight(v: ColoredVertexKind, phi: complex, params: EllipticParams,
               cfg: SeriesConfig = DEFAULT_SERIES) -> complex:
    """Ungauged face weight of vertex v at spectral parameter phi.

    Fractional zeta powers are taken on the positive-real domain (real
    lambda, real p); elsewhere a BranchDomainError is raised.
    """
    return _raw_weight_ctx(_weight_constants(params, cfg), v.kind, int(v.r), complex(phi))


def _raw_weight_ctx(ctx: tuple[ThetaTriple, complex], kind: VertexKind, r: int,
                    phi: complex) -> complex:
    tri, t1_23 = ctx
    lam = tri.params.lam
    if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
        return (tri.zeta_pow(r, 0.25 + 3 * phi / (4 * PI))
                * theta1_reduced(PI / 3 - phi, tri.params, tri.cfg) / t1_23)
    if kind in (VertexKind.BETA, VertexKind.BETA_P):
        return (tri.zeta_pow(r, 0.25 - 3 * phi / (4 * PI))
                * theta1_reduced(PI / 3 + phi, tri.params, tri.cfg) / t1_23)
    expo = 1.0 / 6.0 + phi / (2 * PI)
    if kind is VertexKind.GAMMA:
        pre = cmath.exp(expo * (tri.log_zeta[(r + 1) % 3] - tri.log_zeta[r % 3]))
        return pre * tri(lam + TWO_PI_OVER_3 * (r % 3) + PI / 3 + phi) / tri.values[r % 3]
    pre = cmath.exp(expo * (tri.log_zeta[(r - 1) % 3] - tri.log_zeta[r % 3]))
    return pre * tri(lam + TWO_PI_OVER_3 * (r % 3) - PI / 3 - phi) / tri.values[r % 3]


def tilde_weight(v: ColoredVertexKind, phi: complex, params: EllipticParams,
                 cfg: SeriesConfig = DEFAULT_SERIES) -> complex:
    """Gauged face weight of vertex v; equals the raw weight times
    Phi_{tl} Phi_{br} / (Phi_{bl} Phi_{tr}) with Phi_r = zeta_r^{1/12 + phi/4pi}."""
    return _tilde_weight_ctx(_weight_constants(params, cfg), v.kind, int(v.r), complex(phi))


def _tilde_weight_ctx(ctx: tuple[ThetaTriple, complex], kind: VertexKind, r: int,
                      phi: complex) -> complex:
    tri, t1_23 = ctx
    lam = tri.params.lam
    if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
        return theta1_reduced(PI / 3 - phi, tri.params, tri.cfg) / t1_23
    if kind in (VertexKind.BETA, VertexKind.BETA_P):
        return tri.zeta_pow(r, 0.5) * theta1_reduced(PI / 3 + phi, tri.params, tri.cfg) / t1_23
    if kind is VertexKind.GAMMA:
        return tri(lam + TWO_PI_OVER_3 * (r % 3) + PI / 3 + phi) / tri.values[r % 3]
    return tri(lam + TWO_PI_OVER_3 * (r % 3) - PI / 3 - phi) / tri.values[r % 3]


def psi_factor(m: int, params: EllipticParams) -> complex:
    """Cocycle Psi(m) = exp(i (m-1) [pi (m+1)/3 + lambda]) entering the
    pi*tau shift law of the tilde weights:

        W(phi + pi*tau) = -p^{-1} e^{-2i phi}
                          * Psi(tl) Psi(br) / (Psi(bl) Psi(tr)) * W(phi)

    where (bl, tl, tr, br) are the integer corner lifts of the vertex.  The
    cocycle is quadratic in the integer label and is deliberately not
    reduced mod 3: only consistent lifts (base color with literal r-1, r+1
    neighbours) telescope correctly.
    """
    return cmath.exp(1j * (m - 1) * (PI * (m + 1) / 3.0 + params.lam))


def tilde_quasi_period_residual(v: ColoredVertexKind, phi: complex,
                                params: EllipticParams,
                                cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Residual of the pi*tau shift law for one tilde weight."""
    bl, tl, tr, br = v.corner_lifts()
    lhs = tilde_weight(v, complex(phi) + PI * params.tau, params, cfg)
    factor = (psi_factor(tl, params) * psi_factor(br, params)
              / (psi_factor(bl, params) * psi_factor(tr, params)))
    rhs = (-1.0 / params.p) * cmath.exp(-2j * complex(phi)) * factor \
        * tilde_weight(v, phi, params, cfg)
    return rel_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# Domain-wall partition functions
# ---------------------------------------------------------------------------


def partial_partition_function(n: int, r: int, assign: SpectralAssignment,
                               params: EllipticParams, which: str = "tilde",
                               cfg: SeriesConfig = DEFAULT_SERIES) -> complex:
    """Domain-wall coloring sum restricted to top-left corner color r.

    Summands are products of vertex weights at chi_i - psi_j over the n x n
    internal vertices; which selects the raw or the tilde family.  Summed by
    the six-vertex row transfer, a row move and the corner fixing each
    vertex's kind and base color.  The empty lattice has value 1.  The last
    64 distinct sums are cached, keyed by every argument."""
    return _partial_sum(n, r, assign, params, which, cfg)


@lru_cache(maxsize=64)  # called positionally: defaults share the explicit key
def _partial_sum(n: int, r: int, assign: SpectralAssignment, params: EllipticParams,
                 which: str, cfg: SeriesConfig) -> complex:
    if which not in ("raw", "tilde"):
        raise ValueError("which must be 'raw' or 'tilde'")
    if n == 0:
        return 1.0 + 0j
    if n > MAX_DWBC_N:
        raise SizeGuardError(f"dwbc n = {n} outside the enumeration guard 1..{MAX_DWBC_N}")
    if assign.n != n:
        raise ValueError(f"assignment has {assign.n} rapidities, lattice needs {n}")
    ctx = _weight_constants(params, cfg)
    evaluate = _raw_weight_ctx if which == "raw" else _tilde_weight_ctx

    def weights(i, j, codes):
        phi = assign.chi[i] - assign.psi[j]
        return [evaluate(ctx, _KINDS[kind], (r + offset) % 3, phi) for kind, offset in codes]

    return _row_transfer(n, weights)


def phi_ratio_factor(n: int, r: int, assign: SpectralAssignment,
                     params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES,
                     corrected: bool = True) -> complex:
    """State-independent factor connecting the tilde and raw partial sums,

        tildeZ^r_n = factor * Z^r_n,
        factor = prod_i [Phi_{r+i-1} / Phi_{r+i}](u_i),
        u_i = chi_i - psi_i + chi_{n-i+1} - psi_{n-i+1},

    with Phi_r = zeta_r^{1/12 + phi/4pi}.  As printed, the product misses a
    constant: telescoping the per-vertex gauge factors over the forced
    boundary gives an extra (zeta_r / zeta_{r+n})^{1/12}, which corrected=True
    includes (set False to evaluate the uncorrected product).
    """
    lz = _weight_constants(params, cfg)[0].log_zeta
    expo = 0j
    for i in range(1, n + 1):
        u = (assign.chi[i - 1] - assign.psi[i - 1]
             + assign.chi[n - i] - assign.psi[n - i])
        expo += (1.0 / 12.0 + u / (4 * PI)) * (lz[(r + i - 1) % 3] - lz[(r + i) % 3])
    if corrected:
        expo += (lz[r % 3] - lz[(r + n) % 3]) / 12.0
    return cmath.exp(expo)


def phi_ratio_relation_check(n: int, r: int, assign: SpectralAssignment,
                             params: EllipticParams,
                             cfg: SeriesConfig = DEFAULT_SERIES,
                             corrected: bool = True) -> float:
    """Residual of tildeZ^r_n = phi_ratio_factor * Z^r_n."""
    zt = partial_partition_function(n, r, assign, params, "tilde", cfg)
    zr = partial_partition_function(n, r, assign, params, "raw", cfg)
    factor = phi_ratio_factor(n, r, assign, params, cfg, corrected=corrected)
    return rel_residual(zt, factor * zr)


def F_rn(n: int, r: int, assign: SpectralAssignment, params: EllipticParams,
         cfg: SeriesConfig = DEFAULT_SERIES) -> complex:
    """Partial partition function dressed for the functional equations:

        F^r_n = theta4(lambda + 2pi(r+n)/3)^{-1}
                * prod_{i<j} theta1(chi_i - chi_j) * prod_{i,j} theta1(chi_i - psi_j)
                * prod_{i<j} theta1(psi_i - psi_j) * tildeZ^r_n

    For n = 0 this degenerates to 1/theta4(lambda + 2pi r/3), the base case
    closing the reduce-by-one recursions.  The lambda shift law
    F^{r+1}_n(lambda) = F^r_n(lambda + 2pi/3) holds termwise.
    """
    pre = 1.0 / theta_triple(theta4, params, cfg).values[(r + n) % 3]
    for i in range(n):
        for j in range(i + 1, n):
            pre *= theta1(assign.chi[i] - assign.chi[j], params, cfg)
            pre *= theta1(assign.psi[i] - assign.psi[j], params, cfg)
    for i in range(n):
        for j in range(n):
            pre *= theta1(assign.chi[i] - assign.psi[j], params, cfg)
    return pre * partial_partition_function(n, r, assign, params, "tilde", cfg)


def functional_residual_3c(n: int, r: int, k: int, side: str,
                           assign: SpectralAssignment, params: EllipticParams,
                           cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Residual of S^r_{n,k} = sum_{s=0}^2 F^{r+s}_n with chi_k shifted by
    +2pi s/3 (psi_k by -2pi s/3 for side='psi'), which vanishes identically;
    |S| is normalized by the largest of the three summands."""
    if not 1 <= k <= n:
        raise IndexError(f"k = {k} outside 1..{n}")
    if side not in ("chi", "psi"):
        raise ValueError("side must be 'chi' or 'psi'")
    terms = []
    for s in range(3):
        delta = TWO_PI_OVER_3 * s
        shifted = (assign.shift_chi(k, delta) if side == "chi"
                   else assign.shift_psi(k, -delta))
        terms.append(F_rn(n, (r + s) % 3, shifted, params, cfg))
    return rel_residual(stable_sum(terms), 0.0, scale=max(abs(t) for t in terms))


def check_recursion_3c(n: int, r: int, k: int, l: int, sign: int,
                       assign: SpectralAssignment, params: EllipticParams,
                       form: str = "Z", cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Relative residual of a reduce-by-one recursion at chi_k = psi_l + sign*pi/3.

    form="Z" (tilde partial sums):

      sign=+1:  tildeZ^r_n = theta1(2pi/3)^{2-2n}
                * theta4(lambda+2pi(r+n)/3)/theta4(lambda+2pi(r+n-1)/3)
                * prod_{i!=k} theta1(chi_i - psi_l + pi/3)
                * prod_{i!=l} theta1(psi_l - psi_i + 2pi/3) * tildeZ^r_{n-1}

      sign=-1:  tildeZ^r_n = theta1(2pi/3)^{2-2n}
                * prod_{i!=k} theta1(chi_i - psi_l - pi/3)
                * prod_{i!=l} theta1(psi_l - psi_i - 2pi/3) * tildeZ^{r+1}_{n-1}

    form="F" (dressed sums; theta1 products on the right at nome p^3):

      F^{r'}_n = sign * (-1)^{n-k+l-1} * D(p)^{2n-2} * theta1(2pi/3|p)^{3-2n}
                 * prod_{i!=k} theta1(3(psi_l - chi_i)|p^3)
                 * prod_{i!=l} theta1(3(psi_l - psi_i)|p^3) * F^{r''}_{n-1}

    with r'' = r for sign=+1 and r'' = r+1 for sign=-1.  The
    (-1)^{n-k+l-1} factor carries the antisymmetric-prefactor parity of
    moving the pinned pair to the corner; at k = l = n it is (-1)^{n-1}.
    """
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"(k, l) = ({k}, {l}) outside 1..{n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if form not in ("Z", "F"):
        raise ValueError("form must be 'Z' or 'F'")
    pinned = assign.replace_chi(k, assign.psi[l - 1] + sign * PI / 3)
    psival = assign.psi[l - 1]
    reduced = pinned.drop(k, l)  # its chi are the i != k, its psi the i != l

    if form == "Z":
        lhs = partial_partition_function(n, r, pinned, params, "tilde", cfg)
        pre = theta1(TWO_PI_OVER_3, params, cfg) ** (2 - 2 * n)
        if sign > 0:
            b = theta_triple(theta4, params, cfg).values
            pre *= b[(r + n) % 3] / b[(r + n - 1) % 3]
        for x in reduced.chi:
            pre *= theta1(x - psival + sign * PI / 3, params, cfg)
        for y in reduced.psi:
            pre *= theta1(psival - y + sign * TWO_PI_OVER_3, params, cfg)
        r_sub = r if sign > 0 else (r + 1) % 3
        rhs = pre * partial_partition_function(n - 1, r_sub, reduced, params, "tilde", cfg)
        return rel_residual(lhs, rhs)

    lhs = F_rn(n, r, pinned, params, cfg)
    params3 = params.cubed()
    pre = (sign * (-1) ** (n - k + l - 1)
           * cubic_factor_D(params, cfg) ** (2 * n - 2)
           * theta1(TWO_PI_OVER_3, params, cfg) ** (3 - 2 * n))
    for x in reduced.chi:
        pre *= theta1(3 * (psival - x), params3, cfg)
    for y in reduced.psi:
        pre *= theta1(3 * (psival - y), params3, cfg)
    r_sub = r if sign > 0 else (r + 1) % 3
    rhs = pre * F_rn(n - 1, r_sub, reduced, params, cfg)
    return rel_residual(lhs, rhs)
