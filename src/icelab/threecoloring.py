"""Proper three-colorings of a square face lattice and their Boltzmann weights.

Faces carry colors 0, 1, 2 of Z3; horizontally and vertically adjacent faces
must differ (equivalently, differ by +1 or -1 mod 3).  Boundary conditions:

  free      no extra constraint;
  toroidal  additionally first != last in every row and every column;
  dwbc      the boundary colors are forced: walking the boundary
            anticlockwise the color steps by +1 on the vertical sides and
            by -1 on the horizontal sides.  For an (n+1) x (n+1) face grid
            with top-left corner color c this pins row 0 to c+j, column 0 to
            c+i, row n to c+n-j and column n to c+n-i.

Every internal vertex of the face lattice sees four face colors
(bottom-left, top-left, top-right, bottom-right).  At least one diagonal of
the quadruple is constant (both for GAMMA and GAMMA_P, which take two
colors), and the 18 admissible quadruples sort into the six vertex kinds,
each with a base color r: a kind's faces are r plus its offsets in
sixvertex._KINDS, the one table of the kinds, and every classification
reads the 18 quadruples built from it.  The arrow map sends a coloring to an
ice state: a horizontal edge points right iff its south face is its north
face + 1, a vertical edge points up iff its east face is its west face + 1;
the vertex kind of the face quadruple equals the arrow kind, and the map is
three to one (fixing any single face color makes it a bijection).  The
domain-wall partial partition functions therefore run the six-vertex vertex
sweep, the base colors read off the height function of each sweep state.

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
Every theta value is summed under the series settings of the
EllipticParams passed in.  The dressed sums F^r_n, their recursions and
functional sums are the six-vertex ones with sin replaced by theta1, built
on the same sixvertex helpers (_dressed, _recursion_residual,
_three_term_residual).
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import eq
from typing import Iterator, Mapping

from .errors import (BranchDomainError, ConfigError, EvaluationOverflowError,
                     InvalidColoringError, PoleError, SizeGuardError)
from .numutil import guarded, rel_residual
from .theta import (PI, TWO_PI_OVER_3, EllipticParams, ThetaTriple, cubic_factor_D,
                    quasi_period_factor, theta1, theta1_reduced, theta4, theta_triple)
from .sixvertex import (_ALPHAS, _BETAS, _KINDS, SixVertexState, SpectralAssignment,
                        VertexKind, _dressed, _recursion_residual, _three_term_residual,
                        _unchecked, _vertex_sweep)

MAX_FREE_CELLS = 25
MAX_DWBC_N = 5


class BoundaryCondition(str, Enum):
    FREE = "free"
    TOROIDAL = "toroidal"
    DWBC = "dwbc"


@dataclass(frozen=True)
class FaceWeightParams:
    """Per-color face Boltzmann weights for the coloring census, each a
    finite number."""

    z0: complex = 1.0
    z1: complex = 1.0
    z2: complex = 1.0

    def __post_init__(self) -> None:
        for name, z in zip(("z0", "z1", "z2"), (self.z0, self.z1, self.z2)):
            if not cmath.isfinite(z):
                raise ConfigError(f"face weight {name} must be finite, got {z!r}")


@dataclass(frozen=True)
class ColoredVertexKind:
    """A vertex kind together with the base color r in {0, 1, 2} of its
    four-face pattern."""

    kind: VertexKind
    r: int

    def __post_init__(self) -> None:
        if type(self.r) is not int or not 0 <= self.r <= 2:
            raise InvalidColoringError(f"base color must be the int 0, 1 or 2, got {self.r!r}")

    def corner_lifts(self) -> tuple[int, int, int, int]:
        """(bl, tl, tr, br) with the base color in {0,1,2} and its neighbours
        written literally as r-1 / r+1 (possibly -1 or 3).  Gauge factors that
        are not periodic in the integer label (such as exp(i r phi / 2) terms)
        must be fed these lifts."""
        return tuple(self.r + d for d in _KINDS[self.kind][1])

    def corner_colors(self) -> tuple[int, int, int, int]:
        return tuple(x % 3 for x in self.corner_lifts())


#: the 18 admissible (bl, tl, tr, br) color quadruples and their kinds
_KIND_OF_CORNERS: dict[tuple[int, int, int, int], ColoredVertexKind] = {
    vk.corner_colors(): vk
    for vk in (ColoredVertexKind(kind, r) for kind in _KINDS for r in range(3))}


def classify_vertex(bl: int, tl: int, tr: int, br: int) -> ColoredVertexKind:
    """Sort a four-face quadruple, its colors read mod 3, into its kind and
    base color."""
    vk = _KIND_OF_CORNERS.get((bl % 3, tl % 3, tr % 3, br % 3))
    if vk is None:
        raise InvalidColoringError(f"inadmissible quadruple ({bl},{tl},{tr},{br})")
    return vk


@dataclass(frozen=True)
class GridColoring:
    """rows x cols face colors, row 0 at the top; list rows are stored as
    tuples, after the colors are checked."""

    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        faces = tuple(map(tuple, self.faces))
        if not faces or not faces[0]:
            raise InvalidColoringError("empty face grid")
        if set(map(len, faces)) != {len(faces[0])}:
            raise InvalidColoringError("ragged face grid")
        flat = list(itertools.chain.from_iterable(faces))
        if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) > 2:
            raise InvalidColoringError("face colors must be the ints 0, 1 or 2")
        object.__setattr__(self, "faces", faces)

    @classmethod
    def from_rows(cls, rows) -> "GridColoring":
        """Grid of the given rows, each plain int color read mod 3; any other
        value goes to the constructor's check as it is."""
        return cls(faces=tuple(tuple(c % 3 if type(c) is int else c for c in row)
                               for row in rows))

    @property
    def rows(self) -> int:
        return len(self.faces)

    @property
    def cols(self) -> int:
        return len(self.faces[0])

    @property
    def corner(self) -> int:
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
        return GridColoring(faces=tuple(tuple((c + delta) % 3 for c in row) for row in self.faces))

    def vertex(self, i: int, j: int) -> ColoredVertexKind:
        """Kind of the internal vertex between face rows i-1, i and columns
        j-1, j (1-based internal-vertex indices); IndexError for a vertex
        off the grid's interior."""
        if not (1 <= i < self.rows and 1 <= j < self.cols):
            raise IndexError(f"vertex ({i}, {j}) outside 1..{self.rows - 1} x 1..{self.cols - 1}")
        f = self.faces
        return classify_vertex(f[i][j - 1], f[i - 1][j - 1], f[i - 1][j], f[i][j])

    def color_counts(self) -> tuple[int, int, int]:
        counts = [0, 0, 0]
        for row in self.faces:
            for c in row:
                counts[c] += 1
        return tuple(counts)

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.faces]


def dwbc_boundary(n: int, corner: int) -> dict[tuple[int, int], int]:
    """Boundary colors forced by the domain-wall walk on an (n+1)x(n+1) grid."""
    forced: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        forced[(0, j)] = (corner + j) % 3
        forced[(n, j)] = (corner + n - j) % 3
    for i in range(n + 1):
        forced[(i, 0)] = (corner + i) % 3
        forced[(i, n)] = (corner + n - i) % 3
    return forced


def _grid_guard(rows: int, cols: int, bc: BoundaryCondition,
                corner: int | None) -> BoundaryCondition:
    """Size and shape guards shared by iter_colorings and compute_census;
    returns the boundary condition.  A grid that passes them may still have
    no coloring (a torus one face wide or one row high): _row_sectors
    decides that, by yielding no sector."""
    bc = BoundaryCondition(bc)
    if type(rows) is not int or type(cols) is not int:
        raise SizeGuardError(f"grid sizes must be ints, got {rows!r} x {cols!r}")
    if rows < 1 or cols < 1:
        raise SizeGuardError("grid must be at least 1x1")
    if bc is BoundaryCondition.DWBC:
        if rows != cols or rows < 2:
            raise InvalidColoringError("dwbc requires a square grid of at least 2x2 faces")
        if rows - 1 > MAX_DWBC_N:
            raise SizeGuardError(
                f"dwbc n = {rows - 1} outside the enumeration guard 1..{MAX_DWBC_N}")
        if corner is not None and (type(corner) is not int or not 0 <= corner <= 2):
            raise InvalidColoringError(f"corner must be a color 0, 1 or 2, got {corner}")
        return bc
    if rows * cols > MAX_FREE_CELLS:
        raise SizeGuardError(
            f"{rows}x{cols} = {rows * cols} faces exceeds the guard of {MAX_FREE_CELLS}")
    if corner is not None:
        raise InvalidColoringError(
            f"corner pins the top-left color of dwbc grids only, not of {bc.value} grids")
    return bc


def iter_colorings(rows: int, cols: int, bc: BoundaryCondition,
                   corner: int | None = None) -> Iterator[GridColoring]:
    """Generate all valid colorings in lexicographic face-grid order
    (row-major, colors ascending).

    A depth-first walk over the face rows of the row transfer sectors, each
    row generated lazily among those that differ from the row above it.
    For dwbc, rows == cols == n+1 and corner (when given) pins the top-left
    color; otherwise all three corner choices are produced.  Every row takes
    its colors from a level of the colors 0, 1 and 2, cols columns wide, so
    the grids skip GridColoring's per-grid check.
    """
    bc = _grid_guard(rows, cols, bc, corner)
    rows_of = _rows_under if bc is BoundaryCondition.DWBC else _rows
    make = _unchecked(GridColoring)
    for levels, ring, _ in _row_sectors(rows, cols, bc, corner):
        def walk(grid: tuple[Row, ...]) -> Iterator[GridColoring]:
            i = len(grid)
            for row in rows_of(levels[i], ring, grid[-1:]):
                if i + 1 < len(levels):
                    yield from walk(grid + (row,))
                else:
                    yield make(grid + (row,))

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
        """Sum of count * z0^k0 z1^k1 z2^k2; a sum that overflows double
        precision raises EvaluationOverflowError instead of returning inf or
        nan."""
        val = 0j
        try:
            for (k0, k1, k2), cnt in sorted(self.counts.items()):
                val += cnt * (z.z0 ** k0) * (z.z1 ** k1) * (z.z2 ** k2)
        except OverflowError:
            val = complex(math.inf)
        if not cmath.isfinite(val):
            raise EvaluationOverflowError(
                f"the generating function of the {self.rows}x{self.cols} {self.bc.value} "
                f"census overflows at face weights {z.z0!r}, {z.z1!r}, {z.z2!r}")
        return val

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        return sorted(self.counts.items())


def compute_census(rows: int, cols: int, bc: BoundaryCondition,
                   corner: int | None = None) -> ColoringCensus:
    """Census of the colorings iter_colorings would produce, counted row by
    row with a transfer matrix (Baxter 1970) instead of one by one; a
    toroidal grid runs one sector per orbit of first rows (see _row_sectors),
    3 on the 5x5 torus where there are 30 first rows."""
    bc = _grid_guard(rows, cols, bc, corner)
    # free and toroidal counts are unchanged by transposing the grid, so the
    # rows run along the shorter side
    return ColoringCensus(rows=rows, cols=cols, bc=bc, counts=_transfer_counts(
        rows * cols, _row_sectors(max(rows, cols), min(rows, cols), bc, corner, orbits=True)))


Row = tuple[int, ...]
#: the colors allowed in each column of a face row
Level = tuple[tuple[int, ...], ...]
#: the allowed colors per face row, top to bottom, whether the rows are
#: rings, their first and last faces adjacent, and how many sectors of equal
#: counts the sector stands for
Sector = tuple[list[Level], bool, int]


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


@lru_cache(maxsize=256)
def _rows_under(level: Level, ring: bool, above: tuple[Row, ...]) -> tuple[Row, ...]:
    """_rows listed once per (level, ring, row above): the census transfers
    over it and the domain-wall walk reads it, at most 132 entries a grid
    (the 4x6 torus), 96 at dwbc n = 5.  Free and toroidal walks stay lazy:
    a 1x25 strip has 3 * 2^24 rows."""
    return tuple(_rows(level, ring, above))


@lru_cache(maxsize=None)
def _tails(colors: tuple[int, ...], *banned: int) -> tuple[tuple[Row, ...], ...]:
    """One-face extensions, colored from colors but not banned, of a row ending
    in color 0, 1 or 2 (3: the empty row), descending for _rows' stack."""
    ok = [c for c in reversed(colors) if c not in banned]
    return tuple(tuple((c,) for c in ok if c != left) for left in range(4))


def _row_sectors(rows: int, cols: int, bc: BoundaryCondition, corner: int | None,
                 orbits: bool = False) -> Iterator[Sector]:
    """The independent sectors of the row transfer matrix over rows face rows
    of cols faces, lazily in ascending first-row or corner order: one for a
    free grid, one per first row for a toroidal grid (its last row colored
    unlike the first in every column) and one per corner color for a
    domain-wall grid (first and last rows forced, the others' ends pinned).
    It alone decides that a torus has no coloring: a one-face ring has no
    row, and a one-row torus, its own neighbour, takes no first row.

    Rotating or reversing the columns of a toroidal grid maps the colorings
    with first row f one to one onto those whose first row is the moved f,
    color counts unchanged.  With orbits, a toroidal grid therefore yields
    one sector per orbit of first rows under these moves, led by the orbit's
    least row and weighted by the number of distinct rows in the orbit;
    every other sector has weight 1.  Color permutations are not used: they
    would permute the color counts."""
    colors = (0, 1, 2)
    anything = (colors,) * cols
    if bc is BoundaryCondition.FREE:
        yield [anything] * rows, False, 1
    elif bc is BoundaryCondition.TOROIDAL:
        firsts = _rows(anything, True) if rows > 1 else ()
        for first, weight in (Counter(map(_least_image, firsts)).items() if orbits
                              else zip(firsts, itertools.repeat(1))):
            unlike = tuple(tuple(c for c in colors if c != f) for f in first)
            yield [tuple((f,) for f in first)] + [anything] * (rows - 2) + [unlike], True, weight
    else:
        for c in [corner] if corner is not None else range(3):
            forced = dwbc_boundary(rows - 1, c)
            yield [tuple((forced[i, j],) if (i, j) in forced else colors
                         for j in range(cols)) for i in range(rows)], False, 1


def _least_image(row: Row) -> Row:
    """The least of the rows that rotating and reversing row's columns give."""
    return min(r[k:] + r[:k] for r in (row, row[::-1]) for k in range(len(row)))


def _transfer_counts(faces: int, sectors: Iterator[Sector]) -> dict[tuple[int, int, int], int]:
    """Sum the sectors' row transfer products into counts by (k0, k1, k2).

    Each row state carries the polynomial sum x0^k0 x1^k1 over the partial
    colorings that end in it, packed into one Python integer: the coefficient
    of x0^k0 x1^k1 sits in bit slot k0 * (faces + 1) + k1.  No coefficient
    exceeds 3^faces, so slots of that bit width never carry into each other,
    adding polynomials is integer addition and multiplying by a row's monomial
    is a left shift.  A sector's polynomial is multiplied by its weight, the
    number of sectors of equal counts it stands for, so the weighted sum is
    the full count and stays inside the slots too.
    """
    width = (3 ** faces).bit_length()
    stride = faces + 1

    def shift(row: Row) -> int:
        return width * (row.count(0) * stride + row.count(1))

    total = 0
    for levels, ring, weight in sectors:
        vec = {(): 1}  # keyed by the row above the next level, as _rows_under takes it
        for level in levels:
            sums: dict[Row, int] = {}
            for above, poly in vec.items():
                for row in _rows_under(level, ring, above):
                    sums[row] = sums.get(row, 0) + poly
            vec = {(row,): poly << shift(row) for row, poly in sums.items()}
        total += weight * sum(vec.values())

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


@lru_cache(maxsize=4096)
def _arrow_row(near: Row, far: Row) -> tuple[bool, ...] | None:
    """Arrows between two face rows, face by face: True where the far face
    is the near face + 1, None if two facing faces are equal.  The arrows
    below a face row come from (row, row below), those along it from
    (row, row[1:])."""
    if any(map(eq, near, far)):
        return None
    return tuple((b - a) % 3 == 1 for a, b in zip(near, far))


@lru_cache(maxsize=4096)
def _vertex_row(upper: Row, lower: Row) -> tuple[tuple[bool, ...], tuple[bool, ...]] | None:
    """The vertex row between two face rows of one width, (h row, v row of
    lower), read once per distinct pair: None if two adjacent faces are equal."""
    h, v = _arrow_row(upper, lower), _arrow_row(lower, lower[1:])
    return None if h is None or v is None else (h, v)


def lenard_map(coloring: GridColoring) -> SixVertexState:
    """Arrow state of a coloring: horizontal edges point right iff the south
    face is the north face + 1, vertical edges point up iff the east face is
    the west face + 1.  Adding a constant to all colors leaves the image
    unchanged, so the map is three to one.

    Going clockwise round a vertex, each step from face to face is +1 mod 3
    exactly where the edge it crosses points out of the vertex.  In a proper
    coloring every step is +1 or -1 and the four sum to 0 mod 3, so two are
    +1 and two -1: the image obeys the ice rule and needs no check of it.
    Each vertex row is read from a table of the last 4096 distinct (face
    row, face row below) pairs; a coloring's rows have one width, so the
    image needs no shape check either."""
    f = coloring.faces
    top = _arrow_row(f[0], f[0][1:])
    rows = list(map(_vertex_row, f, f[1:]))
    if top is None or None in rows:
        raise InvalidColoringError("coloring violates proper adjacency")
    if not rows or not top:
        raise InvalidColoringError("need at least one internal vertex")
    h, v = zip(*rows)
    return _unchecked(SixVertexState)(h, (top,) + v)


# ---------------------------------------------------------------------------
# Boltzmann weights
# ---------------------------------------------------------------------------

_BRANCH_TOL = 1e-9


@lru_cache(maxsize=64)
def _weight_constants(params: EllipticParams) -> tuple[ThetaTriple, complex]:
    """The theta4 triple behind zeta_r, checked to have positive-real zeta_r,
    and theta1(2pi/3) / p^{1/4}, the denominator of the alpha and beta weights."""
    tri = theta_triple(theta4, params)
    for r, lz in enumerate(tri.log_zeta):
        if abs(lz.imag) > _BRANCH_TOL:
            raise BranchDomainError(
                f"zeta_{r} is not positive real (log zeta = {lz}); fractional "
                "powers are only taken on the positive-real domain")
    t1_23 = theta1_reduced(TWO_PI_OVER_3, params)
    if abs(t1_23) < 1e-12:
        raise PoleError("theta1(2*pi/3) vanishes")
    return tri, t1_23


def raw_weight(v: ColoredVertexKind, phi: complex, params: EllipticParams) -> complex:
    """Ungauged face weight of vertex v at spectral parameter phi.

    Fractional zeta powers are taken on the positive-real domain (real
    lambda, real p); elsewhere a BranchDomainError is raised.
    """
    return _raw_weight_ctx(_weight_constants(params), v.kind, v.r, complex(phi))


def _raw_weight_ctx(ctx: tuple[ThetaTriple, complex], kind: VertexKind, r: int,
                    phi: complex) -> complex:
    tri, t1_23 = ctx
    lam = tri.params.lam
    if kind in _ALPHAS:
        return (tri.zeta_pow(r, 0.25 + 3 * phi / (4 * PI))
                * theta1_reduced(PI / 3 - phi, tri.params) / t1_23)
    if kind in _BETAS:
        return (tri.zeta_pow(r, 0.25 - 3 * phi / (4 * PI))
                * theta1_reduced(PI / 3 + phi, tri.params) / t1_23)
    expo = 1.0 / 6.0 + phi / (2 * PI)
    try:  # a try, not guarded: the sweeps add no call per weight
        if kind is VertexKind.GAMMA:
            pre = cmath.exp(expo * (tri.log_zeta[(r + 1) % 3] - tri.log_zeta[r % 3]))
            return pre * tri(lam + TWO_PI_OVER_3 * (r % 3) + PI / 3 + phi) / tri.values[r % 3]
        pre = cmath.exp(expo * (tri.log_zeta[(r - 1) % 3] - tri.log_zeta[r % 3]))
        return pre * tri(lam + TWO_PI_OVER_3 * (r % 3) - PI / 3 - phi) / tri.values[r % 3]
    except (OverflowError, ValueError) as exc:  # ValueError: an inf exponent
        raise EvaluationOverflowError(f"{kind.name} prefactor overflows at phi = {phi}") from exc


def tilde_weight(v: ColoredVertexKind, phi: complex, params: EllipticParams) -> complex:
    """Gauged face weight of vertex v; equals the raw weight times
    Phi_{tl} Phi_{br} / (Phi_{bl} Phi_{tr}) with Phi_r = zeta_r^{1/12 + phi/4pi}."""
    return _tilde_weight_ctx(_weight_constants(params), v.kind, v.r, complex(phi))


def _tilde_weight_ctx(ctx: tuple[ThetaTriple, complex], kind: VertexKind, r: int,
                      phi: complex) -> complex:
    tri, t1_23 = ctx
    lam = tri.params.lam
    if kind in _ALPHAS:
        return theta1_reduced(PI / 3 - phi, tri.params) / t1_23
    if kind in _BETAS:
        return tri.zeta_pow(r, 0.5) * theta1_reduced(PI / 3 + phi, tri.params) / t1_23
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
    return guarded(cmath.exp, 1j * (m - 1) * (PI * (m + 1) / 3.0 + params.lam))


def tilde_quasi_period_residual(v: ColoredVertexKind, phi: complex,
                                params: EllipticParams) -> float:
    """Residual of the pi*tau shift law for one tilde weight; PoleError at
    p = 0, where pi*tau is infinite."""
    phi = complex(phi)
    shift = quasi_period_factor(phi, params)
    lhs = tilde_weight(v, phi + PI * params.tau, params)
    bl, tl, tr, br = v.corner_lifts()
    cocycle = (psi_factor(tl, params) * psi_factor(br, params)
               / (psi_factor(bl, params) * psi_factor(tr, params)))
    return rel_residual(lhs, shift * cocycle * tilde_weight(v, phi, params))


# ---------------------------------------------------------------------------
# Domain-wall partition functions
# ---------------------------------------------------------------------------


def partial_partition_function(n: int, r: int, assign: SpectralAssignment,
                               params: EllipticParams, which: str = "tilde") -> complex:
    """Domain-wall coloring sum restricted to top-left corner color r.

    Summands are products of vertex weights at chi_i - psi_j over the n x n
    internal vertices; which selects the raw or the tilde family.  Summed by
    the six-vertex vertex sweep, a sweep state and the corner fixing each
    vertex's kind and base color, for n up to sixvertex.MAX_EVAL_N.  assign
    must have n rapidities, also at n = 0; the empty lattice has value 1.
    The last 64 distinct sums are cached, keyed by every argument: the Z and
    F forms of a recursion draw and the sides of a functional sum repeat them."""
    return _partial_sum(n, r, assign, params, which)


def _check_size(n: int, assign: SpectralAssignment) -> None:
    if assign.n != n:
        raise ValueError(f"assignment has {assign.n} rapidities, lattice needs {n}")


@lru_cache(maxsize=64)  # called positionally: defaults share the explicit key
def _partial_sum(n: int, r: int, assign: SpectralAssignment, params: EllipticParams,
                 which: str) -> complex:
    if which not in ("raw", "tilde"):
        raise ValueError("which must be 'raw' or 'tilde'")
    _check_size(n, assign)
    if n == 0:
        return 1.0 + 0j
    ctx = _weight_constants(params)
    evaluate = _raw_weight_ctx if which == "raw" else _tilde_weight_ctx

    def weights(i, j, codes):
        phi = assign.chi[i] - assign.psi[j]
        return [evaluate(ctx, kind, (r + offset) % 3, phi) for kind, offset in codes]

    return _vertex_sweep(n, weights)


def phi_ratio_factor(n: int, r: int, assign: SpectralAssignment,
                     params: EllipticParams) -> complex:
    """State-independent factor connecting the tilde and raw partial sums,

        tildeZ^r_n = factor * Z^r_n,
        factor = prod_i [Phi_{r+i-1} / Phi_{r+i}](u_i),
        u_i = chi_i - psi_i + chi_{n-i+1} - psi_{n-i+1},

    with Phi_r = zeta_r^{1/12 + phi/4pi}.  As printed, the product misses a
    constant: telescoping the per-vertex gauge factors over the forced
    boundary gives an extra (zeta_r / zeta_{r+n})^{1/12}, included here.
    assign must have n rapidities.
    """
    _check_size(n, assign)
    lz = _weight_constants(params)[0].log_zeta
    expo = 0j
    for i in range(1, n + 1):
        u = (assign.chi[i - 1] - assign.psi[i - 1]
             + assign.chi[n - i] - assign.psi[n - i])
        expo += (1.0 / 12.0 + u / (4 * PI)) * (lz[(r + i - 1) % 3] - lz[(r + i) % 3])
    expo += (lz[r % 3] - lz[(r + n) % 3]) / 12.0
    if not cmath.isfinite(expo):  # a sum u that overflowed to inf: exp would give NaN
        raise EvaluationOverflowError(f"the phi ratio exponent overflows at {assign}")
    return guarded(cmath.exp, expo)


def phi_ratio_relation_check(n: int, r: int, assign: SpectralAssignment,
                             params: EllipticParams) -> float:
    """Residual of tildeZ^r_n = phi_ratio_factor * Z^r_n."""
    zt = partial_partition_function(n, r, assign, params, "tilde")
    zr = partial_partition_function(n, r, assign, params, "raw")
    factor = phi_ratio_factor(n, r, assign, params)
    return rel_residual(zt, factor * zr)


def F_rn(n: int, r: int, assign: SpectralAssignment, params: EllipticParams) -> complex:
    """Partial partition function dressed for the functional equations:

        F^r_n = theta4(lambda + 2pi(r+n)/3)^{-1}
                * prod_{i<j} theta1(chi_i - chi_j) * prod_{i,j} theta1(chi_i - psi_j)
                * prod_{i<j} theta1(psi_i - psi_j) * tildeZ^r_n

    For n = 0 this degenerates to 1/theta4(lambda + 2pi r/3), the base case
    closing the reduce-by-one recursions.  The lambda shift law
    F^{r+1}_n(lambda) = F^r_n(lambda + 2pi/3) holds termwise.
    """
    pre = 1.0 / theta_triple(theta4, params).values[(r + n) % 3]
    return (_dressed(lambda x: theta1(x, params), assign, pre)
            * partial_partition_function(n, r, assign, params, "tilde"))


def functional_residual_3c(n: int, r: int, k: int, side: str,
                           assign: SpectralAssignment, params: EllipticParams) -> float:
    """Residual of S^r_{n,k} = sum_{s=0}^2 F^{r+s}_n with chi_k shifted by
    +2pi s/3 (psi_k by -2pi s/3 for side='psi'), which vanishes identically;
    |S| is normalized by the largest of the three summands."""
    return _three_term_residual(lambda s, shifted: F_rn(n, (r + s) % 3, shifted, params),
                                assign, k, side)


def check_recursion_3c(n: int, r: int, k: int, l: int, sign: int,
                       assign: SpectralAssignment, params: EllipticParams,
                       form: str = "Z") -> float:
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

    with r'' = r for sign=+1 and r'' = r+1 for sign=-1; the pin, the
    products and the parity sign are _recursion_residual's.  The prefactor's
    theta values come first (PoleError where theta1(2pi/3) = 0, at p = 0;
    EvaluationOverflowError where its power overflows, as at p = 1e-300,
    n = 4), then its checks of sign, form, l and k, before any weight is
    evaluated.
    """
    r_sub = r if sign > 0 else (r + 1) % 3
    t1_23, power = theta1(TWO_PI_OVER_3, params), (2 - 2 * n if form == "Z" else 3 - 2 * n)
    try:
        pre = t1_23 ** power
    except (ZeroDivisionError, OverflowError) as exc:
        if not t1_23:
            raise PoleError(f"theta1(2*pi/3) vanishes at p = {params.p}") from exc
        raise EvaluationOverflowError(
            f"theta1(2*pi/3)^{power} overflows at p = {params.p}") from exc
    if form == "Z":
        if sign > 0:
            b = theta_triple(theta4, params).values
            pre *= b[(r + n) % 3] / b[(r + n - 1) % 3]
        return _recursion_residual(
            assign, k, l, sign, form, PI / 3,
            lambda pinned: partial_partition_function(n, r, pinned, params, "tilde"),
            lambda reduced: partial_partition_function(n - 1, r_sub, reduced, params, "tilde"),
            lambda x: theta1(x, params), pre)
    params3 = params.cubed()
    return _recursion_residual(
        assign, k, l, sign, form, PI / 3, lambda pinned: F_rn(n, r, pinned, params),
        lambda reduced: F_rn(n - 1, r_sub, reduced, params), lambda x: theta1(x, params3),
        cubic_factor_D(params) ** (2 * n - 2) * pre)
