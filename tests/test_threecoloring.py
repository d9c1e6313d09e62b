"""Colorings: enumeration, census, arrow map, weights, partition functions."""

import cmath
import dataclasses
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from collections import Counter

import pytest

import icelab
from icelab import (BranchDomainError, ColoredVertexKind, ConfigError, EllipticParams,
                    EvaluationOverflowError, FaceWeightParams,
                    GridColoring, InvalidColoringError, PoleError, SeriesConfig,
                    SixVertexState, SizeGuardError, SpectralAssignment, VertexKind,
                    check_recursion_3c, check_recursion_6v, classify_vertex,
                    compute_census, dwbc_boundary, enumerate_colorings,
                    iter_colorings,
                    enumerate_dwbc_states, F_rn, functional_residual_3c,
                    functional_residual_6v,
                    lenard_map, partial_partition_function, phi_ratio_factor,
                    phi_ratio_relation_check, psi_factor, raw_weight,
                    theta1, theta4, tilde_quasi_period_residual, tilde_weight,
                    weight6v, zeta)
from icelab.numutil import rel_residual, stable_sum
from icelab import sixvertex, threecoloring
from icelab.sixvertex import MAX_EVAL_N, _vertex_sweep
from icelab.threecoloring import _partial_sum
from icelab.verify import Config

PI = math.pi
ASM = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}


def _bits(z):
    return struct.pack("<2d", z.real, z.imag)


def params(p, lam):
    return EllipticParams.from_nome(p, lam=lam)


def assignment(rnd, n):
    return SpectralAssignment(chi=[rnd.uniform(0, PI) for _ in range(n)],
                              psi=[rnd.uniform(0, PI) for _ in range(n)])


def _loop_classify_vertex(bl, tl, tr, br):
    """Reference for classify_vertex, by % 3 arithmetic rather than the
    pattern table: the constant diagonal of a (bl, tl, tr, br) quadruple gives
    the kind and its base color."""
    bl, tl, tr, br = bl % 3, tl % 3, tr % 3, br % 3
    for a, b in ((bl, tl), (tl, tr), (tr, br), (br, bl)):
        if a == b:
            raise InvalidColoringError(f"adjacent faces equal in ({bl},{tl},{tr},{br})")
    if bl == tr and tl == br:
        kind = VertexKind.GAMMA if bl == (tl + 1) % 3 else VertexKind.GAMMA_P
        return ColoredVertexKind(kind, tl)
    if bl == tr:
        kind = VertexKind.ALPHA if tl == (bl - 1) % 3 else VertexKind.ALPHA_P
        return ColoredVertexKind(kind, bl)
    if tl == br:
        kind = VertexKind.BETA if bl == (tl + 1) % 3 else VertexKind.BETA_P
        return ColoredVertexKind(kind, tl)
    raise InvalidColoringError(f"inadmissible quadruple ({bl},{tl},{tr},{br})")


def _loop_iter_colorings(rows, cols, bc):
    """Backtracking reference for the free and toroidal colorings: faces
    filled row-major with colors tried in ascending order, a toroidal grid's
    last column and last row also checked against its first."""
    toroidal = bc == "toroidal"
    grid = [[None] * cols for _ in range(rows)]

    def ok(i, j, c):
        if j > 0 and grid[i][j - 1] == c:
            return False
        if i > 0 and grid[i - 1][j] == c:
            return False
        if toroidal:
            if j == cols - 1 and grid[i][0] == c:
                return False
            if i == rows - 1 and grid[0][j] == c:
                return False
        return True

    def walk(pos):
        if pos == rows * cols:
            yield GridColoring.from_rows(grid)
            return
        i, j = divmod(pos, cols)
        for cval in range(3):
            if ok(i, j, cval):
                grid[i][j] = cval
                yield from walk(pos + 1)
                grid[i][j] = None

    if not (toroidal and (rows == 1 or cols == 1)):
        yield from walk(0)


def _loop_iter_dwbc(n, corner):
    """Backtracking reference for the DWBC colorings of one corner color: the
    boundary pinned, the interior faces filled row-major with colors tried in
    ascending order."""
    size = n + 1
    grid = [[None] * size for _ in range(size)]
    for j in range(size):
        grid[0][j], grid[n][j] = (corner + j) % 3, (corner + n - j) % 3
        grid[j][0], grid[j][n] = (corner + j) % 3, (corner + n - j) % 3
    interior = [(i, j) for i in range(1, n) for j in range(1, n)]

    def walk(pos):
        if pos == len(interior):
            yield GridColoring.from_rows(grid)
            return
        i, j = interior[pos]
        for cval in range(3):
            if grid[i - 1][j] == cval or grid[i][j - 1] == cval:
                continue
            if grid[i][j + 1] is not None and grid[i][j + 1] == cval:
                continue
            if grid[i + 1][j] is not None and grid[i + 1][j] == cval:
                continue
            grid[i][j] = cval
            yield from walk(pos + 1)
            grid[i][j] = None

    yield from walk(0)


def _loop_vertices(coloring, n):
    """(kind, base color) of every internal vertex, row-major."""
    f = coloring.faces
    return [_loop_classify_vertex(f[i][j - 1], f[i - 1][j - 1], f[i - 1][j], f[i][j])
            for i in range(1, n + 1) for j in range(1, n + 1)]


def _loop_partial_partition_function(n, r, assign, pr, which):
    """Coloring-by-coloring reference for partial_partition_function: every
    vertex weight evaluated through the public raw/tilde weights and
    multiplied in row-major order."""
    weight = raw_weight if which == "raw" else tilde_weight
    terms = []
    for coloring in _loop_iter_dwbc(n, r):
        w = 1.0 + 0j
        for v, vk in enumerate(_loop_vertices(coloring, n)):
            w *= weight(vk, assign.chi[v // n] - assign.psi[v % n], pr)
        terms.append(w)
    return stable_sum(terms)


# a 5x6 coloring and its arrow image, face rows top to bottom
FIVE_BY_SIX = GridColoring.from_rows([
    [1, 0, 1, 0, 2, 0],
    [0, 2, 0, 2, 1, 2],
    [2, 1, 2, 1, 0, 1],
    [0, 2, 1, 2, 1, 2],
    [2, 1, 2, 1, 0, 1],
])
F, T = False, True
FIVE_BY_SIX_H = (  # internal horizontal lines, top first; True = right
    (F, F, F, F, F, F),
    (F, F, F, F, F, F),
    (T, T, F, T, T, T),
    (F, F, T, F, F, F),
)
FIVE_BY_SIX_V = (  # vertical segments per face row, top first; True = up
    (F, T, F, F, T),
    (F, T, F, F, T),
    (F, T, F, F, T),
    (F, F, T, F, T),
    (F, T, F, F, T),
)


class TestColor:
    def test_grid_rejects_colors_outside_z3(self):
        # out of range, or equal to a color without being a plain int, in
        # tuple or list rows
        import numpy
        for c in (3, 4, -1, 1.0, True, numpy.int64(1)):
            for faces in (((0, c), (1, 2)), [[0, 1], [c, 2]]):
                with pytest.raises(InvalidColoringError,
                                   match="face colors must be the ints 0, 1 or 2"):
                    GridColoring(faces=faces)
        assert GridColoring(faces=((0, 1), (1, 2))).color_counts() == (1, 2, 1)

    def test_grid_rejects_empty_and_ragged_faces(self):
        for faces in ((), ((),), []):
            with pytest.raises(InvalidColoringError, match="^empty face grid$"):
                GridColoring(faces=faces)
        for faces in (((0, 1), (2,)), [[0], [1, 2]]):
            with pytest.raises(InvalidColoringError, match="^ragged face grid$"):
                GridColoring(faces=faces)

    def test_from_rows_reduces_only_plain_ints(self):
        # 1.7, True and "2" were truncated or parsed into colors, where the
        # constructor rejects them
        for c in (1.7, True, "2", 1.0):
            with pytest.raises(InvalidColoringError,
                               match="face colors must be the ints 0, 1 or 2"):
                GridColoring.from_rows([[c, 0], [1, 2]])
        assert GridColoring.from_rows([[3, -2], [4, 5]]).faces == ((0, 1), (1, 2))

    def test_shifted_reduces_mod_3(self):
        g = GridColoring.from_rows([[0, 1, 2], [1, 2, 0]])
        assert g.shifted(5) == g.shifted(2)
        assert g.shifted(2).faces == ((2, 0, 1), (0, 1, 2))
        assert g.shifted(-1) == g.shifted(2)
        assert all(type(c) is int and 0 <= c <= 2
                   for row in g.shifted(5).faces for c in row)


class TestEnumeration:
    def test_free_1x1(self):
        assert len(enumerate_colorings(1, 1, "free")) == 3

    def test_free_2x3_matches_brute_force(self):
        brute = 0
        for cells in itertools.product(range(3), repeat=6):
            g = [cells[:3], cells[3:]]
            ok = all(g[i][j] != g[i][j + 1] for i in range(2) for j in range(2))
            ok = ok and all(g[0][j] != g[1][j] for j in range(3))
            brute += ok
        assert len(enumerate_colorings(2, 3, "free")) == brute

    def test_toroidal_2x2(self):
        assert len(enumerate_colorings(2, 2, "toroidal")) == 18

    def test_toroidal_degenerate_sizes(self):
        # _row_sectors alone decides these: a one-row torus takes no first
        # row, and a one-face ring has no row
        torus = threecoloring.BoundaryCondition.TOROIDAL
        for rows, cols in [(1, 4), (3, 1), (1, 1)]:
            assert enumerate_colorings(rows, cols, "toroidal") == []
            for orbits in (False, True):
                assert list(threecoloring._row_sectors(rows, cols, torus, None, orbits)) == []

    def test_dwbc_counts_match_sixvertex(self):
        for n in (1, 2, 3, 4):
            for corner in range(3):
                assert len(enumerate_colorings(n + 1, n + 1, "dwbc", corner=corner)) == ASM[n]
        assert len(enumerate_colorings(3, 3, "dwbc")) == 3 * ASM[2]

    def test_dwbc_boundary_walk(self):
        bound = dwbc_boundary(4, 2)
        assert bound[(0, 0)] == 2
        # anticlockwise: +1 down the left side, -1 along the bottom
        assert [int(bound[(i, 0)]) for i in range(5)] == [2, 0, 1, 2, 0]
        assert [int(bound[(4, j)]) for j in range(5)] == [0, 2, 1, 0, 2]
        for g in enumerate_colorings(4, 4, "dwbc", corner=1):
            assert g.satisfies_dwbc() and g.is_proper()

    @pytest.mark.parametrize("shape", [(r, c) for r in range(1, 13) for c in range(1, 12 // r + 1)])
    @pytest.mark.parametrize("bc", ["free", "toroidal"])
    def test_matches_loop_reference(self, bc, shape):
        # every shape up to 12 faces comes in both orientations
        got = enumerate_colorings(*shape, bc)
        assert [g.faces for g in got] == [g.faces for g in _loop_iter_colorings(*shape, bc)]
        assert all(type(c) is int for g in got for row in g.faces for c in row)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dwbc_matches_loop_reference(self, n):
        for corner in (None, 0, 1, 2):
            want = [g for c in ([corner] if corner is not None else range(3))
                    for g in _loop_iter_dwbc(n, c)]
            got = enumerate_colorings(n + 1, n + 1, "dwbc", corner=corner)
            assert [g.to_json_obj() for g in got] == [g.to_json_obj() for g in want]
            assert all(type(c) is int for g in got for row in g.faces for c in row)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vertex_codes_match_loop_reference(self, n):
        # a fixed random complex weight per (i, j, kind, base): for every
        # corner the vertex sweep sums the products of the loop colorings,
        # each vertex's codes are the (kind, base) that occur there, and with
        # every base shifted by one the sums miss
        rnd = random.Random(n)
        w = {(i, j, kind, r): complex(rnd.uniform(0.5, 1.5), rnd.uniform(-0.5, 0.5))
             for i in range(n) for j in range(n) for kind in VertexKind for r in range(3)}
        for corner in range(3):
            colorings = [_loop_vertices(c, n) for c in _loop_iter_dwbc(n, corner)]
            want = stable_sum([math.prod(w[v // n, v % n, vk.kind, vk.r]
                                         for v, vk in enumerate(vertices))
                               for vertices in colorings])

            def sweep(shift):
                seen = {}

                def weights(i, j, codes):
                    seen[i, j] = [(kind, (corner + offset + shift) % 3) for kind, offset in codes]
                    return [w[i, j, kind, r] for kind, r in seen[i, j]]

                return _vertex_sweep(n, weights), seen

            got, seen = sweep(0)
            assert got == pytest.approx(want, rel=1e-13)
            assert {ij: set(codes) for ij, codes in seen.items()} == {
                divmod(v, n): {(vs[v].kind, vs[v].r) for vs in colorings} for v in range(n * n)}
            assert sweep(1)[0] != pytest.approx(want, rel=1e-2)

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            enumerate_colorings(6, 6, "free")
        with pytest.raises(SizeGuardError):
            enumerate_colorings(8, 8, "dwbc")
        with pytest.raises(InvalidColoringError):
            enumerate_colorings(3, 4, "dwbc")


class TestCensus:
    def test_1x1_free_generating_function(self):
        z = FaceWeightParams(z0=2, z1=3, z2=5)
        assert compute_census(1, 1, "free").generating_function(z) == pytest.approx(10.0)

    def test_unit_weights_count_colorings(self):
        unit = FaceWeightParams()
        for rows, cols, bc in [(1, 1, "free"), (2, 2, "free"), (2, 2, "toroidal"),
                               (3, 3, "free"), (3, 3, "toroidal"), (3, 3, "dwbc")]:
            census = compute_census(rows, cols, bc)
            count = len(enumerate_colorings(rows, cols, bc))
            assert census.total() == count
            assert census.generating_function(unit) == pytest.approx(count)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.inf)])
    def test_non_finite_face_weight_rejected(self, bad):
        for name in ("z0", "z1", "z2"):
            with pytest.raises(ConfigError, match=f"face weight {name} must be finite"):
                FaceWeightParams(**{name: bad})

    def test_generating_function_overflow_is_typed(self):
        # 1e300 ** 25 raised a bare OverflowError; 1e200 * 1e200 gave inf
        census = compute_census(5, 5, "free")
        for z in (FaceWeightParams(z0=1e300), FaceWeightParams(z0=1e200, z1=1e200)):
            with pytest.raises(EvaluationOverflowError, match="5x5 free census overflows"):
                census.generating_function(z)
        # the benchmark's weights are drawn from [0.5, 2.0]
        for z in (0.5, 2.0):
            weights = FaceWeightParams(z, z, z)
            assert census.generating_function(weights) == pytest.approx(census.total() * z ** 25)

    def test_census_keys_partition_grid(self):
        census = compute_census(2, 2, "toroidal")
        assert all(sum(k) == 4 for k in census.counts)


class TestTransferCensus:
    """compute_census runs a row transfer matrix; the loop references, which
    share no code with it, are its oracle."""

    @pytest.mark.parametrize("bc", ["free", "toroidal"])
    def test_matches_enumeration_up_to_12_faces(self, bc):
        for rows in range(1, 13):
            for cols in range(1, 12 // rows + 1):
                assert compute_census(rows, cols, bc).counts == \
                    Counter(g.color_counts() for g in _loop_iter_colorings(rows, cols, bc)), \
                    (rows, cols)

    def test_census_and_domain_wall_walk_share_one_row_table(self):
        # the census transfers over _rows_under's cached rows, which the
        # domain-wall walk reads too: after a census the walk lists no row
        # anew.  No grid under the guards evicts an entry of its own census.
        rows_under = threecoloring._rows_under
        rows_under.cache_clear()
        compute_census(6, 6, "dwbc")
        filled = rows_under.cache_info()
        enumerate_colorings(6, 6, "dwbc")
        assert rows_under.cache_info().misses == filled.misses == filled.currsize == 96
        for grid in [(4, 6, "toroidal"), (6, 4, "toroidal"), (5, 5, "toroidal"), (5, 5, "free")]:
            rows_under.cache_clear()
            compute_census(*grid)
            info = rows_under.cache_info()
            assert info.misses == info.currsize <= info.maxsize, grid

    @pytest.mark.parametrize("shape", [(4, 4), (4, 5), (5, 4), (5, 5)])
    def test_toroidal_rings_of_4_and_5_faces(self, shape):
        # one sector per orbit of first rows, weighted by the orbit's size; a
        # 4-face ring has rows such as 0101 whose orbit is smaller than the
        # 8 rotations and reversals, so a wrong weight shows here
        assert compute_census(*shape, "toroidal").counts == \
            Counter(g.color_counts() for g in _loop_iter_colorings(*shape, "toroidal"))

    def test_5x5_torus_runs_one_sector_per_orbit(self, monkeypatch):
        # the 30 proper 5-face ring rows fall into 3 orbits of 10
        weights = []
        row_sectors = threecoloring._row_sectors

        def recorded(*args, **kwargs):
            for sector in row_sectors(*args, **kwargs):
                weights.append(sector[2])
                yield sector

        monkeypatch.setattr(threecoloring, "_row_sectors", recorded)
        assert compute_census(5, 5, "toroidal").total() == 7_560
        assert weights == [10, 10, 10]
        # the walk still runs every first row's sector
        weights.clear()
        assert len(enumerate_colorings(2, 5, "toroidal")) == 180
        assert weights == [1] * 30

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dwbc_matches_enumeration(self, n):
        for corner in (None, 0, 1, 2):
            census = compute_census(n + 1, n + 1, "dwbc", corner)
            colorings = [g for c in ([corner] if corner is not None else range(3))
                         for g in _loop_iter_dwbc(n, c)]
            assert census.counts == Counter(g.color_counts() for g in colorings)
            assert census.total() == ASM[n] * (3 if corner is None else 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dwbc_census_through_the_vertex_sweep(self, n):
        # the six-vertex sweep with Python-int weights: code (kind, offset) at
        # corner c weighs x0^a x1^b, a and b the 0s and 1s among its corner
        # colors, packed as 2^{16 (a S + b)}.  Summed over the vertices, an
        # inner face counts 4 times, a boundary face 2 and a corner face once;
        # the boundary is fixed, so its incidences come off before dividing
        # by 4.  Exact, and no code shared with the row transfer census.
        S, faces = 4 * n * n + 1, (n + 1) ** 2
        for c in range(3):
            total = _vertex_sweep(n, lambda i, j, codes: [
                1 << 16 * (a * S + b) for a, b in (
                    (corners.count(0), corners.count(1)) for corners in (
                        ColoredVertexKind(kind, (c + offset) % 3).corner_colors()
                        for kind, offset in codes))])
            boundary = dwbc_boundary(n, c)
            touches = [0, 0, 0]
            for (i, j), color in boundary.items():
                touches[color] += 1 if i in (0, n) and j in (0, n) else 2
            on_edge = Counter(boundary.values())
            counts, slot = {}, 0
            while total:
                total, count = total >> 16, total & 0xFFFF
                if count:
                    ab = []
                    for color, incidences in enumerate(divmod(slot, S)):
                        inner, rest = divmod(incidences - touches[color], 4)
                        assert rest == 0 and inner >= 0
                        ab.append(inner + on_edge[color])
                    counts[(*ab, faces - sum(ab))] = count
                slot += 1
            assert counts == compute_census(n + 1, n + 1, "dwbc", c).counts, (n, c)

    def test_exact_5x5_totals(self):
        assert compute_census(5, 5, "free").total() == 580_986
        assert compute_census(5, 5, "toroidal").total() == 7_560
        assert compute_census(6, 6, "dwbc", corner=1).total() == ASM[5]

    def test_counts_are_plain_ints(self):
        census = compute_census(4, 5, "free")
        assert all(type(c) is int for c in census.counts.values())
        assert all(type(k) is int for key in census.counts for k in key)
        assert all(c > 0 for c in census.counts.values())


#: (rows, cols, bc, corner) -> the error both entry points raise, or None
#: for a grid without colorings; several rows pin which guard fires first
GUARD_CASES = [
    ((0, 4, "free", None), SizeGuardError, "grid must be at least 1x1"),
    ((3, 0, "dwbc", None), SizeGuardError, "grid must be at least 1x1"),
    ((0, 0, "toroidal", 1), SizeGuardError, "grid must be at least 1x1"),
    ((3, 4, "dwbc", None), InvalidColoringError,
     "dwbc requires a square grid of at least 2x2 faces"),
    ((1, 1, "dwbc", 0), InvalidColoringError,
     "dwbc requires a square grid of at least 2x2 faces"),
    ((7, 7, "dwbc", None), SizeGuardError, "dwbc n = 6 outside the enumeration guard 1..5"),
    ((6, 6, "free", None), SizeGuardError, "6x6 = 36 faces exceeds the guard of 25"),
    ((2, 13, "toroidal", 2), SizeGuardError, "2x13 = 26 faces exceeds the guard of 25"),
    ((2, 2, "free", 1), InvalidColoringError,
     "corner pins the top-left color of dwbc grids only, not of free grids"),
    ((1, 4, "toroidal", 0), InvalidColoringError,
     "corner pins the top-left color of dwbc grids only, not of toroidal grids"),
    ((1, 4, "toroidal", None), None, None),
    ((5, 1, "toroidal", None), None, None),
    ((3, 3, "dwbc", 5), InvalidColoringError, "corner must be a color 0, 1 or 2, got 5"),
    ((3, 3, "dwbc", -1), InvalidColoringError, "corner must be a color 0, 1 or 2, got -1"),
    ((4, 4, "dwbc", 3), InvalidColoringError, "corner must be a color 0, 1 or 2, got 3"),
    ((7, 7, "dwbc", 3), SizeGuardError, "dwbc n = 6 outside the enumeration guard 1..5"),
    ((3, 3, "dwbc", 1.0), InvalidColoringError, "corner must be a color 0, 1 or 2, got 1.0"),
    # non-int sizes failed with AttributeError or TypeError, and True ran as 1
    ((2.5, 3, "free", None), SizeGuardError, "grid sizes must be ints, got 2.5 x 3"),
    ((2, 2.0, "free", None), SizeGuardError, "grid sizes must be ints, got 2 x 2.0"),
    ((True, 3, "free", None), SizeGuardError, "grid sizes must be ints, got True x 3"),
    ((3.0, 3.0, "dwbc", None), SizeGuardError, "grid sizes must be ints, got 3.0 x 3.0"),
]


@pytest.mark.parametrize("args,error,message", GUARD_CASES)
def test_census_and_enumeration_share_guards(args, error, message):
    if error is None:
        assert list(iter_colorings(*args)) == []
        assert compute_census(*args).counts == {}
        return
    for run in (lambda: list(iter_colorings(*args)), lambda: compute_census(*args)):
        with pytest.raises(error) as exc:
            run()
        assert str(exc.value) == message


def _run_fresh(*lines):
    """Run the script lines in a fresh interpreter that imports this icelab."""
    src = os.path.dirname(os.path.dirname(icelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_enumeration_and_census_leave_numpy_unloaded():
    # numpy serves the verify suites only; the enumerations are pure Python
    _run_fresh(
        "import sys, icelab",
        "assert 'numpy' not in sys.modules, 'import icelab'",
        "for args in [(2, 3, 'free'), (3, 3, 'toroidal'), (4, 4, 'dwbc')]:",
        "    icelab.enumerate_colorings(*args)",
        "    assert 'numpy' not in sys.modules, ('enumerate_colorings',) + args",
        "    icelab.compute_census(*args)",
        "    assert 'numpy' not in sys.modules, ('compute_census',) + args",
    )


def test_first_coloring_streams():
    # the 1x25 strip has 3 * 2^24 colorings, each a row state: the first must
    # come in kilobytes, without listing the rows.  The address-space cap turns
    # a walk that lists them up front into a quick MemoryError.
    _run_fresh(
        "import resource, tracemalloc, icelab",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
        "for args in [(1, 25, 'free'), (2, 12, 'toroidal'), (12, 2, 'toroidal'), (6, 6, 'dwbc')]:",
        "    tracemalloc.start()",
        "    next(icelab.iter_colorings(*args))",
        "    peak = tracemalloc.get_traced_memory()[1]",
        "    tracemalloc.stop()",
        "    assert peak < 1 << 18, (args, peak)",
    )


def _per_face_arrows(coloring):
    """Reference for lenard_map, one edge at a time from its two faces: a
    horizontal edge points right iff south = north + 1, a vertical edge
    points up iff east = west + 1."""
    f, rows, cols = coloring.faces, coloring.rows, coloring.cols
    h = tuple(tuple((f[i + 1][j] - f[i][j]) % 3 == 1 for j in range(cols))
              for i in range(rows - 1))
    v = tuple(tuple((f[i][j + 1] - f[i][j]) % 3 == 1 for j in range(cols - 1))
              for i in range(rows))
    return h, v


class TestLenardMap:
    def test_five_by_six_figure(self):
        state = lenard_map(FIVE_BY_SIX)
        assert state.h == FIVE_BY_SIX_H
        assert state.v == FIVE_BY_SIX_V

    def test_color_shift_invariance(self):
        assert lenard_map(FIVE_BY_SIX.shifted(1)) == lenard_map(FIVE_BY_SIX)
        assert lenard_map(FIVE_BY_SIX.shifted(2)) == lenard_map(FIVE_BY_SIX)

    def test_kind_agreement_with_arrows(self):
        state = lenard_map(FIVE_BY_SIX)
        for i in range(1, FIVE_BY_SIX.rows):
            for j in range(1, FIVE_BY_SIX.cols):
                face_kind = FIVE_BY_SIX.vertex(i, j).kind
                assert face_kind is state.kind_at(i - 1, j - 1)

    def test_dwbc_bijection(self):
        for n in (2, 3, 4):
            images = {lenard_map(g) for g in enumerate_colorings(n + 1, n + 1, "dwbc",
                                                                 corner=0)}
            assert images == set(enumerate_dwbc_states(n))
            assert all(s.satisfies_dwbc() and s.gamma_counts_odd() for s in images)

    def test_rejects_improper(self):
        # adjacency is checked before the size: the 1x3 and 3x1 grids have
        # no internal vertex
        for faces, message in ((((0, 0), (1, 2)), "violates proper adjacency"),
                               (((0, 0, 1),), "violates proper adjacency"),
                               (((0,), (0,), (1,)), "violates proper adjacency"),
                               (((0, 1, 2),), "need at least one internal vertex"),
                               (((0,), (1,), (2,)), "need at least one internal vertex"),
                               (((1,),), "need at least one internal vertex")):
            with pytest.raises(InvalidColoringError, match=message):
                lenard_map(GridColoring(faces=faces))

    def test_list_rows(self):
        g = GridColoring(faces=[[0, 1], [1, 2]])
        want = GridColoring(faces=((0, 1), (1, 2)))
        assert g == want and hash(g) == hash(want)
        assert lenard_map(g) == lenard_map(want)

    @pytest.mark.parametrize("grids", [
        [(n + 1, n + 1, "dwbc") for n in range(1, 6)],
        [(3, 4, "free")],
    ])
    def test_matches_per_face_reference(self, grids):
        for args in grids:
            colorings = enumerate_colorings(*args)
            if args[2] == "dwbc":
                assert {g.corner for g in colorings} == {0, 1, 2}
            for g in colorings:
                s = lenard_map(g)
                assert (s.h, s.v) == _per_face_arrows(g)


#: grids whose walk and Lenard images skip the public constructors' checks
UNCHECKED_GRIDS = ([(n + 1, n + 1, "dwbc", c) for n in range(1, 6) for c in (None, 0, 1, 2)]
                   + [(3, 4, "free", None), (3, 3, "toroidal", None)])


class TestCheckedOnce:
    """The walk takes its colors from levels of 0, 1 and 2 and the Lenard map
    its arrows from a proper coloring, which obey the ice rule; the objects
    they build skip the per-object checks of the public constructors, so
    they must equal what those build."""

    @pytest.mark.parametrize("args", UNCHECKED_GRIDS)
    def test_walk_and_images_match_public_constructors(self, args):
        colorings = enumerate_colorings(*args)
        assert colorings
        for c in colorings:
            public = GridColoring(faces=c.faces)
            assert c == public and hash(c) == hash(public) and c.faces == public.faces
            assert all(type(row) is tuple for row in c.faces)
            s = lenard_map(c)
            state = SixVertexState(h=s.h, v=s.v)
            assert s == state and hash(s) == hash(state)
            assert all(type(row) is tuple for row in s.h + s.v)

    @pytest.mark.parametrize("vk", [ColoredVertexKind(kind, r)
                                    for kind in VertexKind for r in range(3)],
                             ids=lambda vk: f"{vk.kind.value}-{vk.r}")
    def test_lenard_map_of_every_admissible_quadruple(self, vk):
        # the 2x2 grid around one vertex, for each of the 18 quadruples: its
        # image passes the public ice-rule check and has the quadruple's kind
        bl, tl, tr, br = vk.corner_colors()
        s = lenard_map(GridColoring(faces=((tl, tr), (bl, br))))
        state = SixVertexState(h=s.h, v=s.v)
        assert s == state and state.kind_at(0, 0) is vk.kind


class TestClassification:
    def test_all_patterns(self):
        for kind, r in itertools.product(VertexKind, range(3)):
            vk = ColoredVertexKind(kind, r)
            bl, tl, tr, br = vk.corner_colors()
            assert classify_vertex(bl, tl, tr, br) == vk
            assert classify_vertex(*vk.corner_lifts()) == vk

    def test_matches_loop_reference_on_all_lifts(self):
        # every quadruple of lifts in -1..3: the same kind and base as the
        # % 3 reference, and InvalidColoringError exactly where it raises
        admissible = 0
        for quad in itertools.product(range(-1, 4), repeat=4):
            try:
                want = _loop_classify_vertex(*quad)
            except InvalidColoringError:
                with pytest.raises(InvalidColoringError):
                    classify_vertex(*quad)
            else:
                assert classify_vertex(*quad) == want
                admissible += 1
        # the 18 patterns, each face 0 or 2 with two lifts in -1..3, 1 with one
        assert admissible == 128

    @pytest.mark.parametrize("r", [3, -1, 5, 1.0, True])
    def test_base_color_outside_z3_rejected(self, r):
        # a base of 3 or -1 would give lifts off the canonical r-1, r, r+1
        # window that the non-periodic psi_factor cocycle needs; a float or
        # bool base is rejected like a float or bool face
        for kind in VertexKind:
            with pytest.raises(InvalidColoringError):
                ColoredVertexKind(kind, r)

    def test_inadmissible(self):
        with pytest.raises(InvalidColoringError):
            classify_vertex(0, 1, 2, 0)  # bl == br while diagonals differ
        with pytest.raises(InvalidColoringError):
            classify_vertex(0, 0, 1, 2)

    @pytest.mark.parametrize("i, j", [(0, 0), (2, 1), (-1, 1), (1, 0), (1, 2), (1, -1)])
    def test_vertex_off_the_interior_raises(self, i, j):
        # a 2 x 2 face grid has one internal vertex, (1, 1): vertex(0, 0)
        # read faces from opposite edges and gave ALPHA_P with base 1, and
        # vertex(2, 1) raised a bare IndexError from the face tuple
        grid = GridColoring(faces=((0, 1), (1, 2)))
        with pytest.raises(IndexError, match=rf"^vertex \({i}, {j}\) outside 1\.\.1 x 1\.\.1$"):
            grid.vertex(i, j)
        assert grid.vertex(1, 1) == classify_vertex(1, 0, 1, 2)


class TestWeights:
    def test_phi_zero_values(self):
        pr = params(0.2, 0.3)
        for r in range(3):
            zr = zeta(r, pr)
            a0 = raw_weight(ColoredVertexKind(VertexKind.ALPHA, r), 0.0, pr)
            assert a0 == pytest.approx(zr ** 0.25, rel=1e-12)
            b0 = raw_weight(ColoredVertexKind(VertexKind.BETA, r), 0.0, pr)
            assert b0 == pytest.approx(zr ** 0.25, rel=1e-12)
            g0 = raw_weight(ColoredVertexKind(VertexKind.GAMMA, r), 0.0, pr)
            want = zeta(r + 1, pr) ** 0.5 * zr ** 0.5
            assert g0 == pytest.approx(want, rel=1e-12)
            gp0 = raw_weight(ColoredVertexKind(VertexKind.GAMMA_P, r), 0.0, pr)
            assert gp0 == pytest.approx(zeta(r - 1, pr) ** 0.5 * zr ** 0.5, rel=1e-12)

    def test_color_shift_equals_lambda_shift(self):
        # X_{r+1}(phi | lambda) = X_r(phi | lambda + 2pi/3) for every kind
        rnd = random.Random(20)
        pr = params(0.2, 0.27)
        shifted = pr.with_lambda(pr.lam + 2 * PI / 3)
        for kind in VertexKind:
            for r in range(3):
                phi = rnd.uniform(-1, 1)
                lhs = raw_weight(ColoredVertexKind(kind, (r + 1) % 3), phi, pr)
                rhs = raw_weight(ColoredVertexKind(kind, r), phi, shifted)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta_shift_is_not_alpha(self):
        # the cross-kind variant of the shift law does not hold
        pr = params(0.2, 0.27)
        shifted = pr.with_lambda(pr.lam + 2 * PI / 3)
        phi = 0.37
        lhs = raw_weight(ColoredVertexKind(VertexKind.BETA, 1), phi, pr)
        rhs = raw_weight(ColoredVertexKind(VertexKind.ALPHA, 0), phi, shifted)
        assert abs(lhs - rhs) > 1e-3

    def test_trigonometric_limit(self):
        # raw alpha over its p -> 0 limit tends to 1
        vk = ColoredVertexKind(VertexKind.ALPHA, 1)
        phi = 0.43
        limit = math.sin(PI / 3 - phi) / math.sin(2 * PI / 3)
        for p, tol in ((1e-3, 5e-3), (1e-4, 5e-4)):
            val = raw_weight(vk, phi, params(p, 0.3))
            assert abs(val / limit - 1) < tol

    def test_tilde_degenerates_to_sixvertex(self):
        rnd = random.Random(21)
        pr = params(0.0, 0.3)
        for kind in VertexKind:
            for r in range(3):
                phi = rnd.uniform(-1, 1)
                tw = tilde_weight(ColoredVertexKind(kind, r), phi, pr)
                assert tw == pytest.approx(weight6v(kind, phi, 2 * PI / 3), rel=1e-12)

    def test_tilde_beta_at_zero(self):
        pr = params(0.2, 0.3)
        for r in range(3):
            tb = tilde_weight(ColoredVertexKind(VertexKind.BETA, r), 0.0, pr)
            want = zeta(r, pr) ** 0.5 * theta1(PI / 3, pr) / theta1(2 * PI / 3, pr)
            assert tb == pytest.approx(want, rel=1e-12)

    def test_gauge_consistency(self):
        # tilde = raw * Phi_tl Phi_br / (Phi_bl Phi_tr), Phi_r = zeta_r^{1/12 + phi/4pi}
        rnd = random.Random(22)
        pr = params(0.2, 0.22)

        def phi_fn(m, x):
            return zeta(m, pr) ** (1.0 / 12.0 + x / (4 * PI))

        for kind in VertexKind:
            for r in range(3):
                for _ in range(3):
                    x = rnd.uniform(-1, 1)
                    vk = ColoredVertexKind(kind, r)
                    bl, tl, tr, br = vk.corner_colors()
                    factor = phi_fn(tl, x) * phi_fn(br, x) / (phi_fn(bl, x) * phi_fn(tr, x))
                    lhs = tilde_weight(vk, x, pr)
                    rhs = factor * raw_weight(vk, x, pr)
                    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_branch_domain_guard(self):
        pr = EllipticParams.from_nome(0.2, lam=0.3 + 0.4j)
        with pytest.raises(BranchDomainError):
            raw_weight(ColoredVertexKind(VertexKind.ALPHA, 0), 0.1, pr)


class TestQuasiPeriodicity:
    def test_tilde_pi_tau_law(self):
        pr = params(0.2, 0.26)
        for kind in VertexKind:
            for r in range(3):
                vk = ColoredVertexKind(kind, r)
                assert tilde_quasi_period_residual(vk, 0.31, pr) < 1e-9

    def test_tilde_pi_tau_law_has_a_pole_at_p_zero(self):
        # pi*tau is infinite there; the series raised SeriesTruncationError
        # on a NaN argument
        vk = ColoredVertexKind(VertexKind.ALPHA, 0)
        with pytest.raises(PoleError, match="pole at p = 0"):
            tilde_quasi_period_residual(vk, 0.31, EllipticParams.from_nome(0, lam=0.26))

    def test_reduced_representatives_break_the_law(self):
        # reducing the corner labels mod 3 inside the cocycle ratio spoils it:
        # the cocycle is quadratic, not periodic, in the integer label
        pr = params(0.2, 0.26)
        vk = ColoredVertexKind(VertexKind.GAMMA, 2)
        bl, tl, tr, br = (x % 3 for x in vk.corner_lifts())
        lhs = tilde_weight(vk, 0.31 + PI * pr.tau, pr)
        factor = (psi_factor(tl, pr) * psi_factor(br, pr)
                  / (psi_factor(bl, pr) * psi_factor(tr, pr)))
        rhs = (-1.0 / pr.p) * cmath.exp(-2j * 0.31) * factor * tilde_weight(vk, 0.31, pr)
        assert abs(lhs - rhs) > 1e-3 * abs(lhs)


class TestPartitionFunctions:
    def test_n1_is_tilde_gamma(self):
        rnd = random.Random(23)
        pr = params(0.2, 0.29)
        a = assignment(rnd, 1)
        for r in range(3):
            z = partial_partition_function(1, r, a, pr)
            w = tilde_weight(ColoredVertexKind(VertexKind.GAMMA, r),
                             a.chi[0] - a.psi[0], pr)
            assert z == pytest.approx(w, rel=1e-13)

    def test_matches_loop_reference(self):
        rnd = random.Random(28)
        pr = params(0.2, 0.27)
        for n in (1, 2, 3):
            for shift in (0.0, 0.2j):
                a = assignment(rnd, n).shift_chi(1, shift)
                for r in range(3):
                    for which in ("raw", "tilde"):
                        assert partial_partition_function(n, r, a, pr, which) == pytest.approx(
                            _loop_partial_partition_function(n, r, a, pr, which), rel=1e-15)

    def test_unknown_family_rejected(self):
        a = assignment(random.Random(29), 2)
        with pytest.raises(ValueError, match="^which must be 'raw' or 'tilde'$"):
            partial_partition_function(2, 0, a, params(0.2, 0.27), which="bad")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_coloring_product(self, n):
        # the public enumeration and vertex classifier against the row transfer
        rnd = random.Random(40 + n)
        pr = params(0.2, 0.27)
        a = assignment(rnd, n).shift_chi(1, 0.1j)
        for which, weight in (("raw", raw_weight), ("tilde", tilde_weight)):
            for r in range(3):
                terms = []
                for coloring in enumerate_colorings(n + 1, n + 1, "dwbc", corner=r):
                    w = 1.0 + 0j
                    for i, j in itertools.product(range(n), repeat=2):
                        w *= weight(coloring.vertex(i + 1, j + 1), a.chi[i] - a.psi[j], pr)
                    terms.append(w)
                assert partial_partition_function(n, r, a, pr, which) == pytest.approx(
                    stable_sum(terms), rel=1e-13)

    def test_cached_sum_is_bitwise_fresh(self):
        # 0.0 == -0.0 and x + 0j == x - 0j, so such assignments share one
        # cache entry; the sums must not depend on the sign of a zero
        pr = params(0.2, 0.27)
        zeros = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0))
        inexact = (complex(0.4, 0.0), complex(0.4, -0.0), 0.4)
        variants = [SpectralAssignment(chi=[c] + [0.3] * (n - 1), psi=[p] + [-0.0] * (n - 1))
                    for n in (1, 2) for group in (zeros, inexact)
                    for c, p in itertools.product(group, zeros + inexact[:1])]
        for which in ("raw", "tilde"):
            for r in range(3):
                fresh = []
                for a in variants:
                    _partial_sum.cache_clear()
                    fresh.append(_bits(partial_partition_function(a.n, r, a, pr, which)))
                _partial_sum.cache_clear()
                cached = [_bits(partial_partition_function(a.n, r, a, pr, which))
                          for a in variants]
                assert cached == fresh
                assert _partial_sum.cache_info().hits > 0

    def test_cache_keys_every_argument(self):
        rnd = random.Random(29)
        pr = params(0.2, 0.27)
        a = assignment(rnd, 2).shift_chi(1, 0.1j)
        base = (2, 0, a, pr, "tilde")
        others = [(2, 0, a, pr, "raw"),
                  (2, 1, a, pr, "tilde"),
                  (2, 0, a, params(0.2, 0.28), "tilde"),
                  (2, 0, a, dataclasses.replace(pr, series=SeriesConfig(term_tolerance=1e-12)),
                   "tilde")]
        fresh = []
        for args in others:
            _partial_sum.cache_clear()
            fresh.append(partial_partition_function(*args))
        _partial_sum.cache_clear()
        # the default and explicit spellings of one call share an entry
        partial_partition_function(2, 0, a, pr)
        assert partial_partition_function(*base) == partial_partition_function(2, 0, a, pr)
        assert _partial_sum.cache_info()[:2] == (2, 1)
        for args, want in zip(others, fresh):
            assert partial_partition_function(*args) == want
        assert _partial_sum.cache_info()[:2] == (2, 1 + len(others))

    def test_size_guard(self):
        # the vertex sweep's evaluation guard, not the enumeration guard
        n = MAX_EVAL_N + 1
        a = SpectralAssignment(chi=[0.1] * n, psi=[0.2] * n)
        message = r"^n = 13 outside the evaluation guard 0\.\.12$"
        for which in ("raw", "tilde"):
            with pytest.raises(SizeGuardError, match=message):
                partial_partition_function(n, 0, a, params(0.2, 0.3), which)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rapidity_count_checked_at_every_n(self, n):
        # the empty lattice is no exception: two rapidities fit neither n
        a = SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4])
        message = f"^assignment has 2 rapidities, lattice needs {n}$"
        for run in (lambda: partial_partition_function(n, 0, a, params(0.2, 0.3)),
                    lambda: F_rn(n, 0, a, params(0.2, 0.3))):
            with pytest.raises(ValueError, match=message):
                run()

    def test_lambda_shift_law(self):
        rnd = random.Random(24)
        pr = params(0.2, 0.2)
        a = assignment(rnd, 2)
        for r in range(3):
            lhs = partial_partition_function(2, r + 1, a, pr)
            rhs = partial_partition_function(2, r, a, pr.with_lambda(pr.lam + 2 * PI / 3))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_separate_symmetry(self):
        rnd = random.Random(25)
        pr = params(0.2, 0.24)
        a = assignment(rnd, 3)
        z = partial_partition_function(3, 0, a, pr)
        for perm in ((1, 0, 2), (2, 1, 0)):
            chi = tuple(a.chi[i] for i in perm)
            zp = partial_partition_function(
                3, 0, SpectralAssignment(chi=chi, psi=a.psi), pr)
            assert zp == pytest.approx(z, rel=1e-10)
            psi = tuple(a.psi[i] for i in perm)
            zp = partial_partition_function(
                3, 0, SpectralAssignment(chi=a.chi, psi=psi), pr)
            assert zp == pytest.approx(z, rel=1e-10)

    def test_degeneration_to_sixvertex(self):
        from icelab import partition_function_6v
        rnd = random.Random(27)
        for n in (1, 2, 3):
            a = assignment(rnd, n)
            z6 = partition_function_6v(a)
            z3 = partial_partition_function(n, 0, a, params(1e-4, 0.3))
            assert abs(z3 - z6) / abs(z6) < 1e-3
            # at p = 0 the reduced series make the limit exact
            z0 = partial_partition_function(n, 0, a, params(0.0, 0.3))
            assert abs(z0 - z6) / abs(z6) < 1e-8


def _uncorrected_factor(n, r, assign, pr):
    """phi_ratio_factor as printed, its boundary constant (zeta_r/zeta_{r+n})^{1/12} divided out."""
    return phi_ratio_factor(n, r, assign, pr) / (zeta(r, pr) / zeta(r + n, pr)) ** (1.0 / 12.0)


class TestPhiRatio:
    def test_n1_collapse(self):
        pr = params(0.2, 0.28)
        a = SpectralAssignment(chi=[0.8], psi=[0.33])
        assert phi_ratio_relation_check(1, 0, a, pr) < 1e-12
        # the corrected factor at n=1 is the gauge factor of a single gamma
        u = 2 * (a.chi[0] - a.psi[0])
        got = phi_ratio_factor(1, 2, a, pr)
        want = ((zeta(2, pr) / zeta(0, pr)) ** (1.0 / 12.0)
                * zeta(2, pr) ** (1.0 / 12.0 + u / (4 * PI))
                / zeta(0, pr) ** (1.0 / 12.0 + u / (4 * PI)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_relation_holds_corrected(self):
        rnd = random.Random(28)
        pr = params(0.22, 0.26)
        for n in (1, 2):
            a = assignment(rnd, n)
            for r in range(3):
                assert phi_ratio_relation_check(n, r, a, pr) < 1e-10

    def test_exponent_past_the_doubles_raises(self):
        # chi - psi overflowed to inf in u, so the exponent was NaN and the
        # factor NaN + NaN j, with no error
        a = SpectralAssignment(chi=[1.7e308], psi=[-1.7e308])
        with pytest.raises(EvaluationOverflowError, match="^the phi ratio exponent overflows"):
            phi_ratio_factor(1, 0, a, params(0.2, 0.4))

    def test_uncorrected_product_misses_constant(self):
        # without the (zeta_r/zeta_{r+n})^{1/12} constant the relation fails
        rnd = random.Random(29)
        pr = params(0.22, 0.26)
        a = assignment(rnd, 2)
        residuals = [rel_residual(partial_partition_function(2, r, a, pr, "tilde"),
                                  _uncorrected_factor(2, r, a, pr)
                                  * partial_partition_function(2, r, a, pr, "raw"))
                     for r in range(3)]
        assert max(residuals) > 1e-3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_relation_holds_beyond_loop_reference(self, n):
        # the gauge factor telescopes over every vertex's base color, an
        # oracle for the height function past the loop references; with
        # |chi - psi| < pi/6 every face weight is positive.  At n = 0 mod 3
        # the boundary constant is exactly 1, so only there the uncorrected
        # product matches too
        rnd = random.Random(50 + n)
        pr = params(0.22, 0.26)
        a = SpectralAssignment(chi=[rnd.uniform(0, PI / 6) for _ in range(n)],
                               psi=[rnd.uniform(0, PI / 6) for _ in range(n)])
        for r in range(3):
            zt = partial_partition_function(n, r, a, pr, "tilde")
            zr = partial_partition_function(n, r, a, pr, "raw")
            assert zt == pytest.approx(phi_ratio_factor(n, r, a, pr) * zr, rel=1e-12)
            uncorrected = _uncorrected_factor(n, r, a, pr)
            if n % 3:
                assert zt != pytest.approx(uncorrected * zr, rel=1e-2)
            else:
                assert uncorrected == phi_ratio_factor(n, r, a, pr)

    def test_trivial_at_p_zero(self):
        a = SpectralAssignment(chi=[0.5, 1.1], psi=[0.2, 0.9])
        assert phi_ratio_relation_check(2, 1, a, params(0.0, 0.3)) < 1e-14


class TestDressedSums:
    def test_f_n1_closed_form(self):
        pr = params(0.2, 0.31)
        a = SpectralAssignment(chi=[0.77], psi=[0.31])
        phi = a.chi[0] - a.psi[0]
        for r in range(3):
            got = F_rn(1, r, a, pr)
            want = (theta1(phi, pr)
                    * theta4(pr.lam + phi + 2 * PI * (r + 0.5) / 3, pr)
                    / (theta4(pr.lam + 2 * PI * (r + 1) / 3, pr)
                       * theta4(pr.lam + 2 * PI * r / 3, pr)))
            assert got == pytest.approx(want, rel=1e-12)

    def test_f_antisymmetry(self):
        rnd = random.Random(30)
        pr = params(0.2, 0.23)
        a = assignment(rnd, 2)
        f = F_rn(2, 1, a, pr)
        swapped = SpectralAssignment(chi=(a.chi[1], a.chi[0]), psi=a.psi)
        assert F_rn(2, 1, swapped, pr) == pytest.approx(-f, rel=1e-11)

    def test_f_lambda_shift_law(self):
        rnd = random.Random(31)
        pr = params(0.2, 0.21)
        a = assignment(rnd, 2)
        for r in range(3):
            lhs = F_rn(2, r + 1, a, pr)
            rhs = F_rn(2, r, a, pr.with_lambda(pr.lam + 2 * PI / 3))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_pi_shift_common_summand_factor(self):
        # shifting one chi by pi multiplies every summand, hence the sum, by
        # the same factor; for the dressed sum that factor is (-1)^n
        rnd = random.Random(32)
        pr = params(0.2, 0.3)
        for n in (2, 3):
            a = assignment(rnd, n)
            i = rnd.randrange(1, n + 1)
            f = F_rn(n, 1, a, pr)
            fs = F_rn(n, 1, a.shift_chi(i, PI), pr)
            assert fs == pytest.approx((-1) ** n * f, rel=1e-10)
            z = partial_partition_function(n, 1, a, pr)
            zs = partial_partition_function(n, 1, a.shift_chi(i, PI), pr)
            assert zs == pytest.approx((-1) ** (n - 1) * z, rel=1e-10)

    def test_s_sums_vanish(self):
        rnd = random.Random(33)
        pr = params(0.2, 0.27)
        for n in (1, 2, 3):
            a = assignment(rnd, n)
            for r in range(3):
                k = rnd.randrange(1, n + 1)
                assert functional_residual_3c(n, r, k, "chi", a, pr) < 1e-9
                assert functional_residual_3c(n, r, k, "psi", a, pr) < 1e-9


#: each identity entry point, called at line indices (k, l) of a 3-line assignment
_INDEXED = {
    "f6v-chi": lambda a, k, l, pr: functional_residual_6v(a, k, "chi"),
    "f6v-psi": lambda a, k, l, pr: functional_residual_6v(a, k, "psi"),
    "f3c-chi": lambda a, k, l, pr: functional_residual_3c(3, 1, k, "chi", a, pr),
    "f3c-psi": lambda a, k, l, pr: functional_residual_3c(3, 1, k, "psi", a, pr),
    "r6v-Z": lambda a, k, l, pr: check_recursion_6v(a, k, l, +1, form="Z"),
    "r6v-F": lambda a, k, l, pr: check_recursion_6v(a, k, l, -1, form="F"),
    "r3c-Z": lambda a, k, l, pr: check_recursion_3c(3, 1, k, l, -1, a, pr, form="Z"),
    "r3c-F": lambda a, k, l, pr: check_recursion_3c(3, 1, k, l, +1, a, pr, form="F"),
}
#: (k, l, the index the error names); the functional sums take no l
_BAD_INDICES = [(0, 1, 0), (4, 2, 4), (1, 0, 0), (3, 4, 4)]


class TestLineIndices:
    """SpectralAssignment._index is the one 1..n check of every identity entry point."""

    @pytest.mark.parametrize("entry, k, l, bad", [
        (entry, k, l, bad) for entry in _INDEXED for k, l, bad in _BAD_INDICES
        if entry.startswith("r") or bad == k])
    def test_outside_one_to_n_raises_before_any_weight(self, monkeypatch, entry, k, l, bad):
        def fail(*args, **kwargs):
            raise AssertionError("a weight was evaluated")
        # every weight of both models is evaluated inside these four sums
        for module, name in ((sixvertex, "partition_function_6v"), (sixvertex, "F_n_6v"),
                             (threecoloring, "partial_partition_function"),
                             (threecoloring, "F_rn")):
            monkeypatch.setattr(module, name, fail)
        a = SpectralAssignment(chi=[0.1, 0.7, 1.3], psi=[0.4, 0.9, 2.0])
        with pytest.raises(IndexError, match=rf"^line index {bad} outside 1\.\.3$"):
            _INDEXED[entry](a, k, l, params(0.2, 0.24))
        # the control: inside 1..n the same call reaches a weight
        with pytest.raises(AssertionError, match="^a weight was evaluated$"):
            _INDEXED[entry](a, 3, 1, params(0.2, 0.24))


class TestRecursions3c:
    def test_n1_plus_collapse(self):
        # at n = 1 the pinned lattice weight reduces to the theta4 step ratio
        pr = params(0.2, 0.26)
        for r in range(3):
            a = SpectralAssignment(chi=[0.0], psi=[0.41])
            pinned = a.replace_chi(1, a.psi[0] + PI / 3)
            lhs = partial_partition_function(1, r, pinned, pr)
            want = (theta4(pr.lam + 2 * PI * (r + 1) / 3, pr)
                    / theta4(pr.lam + 2 * PI * r / 3, pr))
            assert lhs == pytest.approx(want, rel=1e-12)
            assert check_recursion_3c(1, r, 1, 1, +1, a, pr, form="Z") < 1e-13
            assert check_recursion_3c(1, r, 1, 1, -1, a, pr, form="Z") < 1e-13
            assert check_recursion_3c(1, r, 1, 1, +1, a, pr, form="F") < 1e-13
            assert check_recursion_3c(1, r, 1, 1, -1, a, pr, form="F") < 1e-13

    def test_z_recursions(self):
        rnd = random.Random(34)
        pr = params(0.2, 0.24)
        for n in (2, 3):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    a = assignment(rnd, n)
                    r = rnd.randrange(3)
                    assert check_recursion_3c(n, r, k, l, +1, a, pr, form="Z") < 1e-10
                    assert check_recursion_3c(n, r, k, l, -1, a, pr, form="Z") < 1e-10

    def test_f_recursions(self):
        rnd = random.Random(35)
        pr = params(0.2, 0.24)
        for n in (2, 3):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    a = assignment(rnd, n)
                    r = rnd.randrange(3)
                    assert check_recursion_3c(n, r, k, l, +1, a, pr, form="F") < 1e-10
                    assert check_recursion_3c(n, r, k, l, -1, a, pr, form="F") < 1e-10


    @pytest.mark.parametrize("form", ["Z", "F"])
    def test_typed_errors_where_theta1_of_two_pi_over_3_vanishes(self, form):
        # theta1(2pi/3)^(2 - 2n) and ^(3 - 2n) raised a bare ZeroDivisionError
        # at p = 0, where theta1(2pi/3) is 0, and at p = 1e-300, n = 4, where
        # the power underflows
        a = SpectralAssignment(chi=[0.3, 0.1], psi=[0.2, 0.5])
        with pytest.raises(PoleError, match=r"^theta1\(2\*pi/3\) vanishes at p = 0j$"):
            check_recursion_3c(2, 1, 1, 2, -1, a, params(0.0, 0.4), form)
        a = SpectralAssignment(chi=[0.3, 0.1, 0.7, 1.2], psi=[0.2, 0.5, 0.9, 1.4])
        with pytest.raises(EvaluationOverflowError, match=r"^theta1\(2\*pi/3\)\^-[56] overflows"):
            check_recursion_3c(4, 1, 1, 2, -1, a, params(1e-300, 0.4), form)


class TestRecursionSeam:
    def test_flipped_recursion_sign_fails_every_n2_case(self, monkeypatch):
        # the "recursion sign flipped" mutant, patched into the one helper
        # both models' recursion checks call: every n = 2 case must then read
        # above the verify tolerance, both forms, both signs, every corner
        real = sixvertex._recursion_residual

        def flipped(assign, k, l, sign, form, offset, lhs, rhs, f, start):
            return real(assign, k, l, sign, form, offset, lhs, rhs, f, -start)

        chi, psi = [0.3, 1.1], [0.7, 2.0]
        six_vertex = {"Z": SpectralAssignment(chi=chi, psi=psi, eta=1.1),
                  "F": SpectralAssignment(chi=chi, psi=psi)}
        pr = params(0.2, 0.4)
        cases = [(lambda form=form, sign=sign:
                  check_recursion_6v(six_vertex[form], 1, 2, sign, form))
                 for form in ("Z", "F") for sign in (1, -1)]
        cases += [(lambda form=form, sign=sign, r=r: check_recursion_3c(
                       2, r, 1, 2, sign, SpectralAssignment(chi=chi, psi=psi), pr, form))
                  for form in ("Z", "F") for sign in (1, -1) for r in range(3)]
        tol = Config().tol_recursion
        assert max(case() for case in cases) < tol
        monkeypatch.setattr(sixvertex, "_recursion_residual", flipped)
        monkeypatch.setattr(threecoloring, "_recursion_residual", flipped)
        assert min(case() for case in cases) > tol

    @pytest.mark.parametrize("model, form", [("6v", "Z"), ("6v", "F"), ("3c", "Z"), ("3c", "F")])
    def test_every_n4_pin_reads_clean_and_fails_flipped(self, monkeypatch, model, form):
        # verify pins one drawn (k, l) per draw, so at n = 4 some pins go
        # unchecked at a given seed: here every (k, l, sign), and every corner
        # for the colouring model, must read below the verify tolerance, and
        # above it under the flipped recursion sign.  The six-vertex form F
        # margin is only about 10x (flipped 1.0e-9 against 1e-10): the `1 +`
        # floor of numutil.rel_residual dwarfs F_4
        real = sixvertex._recursion_residual

        def flipped(assign, k, l, sign, form, offset, lhs, rhs, f, start):
            return real(assign, k, l, sign, form, offset, lhs, rhs, f, -start)

        a = SpectralAssignment(chi=[0.3, 1.1, 1.9, 2.6], psi=[0.7, 2.0, 0.1, 1.4])
        pins = [(k, l, sign) for k in range(1, 5) for l in range(1, 5) for sign in (1, -1)]
        if model == "6v":
            a = dataclasses.replace(a, eta=1.1) if form == "Z" else a
            cases = [lambda k=k, l=l, sign=sign: check_recursion_6v(a, k, l, sign, form)
                     for k, l, sign in pins]
        else:
            pr = params(0.2, 0.4)
            cases = [lambda k=k, l=l, sign=sign, r=r: check_recursion_3c(
                         4, r, k, l, sign, a, pr, form) for r in range(3) for k, l, sign in pins]
        tol = Config().tol_recursion
        assert max(case() for case in cases) < tol
        monkeypatch.setattr(sixvertex, "_recursion_residual", flipped)
        monkeypatch.setattr(threecoloring, "_recursion_residual", flipped)
        assert min(case() for case in cases) > tol
