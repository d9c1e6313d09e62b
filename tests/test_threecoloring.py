"""Colorings: enumeration, census, arrow map, weights, partition functions."""

import cmath
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
from icelab import (DEFAULT_SERIES, BranchDomainError, Color,
                    ColoredVertexKind, EllipticParams, FaceWeightParams,
                    GridColoring, InvalidColoringError, SeriesConfig,
                    SizeGuardError, SpectralAssignment, VertexKind,
                    check_recursion_3c, classify_vertex,
                    compute_census, dwbc_boundary, enumerate_colorings,
                    iter_colorings,
                    enumerate_dwbc_states, F_rn, functional_residual_3c,
                    lenard_map, partial_partition_function, phi_ratio_factor,
                    phi_ratio_relation_check, psi_factor, raw_weight,
                    theta1, theta4, tilde_quasi_period_residual, tilde_weight,
                    weight6v, zeta)
from icelab.numutil import stable_sum
from icelab.sixvertex import _transfer_table
from icelab.threecoloring import _partial_sum

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
    """Reference for classify_vertex: the constant diagonal of a (bl, tl, tr,
    br) quadruple gives the kind and its base color."""
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


def _transfer_vertices(n, corner):
    """(kind, base color) of every vertex, row-major, of every path of row
    moves through the transfer table, the base color being the corner plus
    the code's offset."""
    table, kinds = _transfer_table(n), list(VertexKind)
    paths = []

    def descend(i, state, vertices):
        if i == n:
            paths.append(vertices)
            return
        _, moves, row_codes = table[i]
        for dst, _, picks in moves[state]:
            descend(i + 1, dst, vertices + tuple(
                (kinds[c[p][0]], (corner + c[p][1]) % 3) for c, p in zip(row_codes, picks)))

    descend(0, 0, ())
    return paths


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
    def test_wraparound(self):
        assert Color(5) == Color(2)
        assert Color(2) + 1 == Color(0)
        assert Color(0) - 1 == Color(2)
        assert Color(1) + Color(2) == Color(0)
        assert -Color(1) == Color(2)
        assert int(Color(7)) == 1

    def test_grid_rejects_colors_outside_z3(self):
        for faces in (((0, 3), (1, 2)), ((0, 4), (1, 2)), ((0, -1), (1, 2))):
            with pytest.raises(InvalidColoringError):
                GridColoring(faces=faces)
        assert GridColoring(faces=((0, 1), (1, 2))).color_counts() == (1, 2, 1)


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
        assert enumerate_colorings(1, 4, "toroidal") == []
        assert enumerate_colorings(3, 1, "toroidal") == []

    def test_dwbc_counts_match_sixvertex(self):
        for n in (1, 2, 3, 4):
            for corner in range(3):
                assert len(enumerate_colorings(n + 1, n + 1, "dwbc", corner=corner)) == ASM[n]
        assert len(enumerate_colorings(3, 3, "dwbc")) == 3 * ASM[2]

    def test_dwbc_boundary_walk(self):
        bound = dwbc_boundary(4, 2)
        assert bound[(0, 0)] == Color(2)
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
        assert all(type(c) is Color for g in got for row in g.faces for c in row)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dwbc_matches_loop_reference(self, n):
        for corner in (None, 0, 1, 2):
            want = [g for c in ([corner] if corner is not None else range(3))
                    for g in _loop_iter_dwbc(n, c)]
            got = enumerate_colorings(n + 1, n + 1, "dwbc", corner=corner)
            assert [g.to_json_obj() for g in got] == [g.to_json_obj() for g in want]
            assert all(type(c) is Color for g in got for row in g.faces for c in row)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vertex_codes_match_loop_reference(self, n):
        # the row moves with their height-function offsets are the colorings
        # of every corner, vertex by vertex
        key = lambda vertices: [(kind.value, r) for kind, r in vertices]
        for corner in range(3):
            got = sorted(map(key, _transfer_vertices(n, corner)))
            want = sorted(key((vk.kind, int(vk.r)) for vk in _loop_vertices(coloring, n))
                          for coloring in _loop_iter_dwbc(n, corner))
            assert got == want

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dwbc_matches_enumeration(self, n):
        for corner in (None, 0, 1, 2):
            census = compute_census(n + 1, n + 1, "dwbc", corner)
            colorings = [g for c in ([corner] if corner is not None else range(3))
                         for g in _loop_iter_dwbc(n, c)]
            assert census.counts == Counter(g.color_counts() for g in colorings)
            assert census.total() == ASM[n] * (3 if corner is None else 1)

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
        bad = GridColoring.from_rows([[0, 0], [1, 2]])
        with pytest.raises(InvalidColoringError):
            lenard_map(bad)
        with pytest.raises(InvalidColoringError):
            lenard_map(GridColoring.from_rows([[0, 1, 2]]))


class TestClassification:
    def test_all_patterns(self):
        for kind, r in itertools.product(VertexKind, range(3)):
            vk = ColoredVertexKind(kind, Color(r))
            bl, tl, tr, br = vk.corner_colors()
            assert classify_vertex(bl, tl, tr, br) == vk

    def test_inadmissible(self):
        with pytest.raises(InvalidColoringError):
            classify_vertex(0, 1, 2, 0)  # bl == br while diagonals differ
        with pytest.raises(InvalidColoringError):
            classify_vertex(0, 0, 1, 2)


class TestWeights:
    def test_phi_zero_values(self):
        pr = params(0.2, 0.3)
        for r in range(3):
            zr = zeta(r, pr)
            a0 = raw_weight(ColoredVertexKind(VertexKind.ALPHA, Color(r)), 0.0, pr)
            assert a0 == pytest.approx(zr ** 0.25, rel=1e-12)
            b0 = raw_weight(ColoredVertexKind(VertexKind.BETA, Color(r)), 0.0, pr)
            assert b0 == pytest.approx(zr ** 0.25, rel=1e-12)
            g0 = raw_weight(ColoredVertexKind(VertexKind.GAMMA, Color(r)), 0.0, pr)
            want = zeta(r + 1, pr) ** 0.5 * zr ** 0.5
            assert g0 == pytest.approx(want, rel=1e-12)
            gp0 = raw_weight(ColoredVertexKind(VertexKind.GAMMA_P, Color(r)), 0.0, pr)
            assert gp0 == pytest.approx(zeta(r - 1, pr) ** 0.5 * zr ** 0.5, rel=1e-12)

    def test_color_shift_equals_lambda_shift(self):
        # X_{r+1}(phi | lambda) = X_r(phi | lambda + 2pi/3) for every kind
        rnd = random.Random(20)
        pr = params(0.2, 0.27)
        shifted = pr.shifted_lambda(2 * PI / 3)
        for kind in VertexKind:
            for r in range(3):
                phi = rnd.uniform(-1, 1)
                lhs = raw_weight(ColoredVertexKind(kind, Color(r + 1)), phi, pr)
                rhs = raw_weight(ColoredVertexKind(kind, Color(r)), phi, shifted)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta_shift_is_not_alpha(self):
        # the cross-kind variant of the shift law does not hold
        pr = params(0.2, 0.27)
        shifted = pr.shifted_lambda(2 * PI / 3)
        phi = 0.37
        lhs = raw_weight(ColoredVertexKind(VertexKind.BETA, Color(1)), phi, pr)
        rhs = raw_weight(ColoredVertexKind(VertexKind.ALPHA, Color(0)), phi, shifted)
        assert abs(lhs - rhs) > 1e-3

    def test_trigonometric_limit(self):
        # raw alpha over its p -> 0 limit tends to 1
        vk = ColoredVertexKind(VertexKind.ALPHA, Color(1))
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
                tw = tilde_weight(ColoredVertexKind(kind, Color(r)), phi, pr)
                assert tw == pytest.approx(weight6v(kind, phi, 2 * PI / 3), rel=1e-12)

    def test_tilde_beta_at_zero(self):
        pr = params(0.2, 0.3)
        for r in range(3):
            tb = tilde_weight(ColoredVertexKind(VertexKind.BETA, Color(r)), 0.0, pr)
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
                    vk = ColoredVertexKind(kind, Color(r))
                    bl, tl, tr, br = vk.corner_colors()
                    factor = phi_fn(tl, x) * phi_fn(br, x) / (phi_fn(bl, x) * phi_fn(tr, x))
                    lhs = tilde_weight(vk, x, pr)
                    rhs = factor * raw_weight(vk, x, pr)
                    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_branch_domain_guard(self):
        pr = EllipticParams.from_nome(0.2, lam=0.3 + 0.4j)
        with pytest.raises(BranchDomainError):
            raw_weight(ColoredVertexKind(VertexKind.ALPHA, Color(0)), 0.1, pr)


class TestQuasiPeriodicity:
    def test_tilde_pi_tau_law(self):
        pr = params(0.2, 0.26)
        for kind in VertexKind:
            for r in range(3):
                vk = ColoredVertexKind(kind, Color(r))
                assert tilde_quasi_period_residual(vk, 0.31, pr) < 1e-9

    def test_reduced_representatives_break_the_law(self):
        # reducing the corner labels mod 3 inside the cocycle ratio spoils it:
        # the cocycle is quadratic, not periodic, in the integer label
        pr = params(0.2, 0.26)
        vk = ColoredVertexKind(VertexKind.GAMMA, Color(2))
        bl, tl, tr, br = (int(Color(x)) for x in vk.corner_lifts())
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
            w = tilde_weight(ColoredVertexKind(VertexKind.GAMMA, Color(r)),
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
        base = (2, 0, a, pr, "tilde", DEFAULT_SERIES)
        others = [(2, 0, a, pr, "raw", DEFAULT_SERIES),
                  (2, 1, a, pr, "tilde", DEFAULT_SERIES),
                  (2, 0, a, params(0.2, 0.28), "tilde", DEFAULT_SERIES),
                  (2, 0, a, pr, "tilde", SeriesConfig(term_tolerance=1e-12))]
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
        a = SpectralAssignment(chi=[0.1] * 6, psi=[0.2] * 6)
        message = r"^dwbc n = 6 outside the enumeration guard 1\.\.5$"
        with pytest.raises(SizeGuardError, match=message):
            partial_partition_function(6, 0, a, params(0.2, 0.3))

    def test_lambda_shift_law(self):
        rnd = random.Random(24)
        pr = params(0.2, 0.2)
        a = assignment(rnd, 2)
        for r in range(3):
            lhs = partial_partition_function(2, r + 1, a, pr)
            rhs = partial_partition_function(2, r, a, pr.shifted_lambda(2 * PI / 3))
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

    def test_uncorrected_product_misses_constant(self):
        # without the (zeta_r/zeta_{r+n})^{1/12} constant the relation fails
        rnd = random.Random(29)
        pr = params(0.22, 0.26)
        a = assignment(rnd, 2)
        residuals = [phi_ratio_relation_check(2, r, a, pr, corrected=False)
                     for r in range(3)]
        assert max(residuals) > 1e-3

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
            rhs = F_rn(2, r, a, pr.shifted_lambda(2 * PI / 3))
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
