"""Six-vertex enumeration, weights, partition function, recursions, sums."""

import itertools
import math
import random

import pytest

from icelab import (DegenerateCrossingError, CrossingParameterError,
                    InvalidStateError, SizeGuardError, SpectralAssignment,
                    SixVertexState,
                    VertexKind, check_recursion_6v, enumerate_dwbc_states,
                    F_n_6v, functional_residual_6v, partition_function_6v,
                    trig_cubic_residual, weight6v)
from icelab.numutil import stable_sum
from icelab.sixvertex import _KIND_FROM_EDGES, _transfer_table

PI = math.pi
ETA0 = 2 * PI / 3

# domain-wall state counts, alternating-sign-matrix numbers
ASM = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}
A6 = 7436
F, T = False, True


def assignment(rnd, n, eta=ETA0):
    return SpectralAssignment(chi=[rnd.uniform(0, PI) for _ in range(n)],
                              psi=[rnd.uniform(0, PI) for _ in range(n)],
                              eta=eta)


def _loop_enumerate_dwbc(n):
    """Vertex-by-vertex backtracking reference for enumerate_dwbc_states: every
    (right, bottom) pair tried at each vertex against the two-in two-out rule,
    the states sorted by edge tuples afterwards."""
    states = []

    def fill_row(i, v_in, h_rows, v_rows):
        if i == n:
            if not any(v_in):
                states.append(SixVertexState(h=tuple(h_rows), v=tuple(v_rows) + (v_in,)))
            return

        def fill_vertex(j, left, hrow, vout):
            if j == n:
                if not left:  # rightmost horizontal arrow must point in (left)
                    fill_row(i + 1, tuple(vout), h_rows + [tuple(hrow) + (left,)],
                             v_rows + [v_in])
                return
            top = v_in[j]
            n_in = (1 if left else 0) + (0 if top else 1)
            for right in (False, True):
                for bottom in (False, True):
                    if n_in + (0 if right else 1) + (1 if bottom else 0) == 2:
                        fill_vertex(j + 1, right, hrow + [left], vout + [bottom])

        fill_vertex(0, True, [], [])

    fill_row(0, tuple([True] * n), [], [])
    states.sort(key=SixVertexState.sort_key)
    return states


def _loop_partition_function_6v(assign):
    """State-by-state reference for partition_function_6v: the vertex kinds
    walked with kind_at and the weights multiplied in row-major order."""
    n = assign.n
    terms = []
    for state in enumerate_dwbc_states(n):
        w = 1.0 + 0j
        for i in range(n):
            for j in range(n):
                w *= weight6v(state.kind_at(i, j), assign.chi[i] - assign.psi[j], assign.eta)
        terms.append(w)
    return stable_sum(terms)


def _transfer_paths(n):
    """Every path of row moves through the transfer table, depth first in
    table order, as the row-major tuple of its vertex codes."""
    table = _transfer_table(n)
    paths = []

    def descend(i, state, codes):
        if i == n:
            paths.append(codes)
            return
        _, moves, row_codes = table[i]
        for dst, _, picks in moves[state]:
            descend(i + 1, dst, codes + tuple(c[p] for c, p in zip(row_codes, picks)))

    descend(0, 0, ())
    return paths


def _izergin_korepin(assign):
    """Izergin-Korepin determinant for the domain-wall partition function,

        Z_n = sin(eta)^{n(n-1)} prod_{i,j} a_ij b_ij
              / prod_{i<j} sin(chi_i - chi_j) sin(psi_j - psi_i)
              * det[1 / (a_ij b_ij)],

    with a, b the alpha and beta weights at chi_i - psi_j.  Evaluated in
    40-digit arithmetic: the determinant and the sine product are both
    small when rapidities lie close together, and their ratio loses most
    of its digits in double precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n, eta = assign.n, mpmath.mpmathify(assign.eta)
        chi = [mpmath.mpmathify(x) for x in assign.chi]
        psi = [mpmath.mpmathify(x) for x in assign.psi]
        ab = [[mpmath.sin(eta / 2 - (x - y)) * mpmath.sin(eta / 2 + (x - y)) / mpmath.sin(eta) ** 2
               for y in psi] for x in chi]
        den = mpmath.mpf(1)
        for i, j in itertools.combinations(range(n), 2):
            den *= mpmath.sin(chi[i] - chi[j]) * mpmath.sin(psi[j] - psi[i])
        inv = mpmath.matrix([[1 / v for v in row] for row in ab])
        z = mpmath.sin(eta) ** (n * (n - 1)) * mpmath.fprod(v for row in ab for v in row)
        return complex(z / den * mpmath.det(inv))


class TestEnumeration:
    def test_counts(self):
        for n, count in ASM.items():
            assert len(enumerate_dwbc_states(n)) == count

    def test_n1_single_gamma(self):
        (state,) = enumerate_dwbc_states(1)
        assert state.kind_at(0, 0) is VertexKind.GAMMA

    def test_n2_brute_force(self):
        # all 2^4 interior-edge assignments, checked directly against the
        # ice rule and domain-wall boundary
        def valid(h1, v1, h2, v2):
            h = ((True, h1, False), (True, h2, False))
            v = ((True, True), (v1, v2), (False, False))
            try:
                SixVertexState(h=h, v=v)
            except Exception:
                return False
            return True

        count = sum(valid(*bits) for bits in itertools.product([False, True], repeat=4))
        assert count == 2
        assert len(enumerate_dwbc_states(2)) == count

    def test_states_valid_and_sorted(self):
        states = enumerate_dwbc_states(4)
        assert all(s.satisfies_dwbc() for s in states)
        keys = [s.sort_key() for s in states]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_odd_gamma_counts(self):
        for n in (1, 2, 3, 4):
            assert all(s.gamma_counts_odd() for s in enumerate_dwbc_states(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_loop_reference(self, n):
        states = enumerate_dwbc_states(n)
        assert [(s.h, s.v) for s in states] == \
            [(s.h, s.v) for s in _loop_enumerate_dwbc(n)]
        kinds = list(VertexKind)
        assert [tuple(kinds[kind] for kind, _ in path) for path in _transfer_paths(n)] == [
            tuple(s.kind_at(*divmod(vertex, n)) for vertex in range(n * n)) for s in states]

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_dwbc_states(8)
        with pytest.raises(SizeGuardError):
            enumerate_dwbc_states(0)


#: the ten (left, right, top, bottom) patterns that break the ice rule
NON_ICE = [(l, r, t, b) for l, r, t, b in itertools.product([F, T], repeat=4)
           if l - r - t + b != 0]


def _planted(state, i, j, edges):
    """state's edge arrays with vertex (i, j)'s four edges replaced."""
    h = [list(row) for row in state.h]
    v = [list(row) for row in state.v]
    h[i][j], h[i][j + 1], v[i][j], v[i + 1][j] = edges
    return tuple(map(tuple, h)), tuple(map(tuple, v))


class TestStateValidation:
    def test_ten_non_ice_patterns(self):
        assert len(NON_ICE) == 10
        assert set(itertools.product([F, T], repeat=4)) - set(NON_ICE) == set(_KIND_FROM_EDGES)
        interior = [(s, i, j) for s in enumerate_dwbc_states(4)
                    for i in (1, 2) for j in (1, 2)]
        for edges in NON_ICE:
            # keep the left and top edges, which the vertices before (i, j)
            # in row-major order share, so (i, j) is the first bad vertex
            state, i, j = next((s, i, j) for s, i, j in interior
                               if (s.h[i][j], s.v[i][j]) == (edges[0], edges[2]))
            h, v = _planted(state, i, j, edges)
            with pytest.raises(InvalidStateError) as exc:
                SixVertexState(h=h, v=v)
            assert str(exc.value) == f"ice rule violated at vertex ({i}, {j})", edges

    @pytest.mark.parametrize("h,v", [
        ((), ((T,),)),                                   # no rows
        (((T, F),), ((T,), (F,), (F,))),                 # one v row too many
        (((T, F),), ((T,),)),                            # one v row too few
        (((T, F),), ((), ())),                           # no columns
        (((T, F, F),), ((T,), (F,))),                    # h row too long
        (((T, F), (T, F)), ((T,), (F,), (F, F))),        # ragged v
        (((T, F), (T,)), ((T,), (F,), (F,))),            # ragged h
        (((T, F), (T, F, F)), ((T,), (F,), (F,))),       # ragged h, longer
    ])
    def test_shape_errors(self, h, v):
        with pytest.raises(InvalidStateError) as exc:
            SixVertexState(h=h, v=v)
        assert str(exc.value) == "edge arrays have inconsistent shapes"


class TestWeights:
    def test_gamma_is_one(self):
        rnd = random.Random(1)
        for _ in range(10):
            phi, eta = rnd.uniform(-2, 2), rnd.uniform(0.2, 3.0)
            assert weight6v(VertexKind.GAMMA, phi, eta) == 1
            assert weight6v(VertexKind.GAMMA_P, phi, eta) == 1

    def test_argument_collapse(self):
        eta = 1.3
        assert weight6v(VertexKind.BETA, eta / 2, eta) == pytest.approx(1.0)
        assert weight6v(VertexKind.ALPHA, 0.0, ETA0) == pytest.approx(
            math.sin(PI / 3) / math.sin(ETA0))
        assert weight6v(VertexKind.ALPHA, 0.0, ETA0) == pytest.approx(1.0)

    def test_degenerate_crossing(self):
        with pytest.raises(DegenerateCrossingError):
            weight6v(VertexKind.ALPHA, 0.3, 0.0)
        with pytest.raises(DegenerateCrossingError):
            weight6v(VertexKind.BETA, 0.3, PI)


def _bits(assign):
    """Every rapidity and eta as (real, imag) float pairs, with their types."""
    return [(type(x), x.real, x.imag) for x in (*assign.chi, *assign.psi, assign.eta)]


class TestSpectralAssignment:
    def test_derived_equal_public(self):
        # replace_chi, shift_chi, shift_psi and drop skip the coercion, yet
        # give the assignment the public constructor builds from the same values
        rnd = random.Random(5)
        a = assignment(rnd, 4, eta=1.3)
        chi, psi = list(a.chi), list(a.psi)
        cases = [
            (a.replace_chi(2, 1), chi[:1] + [1] + chi[2:], psi),
            (a.replace_chi(3, 0.4 - 0.2j), chi[:2] + [0.4 - 0.2j] + chi[3:], psi),
            (a.shift_chi(1, 0.25), [chi[0] + 0.25] + chi[1:], psi),
            (a.shift_psi(4, -0.5j), chi, psi[:3] + [psi[3] - 0.5j]),
            (a.drop(2, 3), chi[:1] + chi[2:], psi[:2] + psi[3:]),
            (a.drop(4, 1).drop(1, 1), chi[1:3], psi[2:]),
        ]
        for got, want_chi, want_psi in cases:
            want = SpectralAssignment(chi=want_chi, psi=want_psi, eta=a.eta)
            assert got == want
            assert hash(got) == hash(want)
            assert _bits(got) == _bits(want)

    def test_public_constructor_coerces(self):
        a = SpectralAssignment(chi=[1, 0.5, -0.0], psi=(2, 0.25j, 3.0), eta=2)
        assert all(type(x) is complex for x in (*a.chi, *a.psi, a.eta))
        assert isinstance(a.chi, tuple) and isinstance(a.psi, tuple)
        assert a.chi == (1 + 0j, 0.5 + 0j, 0j) and a.eta == 2 + 0j
        assert math.copysign(1.0, a.chi[2].real) == -1.0

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="^chi and psi must have equal length$"):
            SpectralAssignment(chi=[0.1, 0.2], psi=[0.3])
        # a derived assignment keeps the check: k = 0 removes no chi
        a = SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4])
        with pytest.raises(ValueError, match="^chi and psi must have equal length$"):
            a.drop(0, 1)


class TestPartitionFunction:
    def test_z1_is_one(self):
        rnd = random.Random(2)
        for _ in range(5):
            a = SpectralAssignment(chi=[rnd.uniform(0, PI)], psi=[rnd.uniform(0, PI)],
                                   eta=rnd.uniform(0.3, 2.8))
            assert partition_function_6v(a) == pytest.approx(1.0)

    def test_symmetry_in_chi_and_psi(self):
        rnd = random.Random(3)
        a = assignment(rnd, 3, eta=1.1)
        z = partition_function_6v(a)
        for perm in itertools.permutations(range(3)):
            chi = tuple(a.chi[i] for i in perm)
            zp = partition_function_6v(SpectralAssignment(chi=chi, psi=a.psi, eta=a.eta))
            assert zp == pytest.approx(z, rel=1e-12)
        psi = (a.psi[2], a.psi[0], a.psi[1])
        zp = partition_function_6v(SpectralAssignment(chi=a.chi, psi=psi, eta=a.eta))
        assert zp == pytest.approx(z, rel=1e-12)

    def test_pi_shift_parity(self):
        rnd = random.Random(4)
        for n in (2, 3, 4):
            a = assignment(rnd, n, eta=rnd.uniform(0.3, 2.8))
            z = partition_function_6v(a)
            zs = partition_function_6v(a.shift_chi(n, PI))
            assert zs == pytest.approx((-1) ** (n - 1) * z, rel=1e-12)

    def test_matches_loop_reference(self):
        rnd = random.Random(13)
        for n in range(1, 6):
            for shift in (0.0, 0.3j):
                a = assignment(rnd, n, eta=rnd.uniform(0.3, 2.8)).shift_chi(1, shift)
                assert partition_function_6v(a) == pytest.approx(
                    _loop_partition_function_6v(a), rel=1e-15)

    def test_izergin_korepin_determinant(self):
        # independent O(n^3) oracle; |chi_i - psi_j| < eta/4 keeps every
        # weight positive, so the state sum has no cancellation
        rnd = random.Random(14)
        for n in range(1, 7):
            eta = rnd.uniform(0.3, 2.8)
            a = SpectralAssignment(chi=[rnd.uniform(0, eta / 4) for _ in range(n)],
                                   psi=[rnd.uniform(0, eta / 4) for _ in range(n)], eta=eta)
            assert partition_function_6v(a) == pytest.approx(_izergin_korepin(a), rel=1e-12)

    def test_zero_rapidities_count_states(self):
        # at eta = 2pi/3 and chi = psi = 0 every weight is 1, so Z_n = A_n
        for n, count in {**ASM, 6: A6}.items():
            a = SpectralAssignment(chi=[0.0] * n, psi=[0.0] * n)
            assert partition_function_6v(a) == pytest.approx(count, rel=1e-12)

    @pytest.mark.parametrize("eta, x_enumeration", [
        # the x-enumerations A_n(x) of alternating sign matrices, x = 2 + 2 cos(eta)
        (2 * PI / 3, {n: math.prod(math.factorial(3 * k + 1) / math.factorial(n + k)
                                   for k in range(n)) for n in range(1, 8)}),
        (PI / 2, {n: 2 ** (n * (n - 1) // 2) for n in range(1, 8)}),
        (PI / 3, dict(enumerate([1, 2, 9, 90, 2025, 102060, 11573604], start=1))),
    ])
    def test_zero_rapidity_x_enumerations(self, eta, x_enumeration):
        # at chi = psi = 0, a = b = 1 / (2 cos(eta/2)) and c = 1; a state with
        # k reversed gamma pairs has n^2 - n - 2k alpha and beta vertices, so
        # Z_n = a^{n^2 - n} A_n(1 / a^2)
        a = 1 / (2 * math.cos(eta / 2))
        for n, count in x_enumeration.items():
            z = partition_function_6v(SpectralAssignment(chi=[0.0] * n, psi=[0.0] * n, eta=eta))
            assert z == pytest.approx(a ** (n * n - n) * count, rel=1e-13)

    def test_size_and_crossing_guards(self):
        # the row transfer lists no state, so the evaluator has its own guard
        with pytest.raises(SizeGuardError, match=r"^n = 8 outside the enumeration guard 1\.\.7$"):
            partition_function_6v(SpectralAssignment(chi=[0.1] * 8, psi=[0.2] * 8))
        # a degenerate crossing is reported before the size guard
        with pytest.raises(DegenerateCrossingError):
            partition_function_6v(SpectralAssignment(chi=[0.1] * 8, psi=[0.2] * 8, eta=PI))

    def test_f_n1(self):
        a = SpectralAssignment(chi=[0.9], psi=[0.2], eta=1.0)
        assert F_n_6v(a) == pytest.approx(math.sin(0.7))

    def test_summation_order_independent(self):
        # magnitude-sorted accumulation makes the state sum deterministic
        # under any enumeration order
        rnd = random.Random(0)
        terms = [complex(rnd.gauss(0, 10 ** rnd.randrange(-8, 8)), rnd.gauss(0, 1))
                 for _ in range(200)]
        reference = stable_sum(terms)
        for _ in range(5):
            rnd.shuffle(terms)
            assert stable_sum(terms) == reference

    def test_f_antisymmetry_and_zero(self):
        rnd = random.Random(5)
        a = assignment(rnd, 2, eta=1.2)
        f = F_n_6v(a)
        swapped = SpectralAssignment(chi=(a.chi[1], a.chi[0]), psi=a.psi, eta=a.eta)
        assert F_n_6v(swapped) == pytest.approx(-f, rel=1e-12)
        pinned = a.replace_chi(1, a.psi[0])
        assert abs(F_n_6v(pinned)) < 1e-14 * (1 + abs(f))


class TestRecursions:
    def test_n1_collapse_with_z0_convention(self):
        # at n = 1 both recursion sides reduce to 1 via Z_0 = 1
        a = SpectralAssignment(chi=[0.4], psi=[0.9], eta=1.3)
        assert check_recursion_6v(a, 1, 1, +1, form="Z") < 1e-14
        assert check_recursion_6v(a, 1, 1, -1, form="Z") < 1e-14

    def test_z_recursions_generic_eta(self):
        rnd = random.Random(6)
        for n in (2, 3, 4):
            for _ in range(3):
                a = assignment(rnd, n, eta=rnd.uniform(0.3, 2.8))
                k = rnd.randrange(1, n + 1)
                l = rnd.randrange(1, n + 1)
                assert check_recursion_6v(a, k, l, +1, form="Z") < 1e-10
                assert check_recursion_6v(a, k, l, -1, form="Z") < 1e-10

    def test_f_recursion_all_pins(self):
        rnd = random.Random(7)
        for n in (2, 3):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    a = assignment(rnd, n)
                    assert check_recursion_6v(a, k, l, +1, form="F") < 1e-10
                    assert check_recursion_6v(a, k, l, -1, form="F") < 1e-10

    def test_f_recursion_requires_combinatorial_eta(self):
        a = assignment(random.Random(8), 2, eta=1.0)
        with pytest.raises(CrossingParameterError):
            check_recursion_6v(a, 1, 1, +1, form="F")

    def test_index_guard(self):
        a = assignment(random.Random(9), 2)
        with pytest.raises(IndexError):
            check_recursion_6v(a, 3, 1, +1)


class TestFunctionalSums:
    def test_n1_three_sines(self):
        # F_1 = sin(chi - psi): each shifted term against its sine, then the sum
        a = SpectralAssignment(chi=[0.77], psi=[0.13])
        for s in range(3):
            term = F_n_6v(a.shift_chi(1, ETA0 * s))
            assert abs(term - math.sin(0.77 - 0.13 + 2 * PI * s / 3)) < 1e-15
        assert functional_residual_6v(a, 1, "chi") < 1e-15

    def test_sums_vanish(self):
        rnd = random.Random(10)
        for n in (2, 3):
            for _ in range(5):
                a = assignment(rnd, n)
                k = rnd.randrange(1, n + 1)
                assert functional_residual_6v(a, k, "chi") < 1e-10
                assert functional_residual_6v(a, k, "psi") < 1e-10
                # the opposite psi-shift direction also vanishes here
                assert functional_residual_6v(a, k, "psi", shift_sign=1) < 1e-10

    def test_eta_guard(self):
        a = assignment(random.Random(11), 2, eta=1.0)
        with pytest.raises(CrossingParameterError):
            functional_residual_6v(a, 1, "chi")

    def test_index_and_side_guards(self):
        # an out-of-range k and an unknown side are rejected instead of
        # shifting chi[-1] or treating the side as psi
        a = SpectralAssignment(chi=[0.3, 0.7], psi=[0.1, 0.5])
        for k in (0, 3):
            with pytest.raises(IndexError):
                functional_residual_6v(a, k, "chi")
        with pytest.raises(ValueError):
            functional_residual_6v(a, 1, "bogus")

    def test_trig_cubic_identity(self):
        rnd = random.Random(12)
        for _ in range(20):
            assert trig_cubic_residual(rnd.uniform(-3, 3)) < 1e-15
