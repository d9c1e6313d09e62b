"""Six-vertex enumeration, weights, partition function, recursions, sums."""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import icelab
from icelab import (DegenerateCrossingError, CrossingParameterError, EvaluationOverflowError,
                    InvalidStateError, NonFiniteParameterError, SizeGuardError,
                    SpectralAssignment,
                    SixVertexState,
                    VertexKind, check_recursion_6v, enumerate_dwbc_states,
                    F_n_6v, functional_residual_6v, partition_function_6v,
                    sixvertex_family, weight6v, ybe_sweep)
from icelab.numutil import stable_sum
from icelab.sixvertex import (MAX_ENUM_N, MAX_EVAL_N, _ALPHAS, _BETAS, _COMPLETIONS,
                              _KIND_FROM_EDGES, _KINDS, _row_moves, _sin_eta, _unchecked,
                              _vertex_sweep)

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
    states.sort(key=lambda s: (s.h, s.v))
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


def _asm_count(n):
    """A_n = prod_{k<n} (3k+1)! / (n+k)!, exactly."""
    return (math.prod(math.factorial(3 * k + 1) for k in range(n))
            // math.prod(math.factorial(n + k) for k in range(n)))


def _asm_3_enumeration_odd(n):
    """Kuperberg's 3-enumeration at odd n = 2m + 1,
    A_n(3) = 3^{m(m+1)} prod_{k=1}^{m} ((3k-1)! / (m+k)!)^2, exactly."""
    m = (n - 1) // 2
    num = math.prod(math.factorial(3 * k - 1) for k in range(1, m + 1)) ** 2
    den = math.prod(math.factorial(m + k) for k in range(1, m + 1)) ** 2
    assert 3 ** (m * (m + 1)) * num % den == 0
    return 3 ** (m * (m + 1)) * num // den


def _refined_asm_count(n, k):
    """Zeilberger's refined count of the n x n ASMs whose first row has its 1
    in column k, C(n+k-2, k-1) (2n-k-1)! / (n-k)! prod_{j<n-1} (3j+1)! / (n+j)!,
    exactly."""
    num = (math.comb(n + k - 2, k - 1) * math.factorial(2 * n - k - 1)
           * math.prod(math.factorial(3 * j + 1) for j in range(n - 1)))
    den = math.factorial(n - k) * math.prod(math.factorial(n + j) for j in range(n - 1))
    assert num % den == 0
    return num // den


#: Kronecker packing: one SLOT-bit slot per power, wider than any count here
#: (A_12 < 2^37)
SLOT = 72


def _unpack(total):
    """The SLOT-bit coefficients of a packed integer, lowest power first."""
    assert type(total) is int
    coeffs = []
    while total:
        coeffs.append(total & ((1 << SLOT) - 1))
        total >>= SLOT
    return coeffs


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


def _mp_sweep(chi, psi, eta):
    """partition_function_6v's vertex sweep over mpmath weights: call it
    under mpmath.workdps, with mpmath rapidities and eta."""
    mpmath = pytest.importorskip("mpmath")
    s, half = mpmath.sin(eta), eta / 2

    def weights(i, j, codes):
        phi = chi[i] - psi[j]
        a, b = mpmath.sin(half - phi) / s, mpmath.sin(half + phi) / s
        return [a if kind in _ALPHAS else b if kind in _BETAS else mpmath.mpf(1)
                for kind, _ in codes]

    return _vertex_sweep(len(chi), weights)


def _okada_stroganov(chi, psi, lam, const):
    """const * e^{-i(n-1)(sum chi + sum psi)} * s_lam(e^{2i chi}, e^{2i psi}),
    the Schur polynomial of the 2n variables x as the bialternant
    det(x_i^{lam_j + 2n - j}) / det(x_i^{2n - j}), j = 1..2n."""
    mpmath = pytest.importorskip("mpmath")
    xs = [mpmath.expj(2 * x) for x in chi + psi]
    m = len(xs)
    num, den = (mpmath.det(mpmath.matrix([[x ** (part + m - 1 - j) for j, part in enumerate(parts)]
                                          for x in xs]))
                for parts in (lam, [0] * m))
    return const * mpmath.expj(-(len(chi) - 1) * mpmath.fsum(chi + psi)) * num / den


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
        keys = [(s.h, s.v) for s in states]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_odd_gamma_counts(self):
        for n in (1, 2, 3, 4):
            assert all(s.gamma_counts_odd() for s in enumerate_dwbc_states(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_loop_reference(self, n):
        # the states, and with a fixed random complex weight per (i, j, kind)
        # the vertex sweep's sum of their products; with gamma and gamma'
        # swapped the sweep misses it
        states = _loop_enumerate_dwbc(n)
        assert [(s.h, s.v) for s in enumerate_dwbc_states(n)] == [(s.h, s.v) for s in states]
        rnd = random.Random(n)
        w = {(i, j, kind): complex(rnd.uniform(0.5, 1.5), rnd.uniform(-0.5, 0.5))
             for i in range(n) for j in range(n) for kind in VertexKind}
        want = stable_sum([math.prod(w[i, j, s.kind_at(i, j)] for i in range(n) for j in range(n))
                           for s in states])
        got = _vertex_sweep(n, lambda i, j, codes: [w[i, j, kind] for kind, _ in codes])
        assert got == pytest.approx(want, rel=1e-13)
        swapped = {VertexKind.GAMMA: VertexKind.GAMMA_P, VertexKind.GAMMA_P: VertexKind.GAMMA}
        wrong = _vertex_sweep(n, lambda i, j, codes: [w[i, j, swapped.get(kind, kind)]
                                                      for kind, _ in codes])
        assert wrong != pytest.approx(want, rel=1e-2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_states_pass_the_public_check(self, n):
        # the walk builds its states without the constructor's check
        for s in enumerate_dwbc_states(n):
            rebuilt = SixVertexState(s.h, s.v)
            assert rebuilt == s and hash(rebuilt) == hash(s)

    def test_ice_tables_entry_by_entry(self):
        # the walk's moves are chains of _COMPLETIONS entries and nothing
        # checks them at run time, so both tables are checked here over all
        # 16 edge tuples: a tuple has a kind iff two of its arrows point in
        # (left pointing right, right pointing left, top down, bottom up),
        # and (right, bottom, kind) completes (left, top) iff that is its kind
        for edges in itertools.product((F, T), repeat=4):
            left, right, top, bottom = edges
            arrows_in = left + (not right) + (not top) + bottom
            kind = _KIND_FROM_EDGES.get(edges)
            assert (kind is not None) == (arrows_in == 2)
            completions = {(r, b): k for r, b, k in _COMPLETIONS[left, top]}
            assert completions.get((right, bottom)) is kind
        assert len(_KIND_FROM_EDGES) == len(set(_KIND_FROM_EDGES.values())) == 6
        assert sum(map(len, _COMPLETIONS.values())) == 6
        assert all(entries == sorted(entries) for entries in _COMPLETIONS.values())

    def test_kind_table_columns_agree_under_the_arrow_map(self):
        # _KINDS is the one definition of the kinds, by edges and by faces
        # less the base color.  For every kind and base r the faces r +
        # offsets are a proper coloring whose arrows, mod 3, are the kind's
        # edges: the left edge points right iff bl = tl + 1, the right edge
        # iff br = tr + 1, the top edge up iff tr = tl + 1 and the bottom edge
        # up iff br = bl + 1.  The base is the bottom-left face of the alpha
        # kinds and the top-left face of the others
        assert list(_KINDS) == list(VertexKind)
        for kind, (edges, offsets) in _KINDS.items():
            assert offsets[0 if kind in _ALPHAS else 1] == 0
            for r in range(3):
                bl, tl, tr, br = (r + d for d in offsets)
                assert all((x - y) % 3 for x, y in ((bl, tl), (tl, tr), (tr, br), (br, bl)))
                arrows = ((bl - tl) % 3 == 1, (br - tr) % 3 == 1,
                          (tr - tl) % 3 == 1, (br - bl) % 3 == 1)
                assert arrows == edges, (kind, r)

    def test_row_moves_exhaustive(self):
        # every move under every vertical edge tuple the walk can meet, 254
        # tuples of widths 1..MAX_ENUM_N: one h edge per vertex plus the
        # entry edge, entering right and leaving left, one v edge per vertex,
        # every vertex obeying the ice rule, h rows ascending
        tuples = moves = 0
        for width in range(1, MAX_ENUM_N + 1):
            for v_in in itertools.product((F, T), repeat=width):
                row = _row_moves(v_in)
                assert [h for h, _ in row] == sorted({h for h, _ in row})
                for h, v in row:
                    assert len(h) == width + 1 and len(v) == width
                    assert h[0] and not h[-1]
                    SixVertexState(h=(h,), v=(v_in, v))  # raises on a broken vertex
                tuples += 1
                moves += len(row)
        assert (tuples, moves) == (254, 1636)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_dwbc_states(8)
        with pytest.raises(SizeGuardError):
            enumerate_dwbc_states(0)
        # 2.0 raised TypeError from the walk and True enumerated n = 1
        for n in (2.0, True, "3"):
            with pytest.raises(SizeGuardError, match=f"^n must be an int, got {n!r}$"):
                enumerate_dwbc_states(n)

    def test_states_released_with_the_list(self):
        # nothing but the bounded row-move table outlives the
        # returned list: a cache of every state's edge tuples kept about 2 MB
        # at n = 6 (58 MB at n = 7) after the caller dropped the states
        code = "\n".join([
            "import gc, tracemalloc",
            "from icelab import enumerate_dwbc_states",
            "tracemalloc.start()",
            "assert len(enumerate_dwbc_states(6)) == 7436",
            "gc.collect()",
            "kept = tracemalloc.get_traced_memory()[0]",
            "assert kept < 1 << 19, kept"])
        src = os.path.dirname(os.path.dirname(icelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr


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

    def test_list_rows_stored_as_tuples(self):
        state = SixVertexState(h=[[T, F]], v=[[T], [F]])
        want = SixVertexState(h=((T, F),), v=((T,), (F,)))
        assert state == want and hash(state) == hash(want)
        assert (state.h, state.v) == (((T, F),), ((T,), (F,)))
        assert type(state.h[0]) is tuple and type(state.v[1]) is tuple


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

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                             ids=["nan", "inf", "-inf", "nanj"])
    def test_non_finite_eta_raises(self, eta):
        # NaN failed abs(sin(eta)) < 1e-12 and returned NaN sums; inf raised
        # an untyped ValueError from sin.  The assignment refuses it when it
        # is built, with the one error of a parameter that is not finite
        for evaluate in (lambda: SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4], eta=eta),
                         lambda: weight6v(VertexKind.GAMMA, 0.3, eta),
                         lambda: _sin_eta(eta)):
            with pytest.raises(NonFiniteParameterError, match="^eta .* is not finite$"):
                evaluate()

    def test_overflowing_sin_eta_raises(self):
        # |sin(800i)| ~ e^800 / 2 is past the doubles: cmath's bare OverflowError
        # escaped from every evaluation at this eta
        a = SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4], eta=800j)
        for evaluate in (lambda: _sin_eta(800j),
                         lambda: partition_function_6v(a),
                         lambda: weight6v(VertexKind.ALPHA, 0.3, 800j),
                         lambda: check_recursion_6v(a, 1, 1, 1),
                         lambda: ybe_sweep(sixvertex_family(800j), 0.3, 0.1)):
            with pytest.raises(EvaluationOverflowError, match="^sin\\(eta\\) overflows") as err:
                evaluate()
            assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("evaluate", [
        lambda: partition_function_6v(SpectralAssignment(chi=[800j], psi=[0.0])),
        lambda: weight6v(VertexKind.ALPHA, 800j, 1.0),
        lambda: F_n_6v(SpectralAssignment(chi=[800j, 0.1], psi=[0.0, 0.2])),
        lambda: check_recursion_6v(SpectralAssignment(chi=[0.1, 800j], psi=[0.0, 0.2], eta=1.0),
                                   1, 1, 1),
        lambda: functional_residual_6v(SpectralAssignment(chi=[800j, 0.1], psi=[0.0, 0.2]), 1),
    ], ids=["partition_function_6v", "weight6v", "F_n_6v", "check_recursion_6v",
            "functional_residual_6v"])
    def test_overflowing_weight_raises(self, evaluate):
        # a finite eta, but sin(eta/2 +- phi) or sin(chi_i - psi_j) at
        # |Im phi| = 800 is past the doubles: cmath's bare OverflowError escaped
        with pytest.raises(EvaluationOverflowError) as err:
            evaluate()
        assert isinstance(err.value.__cause__, OverflowError)


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
        # the lengths are compared after the coercion, so generators count
        with pytest.raises(ValueError, match="^chi and psi must have equal length$"):
            SpectralAssignment(chi=(x for x in (0.1, 0.2)), psi=(x for x in (0.3,)))
        a = SpectralAssignment(chi=(x for x in (0.1, 0.2)), psi=iter([0.3, 0.4]))
        assert a == SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan),
                                     complex(0.1, -math.inf)])
    def test_non_finite_rapidity_raises(self, bad):
        # a NaN chi built and gave nan+nanj partition functions; an infinite one
        # failed later, in cmath or in a theta sum.  The error is a ValueError
        # as well as an IcelabError
        assert issubclass(NonFiniteParameterError, ValueError)
        assert issubclass(NonFiniteParameterError, icelab.IcelabError)
        for chi, psi in (([bad, 0.1], [0.2, 0.3]), ([0.1, 0.2], [0.3, bad])):
            with pytest.raises(NonFiniteParameterError, match="^rapidity .* is not finite$"):
                SpectralAssignment(chi=chi, psi=psi)
        a = SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4])
        for edit in (lambda: a.replace_chi(1, bad), lambda: a.shift_chi(2, bad),
                     lambda: a.shift_psi(1, bad)):
            with pytest.raises(NonFiniteParameterError, match="^rapidity .* is not finite$"):
                edit()
        # a finite shift past the double range is refused as well
        with pytest.raises(NonFiniteParameterError, match="^rapidity .* is not finite$"):
            a.replace_chi(1, 1e308).shift_chi(1, 1e308)

    @pytest.mark.parametrize("edit", [
        lambda a, k: a.replace_chi(k, 9.0), lambda a, k: a.shift_chi(k, 0.5),
        lambda a, k: a.shift_psi(k, 0.5), lambda a, k: a.drop(k, 1),
        lambda a, k: a.drop(1, k)])
    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_line_index_outside_range_raises(self, edit, k):
        # 1-based indices: 0 and -1 must not wrap round to the last line, and
        # 4 is past the end of a 3-line assignment
        a = SpectralAssignment(chi=[0.1, 0.2, 0.3], psi=[0.4, 0.5, 0.6])
        with pytest.raises(IndexError, match=f"^line index {k} outside 1..3$"):
            edit(a, k)
        assert edit(a, 3).n in (2, 3)


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
        for n in range(1, MAX_EVAL_N + 1):
            eta = rnd.uniform(0.3, 2.8)
            a = SpectralAssignment(chi=[rnd.uniform(0, eta / 4) for _ in range(n)],
                                   psi=[rnd.uniform(0, eta / 4) for _ in range(n)], eta=eta)
            assert partition_function_6v(a) == pytest.approx(_izergin_korepin(a), rel=1e-12)

    def test_okada_stroganov_schur_polynomial(self):
        # at eta = 2pi/3, Z_n = 3^{-n(n-1)/2} e^{-i(n-1)(sum chi + sum psi)}
        # s_lam(e^{2i chi}, e^{2i psi}) with lam = (n-1, n-1, ..., 0, 0)
        # (Okada 2006, Stroganov 2006), here through the vertex sweep at 40
        # digits; the constant times 3, one part of lam raised by 1 and eta
        # off by 0.1 each miss by more than 1e-3 (eta cannot miss at n = 1,
        # where Z_1 = 1)
        mpmath = pytest.importorskip("mpmath")
        rnd = random.Random(15)
        with mpmath.workdps(40):
            eta = 2 * mpmath.pi / 3
            for n in range(1, 9):
                lam = [n - 1 - j // 2 for j in range(2 * n)]
                raised = lam[:-2] + [lam[-2] + 1, lam[-1]]
                const = mpmath.mpf(3) ** -(n * (n - 1) // 2)
                for draw in range(2):
                    chi, psi = ([mpmath.mpf(rnd.uniform(0, PI)) for _ in range(n)] for _ in "cp")
                    z = _mp_sweep(chi, psi, eta)
                    schur = _okada_stroganov(chi, psi, lam, const)
                    assert abs(schur - z) < 1e-30 * abs(z), n
                    if draw:
                        continue
                    for wrong in (3 * schur, _okada_stroganov(chi, psi, raised, const)):
                        assert abs(wrong - z) > 1e-3 * abs(z), n
                    if n > 1:
                        z_off = _mp_sweep(chi, psi, eta + 0.1)
                        assert abs(schur - z_off) > 1e-3 * abs(z_off), n

    def test_zero_rapidities_count_states(self):
        # at eta = 2pi/3 and chi = psi = 0 every weight is 1, so Z_n = A_n
        for n, count in {**ASM, 6: A6}.items():
            a = SpectralAssignment(chi=[0.0] * n, psi=[0.0] * n)
            assert partition_function_6v(a) == pytest.approx(count, rel=1e-12)

    @pytest.mark.parametrize("eta, x_enumeration", [
        # the x-enumerations A_n(x) of alternating sign matrices, x = 2 + 2 cos(eta),
        # up to the evaluation guard: x = 1 and 2 in closed form, x = 3 listed
        # to n = 7 and at odd n by Kuperberg's product
        (2 * PI / 3, {n: _asm_count(n) for n in range(1, MAX_EVAL_N + 1)}),
        (PI / 2, {n: 2 ** (n * (n - 1) // 2) for n in range(1, MAX_EVAL_N + 1)}),
        (PI / 3, {**dict(enumerate([1, 2, 9, 90, 2025, 102060, 11573604], start=1)),
                  **{n: _asm_3_enumeration_odd(n) for n in range(9, MAX_EVAL_N + 1, 2)}}),
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
        # the vertex sweep lists no state, so it has a guard of its own, above
        # the enumeration guard
        n = MAX_EVAL_N + 1
        message = r"^n = 13 outside the evaluation guard 0\.\.12$"
        with pytest.raises(SizeGuardError, match=message):
            partition_function_6v(SpectralAssignment(chi=[0.1] * n, psi=[0.2] * n))
        # a degenerate crossing is reported before the size guard
        with pytest.raises(DegenerateCrossingError):
            partition_function_6v(SpectralAssignment(chi=[0.1] * n, psi=[0.2] * n, eta=PI))
        with pytest.raises(SizeGuardError, match=r"^n = 8 outside the enumeration guard 1\.\.7$"):
            enumerate_dwbc_states(8)

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


class TestExactSweep:
    """The vertex sweep over Python-int weights: exact alternating-sign-matrix
    counts, no tolerance anywhere."""

    def test_x_enumeration_polynomial(self):
        # gamma weight 2^72 packs sum_k A_n[k] x^k, k the number of -1 entries,
        # into one integer: a state with k of them has n + 2k gamma vertices
        for n in range(1, MAX_EVAL_N + 1):
            coeffs = _unpack(_vertex_sweep(n, lambda i, j, codes: [
                1 << SLOT if kind.is_gamma else 1 for kind, _ in codes]))
            assert not any(coeffs[:n]) and not any(coeffs[n + 1::2])
            poly = coeffs[n::2]
            assert sum(poly) == _asm_count(n)
            assert sum(c << k for k, c in enumerate(poly)) == 2 ** (n * (n - 1) // 2)
            if n % 2:
                assert sum(c * 3 ** k for k, c in enumerate(poly)) == _asm_3_enumeration_odd(n)

    def test_refined_enumeration(self):
        # row 0 of an ASM holds one 1 and no -1, so weighting row 0's gamma
        # vertex at column j by 2^{72 j} packs the counts by the 1's column
        for n in range(1, MAX_EVAL_N + 1):
            total = _vertex_sweep(n, lambda i, j, codes: [
                1 << SLOT * j if i == 0 and kind.is_gamma else 1 for kind, _ in codes])
            assert _unpack(total) == [_refined_asm_count(n, k) for k in range(1, n + 1)]


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

    def test_z_recursion_all_pins_generic_eta(self):
        # verify pins one drawn (k, l) per draw; every pin is checked here
        rnd = random.Random(9)
        for n in (2, 3):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    a = assignment(rnd, n, eta=rnd.uniform(0.3, 2.8))
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

    def test_sign_and_form_guards(self):
        a = assignment(random.Random(9), 2)
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="^sign must be \\+1 or -1$"):
                check_recursion_6v(a, 1, 1, sign)
        for form in ("z", "X", ""):
            with pytest.raises(ValueError, match="^form must be 'Z' or 'F'$"):
                check_recursion_6v(a, 1, 1, +1, form=form)


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
                terms = [F_n_6v(a.shift_psi(k, ETA0 * s)) for s in range(3)]
                assert abs(sum(terms)) < 1e-10 * max(map(abs, terms))

    def test_eta_guard(self):
        a = assignment(random.Random(11), 2, eta=1.0)
        with pytest.raises(CrossingParameterError):
            functional_residual_6v(a, 1, "chi")

    @pytest.mark.parametrize("eta", [math.nan, complex(0, math.nan)], ids=["nan", "nanj"])
    def test_nan_eta_gets_the_crossing_error(self, eta):
        # abs(eta - 2pi/3) > 1e-12 is False for NaN: the sums let NaN through
        # and failed later, in sin(eta), with DegenerateCrossingError.  The
        # public constructor now refuses a NaN eta; one built past its check
        # still meets the crossing guard first
        with pytest.raises(NonFiniteParameterError, match="^eta .* is not finite$"):
            SpectralAssignment(chi=[0.1, 0.2], psi=[0.3, 0.4], eta=eta)
        a = _unchecked(SpectralAssignment)((0.1 + 0j, 0.2 + 0j), (0.3 + 0j, 0.4 + 0j),
                                           complex(eta))
        for evaluate in (lambda: functional_residual_6v(a, 1, "chi"),
                         lambda: check_recursion_6v(a, 1, 1, 1, form="F")):
            with pytest.raises(CrossingParameterError, match="^functional sums require eta"):
                evaluate()

    def test_index_and_side_guards(self):
        # an out-of-range k and an unknown side are rejected instead of
        # shifting chi[-1] or treating the side as psi
        a = SpectralAssignment(chi=[0.3, 0.7], psi=[0.1, 0.5])
        for k in (0, 3):
            with pytest.raises(IndexError):
                functional_residual_6v(a, k, "chi")
        with pytest.raises(ValueError):
            functional_residual_6v(a, 1, "bogus")
