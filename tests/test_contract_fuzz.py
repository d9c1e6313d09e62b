"""Contract fuzz: no bare exception leaves the public API.

Every callable that icelab exports, bar the error types, is called with
arguments drawn from usual values mixed with extremes: huge real and
imaginary parts, +-inf, NaN, subnormals, p = 0 and p near 1, and complex
lambda.  A call may return a value, raise an IcelabError, or raise the
ValueError or TypeError of icelab's own argument checks.  cmath's "math
domain error" and "math range error", OverflowError, ZeroDivisionError,
IndexError and every other exception fail the test.  So does a value with a
NaN in it, where every input is finite: a silently wrong number.

The weight families and gauges are called through their weights, the
classes through their constructors (and a method where one computes).  Line
indices k and l are drawn inside 1..n, where IndexError is the documented
answer of SpectralAssignment and the recursions.  n stays at most 2.
"""

import cmath
import dataclasses
import inspect
import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import icelab
from icelab import (DEFAULT_SERIES, BoundaryCondition, ColoredVertexKind, ColoringCensus,
                    EllipticParams, F_n_6v, F_rn, FaceWeightParams, GaugeData, GridColoring,
                    IcelabError, SeriesConfig, SixVertexState, SpectralAssignment,
                    VertexKind, WeightFamily, YbeSweep, appendix_family,
                    appendix_substitution, apply_gauge_kindwise, check_recursion_3c,
                    check_recursion_6v, classify_vertex, compute_census, cubic_factor_D,
                    dwbc_boundary, enumerate_colorings, enumerate_dwbc_states,
                    functional_residual_3c, functional_residual_6v,
                    gauge_constraint_residual, iter_colorings, lenard_map,
                    partial_partition_function, partition_function_6v, phi_ratio_factor,
                    phi_ratio_relation_check, psi_factor, quasi_period_factor, raw_family,
                    raw_weight, rosengren_family, rosengren_gauge, rosengren_match,
                    sixvertex_family, theta1, theta1_prime_at_zero, theta1_reduced, theta4,
                    tilde_family, tilde_quasi_period_residual, tilde_weight, weight6v,
                    ybe_sweep, zeta, zeta_gauge, zeta_log_table)

EXPORTED = sorted(name for name, obj in vars(icelab).items()
                  if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
                  and not (isinstance(obj, type) and issubclass(obj, BaseException)))

FINITE_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e5, -2000.0, 800.0, 1e300, -1e300,
                   1.7e308]
reals = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(FINITE_EXTREMES + [math.inf, -math.inf,
                                                                           math.nan]))
finite_reals = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(FINITE_EXTREMES))
complexes = st.builds(complex, reals, st.one_of(st.just(0.0), reals))
finite_complexes = st.builds(complex, finite_reals, st.one_of(st.just(0.0), finite_reals))
nomes = st.one_of(st.floats(-0.9, 0.9),
                  st.sampled_from([0.0, 1e-300, 1e-100, 1e-66, 0.2, 0.5, -0.5, 0.9, 0.99,
                                   0.999999, 1 - 2 ** -53, 0.3j, 0.2 + 0.2j, -0.1 - 0.6j]))
series = st.sampled_from([DEFAULT_SERIES, SeriesConfig(1e-13, 40), SeriesConfig(1e-15, 10)])
params = st.builds(EllipticParams.from_nome, nomes, st.one_of(finite_reals, complexes), series)
kinds = st.sampled_from(list(VertexKind))
vertices = st.builds(ColoredVertexKind, kinds, st.integers(0, 2))
ints = st.one_of(st.integers(-4, 4), st.sampled_from([-10 ** 6, 10 ** 6, 2 ** 70]))
signs = st.sampled_from([1, -1, 1, -1, 0, 2])
forms = st.sampled_from(["Z", "F", "Z", "F", "X"])
sides = st.sampled_from(["chi", "psi", "chi", "psi", "x"])
grid_sizes = st.sampled_from([-1, 0, 1, 2, 3, 26, 10 ** 6])
bcs = st.sampled_from(["free", "toroidal", "dwbc", "x"])
corners = st.sampled_from([None, 0, 1, 2, 3, -1])
families = st.one_of(
    st.tuples(st.sampled_from([raw_family, tilde_family, appendix_family,
                               appendix_substitution, rosengren_family]), params),
    st.tuples(st.just(sixvertex_family), complexes))
gauges = st.tuples(st.sampled_from([zeta_gauge, rosengren_gauge]), params)


@st.composite
def assignments(draw, n_min=0):
    n = draw(st.integers(n_min, 2))
    # every rapidity and eta finite: the constructor refuses the others, and
    # the "SpectralAssignment" entry calls it with them
    chi, psi = (draw(st.lists(finite_complexes, min_size=n, max_size=n)) for _ in range(2))
    return SpectralAssignment(chi=chi, psi=psi, eta=draw(st.one_of(st.floats(0.3, 3.0),
                                                                   finite_complexes)))


@st.composite
def pinned(draw):
    """(assign, k, l): an assignment with n >= 1 and two line indices in 1..n."""
    a = draw(assignments(n_min=1))
    return a, draw(st.integers(1, a.n)), draw(st.integers(1, a.n))


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[draw(st.integers(-1, 3)) for _ in range(cols)] for _ in range(rows)]


def _ybe(fam, phi, php):
    return ybe_sweep(fam[0](fam[1]), phi, php)


def _gauged(fam, gauge, kind, r, phi):
    return apply_gauge_kindwise(fam[0](fam[1]), gauge[0](gauge[1])).weight(kind, r, phi)


#: name -> (how to call it, a strategy of its argument tuples)
CALLS = {
    "BoundaryCondition": (BoundaryCondition, st.tuples(bcs)),
    "ColoredVertexKind": (ColoredVertexKind, st.tuples(kinds, ints)),
    "ColoringCensus": (
        lambda counts, z: ColoringCensus(2, 2, BoundaryCondition.FREE, counts)
        .generating_function(FaceWeightParams(*z)),
        st.tuples(st.dictionaries(st.tuples(*[st.integers(0, 400)] * 3), st.integers(1, 10 ** 6),
                                  max_size=3), st.tuples(complexes, complexes, complexes))),
    "EllipticParams": (lambda p, lam: EllipticParams(p, lam).tau, st.tuples(complexes, complexes)),
    "F_n_6v": (F_n_6v, st.tuples(assignments())),
    "F_rn": (lambda r, a, prm: F_rn(a.n, r, a, prm), st.tuples(ints, assignments(), params)),
    "FaceWeightParams": (FaceWeightParams, st.tuples(complexes, complexes, complexes)),
    "GaugeData": (lambda c, shift, phi: GaugeData(C=lambda m: c, Phi=lambda m, x: x,
                                                  shift=shift).Phi(1, phi),
                  st.tuples(complexes, complexes, complexes)),
    "GridColoring": (lambda faces: GridColoring(faces).is_proper(), st.tuples(grids())),
    "SeriesConfig": (SeriesConfig, st.tuples(reals, ints)),
    "SixVertexState": (
        SixVertexState, st.integers(1, 3).flatmap(lambda n: st.tuples(
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n - 1,
                     max_size=n + 1).map(lambda rows: tuple(map(tuple, rows))),
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n,
                     max_size=n + 1).map(lambda rows: tuple(map(tuple, rows)))))),
    "SpectralAssignment": (SpectralAssignment, st.tuples(
        st.lists(complexes, max_size=2), st.lists(complexes, max_size=2), complexes)),
    "VertexKind": (VertexKind, st.tuples(st.one_of(ints, st.text(max_size=3)))),
    "WeightFamily": (lambda phi: WeightFamily(lambda x: [x] * 18).weight(VertexKind.BETA, 2, phi),
                     st.tuples(complexes)),
    "YbeSweep": (YbeSweep, st.tuples(reals, ints, ints)),
    "appendix_family": (lambda prm, v, phi: appendix_family(prm).weight(v.kind, v.r, phi),
                        st.tuples(params, vertices, complexes)),
    "appendix_substitution": (
        lambda prm, v, phi: appendix_substitution(prm).weight(v.kind, v.r, phi),
        st.tuples(params, vertices, complexes)),
    "apply_gauge_kindwise": (_gauged, st.tuples(families, gauges, kinds, st.integers(0, 2),
                                                complexes)),
    "check_recursion_3c": (
        lambda r, akl, sign, prm, form: check_recursion_3c(akl[0].n, r, akl[1], akl[2], sign,
                                                           akl[0], prm, form),
        st.tuples(ints, pinned(), signs, params, forms)),
    "check_recursion_6v": (lambda akl, sign, form: check_recursion_6v(*akl, sign, form),
                           st.tuples(pinned(), signs, forms)),
    "classify_vertex": (classify_vertex, st.tuples(ints, ints, ints, ints)),
    "compute_census": (compute_census, st.tuples(grid_sizes, grid_sizes, bcs, corners)),
    "cubic_factor_D": (cubic_factor_D, st.tuples(params)),
    "dwbc_boundary": (dwbc_boundary, st.tuples(st.integers(-2, 6), ints)),
    "enumerate_colorings": (enumerate_colorings, st.tuples(grid_sizes, grid_sizes, bcs, corners)),
    "enumerate_dwbc_states": (enumerate_dwbc_states, st.tuples(
        st.sampled_from([-1, 0, 1, 2, 3, 10 ** 6]))),
    "functional_residual_3c": (
        lambda r, akl, side, prm: functional_residual_3c(akl[0].n, r, akl[1], side, akl[0], prm),
        st.tuples(ints, pinned(), sides, params)),
    "functional_residual_6v": (lambda akl, side: functional_residual_6v(akl[0], akl[1], side),
                               st.tuples(pinned(), sides)),
    "gauge_constraint_residual": (
        lambda gauge, pairs: gauge_constraint_residual(gauge[0](gauge[1]), pairs),
        st.tuples(gauges, st.lists(st.tuples(complexes, complexes), max_size=2))),
    "iter_colorings": (lambda *args: list(itertools.islice(iter_colorings(*args), 3)),
                       st.tuples(grid_sizes, grid_sizes, bcs, corners)),
    "lenard_map": (lambda faces: lenard_map(GridColoring(faces)), st.tuples(grids())),
    "partial_partition_function": (
        lambda r, a, prm, which: partial_partition_function(a.n, r, a, prm, which),
        st.tuples(ints, assignments(), params, st.sampled_from(["raw", "tilde", "x"]))),
    "partition_function_6v": (partition_function_6v, st.tuples(assignments())),
    "phi_ratio_factor": (lambda r, a, prm: phi_ratio_factor(a.n, r, a, prm),
                         st.tuples(ints, assignments(), params)),
    "phi_ratio_relation_check": (lambda r, a, prm: phi_ratio_relation_check(a.n, r, a, prm),
                                 st.tuples(ints, assignments(), params)),
    "psi_factor": (psi_factor, st.tuples(ints, params)),
    "quasi_period_factor": (quasi_period_factor, st.tuples(complexes, params)),
    "raw_family": (lambda prm, v, phi: raw_family(prm).weight(v.kind, v.r, phi),
                   st.tuples(params, vertices, complexes)),
    "raw_weight": (raw_weight, st.tuples(vertices, complexes, params)),
    "rosengren_family": (lambda prm, v, phi: rosengren_family(prm).weight(v.kind, v.r, phi),
                         st.tuples(params, vertices, complexes)),
    "rosengren_gauge": (lambda prm, m, phi: (rosengren_gauge(prm).C(m),
                                             rosengren_gauge(prm).Phi(m, phi)),
                        st.tuples(params, ints, complexes)),
    "rosengren_match": (rosengren_match, st.tuples(params, st.lists(complexes, max_size=2))),
    "sixvertex_family": (lambda eta, kind, phi: sixvertex_family(eta).weight(kind, 0, phi),
                         st.tuples(complexes, kinds, complexes)),
    "theta1": (theta1, st.tuples(complexes, params)),
    "theta1_prime_at_zero": (theta1_prime_at_zero, st.tuples(params)),
    "theta1_reduced": (theta1_reduced, st.tuples(complexes, params)),
    "theta4": (theta4, st.tuples(complexes, params)),
    "tilde_family": (lambda prm, v, phi: tilde_family(prm).weight(v.kind, v.r, phi),
                     st.tuples(params, vertices, complexes)),
    "tilde_quasi_period_residual": (tilde_quasi_period_residual,
                                    st.tuples(vertices, complexes, params)),
    "tilde_weight": (tilde_weight, st.tuples(vertices, complexes, params)),
    "weight6v": (weight6v, st.tuples(kinds, complexes, complexes)),
    "ybe_sweep": (_ybe, st.tuples(families, complexes, complexes)),
    "zeta": (zeta, st.tuples(ints, params)),
    "zeta_gauge": (lambda prm, m, phi: zeta_gauge(prm).Phi(m, phi), st.tuples(params, ints,
                                                                              complexes)),
    "zeta_log_table": (zeta_log_table, st.tuples(params)),
}

def test_every_export_has_a_strategy():
    # an export without a strategy would fail only as a KeyError inside the
    # fuzz's generation
    missing, extra = sorted(set(EXPORTED) - set(CALLS)), sorted(set(CALLS) - set(EXPORTED))
    assert set(CALLS) == set(EXPORTED), (f"exports without a strategy: {missing}; "
                                         f"strategies for no export: {extra}")


def _numbers(value):
    """Every int, float and complex in value, through tuples, lists, dicts
    (keys and values) and dataclass fields."""
    if isinstance(value, (int, float, complex)):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))


def _finite(value) -> bool:
    return all(isinstance(x, int) or cmath.isfinite(x) for x in _numbers(value))


def _has_nan(value) -> bool:
    return any(not isinstance(x, int) and cmath.isnan(x) for x in _numbers(value))


P0 = EllipticParams.from_nome(0.0, lam=0.4)
P = EllipticParams.from_nome(0.2, lam=0.4)
N2 = SpectralAssignment(chi=(0.3, 0.1), psi=(0.2, 0.5))
BIG = 1.7e308


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(EXPORTED).flatmap(
    lambda name: st.tuples(st.just(name), CALLS[name][1])))
@example(case=("check_recursion_3c", (1, (N2, 1, 2), -1, P0, "Z")))
@example(case=("check_recursion_3c", (1, (N2, 1, 2), -1, P0, "F")))
@example(case=("apply_gauge_kindwise", ((appendix_family, P), (rosengren_gauge, P),
                                        VertexKind.GAMMA, 1, 800j)))
@example(case=("apply_gauge_kindwise", ((appendix_family, P), (rosengren_gauge, P),
                                        VertexKind.GAMMA, 1, complex(math.inf))))
@example(case=("rosengren_match", (P, [1e5])))
@example(case=("gauge_constraint_residual", ((rosengren_gauge, P), [(math.inf, 0.3)])))
@example(case=("gauge_constraint_residual", ((zeta_gauge, P), [(math.nan, 0.3)])))
@example(case=("gauge_constraint_residual", ((rosengren_gauge, P), [(1e5, 1e5)])))
# what the fuzz found: a product of finite inputs that overflowed to inf
# before cmath saw it, and abs() of a complex past the doubles
@example(case=("theta1", (BIG, P)))
@example(case=("zeta_log_table", (EllipticParams.from_nome(0.5, lam=BIG),)))
@example(case=("raw_weight", (ColoredVertexKind(VertexKind.ALPHA, 0), BIG, P)))
@example(case=("appendix_family", (P, ColoredVertexKind(VertexKind.ALPHA, 0), BIG)))
@example(case=("quasi_period_factor", (BIG, P)))
@example(case=("psi_factor", (2 ** 70, EllipticParams.from_nome(0.0, lam=1e300))))
@example(case=("partition_function_6v", (SpectralAssignment(chi=[0.0], psi=[BIG], eta=BIG),)))
@example(case=("EllipticParams", (complex(BIG, BIG), 0.0)))
@example(case=("functional_residual_6v", (
    (SpectralAssignment(chi=[0.1], psi=[0.2], eta=complex(BIG, BIG)), 1, 1), "chi")))
# NaN from finite inputs: an exponent that overflowed to inf times log zeta = 0,
# exp(-2i phi) past the doubles, and a gauge factor Phi ratio past the doubles
@example(case=("raw_weight", (ColoredVertexKind(VertexKind.ALPHA, 0), -BIG,
                              EllipticParams.from_nome(0.0))))
@example(case=("quasi_period_factor", (BIG * 1j, EllipticParams.from_nome(0.5))))
@example(case=("apply_gauge_kindwise", ((sixvertex_family, 1e5),
                                        (zeta_gauge, EllipticParams.from_nome(0.25)),
                                        VertexKind.ALPHA, 0, -2000.0)))
def test_no_bare_exception_leaves_the_public_api(case):
    name, args = case
    call = CALLS[name][0]
    try:
        value = call(*args)
    except IcelabError:
        return
    except (ValueError, TypeError) as exc:
        assert not str(exc).startswith("math "), f"{name}{args}: bare cmath {exc!r}"
        return
    assert not (_finite(args) and _has_nan(value)), f"{name}{args}: NaN from finite inputs"
