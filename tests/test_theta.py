"""Theta kernel: series oracles, symmetry laws, quasi-periodicity, cubing."""

import cmath
import dataclasses
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icelab import (EllipticParams, EvaluationOverflowError, NomeDomainError,
                    NonFiniteParameterError, PoleError, SeriesTruncationError, cubic_factor_D,
                    quasi_period_factor, theta1, theta1_prime_at_zero, theta1_reduced, theta4,
                    zeta, zeta_log_table)
from icelab.theta import _IH, _LOG_2, _STOP_MARGIN, _nome_powers, _series_sum

PI = math.pi


# --- independent oracle: direct 20-term summation of the defining series ---

def oracle_theta1(phi, p, terms=20):
    return sum(2 * (-1) ** k * p ** ((k + 0.5) ** 2) * math.sin((2 * k + 1) * phi)
               for k in range(terms))


def oracle_theta4(phi, p, terms=20):
    return 1 + sum(2 * (-1) ** k * p ** (k * k) * math.cos(2 * k * phi)
                   for k in range(1, terms))


def oracle_theta1_prime(p, terms=20):
    return sum(2 * (-1) ** k * (2 * k + 1) * p ** ((k + 0.5) ** 2) for k in range(terms))


# values frozen from the oracle above
GOLDEN_THETA1_HALFPI_P01 = 1.1359306015682802
GOLDEN_THETA1_07_P025 = 0.8346427097673987
GOLDEN_THETA4_0_P01 = 0.8001999980000002
GOLDEN_THETA4_07_P025 = 0.9076590572677845
GOLDEN_THETA1PRIME_P01 = 1.0909477942746564
GOLDEN_ZETA0_L03_P01 = 1.66687846137952
GOLDEN_D_P01 = 0.97000596999994
GOLDEN_D_P02 = 0.8803763190185327


def params(p, lam=0.0):
    return EllipticParams.from_nome(p, lam=lam)


class TestSeriesValues:
    def test_theta1_golden(self):
        assert theta1(PI / 2, params(0.1)) == pytest.approx(GOLDEN_THETA1_HALFPI_P01, rel=1e-14)
        assert theta1(0.7, params(0.25)) == pytest.approx(GOLDEN_THETA1_07_P025, rel=1e-14)
        # and against a fresh oracle run
        assert theta1(PI / 2, params(0.1)) == pytest.approx(oracle_theta1(PI / 2, 0.1), rel=1e-14)

    def test_theta4_golden(self):
        assert theta4(0.0, params(0.1)) == pytest.approx(GOLDEN_THETA4_0_P01, rel=1e-14)
        assert theta4(0.7, params(0.25)) == pytest.approx(GOLDEN_THETA4_07_P025, rel=1e-14)
        assert theta4(0.7, params(0.25)) == pytest.approx(oracle_theta4(0.7, 0.25), rel=1e-14)

    def test_theta1_prime_golden(self):
        assert theta1_prime_at_zero(params(0.1)) == pytest.approx(GOLDEN_THETA1PRIME_P01, rel=1e-14)
        assert theta1_prime_at_zero(params(0.1)) == pytest.approx(oracle_theta1_prime(0.1), rel=1e-14)

    def test_theta1_odd_at_zero(self):
        for p in (0.0, 0.1, 0.4):
            assert theta1(0.0, params(p)) == 0

    def test_theta4_at_p_zero(self):
        for phi in (0.0, 0.3, 2.1):
            assert theta4(phi, params(0.0)) == 1

    def test_theta1_prime_at_p_zero(self):
        assert theta1_prime_at_zero(params(0.0)) == 0

    def test_theta1_reduced_matches_ratio(self):
        # theta1(x)/theta1(y) equals the reduced-series ratio
        pr = params(0.23)
        x, y = 0.61, 1.13
        lhs = theta1(x, pr) / theta1(y, pr)
        rhs = theta1_reduced(x, pr) / theta1_reduced(y, pr)
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert theta1_reduced(0.7, params(0.0)) == pytest.approx(2 * math.sin(0.7))


class TestArbitraryPrecisionOracle:
    # mpmath.jtheta(n, z, q) uses the same nome convention, q = p
    POINTS = [(p, phi) for p in (0.01, 0.2, 0.5)
              for phi in (0.4 + 0.3j, 2.0 - 0.5j, 0.7, -2.3)]

    @staticmethod
    def jtheta(n, phi, p, derivative=0):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return complex(mpmath.jtheta(n, mpmath.mpc(phi), mpmath.mpf(p), derivative))

    @pytest.mark.parametrize("p, phi", POINTS)
    def test_theta1_and_theta4(self, p, phi):
        assert theta1(phi, params(p)) == pytest.approx(self.jtheta(1, phi, p), rel=1e-14)
        assert theta4(phi, params(p)) == pytest.approx(self.jtheta(4, phi, p), rel=1e-14)

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.5])
    def test_theta1_prime_at_zero(self, p):
        assert theta1_prime_at_zero(params(p)) == pytest.approx(
            self.jtheta(1, 0.0, p, derivative=1), rel=1e-14)


def _nome_power(p, e):
    """p**e for a series exponent e > 0 with log p taken afresh; 0**e := 0."""
    if p == 0:
        return 0j
    if p.imag == 0.0 and p.real > 0.0:
        return complex(math.exp(e * math.log(p.real)))
    return cmath.exp(e * cmath.log(p))


def _loop_series(a, phi, params, offset=0.0, derivative=False, count=False):
    """Term-by-term reference for the theta series kernel under the params'
    truncation rule: every power of the nome, every envelope log and the log
    of the stopping bound computed afresh for each term.  count=True also
    returns the number of terms."""
    p = params.p
    log_ap = math.log(abs(p)) if p else -math.inf
    phi = complex(phi)
    im = abs(phi.imag)
    trig = cmath.sin if a else cmath.cos
    s = 0j
    for k in range(params.max_terms):
        e = k * (k + a) + offset
        w = 2 * k + a
        log_env = e * log_ap if e else 0.0
        log_env = log_env + math.log(2.0 * w) if derivative else log_env + w * im + math.log(2.0)
        # never before the first term, which is all of theta1 at a tiny nome
        if k and log_env < math.log(params.term_tolerance * (1.0 + abs(s))):
            return (s, k) if count else s
        if log_env > 700.0:
            raise SeriesTruncationError(f"overflow at k={k}")
        try:  # cos or sin of a large imaginary argument overflows a double
            term = w if derivative else trig(w * phi)
        except OverflowError as exc:
            raise SeriesTruncationError(f"overflow at k={k}") from exc
        s += (2.0 if w else 1.0) * (-1) ** k * (_nome_power(p, e) if e else 1.0) * term
    raise SeriesTruncationError(f"not converged in {params.max_terms} terms")


def _bits(z):
    """The bytes of a complex value, so that -0.0 and 0.0 differ."""
    return struct.pack("dd", z.real, z.imag)


def _kernel(a, phi, params, offset=0.0):
    """The kernel under the params' series key, as the theta functions call it."""
    return _series_sum(a, phi, params.series_key, offset)


class TestPowerTable:
    # negative real nomes with +0.0 and -0.0 imaginary parts compare equal
    # but sit on different branches of p^{1/4}
    NOMES = (0.0, 0.01, 0.2, 0.5, 0.3 + 0.2j, complex(-0.2, 0.0), complex(-0.2, -0.0))
    # growing |Im phi| makes later calls extend the tables of earlier ones
    PHIS = (0.7, 0.4 + 0.3j, -2.3 + 1.5j, 2.0 - 4.0j)

    def test_bit_identical_to_loop(self):
        for p in self.NOMES:
            pr = EllipticParams.from_nome(p, lam=0.3)
            # the complex step against the termwise derivative series
            assert theta1_prime_at_zero(pr) == pytest.approx(
                _loop_series(1, 0.0, pr, 0.25, True), rel=1e-15)
            for phi in self.PHIS:
                assert theta1(phi, pr) == _loop_series(1, phi, pr, 0.25)
                assert theta4(phi, pr) == _loop_series(0, phi, pr)
                assert theta1_reduced(phi, pr) == _loop_series(1, phi, pr)

    def test_stop_rule_matches_reference(self):
        # the bound log(tol) + |s| skips the log of the stopping test but not
        # its decision: values agree bit for bit, and so does the term count
        # T, which shows as convergence with max_terms = T + 1 and a
        # SeriesTruncationError with max_terms = T
        kernels = [(a, offset, phi) for a, offset in ((0, 0.0), (1, 0.0), (1, 0.25))
                   for phi in self.PHIS + (0.0, -1.1, 3.0 + 0.02j, _IH)]
        for p in self.NOMES:
            pr = EllipticParams.from_nome(p, lam=0.3)
            for tol in (1e-16, 1e-9, 0.3):
                for a, offset, phi in kernels:
                    want, terms = _loop_series(a, phi, dataclasses.replace(pr, term_tolerance=tol),
                                               offset, count=True)
                    for max_terms in (64, terms + 1):
                        ruled = dataclasses.replace(pr, term_tolerance=tol, max_terms=max_terms)
                        got = _kernel(a, phi, ruled, offset)
                        assert _bits(got) == _bits(want), (p, tol, a, offset, phi)
                    if terms:
                        ruled = dataclasses.replace(pr, term_tolerance=tol, max_terms=terms)
                        with pytest.raises(SeriesTruncationError):
                            _kernel(a, phi, ruled, offset)

    def test_signed_zeros_share_one_cache_entry(self):
        # -0.0 == 0.0 and x - 0j == x + 0j, and the sign of a zero part of
        # phi never changes a sum's bits: each argument's signed-zero
        # variants give the loop's bits from one cache entry, one miss and
        # then hits, whichever variant comes first
        for p in (0.2, complex(-0.2, 0.0), complex(-0.2, -0.0), 0.3 + 0.2j):
            pr = EllipticParams.from_nome(p, lam=0.3)
            for x, y in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.8), (-1.1, 0.0)):
                xs, ys = ((v, -v) if v == 0.0 else (v,) for v in (x, y))
                variants = [complex(u, v) for u in xs for v in ys]
                variants += list(xs) if y == 0.0 else []  # float arguments
                for order in (1, -1):
                    _series_sum.cache_clear()
                    for phi in variants[::order]:
                        for f, a, offset in ((theta1, 1, 0.25), (theta4, 0, 0.0),
                                             (theta1_reduced, 1, 0.0)):
                            assert _bits(f(phi, pr)) == _bits(
                                _loop_series(a, phi, pr, offset)), (p, phi, f)
                    info = _series_sum.cache_info()
                    assert (info.misses, info.hits) == (3, 3 * (len(variants) - 1)), (p, x, y)
        pr = EllipticParams.from_nome(0.2)
        _series_sum.cache_clear()
        for phi in (_IH, complex(-0.0, _IH.imag)):  # theta1'(0)'s complex step
            assert _bits(_kernel(1, phi, pr, 0.25) / _IH) == _bits(theta1_prime_at_zero(pr))
        assert (_series_sum.cache_info().misses, _series_sum.cache_info().hits) == (1, 3)

    _ZERO = st.sampled_from([0.0, -0.0])
    _PART = st.one_of(_ZERO, st.floats(-6.0, 6.0))

    @settings(max_examples=400, deadline=None)
    @given(kernel=st.sampled_from([(0, 0.0), (1, 0.0), (1, 0.25)]),
           phi=st.one_of(_PART, st.builds(complex, _PART, _ZERO),
                         st.builds(complex, _PART, _PART)),
           p=st.one_of(st.just(0.0), st.floats(1e-6, 0.9),
                       st.builds(complex, st.floats(-0.9, -1e-6), _ZERO),
                       st.builds(cmath.rect, st.floats(1e-6, 0.9), st.floats(-PI, PI))),
           tol=st.floats(1e-16, 0.5))
    def test_property_bit_identical_to_loop(self, kernel, phi, p, tol):
        # real and complex arguments with signed zero parts, every kind of
        # nome, and max_terms at the count the loop needs and one below it:
        # the kernel returns the loop's bits or raises what the loop raises
        # (SeriesTruncationError also where cos or sin of a large imaginary
        # argument overflows below the envelope's bound, as |p| near 1 allows)
        a, offset = kernel
        pr = EllipticParams.from_nome(p, lam=0.3)

        def outcome(fn, max_terms):
            ruled = dataclasses.replace(pr, term_tolerance=tol, max_terms=max_terms)
            try:
                return _bits(fn(a, phi, ruled, offset))
            except SeriesTruncationError as exc:
                return type(exc)

        try:
            terms = _loop_series(a, phi, dataclasses.replace(pr, term_tolerance=tol), offset,
                                 count=True)[1]
        except SeriesTruncationError:
            terms = pr.max_terms
        for max_terms in {terms + 1, terms} - {0}:
            assert outcome(_kernel, max_terms) == outcome(_loop_series, max_terms), max_terms

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.2, complex(-0.2, 0.0), complex(-0.2, -0.0),
                                   0.3 + 0.1j])
    def test_nome_tables_match_per_term_reference(self, p):
        # log p taken once per table: every entry, the lazily added ones too,
        # and the stop plan equal a reference that takes log p for each term
        def entry(term):
            log_pe, coef, w = term
            return float.hex(log_pe), type(coef), _bits(complex(coef)), w

        p = complex(p)
        log_ap = math.log(abs(p)) if p else -math.inf
        for tol, max_terms in ((1e-16, 64), (1e-13, 40), (1e-15, 10), (0.3, 64)):
            key = EllipticParams(p, 0.0, term_tolerance=tol, max_terms=max_terms).series_key
            for a, offset in ((0, 0.0), (1, 0.0), (1, 0.25)):
                want, bound, plan = [], 0.0, max_terms
                for k in range(max_terms):
                    e, w = k * (k + a) + offset, 2 * k + a
                    coef = (2.0 if w else 1.0) * (-1) ** k * (_nome_power(p, e) if e else 1.0)
                    log_pe = e * log_ap if e else 0.0
                    want.append(entry((log_pe, coef, w)))
                    if plan == max_terms:
                        if log_pe + _LOG_2 < math.log(tol) + bound * (1.0 + 1e-9) + _STOP_MARGIN:
                            plan = k
                        bound += abs(coef)
                _nome_powers.cache_clear()
                term, table, got_plan = _nome_powers(key, a, offset)
                assert got_plan == plan, (tol, a, offset)
                assert [entry(t) for t in table] == want[:len(table)]
                assert [entry(term(k)) for k in range(max_terms)] == want
        _nome_powers.cache_clear()

    def test_sign_of_zero_imaginary_nome(self):
        up = EllipticParams.from_nome(complex(-0.2, 0.0))
        down = EllipticParams.from_nome(complex(-0.2, -0.0))
        assert abs(theta1(0.7, up) - theta1(0.7, down)) > 0.1

    def test_errors_where_loop_raises(self):
        for series, phi in (({"max_terms": 2}, 0.5), ({}, 0.5 + 400j)):
            pr = EllipticParams.from_nome(0.5, **series)
            with pytest.raises(SeriesTruncationError):
                _loop_series(1, phi, pr, 0.25)
            with pytest.raises(SeriesTruncationError):
                theta1(phi, pr)


class TestDomainErrors:
    def test_nome_outside_disk(self):
        with pytest.raises(NomeDomainError):
            EllipticParams.from_nome(1.0)
        with pytest.raises(NomeDomainError, match=r"^\|p\| = 1\.3 >= 1: series diverge$"):
            EllipticParams.from_nome(1.3)

    @pytest.mark.parametrize("make", [
        lambda: EllipticParams.from_nome(math.nan),
        lambda: EllipticParams.from_nome(complex(0.2, math.nan)),
        lambda: EllipticParams.from_nome(complex(math.nan, math.nan)),  # exp(i pi tau), tau NaN
        lambda: EllipticParams.from_nome(complex(math.nan, 0.0)),
        lambda: EllipticParams(p=math.nan, lam=0j)])
    def test_nan_nome(self, make):
        # abs(nan) >= 1 is False, so a NaN nome used to pass and fail later
        # as an unconverged series
        with pytest.raises(NomeDomainError, match="is not a number"):
            make()

    def test_quasi_period_factor_errors(self):
        # -p^-1 raised ZeroDivisionError at p = 0, exp(800) a bare OverflowError
        with pytest.raises(PoleError, match="pole at p = 0"):
            quasi_period_factor(0.3, EllipticParams.from_nome(0))
        with pytest.raises(EvaluationOverflowError, match="overflows"):
            quasi_period_factor(400j, params(0.2))
        assert quasi_period_factor(-400j, params(0.2)) == 0
        # exp(-2i phi) = inf + 0j divided by p gave -inf + NaN j
        with pytest.raises(EvaluationOverflowError, match="is not finite"):
            quasi_period_factor(1.7e308j, params(0.5))

    def test_truncation_error(self):
        with pytest.raises(SeriesTruncationError):
            theta1(0.5, EllipticParams.from_nome(0.5, term_tolerance=1e-16, max_terms=2))

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, complex(0.3, math.nan),
                                     complex(math.inf, 0.2)])
    def test_non_finite_argument(self, phi):
        # every one ended in a bare OverflowError from abs() of the partial sum
        pr = EllipticParams.from_nome(0.2, lam=0.3)
        for f in (theta1, theta4, theta1_reduced):
            with pytest.raises(NonFiniteParameterError, match="^theta argument .* is not finite$"):
                f(phi, pr)

    @pytest.mark.parametrize("p", [1e-66, 1e-100, 1e-300])
    def test_theta1_at_tiny_nomes(self, p):
        # the stop test fired before the first term, which is all of theta1
        # there: theta1 and theta1'(0) read exactly 0 below p ~ 6e-66
        pr = EllipticParams.from_nome(p, lam=0.3)
        for phi in (0.3, 1.1, complex(0.2, 0.1)):
            assert theta1(phi, pr) == pytest.approx(p ** 0.25 * theta1_reduced(phi, pr),
                                                    rel=1e-13, abs=0)
        assert theta1_prime_at_zero(pr) == pytest.approx(2 * p ** 0.25, rel=1e-13, abs=0)

    def test_series_config_validation(self):
        # an infinite tolerance stopped every series at its first term, so
        # theta1 read 0; a fractional max_terms failed later, in range()
        tolerance = "term_tolerance must be finite and positive"
        for kwargs, message in (
                ({"term_tolerance": 0.0}, tolerance), ({"term_tolerance": math.inf}, tolerance),
                ({"term_tolerance": math.nan}, tolerance),
                ({"max_terms": 0}, "max_terms must be at least 1"),
                ({"max_terms": 2.5}, "max_terms must be an int, got 2.5"),
                ({"max_terms": True}, "max_terms must be an int, got True")):
            for make in (EllipticParams, EllipticParams.from_nome):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    make(0.2, 0.3, **kwargs)

    def test_derived_params_keep_series(self):
        # a derived params that fell back to the default rule would sum its
        # series under (1e-16, 64) silently
        rule = {"term_tolerance": 1e-15, "max_terms": 2}
        for pr in (EllipticParams.from_nome(0.2, lam=0.3, **rule),
                   EllipticParams.from_nome(0.0, lam=0.3, **rule),
                   EllipticParams.from_nome(cmath.exp(1j * math.pi * 0.5j), lam=0.3, **rule)):
            lam, cubed = pr.with_lambda(0.1), pr.cubed()
            assert (lam.p, lam.lam, cubed.p, cubed.lam) == (pr.p, 0.1, pr.p ** 3, pr.lam)
            for d in (pr, lam, cubed):
                assert (d.term_tolerance, d.max_terms) == (1e-15, 2)
                assert d.series_key == (d.p, math.copysign(1.0, d.p.imag), 1e-15, 2)
        default = EllipticParams.from_nome(0.2)
        assert (default.term_tolerance, default.max_terms) == (1e-16, 64)
        assert default.series_key == (0.2, 1.0, 1e-16, 64)


class TestSymmetryLaws:
    def test_antisymmetry_and_periodicity(self):
        rnd = random.Random(4)
        for _ in range(50):
            p = rnd.uniform(0.01, 0.5)
            phi = rnd.uniform(-2 * PI, 2 * PI)
            pr = params(p)
            t1, t4 = theta1(phi, pr), theta4(phi, pr)
            assert abs(theta1(-phi, pr) + t1) < 1e-12 * (1 + abs(t1))
            assert abs(theta4(-phi, pr) - t4) < 1e-12 * (1 + abs(t4))
            assert abs(theta1(phi + PI, pr) + t1) < 1e-12 * (1 + abs(t1))
            assert abs(theta1(phi - PI, pr) + t1) < 1e-12 * (1 + abs(t1))
            assert abs(theta4(phi + PI, pr) - t4) < 1e-12 * (1 + abs(t4))

    def test_pi_tau_quasi_periodicity(self):
        rnd = random.Random(5)
        for _ in range(50):
            p = rnd.uniform(0.01, 0.5)
            phi = rnd.uniform(0, PI)
            pr = params(p)
            shift = PI * pr.tau
            factor = quasi_period_factor(phi, pr)
            l1 = theta1(phi + shift, pr)
            r1 = factor * theta1(phi, pr)
            assert abs(l1 - r1) < 1e-10 * (1 + abs(r1))
            l4 = theta4(phi + shift, pr)
            r4 = factor * theta4(phi, pr)
            assert abs(l4 - r4) < 1e-10 * (1 + abs(r4))

    def test_theta4_from_theta1_half_period(self):
        rnd = random.Random(6)
        for _ in range(50):
            p = rnd.uniform(0.01, 0.5)
            phi = rnd.uniform(0, PI)
            pr = params(p)
            lhs = theta4(phi, pr)
            rhs = 1j * p ** 0.25 * cmath.exp(-1j * phi) * theta1(phi - PI * pr.tau / 2, pr)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


class TestDerivedQuantities:
    def test_zeta_trivial_at_p_zero(self):
        pr = params(0.0, lam=0.41)
        for r in range(3):
            assert zeta(r, pr) == 1

    def test_zeta_golden(self):
        assert zeta(0, params(0.1, lam=0.3)) == pytest.approx(GOLDEN_ZETA0_L03_P01, rel=1e-13)

    def test_zeta_product_is_one(self):
        rnd = random.Random(7)
        for _ in range(30):
            pr = params(rnd.uniform(0.01, 0.5), lam=rnd.uniform(0.05, PI / 3 - 0.05))
            prod = zeta(0, pr) * zeta(1, pr) * zeta(2, pr)
            assert abs(prod - 1) < 1e-12

    def test_zeta_log_table_sums_to_zero(self):
        pr = params(0.3, lam=0.22)
        table = zeta_log_table(pr)
        assert abs(sum(table)) < 1e-13
        for r in range(3):
            assert cmath.exp(table[r]) == pytest.approx(zeta(r, pr), rel=1e-13)

    def test_zeta_pole_raises(self):
        # theta4 vanishes at pi*tau/2 (mod pi); push lambda onto the zero
        pr = params(0.3, lam=PI * params(0.3).tau / 2)
        with pytest.raises(PoleError):
            zeta(0, pr)

    def test_cubic_factor_golden(self):
        assert cubic_factor_D(params(0.1)) == pytest.approx(GOLDEN_D_P01, rel=1e-13)
        assert cubic_factor_D(params(0.2)) == pytest.approx(GOLDEN_D_P02, rel=1e-13)

    def test_cubic_identity(self):
        rnd = random.Random(8)
        pr = params(0.2)
        D = cubic_factor_D(pr)
        for _ in range(50):
            phi = rnd.uniform(0, PI)
            lhs = (theta1(phi, pr) * theta1(phi + PI / 3, pr)
                   * theta1(phi + 2 * PI / 3, pr))
            rhs = D * theta1(3 * phi, pr.cubed())
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))

    def test_cubic_factor_approaches_one(self):
        # both sides of the cubing identity collapse to the trigonometric
        # triple product as p -> 0, forcing D -> 1
        assert abs(cubic_factor_D(params(1e-3)) - 1) < 5e-3
        assert abs(cubic_factor_D(params(1e-4)) - 1) < 5e-4
        assert cubic_factor_D(params(0.0)) == pytest.approx(1.0)

    def test_theta1_prime_central_difference(self):
        pr = params(0.17)
        h = 1e-5
        fd = (theta1(h, pr) - theta1(-h, pr)) / (2 * h)
        exact = theta1_prime_at_zero(pr)
        assert abs(fd - exact) < 1e-8 * abs(exact)


def test_params_helpers():
    pr = EllipticParams.from_nome(0.2, lam=0.3)
    assert pr.cubed().p == pytest.approx(0.2 ** 3)
    assert pr.cubed().tau == pytest.approx(3 * pr.tau)
    shifted = pr.with_lambda(pr.lam + 2 * PI / 3)
    assert (shifted.p, shifted.tau, shifted.lam) == (pr.p, pr.tau, 0.3 + 2 * PI / 3)


@pytest.mark.parametrize("p", [0.2, 0.5, -0.3, 0.1 + 0.2j, -0.25 - 0.1j, 1e-300, 0.3 - 0j])
def test_tau_is_read_off_the_nome(p):
    # tau is the principal log(p) / (i pi), bit for bit, on every branch of p
    tau = EllipticParams.from_nome(p).tau
    assert _bits(tau) == _bits(cmath.log(complex(p)) / (1j * math.pi))
    assert cmath.exp(1j * math.pi * tau) == pytest.approx(p, rel=1e-12)


def test_tau_at_zero_nome():
    for p in (0, 0.0, -0.0, complex(-0.0, -0.0)):
        assert EllipticParams.from_nome(p).tau == complex(0.0, math.inf)
