"""Jacobi theta functions theta1 and theta4 as truncated q-series.

Conventions (nome p, |p| < 1, half-period ratio tau with p = exp(i*pi*tau)):

    theta1(phi | p) = 2 * sum_{k>=0} (-1)^k p^{(k+1/2)^2} sin((2k+1) phi)
    theta4(phi | p) = 1 + 2 * sum_{k>=1} (-1)^k p^{k^2} cos(2k phi)

Laws used throughout the workbench, checkable via the verify suites:

    theta1(-phi) = -theta1(phi)            theta4(-phi) = theta4(phi)
    theta1(phi +- pi) = -theta1(phi)       theta4(phi +- pi) = theta4(phi)
    theta1(phi + pi*tau) = -p^-1 e^{-2i phi} theta1(phi)   (same for theta4)
    theta4(phi) = i p^{1/4} e^{-i phi} theta1(phi - pi*tau/2)

plus the nome-cubing identity

    theta1(phi|p) theta1(phi+pi/3|p) theta1(phi+2pi/3|p) = D(p) theta1(3phi|p^3)

with D(p) = theta1'(0|p) theta1(pi/3|p) theta1(2pi/3|p) / (3 theta1'(0|p^3)).

Series are truncated when a term-magnitude envelope falls below
term_tolerance * (1 + |partial sum|); the q-series converge
super-exponentially on the working domain |p| <= 0.5.  The truncation
rule (SeriesConfig) is a field of EllipticParams, so the functions here
and in the model modules take the params alone.

A real argument sums its first terms untested: |cos|, |sin| <= 1 bound its
partial sum by B_k = sum_{j<k} |c_j|, so the stop test's first condition,
log_env_k < log(tol) + |s_k| + margin, fails while log_env_k >= log(tol) +
B_k (1 + 1e-9, for roundoff) + margin: same terms, same order, same bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import copysign

from .errors import EvaluationOverflowError, NomeDomainError, PoleError, SeriesTruncationError
from .numutil import finite

PI = math.pi
TWO_PI_OVER_3 = 2.0 * PI / 3.0

_LOG_HUGE = 700.0  # exp beyond this overflows a double
_LOG_2 = math.log(2.0)
_POLE_TOL = 1e-12
_STOP_MARGIN = 1e-6  # far above the roundoff of log(tol) + |s| and log(tol (1 + |s|))
_IH = 2.0 ** -64 * 1j  # i h: a complex step (Squire and Trapp 1998) below the last bit


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the q-series."""

    term_tolerance: float = 1e-16
    max_terms: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.term_tolerance < math.inf:
            raise ValueError("term_tolerance must be finite and positive")
        if type(self.max_terms) is not int:
            raise ValueError(f"max_terms must be an int, got {self.max_terms!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_SERIES = SeriesConfig()


@dataclass(frozen=True)
class EllipticParams:
    """Global elliptic context: nome p, parameter lambda, and the truncation
    rule of every q-series evaluated at them.

    The half-period ratio tau, which the pi*tau shift laws and the
    half-period substitution need, is read off p on the principal branch.
    The series settings travel with the nome: the constructors and the
    derived parameters (with_lambda, cubed) keep them, so every theta value
    reached from one params object is summed under one rule.  The default
    verification domain is real p in (0, 0.5] and real lambda.
    """

    p: complex
    lam: complex
    series: SeriesConfig = DEFAULT_SERIES
    #: (p, sign of Im p, tol, max_terms): what a q-series sum depends on (see _series_sum)
    series_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = math.hypot(self.p.real, self.p.imag)  # abs(p), but inf where abs overflows
        if not size < 1.0:  # also NaN, which compares false both ways
            raise NomeDomainError(f"|p| = {size} >= 1: series diverge"
                                  if size >= 1.0 else f"nome p = {self.p} is not a number")
        object.__setattr__(self, "series_key", (
            self.p, copysign(1.0, self.p.imag), self.series.term_tolerance, self.series.max_terms))

    @classmethod
    def from_nome(cls, p: complex, lam: complex = 0.0,
                  series: SeriesConfig = DEFAULT_SERIES) -> "EllipticParams":
        # -0.0 becomes 0j, so the p = 0 limit has one series key
        return cls(p=complex(p) or 0j, lam=complex(lam), series=series)

    @property
    def tau(self) -> complex:
        """log(p) / (i*pi) on the principal branch; i*inf at p = 0, the trigonometric limit."""
        return cmath.log(self.p) / (1j * math.pi) if self.p else complex(0.0, math.inf)

    def with_lambda(self, lam: complex) -> "EllipticParams":
        return EllipticParams(p=self.p, lam=complex(lam), series=self.series)

    def cubed(self) -> "EllipticParams":
        """Parameters at nome p^3 (tau -> 3*tau mod 2), same lambda and series."""
        return EllipticParams(p=self.p ** 3, lam=self.lam, series=self.series)


@lru_cache(maxsize=64)
def _nome_powers(key: tuple, a: int, offset: float) -> list:
    """[term, table, plan] of one series (see _series_sum) under the rule key =
    EllipticParams.series_key: table[k] = term(k) = (e_k log|p|, c_k (-1)^k p^{e_k},
    2k + a), filled lazily by replacing the tuple, so concurrent callers read
    consistent entries; plan, the number of leading terms a real argument sums
    untested (module docstring).  p^e = exp(e log p), log p taken once: log|p|
    on p >= 0, where p = 0 gives exp(-inf) = 0.  The key keeps Im p's sign:
    x - 0j == x + 0j, but their powers differ."""
    p, _, tol, max_terms = key
    log_ap, log_tol = math.log(abs(p)) if p else -math.inf, math.log(tol)
    exp, log_p = (math.exp, log_ap) if p.imag == 0.0 <= p.real else (cmath.exp, cmath.log(p))

    def term(k: int) -> tuple:
        e, w = k * (k + a) + offset, 2 * k + a
        coef = (2.0 if w else 1.0) * (-1) ** k * (complex(exp(e * log_p)) if e else 1.0)
        return e * log_ap if e else 0.0, coef, w

    bound, table = 0.0, []
    for k in range(max_terms):
        table.append(term(k))
        if table[k][0] + _LOG_2 < log_tol + bound * (1.0 + 1e-9) + _STOP_MARGIN:
            return [term, tuple(table), k]
        bound += abs(table[k][1])
    return [term, tuple(table), max_terms]


@lru_cache(maxsize=256)
def _series_sum(a: int, phi: complex, key: tuple, offset: float) -> complex:
    """The q-series kernel behind every theta value:

        sum_{k>=0} c_k (-1)^k p^{k^2 + a k + offset} f((2k + a) phi)

    with c_k = 2, except c_0 = 1 for a = 0, and f = cos for a = 0, sin for
    a = 1.  a = 0 gives theta4 and a = 1 gives theta1 / p^{1/4}, which stays
    finite at p = 0; offset = 1/4 carries the p^{1/4} into every exponent,
    (k + 1/2)^2, and gives theta1 itself.
    key = EllipticParams.series_key gives the nome and the truncation rule.
    The last sums are cached by their arguments.  -0.0 == 0.0 and
    x - 0j == x + 0j share an entry, and may: the sum starts at +0j, which
    adding never turns into -0.0, and the sign of a zero part of phi moves
    only zero parts of the sines, cosines and the products they feed, so it
    never changes the bits of a sum.
    """
    finite(phi, "theta argument")
    p, _, tol, max_terms = key
    term, table, plan = powers = _nome_powers(key, a, offset)
    trig = cmath.sin if a else cmath.cos
    s, start = 0j, 0 if phi.imag else plan
    log_tol, im = math.log(tol), abs(phi.imag)
    try:  # cos or sin of w phi can overflow below the envelope's bound
        for _, coef, w in table[:start]:  # a real argument's untested terms
            s += coef * trig(w * phi)
        for k in range(start, max_terms):
            if k == len(table):
                table = powers[1] = table + (term(k),)
            log_pe, coef, w = table[k]
            log_env = log_pe + w * im + _LOG_2  # log of the term bound 2 |p|^e exp(w |Im phi|)
            # stop once log_env < log(tol (1 + |s|)), but not before the first
            # term, all of theta1 below p ~ 6e-66; since log(1 + x) <= x
            # that log is only needed below log(tol) + |s| (plus a roundoff margin)
            if (k and log_env < log_tol + abs(s) + _STOP_MARGIN
                    and log_env < math.log(tol * (1.0 + abs(s)))):
                return s
            if log_env > _LOG_HUGE:
                raise OverflowError("term envelope beyond double range")
            s += coef * trig(w * phi)
    except OverflowError as exc:
        raise SeriesTruncationError(
            f"theta series term overflow at k={k}: |Im phi| = {im} too large "
            f"for |p| = {abs(p)}") from exc
    except ValueError as exc:  # cmath's answer to a w phi that overflowed to inf
        raise SeriesTruncationError(f"theta series term overflow: w phi is not finite "
                                    f"at phi = {phi}") from exc
    raise SeriesTruncationError(
        f"theta series not converged in {max_terms} terms "
        f"(|p| = {abs(p)}, |Im phi| = {im})")


def theta1(phi: complex, params: EllipticParams) -> complex:
    """theta1(phi | p), odd and pi-antiperiodic in phi."""
    return _series_sum(1, phi, params.series_key, 0.25)


def theta4(phi: complex, params: EllipticParams) -> complex:
    """theta4(phi | p), even and pi-periodic in phi."""
    return _series_sum(0, phi, params.series_key, 0.0)


def theta1_reduced(phi: complex, params: EllipticParams) -> complex:
    """theta1(phi | p) / p^{1/4} = 2 * sum_k (-1)^k p^{k(k+1)} sin((2k+1) phi).

    The p^{1/4} prefactor cancels in every theta1 ratio, so the Boltzmann
    weights are built from this reduced series; it stays finite at p = 0,
    where it degenerates to 2 sin(phi).
    """
    return _series_sum(1, phi, params.series_key, 0.0)


def theta1_prime_at_zero(params: EllipticParams) -> complex:
    """theta1'(0 | p) as theta1(ih) / (ih), off by h^2 theta1'''(0) / 6 as theta1 is odd."""
    return theta1(_IH, params) / _IH


class ThetaTriple:
    """The three values b_m = theta(lambda + 2pi m/3 | p), m = 0, 1, 2, and
    the ratios zeta_m = b_{m-1} b_{m+1} / b_m^2 built from them.

    theta is theta4 for the face weights and theta1 for the families reached
    by the half-period substitution.  theta1 values can be negative on the
    real domain, so fractional powers zeta_m^a = exp(a log zeta_m) need a
    branch choice.  Building log zeta_m from the principal logs of the b_m
    (rather than from the zeta products) pins all powers to one sheet with
    sum_m log zeta_m = 0 exactly, which is the sheet on which the closed-form
    gauge matches of the substitution chain hold.  For theta4 on the default
    real domain all b_m are positive and the table is plainly real.
    """

    def __init__(self, theta, params: EllipticParams):
        self.theta = theta
        self.params = params
        self.values = tuple(theta(params.lam + TWO_PI_OVER_3 * m, params) for m in range(3))
        for m, val in enumerate(self.values):
            if abs(val) < _POLE_TOL:
                raise PoleError(f"{theta.__name__}(lambda + 2*pi*{m}/3) vanishes "
                                f"at lambda = {params.lam}")
        self.logs = tuple(cmath.log(v) for v in self.values)
        self.log_zeta = tuple(self.logs[(m - 1) % 3] + self.logs[(m + 1) % 3] - 2 * self.logs[m]
                              for m in range(3))

    def __call__(self, x: complex) -> complex:
        return self.theta(x, self.params)

    def zeta_pow(self, m: int, exponent: complex) -> complex:
        """zeta_m^exponent on the table's sheet; EvaluationOverflowError past the
        doubles, also where an exponent that overflowed to inf meets log zeta_m = 0
        (inf * 0 is NaN).  The NaN of a NaN exponent goes on to the caller,
        whose theta raises for the NaN phi behind it."""
        try:
            value = cmath.exp(exponent * self.log_zeta[m % 3])
        except (OverflowError, ValueError) as exc:  # ValueError: an inf exponent
            raise EvaluationOverflowError(
                f"zeta_{m % 3}^a overflows at a = {exponent}") from exc
        if value != value and cmath.isinf(exponent):  # no call unless NaN: sweeps pay per weight
            raise EvaluationOverflowError(f"zeta_{m % 3}^a overflows at a = {exponent}")
        return value


@lru_cache(maxsize=64)
def theta_triple(theta, params: EllipticParams) -> ThetaTriple:
    """The shared ThetaTriple of one theta function at one params."""
    return ThetaTriple(theta, params)


def zeta(r: int, params: EllipticParams) -> complex:
    """Face weight ratio zeta_r(lambda, p) built from theta4 at lambda + 2*pi*r/3.

        zeta_r = theta4(lambda + 2pi(r-1)/3) theta4(lambda + 2pi(r+1)/3)
                 / theta4(lambda + 2pi r/3)^2

    The three values multiply to 1 because theta4 is pi-periodic.
    """
    b = theta_triple(theta4, params).values
    return b[(r - 1) % 3] * b[(r + 1) % 3] / (b[r % 3] * b[r % 3])


def zeta_log_table(params: EllipticParams) -> tuple[complex, complex, complex]:
    """(log zeta_0, log zeta_1, log zeta_2) on the zero-sum sheet of ThetaTriple."""
    return theta_triple(theta4, params).log_zeta


def cubic_factor_D(params: EllipticParams) -> complex:
    """Proportionality factor D(p) in the nome-cubing identity.

    D(p) = theta1'(0|p) theta1(pi/3|p) theta1(2pi/3|p) / (3 theta1'(0|p^3)).
    Computed from the reduced series; the p^{3/4} factors cancel exactly, so
    the value extends continuously to D(0) = 1.
    """
    den = theta1_reduced(_IH, params.cubed()) / _IH
    if abs(den) < _POLE_TOL:
        raise PoleError("theta1'(0 | p^3) vanishes")
    num = (theta1_reduced(_IH, params) / _IH * theta1_reduced(PI / 3, params)
           * theta1_reduced(TWO_PI_OVER_3, params))
    return num / (3.0 * den)


def quasi_period_factor(phi: complex, params: EllipticParams) -> complex:
    """Common multiplier -p^{-1} exp(-2i phi) in the pi*tau shift laws."""
    if params.p == 0:
        raise PoleError("the quasi-period factor -p^-1 exp(-2i phi) has a pole at p = 0")
    try:
        factor = -cmath.exp(-2j * complex(phi)) / params.p
    except (OverflowError, ValueError) as exc:  # ValueError: -2i phi overflowed to inf
        raise EvaluationOverflowError(f"exp(-2i phi) overflows at phi = {phi}") from exc
    if not cmath.isfinite(factor):  # exp(-2i phi) or the division by p went past the doubles
        raise EvaluationOverflowError(f"the quasi-period factor is not finite at phi = {phi}")
    return factor
