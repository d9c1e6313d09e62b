"""Face-model Yang-Baxter checks and gauge transformations.

A weight family assigns W^{tl tr}_{bl br}(phi) to each admissible four-face
quadruple (zero otherwise).  The Yang-Baxter equation checked here is the
triple sum over the internal face t,

  sum_t W^{r'' s''}_{r' t}(phi)  W^{r' t}_{r s}(phi')  W^{s'' s'}_{t s}(u)
= sum_t W^{r'' t}_{r' r}(u)      W^{r'' s''}_{t s'}(phi')  W^{t s'}_{r s}(phi)

where the third argument is u = phi - phi' - shift.  The elliptic families
use shift = pi/3; the families reached by the half-period substitution use
shift = 0; the trigonometric six-vertex family at crossing parameter eta
uses shift = eta/2 (at eta = 2pi/3 this coincides with the pi/3 form).

A gauge transformation rescales

    W -> (C_bl / C_tr) * Phi_tl Phi_br / (Phi_bl Phi_tr) * W

and preserves the Yang-Baxter equation whenever Phi satisfies the
multiplicative constraint Phi_r(phi - phi' - shift) = Phi_r(phi)/Phi_r(phi').
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .errors import EvaluationOverflowError, IcelabError
from .numutil import guarded, rel_residual, severity
from .theta import (PI, TWO_PI_OVER_3, EllipticParams, ThetaTriple, theta1,
                    theta1_reduced, theta4, theta_triple)
from .sixvertex import VertexKind, _rapidity, weight6v
from .threecoloring import (_KIND_OF_CORNERS, ColoredVertexKind, _raw_weight_ctx,
                            _tilde_weight_ctx, _weight_constants)

#: the 18 admissible quadruples in the index picture (bl, br, tl, tr) with
#: their kind and base, threecoloring's corners table in its own order: kind
#: by kind in VertexKind order, base by base
ADMISSIBLE: tuple[tuple[tuple[int, int, int, int], ColoredVertexKind], ...] = tuple(
    ((bl, br, tl, tr), vk) for (bl, tl, tr, br), vk in _KIND_OF_CORNERS.items())


@dataclass(frozen=True)
class WeightFamily:
    """Face weights as one table per spectral parameter, plus their Yang-Baxter shift.

    table(phi) lists the 18 admissible weights in ADMISSIBLE order, so that
    table(phi)[3 * k + r] is the weight of the k-th VertexKind with base r;
    every other quadruple weighs 0.
    """

    table: Callable[[complex], list[complex]] = field(repr=False)
    ybe_shift: complex = PI / 3

    def weight_table(self, phi: complex) -> list[complex]:
        """The 18 admissible weights at one spectral parameter, in ADMISSIBLE
        order.  It only calls table: bench/tracer.py counts and times the
        tables by wrapping this method by name."""
        return self.table(phi)

    def weight(self, kind: VertexKind, r: int, phi: complex) -> complex:
        """The weight of kind with base color r in {0, 1, 2}, read off
        weight_table(phi).  Where the table raises an IcelabError, which names
        its first failing entry, an error of that type names kind and r and
        is chained from it."""
        try:
            table = self.weight_table(phi)
        except IcelabError as exc:
            raise type(exc)(f"weight({kind.name}, {r}, phi = {phi}): {exc}") from exc
        return table[3 * list(VertexKind).index(kind) + r % 3]


#: a kind per formula, alpha' taking alpha's and beta' beta's, in the order the
#: tables evaluate them
_FORMULAS = (VertexKind.GAMMA_P, VertexKind.BETA, VertexKind.ALPHA, VertexKind.GAMMA)


def _formulawise(weight_ctx: Callable, ctx: tuple, phi: complex) -> list[complex]:
    """The table of a threecoloring weight_ctx, one call per formula and base (12 for 18)."""
    gamma_p, beta, alpha, gamma = ([weight_ctx(ctx, kind, r, phi) for r in range(3)]
                                   for kind in _FORMULAS)
    return alpha * 2 + beta * 2 + gamma + gamma_p


def raw_family(params: EllipticParams) -> WeightFamily:
    ctx = _weight_constants(params)
    return WeightFamily(lambda phi: _formulawise(_raw_weight_ctx, ctx, complex(phi)))


def tilde_family(params: EllipticParams) -> WeightFamily:
    ctx = _weight_constants(params)
    return WeightFamily(lambda phi: _formulawise(_tilde_weight_ctx, ctx, complex(phi)))


def sixvertex_family(eta: complex) -> WeightFamily:
    """Trigonometric six-vertex weights read as a face family (the base color
    is ignored).  Satisfies the Yang-Baxter equation with shift eta/2."""
    def table(phi: complex) -> list[complex]:
        gamma, beta, alpha = (weight6v(kind, phi, eta) for kind in _FORMULAS[:3])
        return [alpha] * 6 + [beta] * 6 + [gamma] * 6

    return WeightFamily(table, ybe_shift=eta / 2)


@dataclass(frozen=True)
class YbeSweep:
    residual: float
    checked: int
    skipped: int


@lru_cache(maxsize=None)
def _live_assignments() -> tuple[tuple[tuple[int, ...], tuple, tuple], ...]:
    """Each boundary assignment (r, r', r'', s, s', s'') that has an
    admissible internal face, with its LHS and RHS terms (t, i, j, k) in
    ascending t: the weights at ADMISSIBLE positions i, j, k, multiplied in
    the order of the module docstring.  Built on the first sweep by a join
    over ADMISSIBLE: a side's first quadruple and its second fix all colors
    but one, which the third has to take."""
    pos = {quad: i for i, (quad, _) in enumerate(ADMISSIBLE)}
    terms: dict[tuple[int, ...], tuple[list, list]] = {}
    for (a, b, c, d), i in pos.items():  # (rp, t, rpp, spp) on the LHS, (rp, r, rpp, t) on the RHS
        for (bl, br, tl, tr), j in pos.items():
            if (tl, tr) == (a, b):  # the LHS's (r, s, rp, t); its (t, s, spp, sp) picks sp
                for sp in range(3):
                    if (k := pos.get((b, br, d, sp))) is not None:
                        terms.setdefault((bl, a, c, br, sp, d), ([], []))[0].append((b, i, j, k))
            if (bl, tl) == (d, c):  # the RHS's (t, sp, rpp, spp); its (r, s, t, sp) picks s
                for s in range(3):
                    if (k := pos.get((b, s, d, br))) is not None:
                        terms.setdefault((b, a, c, s, br, tr), ([], []))[1].append((d, i, j, k))
    return tuple((colors, tuple(sorted(lhs)), tuple(sorted(rhs)))
                 for colors, (lhs, rhs) in sorted(terms.items()))


@lru_cache(maxsize=None)
def _sweep_plan() -> tuple[tuple, tuple, tuple[tuple[int, int, int, int], ...]]:
    """ybe_sweep's index tuples, read off _live_assignments():

    - per side, its 84 products as ADMISSIBLE positions (i, j, k),
      assignment by assignment in ascending t;
    - per assignment, the positions (x, y, z, w) of its first and second
      LHS products and first and second RHS products in the two flat
      product lists.  A side with one product points its second slot at
      position 84, the exact 0j that pads that side's list."""
    rows = _live_assignments()
    plan, slots = [], []
    for side in (1, 2):
        terms = tuple(term[1:] for row in rows for term in row[side])
        plan.append(terms)
        n = itertools.count()
        slots.append([(next(n), next(n) if len(row[side]) == 2 else len(terms)) for row in rows])
    return (*plan, tuple((*lhs, *rhs) for lhs, rhs in zip(*slots)))


def ybe_sweep(fam: WeightFamily, phi: complex, phi_p: complex) -> YbeSweep:
    """Check the Yang-Baxter equation over all 3^6 boundary color assignments.

    Each side of an assignment of _live_assignments() is summed over its
    admissible t in ascending order.  Returns the worst |LHS - RHS|
    normalized by the largest triple product of an assignment, plus how many
    assignments were skipped because every triple product is exactly zero.
    A NaN product is not a zero one: its assignment is checked and fails,
    also where max drops it after a zero.  Every product is formed once per
    side over the flat index lists of _sweep_plan(), and one residual form
    serves every assignment: a side with one product adds the list's 0j pad,
    which changes no bit that abs, max or the skip rule reads.
    """
    _rapidity(phi), _rapidity(phi_p)  # NonFiniteParameterError unless both are finite
    w_phi, w_php, w_u3 = (fam.weight_table(x) for x in (phi, phi_p, phi - phi_p - fam.ybe_shift))
    terms_a, terms_b, groups = _sweep_plan()
    a = [w_phi[i] * w_php[j] * w_u3[k] for i, j, k in terms_a] + [0j]
    b = [w_u3[i] * w_php[j] * w_phi[k] for i, j, k in terms_b] + [0j]
    nan = cmath.nan
    residuals = [abs(0j + a[x] + a[y] - (0j + b[z] + b[w])) / (s or nan) for x, y, z, w in groups
                 if (s := max(abs(a[x]), abs(a[y]), abs(b[z]), abs(b[w])))
                 or a[x] or a[y] or b[z] or b[w]]
    return YbeSweep(residual=max(residuals, key=severity, default=0.0),
                    checked=len(residuals), skipped=3 ** 6 - len(residuals))


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeData:
    """Per-color constants C and functions Phi for the gauge rescaling.

    Phi receives an integer face label; gauges whose Phi is genuinely
    periodic mod 3 may ignore lifts, while label-sensitive gauges (factors
    like exp(i m phi / 2)) rely on the caller passing consistent integer
    lifts.  shift fixes the constraint Phi must satisfy:
    Phi_r(phi - phi' - shift) = Phi_r(phi) / Phi_r(phi').
    """

    C: Callable[[int], complex] = field(repr=False)
    Phi: Callable[[int, complex], complex] = field(repr=False)
    shift: complex = PI / 3


def zeta_gauge(params: EllipticParams) -> GaugeData:
    """C = 1, Phi_r(phi) = zeta_r^{1/12 + phi/4pi}; turns the raw family into
    the tilde family."""
    tri = theta_triple(theta4, params)

    def phi_fn(m: int, phi: complex) -> complex:
        return tri.zeta_pow(m, 1.0 / 12.0 + phi / (4 * PI))

    return GaugeData(C=lambda m: 1.0 + 0j, Phi=phi_fn, shift=PI / 3)


def gauge_constraint_residual(g: GaugeData, pairs: Sequence[tuple[complex, complex]]) -> float:
    """Worst residual of Phi_r(phi - phi' - shift) = Phi_r(phi)/Phi_r(phi');
    an empty list of pairs raises ValueError, since it checks nothing."""
    if not pairs:
        raise ValueError("gauge_constraint_residual needs at least one (phi, phi') pair, got none")
    for phi, php in pairs:  # NonFiniteParameterError unless every phi and phi' is finite
        _rapidity(phi), _rapidity(php)
    try:
        return max((rel_residual(g.Phi(m, phi - php - g.shift),
                                 g.Phi(m, phi) / g.Phi(m, php))
                    for phi, php in pairs for m in range(3)), key=severity)
    except ZeroDivisionError as exc:
        raise EvaluationOverflowError("a gauge factor Phi_r(phi') underflows to 0") from exc


#: the canonical integer corner lifts (bl, tl, tr, br) and kind of each ADMISSIBLE entry
_LIFTS = tuple((vk.corner_lifts(), vk.kind) for _, vk in ADMISSIBLE)


def apply_gauge_kindwise(fam: WeightFamily, g: GaugeData) -> WeightFamily:
    """Gauge application through the canonical integer corner lifts of each
    kind, ColoredVertexKind.corner_lifts (base r in {0,1,2}, neighbours
    written literally as r-1 / r+1), table-wise: C(m) and Phi(m, phi) once per
    lift m in -1..3, the table of fam, then each factor in ADMISSIBLE order."""
    def table(phi: complex) -> list[complex]:
        _rapidity(phi)  # NonFiniteParameterError unless phi is finite
        c, f = {m: g.C(m) for m in range(-1, 4)}, {m: g.Phi(m, phi) for m in range(-1, 4)}
        weights, gauged = fam.weight_table(phi), []
        for w, ((lbl, ltl, ltr, lbr), kind) in zip(weights, _LIFTS):
            try:
                gauged.append(c[lbl] / c[ltr] * (f[ltl] * f[lbr] / (f[lbl] * f[ltr])) * w)
            except ZeroDivisionError as exc:
                raise EvaluationOverflowError(
                    f"the gauge factors of {kind.name} underflow to 0 at phi = {phi}") from exc
            if not cmath.isfinite(gauged[-1]) and cmath.isfinite(w):  # inf * 0 parts give NaN
                raise EvaluationOverflowError(
                    f"the gauge factors of {kind.name} overflow at phi = {phi}")
        return gauged

    return WeightFamily(table, ybe_shift=fam.ybe_shift)


# ---------------------------------------------------------------------------
# Half-period substitution chain
# ---------------------------------------------------------------------------


def appendix_substitution(params: EllipticParams) -> WeightFamily:
    """The raw family, threecoloring._raw_weight_ctx itself, at
    (lambda + pi*tau/2, -phi - pi/3).

    Its theta4 context sits at the shifted lambda, every value reduced through

        theta4(x + pi*tau/2 | p) = i p^{-1/4} e^{-i x} theta1(x | p)

    so that values stay on the theta1 sheet, and its log-zeta table is the
    theta1 triple's: the i p^{-1/4} e^{-ix} parts cancel in every zeta
    combination, so the logs are never re-wrapped.  The result is a
    difference-form family whose values coincide with the theta1-based closed
    forms of appendix_family.
    """
    sheet = theta_triple(theta1, params)  # PoleError at p = 0, before log(p)
    half = PI * params.tau / 2
    pref = 1j * cmath.exp(-0.25 * cmath.log(params.p))

    def theta4_at_half_period(x: complex, prm: EllipticParams) -> complex:
        return pref * cmath.exp(-1j * (x - half)) * theta1(x - half, prm)

    # a triple of this family's own, not the shared cache's: its principal
    # logs may wrap, so its log-zeta table is replaced by the theta1 sheet's
    tri = ThetaTriple(theta4_at_half_period, params.with_lambda(params.lam + half))
    tri.log_zeta = sheet.log_zeta
    ctx = (tri, theta1_reduced(TWO_PI_OVER_3, params))
    return WeightFamily(lambda phi: _formulawise(_raw_weight_ctx, ctx, -phi - PI / 3),
                        ybe_shift=0.0)


def appendix_family(params: EllipticParams) -> WeightFamily:
    """theta1-based closed forms of the substituted weights:

        alpha_r  = zeta_r^{-3phi/4pi} theta1(2pi/3 + phi) / theta1(2pi/3)
        beta_r   = -zeta_r^{1/2 + 3phi/4pi} theta1(phi) / theta1(2pi/3)
        gamma_r  = e^{i phi}  [zeta_r/zeta_{r+1}]^{phi/2pi}
                   theta1(lambda + 2pi r/3 - phi) / theta1(lambda + 2pi r/3)
        gamma'_r = e^{-i phi} [zeta_r/zeta_{r-1}]^{phi/2pi}
                   theta1(lambda + 2pi r/3 + phi) / theta1(lambda + 2pi r/3)

    with the theta1-based zeta_r; powers live on the zero-sum sheet of
    theta.ThetaTriple.
    """
    sheet = theta_triple(theta1, params)
    t1_23, b = sheet(TWO_PI_OVER_3), sheet.values
    lam, lz = params.lam, sheet.log_zeta

    def table(phi: complex) -> list[complex]:
        spin = guarded(cmath.exp, 1j * phi), guarded(cmath.exp, -1j * phi)
        alpha, beta, turn = sheet(TWO_PI_OVER_3 + phi), sheet(phi), phi / (2 * PI)
        expo = -3 * phi / (4 * PI), 0.5 + 3 * phi / (4 * PI)
        return ([sheet.zeta_pow(r, expo[0]) * alpha / t1_23 for r in range(3)] * 2
                + [-sheet.zeta_pow(r, expo[1]) * beta / t1_23 for r in range(3)] * 2
                + [spin[0] * guarded(cmath.exp, turn * (lz[r] - lz[(r + 1) % 3]))
                   * sheet(lam + TWO_PI_OVER_3 * r - phi) / b[r] for r in range(3)]
                + [spin[1] * guarded(cmath.exp, turn * (lz[r] - lz[(r - 1) % 3]))
                   * sheet(lam + TWO_PI_OVER_3 * r + phi) / b[r] for r in range(3)])

    return WeightFamily(table, ybe_shift=0.0)


def rosengren_gauge(params: EllipticParams) -> GaugeData:
    """C_m = e^{i pi/2} theta1(lambda + 2pi m/3)^{-1/2},
    Phi_m(phi) = e^{i m phi/2} zeta_m^{-phi/4pi} (theta1-based zeta).

    Phi is label-sensitive through e^{i m phi/2}; apply it with
    apply_gauge_kindwise.  Satisfies the difference-form constraint.
    """
    sheet = theta_triple(theta1, params)

    def c_fn(m: int) -> complex:
        return 1j * cmath.exp(-0.5 * sheet.logs[m % 3])

    def phi_fn(m: int, phi: complex) -> complex:
        return guarded(cmath.exp, 0.5j * m * phi) * guarded(cmath.exp, -(phi / (4 * PI)) * sheet.log_zeta[m % 3])

    return GaugeData(C=c_fn, Phi=phi_fn, shift=0.0)


def rosengren_family(params: EllipticParams) -> WeightFamily:
    """Closed forms of the appendix family after the rosengren_gauge:

        alpha_r  = theta1(2pi/3 + phi) / theta1(2pi/3)            (r-independent)
        beta_r   = -[b_{r-1}/b_r] theta1(phi) / theta1(2pi/3)
        beta'_r  = -[b_{r+1}/b_r] theta1(phi) / theta1(2pi/3)
        gamma_r  = theta1(lambda + 2pi r/3 - phi) / b_r
        gamma'_r = theta1(lambda + 2pi r/3 + phi) / b_r

    with b_m = theta1(lambda + 2pi m/3).  The minus sign on the beta pair is
    forced by the gauge bookkeeping (no constant gauge can remove it while
    fixing the other kinds) and flips nothing in the Yang-Baxter equation.
    """
    sheet = theta_triple(theta1, params)
    t1_23, b = sheet(TWO_PI_OVER_3), sheet.values
    lam = params.lam

    def table(phi: complex) -> list[complex]:
        alpha, beta = sheet(TWO_PI_OVER_3 + phi) / t1_23, sheet(phi)
        return ([alpha] * 6
                + [-(b[(r - 1) % 3] / b[r]) * beta / t1_23 for r in range(3)]
                + [-(b[(r + 1) % 3] / b[r]) * beta / t1_23 for r in range(3)]
                + [sheet(lam + TWO_PI_OVER_3 * r - phi) / b[r] for r in range(3)]
                + [sheet(lam + TWO_PI_OVER_3 * r + phi) / b[r] for r in range(3)])

    return WeightFamily(table, ybe_shift=0.0)


def rosengren_match(params: EllipticParams, phis: Sequence[complex]) -> float:
    """Worst residual, over all kinds, bases and sample arguments, of the
    rosengren_gauge applied kindwise to the appendix family against the
    rosengren_family closed forms; an empty list of arguments raises
    ValueError, since it checks nothing."""
    if not phis:
        raise ValueError("rosengren_match needs at least one sample phi, got none")
    gauged = apply_gauge_kindwise(appendix_family(params), rosengren_gauge(params))
    target = rosengren_family(params)
    return max((rel_residual(x, y) for phi in phis
                for x, y in zip(gauged.weight_table(phi), target.weight_table(phi))),
               key=severity)
