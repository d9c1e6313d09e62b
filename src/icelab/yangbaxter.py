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
from functools import lru_cache, reduce
from operator import add
from typing import Callable, Sequence

from .numutil import guarded, rel_residual, severity
from .theta import (PI, TWO_PI_OVER_3, EllipticParams, ThetaTriple, theta1,
                    theta1_reduced, theta4, theta_triple)
from .sixvertex import _ALPHAS, _BETAS, VertexKind, _rapidity, weight6v
from .threecoloring import (_KIND_OF_CORNERS, ColoredVertexKind, _raw_weight_ctx,
                            _tilde_weight_ctx, _weight_constants)

#: the 18 admissible quadruples in the index picture (bl, br, tl, tr),
#: ascending, with their kind and base, from threecoloring's corners table
ADMISSIBLE: tuple[tuple[tuple[int, int, int, int], ColoredVertexKind], ...] = tuple(sorted(
    ((bl, br, tl, tr), vk) for (bl, tl, tr, br), vk in _KIND_OF_CORNERS.items()))


@dataclass(frozen=True)
class WeightFamily:
    """Face weights given kind by kind, plus their Yang-Baxter shift.

    weight(kind, r, phi) is the weight of the vertex of that kind with base
    color r in {0, 1, 2}; ADMISSIBLE maps each quadruple (bl, br, tl, tr) of
    the index picture to its (kind, r), and every other quadruple weighs 0.
    """

    weight: Callable[[VertexKind, int, complex], complex] = field(repr=False)
    ybe_shift: complex = PI / 3

    def weight_table(self, phi: complex) -> dict[tuple[int, int, int, int], complex]:
        """All 18 admissible weights at one spectral parameter."""
        return {quad: self.weight(vk.kind, vk.r, phi) for quad, vk in ADMISSIBLE}


def raw_family(params: EllipticParams) -> WeightFamily:
    ctx = _weight_constants(params)
    return WeightFamily(weight=lambda kind, r, phi: _raw_weight_ctx(ctx, kind, r, complex(phi)))


def tilde_family(params: EllipticParams) -> WeightFamily:
    ctx = _weight_constants(params)
    return WeightFamily(weight=lambda kind, r, phi: _tilde_weight_ctx(ctx, kind, r, complex(phi)))


def sixvertex_family(eta: complex) -> WeightFamily:
    """Trigonometric six-vertex weights read as a face family (the base color
    is ignored).  Satisfies the Yang-Baxter equation with shift eta/2."""
    return WeightFamily(weight=lambda kind, r, phi: weight6v(kind, phi, eta), ybe_shift=eta / 2)


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
    the order of the module docstring.  Built on the first sweep."""
    pos = {quad: i for i, (quad, _) in enumerate(ADMISSIBLE)}
    rows = []
    for r, rp, rpp, s, sp, spp in itertools.product(range(3), repeat=6):
        lhs, rhs = [], []
        for t in range(3):
            a = ((rp, t, rpp, spp), (r, s, rp, t), (t, s, spp, sp))
            b = ((rp, r, rpp, t), (t, sp, rpp, spp), (r, s, t, sp))
            for side, quads in ((lhs, a), (rhs, b)):
                if all(q in pos for q in quads):
                    side.append((t, *(pos[q] for q in quads)))
        if lhs or rhs:
            rows.append(((r, rp, rpp, s, sp, spp), tuple(lhs), tuple(rhs)))
    return tuple(rows)


def ybe_sweep(fam: WeightFamily, phi: complex, phi_p: complex) -> YbeSweep:
    """Check the Yang-Baxter equation over all 3^6 boundary color assignments.

    Each side of an assignment of _live_assignments() is summed over its
    admissible t in ascending order.  Returns the worst |LHS - RHS|
    normalized by the largest triple product of an assignment, plus how many
    assignments were skipped because every triple product is exactly zero.
    """
    _rapidity(phi), _rapidity(phi_p)  # ValueError unless both are finite
    # weight_table lists the 18 weights in ADMISSIBLE order
    w_phi, w_php, w_u3 = (list(fam.weight_table(x).values())
                          for x in (phi, phi_p, phi - phi_p - fam.ybe_shift))
    residuals = []
    for _, lhs, rhs in _live_assignments():
        a = [w_phi[i] * w_php[j] * w_u3[k] for _, i, j, k in lhs]
        b = [w_u3[i] * w_php[j] * w_phi[k] for _, i, j, k in rhs]
        scale = max(map(abs, a + b))
        # a NaN product is not a zero one: checked, it fails (max skips it after zeros)
        if scale or any(a + b):
            residuals.append(abs(reduce(add, a, 0j) - reduce(add, b, 0j)) / (scale or cmath.nan))
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
    """Worst residual of Phi_r(phi - phi' - shift) = Phi_r(phi)/Phi_r(phi')."""
    return max((rel_residual(g.Phi(m, phi - php - g.shift),
                             g.Phi(m, phi) / g.Phi(m, php))
                for phi, php in pairs for m in range(3)), key=severity, default=0.0)


def apply_gauge_kindwise(fam: WeightFamily, g: GaugeData) -> WeightFamily:
    """Gauge application through the canonical integer corner lifts of each
    kind, ColoredVertexKind.corner_lifts (base r in {0,1,2}, neighbours
    written literally as r-1 / r+1)."""
    def weight(kind: VertexKind, r: int, phi: complex) -> complex:
        lbl, ltl, ltr, lbr = ColoredVertexKind(kind, r).corner_lifts()
        cc = g.C(lbl) / g.C(ltr)
        ff = g.Phi(ltl, phi) * g.Phi(lbr, phi) / (g.Phi(lbl, phi) * g.Phi(ltr, phi))
        return cc * ff * fam.weight(kind, r, phi)

    return WeightFamily(weight=weight, ybe_shift=fam.ybe_shift)


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
    return WeightFamily(weight=lambda kind, r, phi: _raw_weight_ctx(ctx, kind, r, -phi - PI / 3),
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
    t1_23 = sheet(TWO_PI_OVER_3)
    lam, lz = params.lam, sheet.log_zeta

    def weight(kind: VertexKind, r: int, phi: complex) -> complex:
        if kind in _ALPHAS:
            return sheet.zeta_pow(r, -3 * phi / (4 * PI)) * sheet(TWO_PI_OVER_3 + phi) / t1_23
        if kind in _BETAS:
            return -sheet.zeta_pow(r, 0.5 + 3 * phi / (4 * PI)) * sheet(phi) / t1_23
        expo = phi / (2 * PI)
        if kind is VertexKind.GAMMA:
            pre = guarded(cmath.exp, 1j * phi) * guarded(cmath.exp, expo * (lz[r] - lz[(r + 1) % 3]))
            return pre * sheet(lam + TWO_PI_OVER_3 * r - phi) / sheet.values[r]
        pre = guarded(cmath.exp, -1j * phi) * guarded(cmath.exp, expo * (lz[r] - lz[(r - 1) % 3]))
        return pre * sheet(lam + TWO_PI_OVER_3 * r + phi) / sheet.values[r]

    return WeightFamily(weight=weight, ybe_shift=0.0)


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
    b = sheet.values
    t1_23 = sheet(TWO_PI_OVER_3)
    lam = params.lam

    def weight(kind: VertexKind, r: int, phi: complex) -> complex:
        if kind in _ALPHAS:
            return sheet(TWO_PI_OVER_3 + phi) / t1_23
        if kind is VertexKind.BETA:
            return -(b[(r - 1) % 3] / b[r]) * sheet(phi) / t1_23
        if kind is VertexKind.BETA_P:
            return -(b[(r + 1) % 3] / b[r]) * sheet(phi) / t1_23
        if kind is VertexKind.GAMMA:
            return sheet(lam + TWO_PI_OVER_3 * r - phi) / b[r]
        return sheet(lam + TWO_PI_OVER_3 * r + phi) / b[r]

    return WeightFamily(weight=weight, ybe_shift=0.0)


def rosengren_match(params: EllipticParams, phis: Sequence[complex]) -> float:
    """Worst residual, over all kinds, bases and sample arguments, of the
    rosengren_gauge applied kindwise to the appendix family against the
    rosengren_family closed forms."""
    gauged = apply_gauge_kindwise(appendix_family(params), rosengren_gauge(params))
    target = rosengren_family(params)
    return max((rel_residual(gauged.weight(vk.kind, vk.r, phi),
                             target.weight(vk.kind, vk.r, phi))
                for _quad, vk in ADMISSIBLE for phi in phis), key=severity, default=0.0)
