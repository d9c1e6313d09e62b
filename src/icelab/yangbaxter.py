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
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .numutil import cmul, rel_residual
from .theta import (DEFAULT_SERIES, PI, TWO_PI_OVER_3, EllipticParams,
                    SeriesConfig, theta1, theta4, theta_triple)
from .sixvertex import VertexKind, weight6v
from .threecoloring import (ColoredVertexKind, classify_vertex, raw_weight,
                            tilde_weight)

Evaluator = Callable[[int, int, int, int, complex], complex]

#: the 18 admissible (bl, br, tl, tr) quadruples with their kind and base
ADMISSIBLE: tuple[tuple[tuple[int, int, int, int], ColoredVertexKind], ...] = tuple(
    (quad, classify_vertex(*(quad[0], quad[2], quad[3], quad[1])))
    for quad in [
        (bl, br, tl, tr)
        for bl in range(3) for br in range(3) for tl in range(3) for tr in range(3)
        if all((a - b) % 3 in (1, 2) for a, b in
               ((bl, tl), (tl, tr), (tr, br), (br, bl)))
    ]
)
_KIND_OF_QUAD: dict[tuple[int, int, int, int], ColoredVertexKind] = dict(ADMISSIBLE)


def _kind_of(bl: int, br: int, tl: int, tr: int) -> ColoredVertexKind:
    """Kind and base color of an admissible (bl, br, tl, tr) quadruple, read
    from ADMISSIBLE; any other quadruple raises InvalidColoringError."""
    vk = _KIND_OF_QUAD.get((bl % 3, br % 3, tl % 3, tr % 3))
    return vk if vk is not None else classify_vertex(bl, tl, tr, br)


@dataclass(frozen=True)
class WeightFamily:
    """Evaluator for W^{tl tr}_{bl br}(phi) plus its Yang-Baxter shift.

    evaluate(r, s, rp, sp, phi) follows the index picture: r bottom-left,
    s bottom-right, rp top-left, sp top-right.
    """

    name: str
    evaluator: Evaluator = field(repr=False)
    ybe_shift: complex = PI / 3

    @property
    def ybe_form(self) -> str:
        return "difference" if self.ybe_shift == 0 else "shifted"

    def evaluate(self, r: int, s: int, rp: int, sp: int, phi: complex) -> complex:
        if (r % 3, s % 3, rp % 3, sp % 3) not in _KIND_OF_QUAD:
            return 0j
        return self.evaluator(r % 3, s % 3, rp % 3, sp % 3, phi)

    def weight_table(self, phi: complex) -> dict[tuple[int, int, int, int], complex]:
        """All 18 admissible weights at one spectral parameter."""
        return {(bl, br, tl, tr): self.evaluator(bl, br, tl, tr, phi)
                for (bl, br, tl, tr), _ in ADMISSIBLE}


def _kindwise_evaluator(weight_of_kind: Callable[[ColoredVertexKind, complex], complex]) -> Evaluator:
    def evaluate(bl: int, br: int, tl: int, tr: int, phi: complex) -> complex:
        return weight_of_kind(_kind_of(bl, br, tl, tr), phi)
    return evaluate


def raw_family(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> WeightFamily:
    return WeightFamily(
        name="raw",
        evaluator=_kindwise_evaluator(lambda v, phi: raw_weight(v, phi, params, cfg)),
        ybe_shift=PI / 3)


def tilde_family(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> WeightFamily:
    return WeightFamily(
        name="tilde",
        evaluator=_kindwise_evaluator(lambda v, phi: tilde_weight(v, phi, params, cfg)),
        ybe_shift=PI / 3)


def sixvertex_family(eta: complex) -> WeightFamily:
    """Trigonometric six-vertex weights read as a face family (the base color
    is ignored).  Satisfies the Yang-Baxter equation with shift eta/2."""
    return WeightFamily(
        name="sixvertex",
        evaluator=_kindwise_evaluator(lambda v, phi: weight6v(v.kind, phi, eta)),
        ybe_shift=eta / 2)


@dataclass(frozen=True)
class YbeSweep:
    residual: float
    checked: int
    skipped: int


def ybe_sweep(fam: WeightFamily, phi: complex, phi_p: complex) -> YbeSweep:
    """Check the Yang-Baxter equation over all 3^6 boundary color assignments.

    Each side is one broadcast product of dense (3, 3, 3, 3) weight tensors,
    zero at inadmissible quadruples.  Returns the worst |LHS - RHS| normalized
    by the largest triple product of an assignment, plus how many assignments
    were skipped because no admissible internal face exists on either side.
    """
    import numpy as np

    def tensor(table):
        w = np.zeros((3, 3, 3, 3), dtype=complex)
        for quad, value in table.items():
            w[quad] = value
        return w

    def spread(w, idx):
        # w[idx] over the axes abcdefg = (r, r', r'', s, s', s'', t); 1 where unused
        v = w.transpose([idx.index(c) for c in sorted(idx)])
        return v.reshape([3 if c in idx else 1 for c in "abcdefg"])

    w_phi = tensor(fam.weight_table(phi))
    w_php = tensor(fam.weight_table(phi_p))
    w_u3 = tensor(fam.weight_table(phi - phi_p - fam.ybe_shift))
    a = cmul(cmul(spread(w_phi, "bgcf"), spread(w_php, "adbg")), spread(w_u3, "gdfe"))
    b = cmul(cmul(spread(w_u3, "bacg"), spread(w_php, "gecf")), spread(w_phi, "adge"))
    gap = (a[..., 0] + a[..., 1] + a[..., 2]) - (b[..., 0] + b[..., 1] + b[..., 2])
    # np.hypot rounds like abs() on Python complex numbers; np.abs may not
    scale = np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)).max(axis=-1)
    live = scale != 0.0
    checked = int(live.sum())
    worst = (np.hypot(gap.real, gap.imag)[live] / scale[live]).max() if checked else 0.0
    return YbeSweep(residual=float(worst), checked=checked, skipped=live.size - checked)


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


def identity_gauge(shift: complex = PI / 3) -> GaugeData:
    return GaugeData(C=lambda m: 1.0 + 0j, Phi=lambda m, phi: 1.0 + 0j, shift=shift)


def zeta_gauge(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> GaugeData:
    """C = 1, Phi_r(phi) = zeta_r^{1/12 + phi/4pi}; turns the raw family into
    the tilde family."""
    tri = theta_triple(theta4, params, cfg)

    def phi_fn(m: int, phi: complex) -> complex:
        return tri.zeta_pow(m, 1.0 / 12.0 + phi / (4 * PI))

    return GaugeData(C=lambda m: 1.0 + 0j, Phi=phi_fn, shift=PI / 3)


def gauge_constraint_residual(g: GaugeData, pairs: Sequence[tuple[complex, complex]]) -> float:
    """Worst residual of Phi_r(phi - phi' - shift) = Phi_r(phi)/Phi_r(phi')."""
    worst = 0.0
    for phi, php in pairs:
        for m in range(3):
            lhs = g.Phi(m, phi - php - g.shift)
            rhs = g.Phi(m, phi) / g.Phi(m, php)
            worst = max(worst, rel_residual(lhs, rhs))
    return worst


def apply_gauge_kindwise(fam: WeightFamily, g: GaugeData) -> WeightFamily:
    """Gauge application through the canonical integer corner lifts of each
    kind (base r in {0,1,2}, neighbours written literally as r-1 / r+1)."""
    def evaluate(bl: int, br: int, tl: int, tr: int, phi: complex) -> complex:
        vk = _kind_of(bl, br, tl, tr)
        lbl, ltl, ltr, lbr = vk.corner_lifts()
        cc = g.C(lbl) / g.C(ltr)
        ff = g.Phi(ltl, phi) * g.Phi(lbr, phi) / (g.Phi(lbl, phi) * g.Phi(ltr, phi))
        return cc * ff * fam.evaluator(bl, br, tl, tr, phi)

    return WeightFamily(name=f"{fam.name}+gauge", evaluator=evaluate,
                        ybe_shift=fam.ybe_shift)


# ---------------------------------------------------------------------------
# Half-period substitution chain
# ---------------------------------------------------------------------------


def _substituted_evaluator(params: EllipticParams, cfg: SeriesConfig) -> Evaluator:
    """Raw family at (lambda + pi*tau/2, -phi - pi/3), with every theta4 at
    the shifted lambda reduced through

        theta4(x + pi*tau/2 | p) = i p^{-1/4} e^{-i x} theta1(x | p)

    so that values and fractional powers stay on the theta1 sheet.  The logs
    of the shifted theta4 values are assembled as sums (the i p^{-1/4} e^{-ix}
    parts cancel in every zeta combination), never re-wrapped.
    """
    sheet = theta_triple(theta1, params, cfg)
    lam = params.lam
    p = params.p
    log_pref = cmath.log(1j) - 0.25 * cmath.log(p)

    def log_a_at(m: int) -> complex:
        # log of theta4(lambda + pi*tau/2 + 2pi m/3) assembled analytically;
        # the linear part keeps the literal integer m so that the zeta
        # combination below cancels it exactly
        return log_pref - 1j * (lam + TWO_PI_OVER_3 * m) + sheet.logs[m % 3]

    log_zeta = [log_a_at(m - 1) + log_a_at(m + 1) - 2 * log_a_at(m) for m in range(3)]

    def theta4_shifted(x: complex) -> complex:
        return cmath.exp(log_pref) * cmath.exp(-1j * x) * sheet(x)

    t1_23 = sheet(TWO_PI_OVER_3)

    def weight_of_kind(vk: ColoredVertexKind, phi: complex) -> complex:
        r = int(vk.r)
        fsub = -phi - PI / 3
        kind = vk.kind
        if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
            return (cmath.exp((0.25 + 3 * fsub / (4 * PI)) * log_zeta[r])
                    * sheet(PI / 3 - fsub) / t1_23)
        if kind in (VertexKind.BETA, VertexKind.BETA_P):
            return (cmath.exp((0.25 - 3 * fsub / (4 * PI)) * log_zeta[r])
                    * sheet(PI / 3 + fsub) / t1_23)
        expo = 1.0 / 6.0 + fsub / (2 * PI)
        if kind is VertexKind.GAMMA:
            pre = cmath.exp(expo * (log_zeta[(r + 1) % 3] - log_zeta[r]))
            return pre * (theta4_shifted(lam + TWO_PI_OVER_3 * r + PI / 3 + fsub)
                          / theta4_shifted(lam + TWO_PI_OVER_3 * r))
        pre = cmath.exp(expo * (log_zeta[(r - 1) % 3] - log_zeta[r]))
        return pre * (theta4_shifted(lam + TWO_PI_OVER_3 * r - PI / 3 - fsub)
                      / theta4_shifted(lam + TWO_PI_OVER_3 * r))

    return _kindwise_evaluator(weight_of_kind)


def appendix_substitution(params: EllipticParams,
                          cfg: SeriesConfig = DEFAULT_SERIES) -> WeightFamily:
    """The raw family after lambda -> lambda + pi*tau/2, phi -> -phi - pi/3.

    The result is a difference-form family whose values coincide with the
    theta1-based closed forms of appendix_family.
    """
    return WeightFamily(name="substituted", evaluator=_substituted_evaluator(params, cfg),
                        ybe_shift=0.0)


def appendix_family(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> WeightFamily:
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
    sheet = theta_triple(theta1, params, cfg)
    t1_23 = sheet(TWO_PI_OVER_3)
    lam = params.lam

    def weight_of_kind(vk: ColoredVertexKind, phi: complex) -> complex:
        r = int(vk.r)
        kind = vk.kind
        if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
            return sheet.zeta_pow(r, -3 * phi / (4 * PI)) * sheet(TWO_PI_OVER_3 + phi) / t1_23
        if kind in (VertexKind.BETA, VertexKind.BETA_P):
            return -sheet.zeta_pow(r, 0.5 + 3 * phi / (4 * PI)) * sheet(phi) / t1_23
        expo = phi / (2 * PI)
        if kind is VertexKind.GAMMA:
            pre = cmath.exp(1j * phi) * cmath.exp(expo * (sheet.log_zeta[r] - sheet.log_zeta[(r + 1) % 3]))
            return pre * sheet(lam + TWO_PI_OVER_3 * r - phi) / sheet.values[r]
        pre = cmath.exp(-1j * phi) * cmath.exp(expo * (sheet.log_zeta[r] - sheet.log_zeta[(r - 1) % 3]))
        return pre * sheet(lam + TWO_PI_OVER_3 * r + phi) / sheet.values[r]

    return WeightFamily(name="appendix", evaluator=_kindwise_evaluator(weight_of_kind),
                        ybe_shift=0.0)


def rosengren_gauge(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> GaugeData:
    """C_m = e^{i pi/2} theta1(lambda + 2pi m/3)^{-1/2},
    Phi_m(phi) = e^{i m phi/2} zeta_m^{-phi/4pi} (theta1-based zeta).

    Phi is label-sensitive through e^{i m phi/2}; apply it with
    apply_gauge_kindwise.  Satisfies the difference-form constraint.
    """
    sheet = theta_triple(theta1, params, cfg)

    def c_fn(m: int) -> complex:
        return 1j * cmath.exp(-0.5 * sheet.logs[m % 3])

    def phi_fn(m: int, phi: complex) -> complex:
        return cmath.exp(0.5j * m * phi) * cmath.exp(-(phi / (4 * PI)) * sheet.log_zeta[m % 3])

    return GaugeData(C=c_fn, Phi=phi_fn, shift=0.0)


def rosengren_family(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES) -> WeightFamily:
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
    sheet = theta_triple(theta1, params, cfg)
    b = sheet.values
    t1_23 = sheet(TWO_PI_OVER_3)
    lam = params.lam

    def weight_of_kind(vk: ColoredVertexKind, phi: complex) -> complex:
        r = int(vk.r)
        kind = vk.kind
        if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
            return sheet(TWO_PI_OVER_3 + phi) / t1_23
        if kind is VertexKind.BETA:
            return -(b[(r - 1) % 3] / b[r]) * sheet(phi) / t1_23
        if kind is VertexKind.BETA_P:
            return -(b[(r + 1) % 3] / b[r]) * sheet(phi) / t1_23
        if kind is VertexKind.GAMMA:
            return sheet(lam + TWO_PI_OVER_3 * r - phi) / b[r]
        return sheet(lam + TWO_PI_OVER_3 * r + phi) / b[r]

    return WeightFamily(name="rosengren", evaluator=_kindwise_evaluator(weight_of_kind),
                        ybe_shift=0.0)


def rosengren_match(params: EllipticParams, cfg: SeriesConfig = DEFAULT_SERIES,
                    phis: Sequence[complex] = (0.17, 0.53, -0.4, 0.91, -0.08)) -> float:
    """Worst residual, over all kinds, bases and sample arguments, of the
    rosengren_gauge applied kindwise to the appendix family against the
    rosengren_family closed forms."""
    gauged = apply_gauge_kindwise(appendix_family(params, cfg), rosengren_gauge(params, cfg))
    target = rosengren_family(params, cfg)
    worst = 0.0
    for (bl, br, tl, tr), _ in ADMISSIBLE:
        for phi in phis:
            got = gauged.evaluator(bl, br, tl, tr, phi)
            want = target.evaluator(bl, br, tl, tr, phi)
            worst = max(worst, rel_residual(got, want))
    return worst
