"""Yang-Baxter sweeps, gauge machinery, and the half-period substitution chain."""

import itertools
import math
import random

import pytest

from icelab import (ColoredVertexKind, EllipticParams, EvaluationOverflowError, PoleError,
                    SpectralAssignment, VertexKind,
                    appendix_family, appendix_substitution,
                    apply_gauge_kindwise,
                    gauge_constraint_residual, phi_ratio_factor, psi_factor, raw_family,
                    raw_weight,
                    rosengren_family, rosengren_gauge, rosengren_match,
                    sixvertex_family, theta1, tilde_family, weight6v, ybe_sweep,
                    zeta_gauge)
from icelab.numutil import rel_residual
from icelab import yangbaxter
from icelab.yangbaxter import (ADMISSIBLE, GaugeData, WeightFamily, YbeSweep,
                               _live_assignments)
from test_threecoloring import _loop_classify_vertex, _run_fresh

PI = math.pi


def _loop_ybe_sweep(fam, phi, phi_p):
    """Element-by-element reference for ybe_sweep: both sides of the
    Yang-Baxter equation summed over the internal face t for each of the
    3^6 boundary assignments, skipping those with no nonzero triple product."""
    w_phi, w_php = fam.weight_table(phi), fam.weight_table(phi_p)
    w_u3 = fam.weight_table(phi - phi_p - fam.ybe_shift)

    def get(table, *quad):
        return table.get(quad, 0j)

    worst, checked, skipped = 0.0, 0, 0
    for r, rp, rpp, s, sp, spp in itertools.product(range(3), repeat=6):
        lhs = rhs = 0j
        scale = 0.0
        for t in range(3):
            a = get(w_phi, rp, t, rpp, spp) * get(w_php, r, s, rp, t) * get(w_u3, t, s, spp, sp)
            b = get(w_u3, rp, r, rpp, t) * get(w_php, t, sp, rpp, spp) * get(w_phi, r, s, t, sp)
            lhs += a
            rhs += b
            scale = max(scale, abs(a), abs(b))
        if scale == 0.0:
            skipped += 1
            continue
        checked += 1
        worst = max(worst, abs(lhs - rhs) / scale)
    return YbeSweep(residual=worst, checked=checked, skipped=skipped)


def params(p=0.2, lam=0.24):
    return EllipticParams.from_nome(p, lam=lam)


def _weight_at(fam, bl, br, tl, tr, phi):
    """W^{tl tr}_{bl br}(phi) of an admissible quadruple, colors read mod 3."""
    return fam.weight_table(phi)[tuple(c % 3 for c in (bl, br, tl, tr))]


def test_admissible_quadruples():
    # the corners table sorted in (bl, br, tl, tr) order equals the adjacency
    # filter over all 81 quadruples, classified by the % 3 loop reference,
    # in the same ascending order
    want = tuple(
        ((bl, br, tl, tr), _loop_classify_vertex(bl, tl, tr, br))
        for bl, br, tl, tr in itertools.product(range(3), repeat=4)
        if all((a - b) % 3 in (1, 2) for a, b in ((bl, tl), (tl, tr), (tr, br), (br, bl))))
    assert ADMISSIBLE == want
    assert len(ADMISSIBLE) == 18
    kinds = {}
    for _quad, vk in ADMISSIBLE:
        kinds.setdefault(vk.kind, set()).add(vk.r)
    assert all(bases == {0, 1, 2} for bases in kinds.values())


class TestYangBaxter:
    def test_raw_and_tilde_shifted_form(self):
        rnd = random.Random(40)
        pr = params()
        for fam in (raw_family(pr), tilde_family(pr)):
            assert fam.ybe_shift == PI / 3
            for _ in range(3):
                sweep = ybe_sweep(fam, rnd.uniform(0, PI), rnd.uniform(0, PI))
                assert sweep.residual < 1e-9
                assert sweep.checked == 60
                assert sweep.skipped == 729 - 60

    def test_sixvertex_any_crossing(self):
        rnd = random.Random(41)
        for eta in (2 * PI / 3, 1.1, 0.62):
            fam = sixvertex_family(eta)
            assert ybe_sweep(fam, rnd.uniform(0, PI), rnd.uniform(0, PI)).residual < 1e-10

    def test_tilde_family_trigonometric_limit(self):
        # at p = 0 the tilde family IS the six-vertex family at eta = 2pi/3
        pr = params(0.0, 0.3)
        fam = tilde_family(pr)
        ref = sixvertex_family(2 * PI / 3)
        for _quad, vk in ADMISSIBLE:
            assert fam.weight(vk.kind, vk.r, 0.37) == pytest.approx(
                ref.weight(vk.kind, vk.r, 0.37), rel=1e-12)
        assert ybe_sweep(fam, 0.41, 0.13).residual < 1e-10

    def test_sixvertex_difference_form_fails_at_generic_eta(self):
        # the trigonometric family needs the eta/2 offset in the third
        # argument; a plain difference form only coincides at eta = 2pi/3
        fam = sixvertex_family(1.1)
        broken = type(fam)(weight=fam.weight, ybe_shift=0.0)
        assert ybe_sweep(broken, 0.41, 0.13).residual > 1e-3

    def test_tensor_sweep_matches_loop(self):
        # the sparse sweep does the loop's arithmetic: results are equal
        rnd = random.Random(46)
        for p, lam in ((0.2, 0.24), (0.35, 0.5), (0.05, 0.9)):
            pr = params(p, lam)
            eta = rnd.uniform(0.3, 2.8)
            phi, php = rnd.uniform(0, PI), rnd.uniform(0, PI)
            for fam in (raw_family(pr), tilde_family(pr), appendix_family(pr),
                        appendix_substitution(pr), rosengren_family(pr),
                        sixvertex_family(eta)):
                assert ybe_sweep(fam, phi, php) == _loop_ybe_sweep(fam, phi, php)

    def test_broken_family_matches_loop(self):
        fam = sixvertex_family(1.1)
        broken = type(fam)(weight=fam.weight, ybe_shift=0.0)
        got = ybe_sweep(broken, 0.41, 0.13)
        assert got.residual > 1e-3
        assert got == _loop_ybe_sweep(broken, 0.41, 0.13)

    def test_live_assignments_are_the_nonzero_products(self):
        # every (assignment, side, t) whose three quadruples are admissible,
        # read off the loop reference's products with all 18 weights nonzero
        weights = WeightFamily(weight=lambda *args: 1.0 + 0j)
        tables = (weights.weight_table(0.0),) * 3
        want = set()
        for r, rp, rpp, s, sp, spp in itertools.product(range(3), repeat=6):
            for t in range(3):
                for side, quads in (("lhs", ((rp, t, rpp, spp), (r, s, rp, t), (t, s, spp, sp))),
                                    ("rhs", ((rp, r, rpp, t), (t, sp, rpp, spp), (r, s, t, sp)))):
                    if all(q in table for q, table in zip(quads, tables)):
                        want.add(((r, rp, rpp, s, sp, spp), side, t, quads))
        quad_at = [quad for quad, _ in ADMISSIBLE]
        got = set()
        rows = _live_assignments()
        for assignment, lhs, rhs in rows:
            for side, terms in (("lhs", lhs), ("rhs", rhs)):
                assert [t for t, *_ in terms] == sorted({t for t, *_ in terms})
                for t, *idx in terms:
                    got.add((assignment, side, t, tuple(quad_at[i] for i in idx)))
        assert got == want
        assert len(rows) == len({row[0] for row in rows}) == 60
        assert len(got) == 168
        assert _loop_ybe_sweep(weights, 0.0, 0.0).checked == 60

    def test_table_built_on_first_sweep_without_numpy(self):
        _run_fresh(
            "import sys, icelab",
            "from icelab.yangbaxter import _live_assignments",
            "assert _live_assignments.cache_info().currsize == 0",
            "pr = icelab.EllipticParams.from_nome(0.2, lam=0.24)",
            "sweep = icelab.ybe_sweep(icelab.tilde_family(pr), 0.5, 0.2)",
            "assert (sweep.checked, sweep.skipped) == (60, 669), sweep",
            "assert _live_assignments.cache_info().currsize == 1",
            "assert 'numpy' not in sys.modules",
        )

    def test_nan_weight_fails_the_sweep(self):
        # a NaN gamma_1 weight: the sweep returned 9.3e-16 with 60 checked,
        # the NaN assignment residuals dropped by max
        fam = raw_family(params())
        nan_gamma1 = WeightFamily(
            ybe_shift=fam.ybe_shift,
            weight=lambda kind, r, phi: (complex("nan") if (kind, r) == (VertexKind.GAMMA, 1)
                                         else fam.weight(kind, r, phi)))
        sweep = ybe_sweep(nan_gamma1, 0.51, 0.17)
        assert math.isnan(sweep.residual)
        assert sweep.checked == 60

    @pytest.mark.parametrize("kind", list(VertexKind))
    def test_nan_product_after_a_zero_is_checked(self, kind):
        # at u = -eta/2 some weights vanish; max dropped a NaN product that
        # came after a zero one, so 51 to 57 assignments were checked against
        # 54 for the finite family.  An assignment is skipped only when every
        # product is exactly zero.
        fam = sixvertex_family(1.1)
        assert ybe_sweep(fam, 0.3, 0.3).checked == 54
        nan_kind = WeightFamily(
            ybe_shift=fam.ybe_shift,
            weight=lambda k, r, phi: complex("nan") if k is kind else fam.weight(k, r, phi))
        tables = [list(nan_kind.weight_table(x).values())
                  for x in (0.3, 0.3, 0.3 - 0.3 - fam.ybe_shift)]
        want = sum(any(tables[0][i] * tables[1][j] * tables[2][k] != 0
                       for _, i, j, k in lhs)
                   or any(tables[2][i] * tables[1][j] * tables[0][k] != 0
                          for _, i, j, k in rhs)
                   for _, lhs, rhs in _live_assignments())
        sweep = ybe_sweep(nan_kind, 0.3, 0.3)
        assert math.isnan(sweep.residual)
        assert (sweep.checked, sweep.skipped) == (want, 729 - want)
        assert want >= 54

    def test_appendix_and_rosengren_difference_form(self):
        rnd = random.Random(42)
        pr = params()
        for fam in (appendix_family(pr), rosengren_family(pr), appendix_substitution(pr)):
            assert fam.ybe_shift == 0
            assert ybe_sweep(fam, rnd.uniform(-1, 1), rnd.uniform(-1, 1)).residual < 1e-9


class TestGauge:
    def test_identity_gauge_is_inert(self):
        pr = params()
        fam = tilde_family(pr)
        unit = GaugeData(C=lambda m: 1.0 + 0j, Phi=lambda m, phi: 1.0 + 0j)
        gauged = apply_gauge_kindwise(fam, unit)
        for _quad, vk in ADMISSIBLE:
            assert gauged.weight(vk.kind, vk.r, 0.37) == fam.weight(vk.kind, vk.r, 0.37)

    def test_zeta_gauge_sends_raw_to_tilde(self):
        rnd = random.Random(43)
        pr = params()
        gauged = apply_gauge_kindwise(raw_family(pr), zeta_gauge(pr))
        target = tilde_family(pr)
        for _quad, vk in ADMISSIBLE:
            x = rnd.uniform(-1, 1)
            got = gauged.weight(vk.kind, vk.r, x)
            want = target.weight(vk.kind, vk.r, x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_constraints(self):
        pr = params()
        pairs = [(0.9, 0.4), (0.2, -0.7), (1.3, 0.8)]
        assert gauge_constraint_residual(zeta_gauge(pr), pairs) < 1e-12
        assert gauge_constraint_residual(rosengren_gauge(pr), pairs) < 1e-12

    def test_nan_phi_fails_the_constraint(self):
        # a NaN Phi_2 after two finite colours gave residual 0.0
        g = zeta_gauge(params())
        nan_phi2 = GaugeData(C=g.C, shift=g.shift,
                             Phi=lambda m, phi: complex("nan") if m == 2 else g.Phi(m, phi))
        assert math.isnan(gauge_constraint_residual(nan_phi2, [(0.9, 0.4), (0.2, -0.7)]))

    def test_nan_target_weight_fails_the_rosengren_match(self, monkeypatch):
        # one NaN closed-form weight, the last kind in ADMISSIBLE order
        original = yangbaxter.rosengren_family
        last = ADMISSIBLE[-1][1]

        def with_nan(pr):
            fam = original(pr)
            return WeightFamily(
                ybe_shift=fam.ybe_shift,
                weight=lambda kind, r, phi: (complex("nan") if (kind, r) == (last.kind, last.r)
                                             else fam.weight(kind, r, phi)))

        assert rosengren_match(params(), phis=(0.17, 0.53)) < 1e-12
        monkeypatch.setattr(yangbaxter, "rosengren_family", with_nan)
        assert math.isnan(rosengren_match(params(), phis=(0.17, 0.53)))

    @pytest.mark.parametrize("evaluate", [
        lambda: rosengren_gauge(params(0.2, 0.4)).Phi(-1, 2000j),
        lambda: appendix_family(params(0.2, 0.4)).weight(VertexKind.GAMMA, 0, -2000j),
        lambda: psi_factor(0, EllipticParams.from_nome(0.2, lam=800j)),
        lambda: phi_ratio_factor(1, 0, SpectralAssignment(chi=[1e5], psi=[0.0]),
                                 params(0.2, 0.4)),
        lambda: rosengren_match(params(0.2, 0.4), phis=(2000j,)),
    ], ids=["rosengren_gauge", "appendix_family", "psi_factor", "phi_ratio_factor",
            "rosengren_match"])
    def test_overflowing_exponential_raises(self, evaluate):
        # a finite argument whose exp is past the doubles: cmath's bare
        # OverflowError escaped
        with pytest.raises(EvaluationOverflowError, match="^exp\\(x\\) overflows") as err:
            evaluate()
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("evaluate", [
        lambda: appendix_family(params(0.2, 0.4)).weight(VertexKind.ALPHA, 2, -2000j),
        lambda: zeta_gauge(params(0.2, 0.4)).Phi(1, 1e5),
        lambda: raw_weight(ColoredVertexKind(VertexKind.ALPHA, 0), 1e5, params(0.2, 0.4)),
    ], ids=["appendix_family", "zeta_gauge", "raw_weight"])
    def test_overflowing_zeta_power_raises(self, evaluate):
        # ThetaTriple.zeta_pow at a large exponent: cmath's bare OverflowError escaped
        with pytest.raises(EvaluationOverflowError, match="^zeta_") as err:
            evaluate()
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("evaluate, error, message", [
        (lambda: raw_weight(ColoredVertexKind(VertexKind.GAMMA, 2), 1e5, params(0.2, 0.4)),
         EvaluationOverflowError, "^GAMMA prefactor overflows"),
        (lambda: raw_weight(ColoredVertexKind(VertexKind.GAMMA_P, 1), 1e5, params(0.2, 0.4)),
         EvaluationOverflowError, "^GAMMA_P prefactor overflows"),
        (lambda: ybe_sweep(raw_family(params(0.2, 0.4)), 1e5, 0.3),
         EvaluationOverflowError, "^GAMMA_P prefactor overflows"),
        (lambda: weight6v(VertexKind.ALPHA, math.inf, 1.1),
         ValueError, r"^rapidity \(inf\+0j\) is not finite"),
        (lambda: ybe_sweep(sixvertex_family(1.1), math.inf, 0.3),
         ValueError, r"^rapidity \(inf\+0j\) is not finite"),
        (lambda: ybe_sweep(sixvertex_family(1.1), math.nan, 0.3),
         ValueError, r"^rapidity \(nan\+0j\) is not finite"),
    ], ids=["raw_weight-gamma", "raw_weight-gamma_p", "ybe_sweep-raw", "weight6v-inf",
            "ybe_sweep-sixvertex-inf", "ybe_sweep-sixvertex-nan"])
    def test_public_seams_raise_typed_errors(self, evaluate, error, message):
        # the gamma and gamma' prefactor exps raised cmath's bare OverflowError,
        # an infinite phi cmath's bare "math domain error" ValueError, and a
        # NaN phi gave the six-vertex sweep a NaN residual and no error
        with pytest.raises(error, match=message):
            evaluate()

    def test_gauge_preserves_ybe(self):
        pr = params()
        before = raw_family(pr)
        after = apply_gauge_kindwise(before, zeta_gauge(pr))
        assert ybe_sweep(before, 0.51, 0.17).residual < 1e-9
        assert ybe_sweep(after, 0.51, 0.17).residual < 1e-9


class TestSubstitutionChain:
    def test_substitution_matches_closed_forms(self):
        rnd = random.Random(44)
        pr = params(0.2, 0.22)
        sub = appendix_substitution(pr)
        closed = appendix_family(pr)
        for _quad, vk in ADMISSIBLE:
            for _ in range(3):
                x = rnd.uniform(-1.2, 1.2)
                got = sub.weight(vk.kind, vk.r, x)
                want = closed.weight(vk.kind, vk.r, x)
                assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("wrong_map, shift", [
        # sub.weight(phi - pi/3) is the raw family at -phi: the -pi/3 dropped
        ("phi -> -phi", lambda phi: phi - PI / 3),
        # sub.weight(-phi - 2pi/3) is the raw family at phi + pi/3: sign wrong
        ("phi -> phi + pi/3", lambda phi: -phi - 2 * PI / 3),
    ])
    def test_wrong_phi_map_misses_closed_forms(self, wrong_map, shift):
        # negative controls of the substitution chain: the substituted raw
        # family under a wrong phi map is far from the closed forms, while the
        # right map matches them to roundoff
        rnd = random.Random(47)
        for p, lam in ((0.2, 0.22), (0.35, 0.5), (0.05, 0.9)):
            pr = params(p, lam)
            sub, closed = appendix_substitution(pr), appendix_family(pr)
            phis = [rnd.uniform(-1.2, 1.2) for _ in range(3)]

            def miss(weight):
                return max(rel_residual(weight(vk.kind, vk.r, x),
                                        closed.weight(vk.kind, vk.r, x))
                           for _quad, vk in ADMISSIBLE for x in phis)

            assert miss(sub.weight) < 1e-12
            assert miss(lambda kind, r, x: sub.weight(kind, r, shift(x))) > 1e-3, wrong_map

    def test_substitution_at_zero_nome_raises_pole_error(self):
        # every theta1(lambda + 2pi m/3 | 0) vanishes: a typed error comes
        # before the substitution's log(p)
        for fam in (appendix_substitution, appendix_family):
            with pytest.raises(PoleError):
                fam(params(0.0, 0.3))

    def test_appendix_zeta_product(self):
        # the theta1-based zeta values also multiply to one
        pr = params(0.25, 0.19)
        b = [theta1(pr.lam + 2 * PI * m / 3, pr) for m in range(3)]
        zetas = [b[(m - 1) % 3] * b[(m + 1) % 3] / b[m] ** 2 for m in range(3)]
        assert zetas[0] * zetas[1] * zetas[2] == pytest.approx(1.0, rel=1e-12)
        # two of the three are negative on the real domain
        assert sum(z.real < 0 for z in zetas) == 2

    def test_rosengren_match(self):
        rnd = random.Random(45)
        for p, lam in ((0.2, 0.22), (0.3, 0.1), (0.15, 0.4)):
            phis = tuple(rnd.uniform(-1, 1) for _ in range(5))
            assert rosengren_match(params(p, lam), phis=phis) < 1e-9

    def test_final_alpha_is_base_independent(self):
        pr = params()
        fam = rosengren_family(pr)
        phi = 0.37
        vals = {_weight_at(fam, r, r + 1, r - 1, r, phi) for r in range(3)}
        ref = theta1(2 * PI / 3 + phi, pr) / theta1(2 * PI / 3, pr)
        for v in vals:
            assert v == pytest.approx(ref, rel=1e-10)

    def test_final_gamma_at_zero(self):
        pr = params()
        fam = rosengren_family(pr)
        for r in range(3):
            # gamma pattern: bl = r+1, br = r, tl = r, tr = r+1
            assert _weight_at(fam, r + 1, r, r, r + 1, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_beta_sign_is_forced(self):
        # the gauge chain produces -[b_{r-1}/b_r] theta1(phi)/theta1(2pi/3) on
        # the beta pair; the plus variant is not reachable by any constant
        # gauge (C_{r+1}/C_{r-1} = -1 for all r has no solution)
        pr = params()
        gauged = apply_gauge_kindwise(appendix_family(pr), rosengren_gauge(pr))
        phi = 0.29
        t_ratio = theta1(phi, pr) / theta1(2 * PI / 3, pr)
        b = [theta1(pr.lam + 2 * PI * m / 3, pr) for m in range(3)]
        for r in range(3):
            got = _weight_at(gauged, r + 1, r, r, r - 1, phi)   # beta pattern
            minus_form = -(b[(r - 1) % 3] / b[r]) * t_ratio
            plus_form = (b[(r - 1) % 3] / b[r]) * t_ratio
            assert got == pytest.approx(minus_form, rel=1e-10)
            assert abs(got - plus_form) > 1e-3 * abs(plus_form)
