"""Yang-Baxter sweeps, gauge machinery, and the half-period substitution chain."""

import cmath
import collections
import dataclasses
import itertools
import math
import random
import struct

import pytest

from icelab import (ColoredVertexKind, EllipticParams, EvaluationOverflowError,
                    NonFiniteParameterError, PoleError, SpectralAssignment, VertexKind,
                    appendix_family, appendix_substitution,
                    apply_gauge_kindwise,
                    gauge_constraint_residual, phi_ratio_factor, psi_factor, raw_family,
                    raw_weight,
                    rosengren_family, rosengren_gauge, rosengren_match,
                    sixvertex_family, theta1, tilde_family, tilde_weight, weight6v, ybe_sweep,
                    zeta_gauge)
from icelab.numutil import guarded, rel_residual
from icelab import yangbaxter
from icelab.theta import TWO_PI_OVER_3, theta_triple
from icelab.yangbaxter import (ADMISSIBLE, GaugeData, WeightFamily, YbeSweep,
                               _live_assignments)
from test_threecoloring import _loop_classify_vertex, _run_fresh

PI = math.pi


def _loop_ybe_sweep(fam, phi, phi_p):
    """Element-by-element reference for ybe_sweep: for each of the 3^6
    boundary assignments, the triple products of each side over the
    admissible internal faces t in ascending order, each (x * y) * z, summed
    from 0j.  An assignment is skipped when every product is exactly zero;
    its residual is |LHS - RHS| over the largest product modulus, LHS
    products first, and a NaN product (which max drops after a zero one)
    makes it NaN."""
    w_phi, w_php, w_u3 = (_by_quad(fam.weight_table(x))
                          for x in (phi, phi_p, phi - phi_p - fam.ybe_shift))
    residuals = []
    for r, rp, rpp, s, sp, spp in itertools.product(range(3), repeat=6):
        lhs, rhs = [], []
        for t in range(3):
            a = (rp, t, rpp, spp), (r, s, rp, t), (t, s, spp, sp)
            b = (rp, r, rpp, t), (t, sp, rpp, spp), (r, s, t, sp)
            if all(q in w_phi for q in a):
                lhs.append(w_phi[a[0]] * w_php[a[1]] * w_u3[a[2]])
            if all(q in w_phi for q in b):
                rhs.append(w_u3[b[0]] * w_php[b[1]] * w_phi[b[2]])
        if any(lhs + rhs):  # a NaN is truthy
            scale = max(abs(x) for x in lhs + rhs)
            residuals.append(abs(sum(lhs, 0j) - sum(rhs, 0j)) / (scale or math.nan))
    worst = max(residuals, key=lambda x: (math.isnan(x), x), default=0.0)
    return YbeSweep(residual=worst, checked=len(residuals), skipped=729 - len(residuals))


def _by_quad(table):
    """A weight_table list keyed by its ADMISSIBLE quadruples."""
    return dict(zip((quad for quad, _ in ADMISSIBLE), table))


def _bits(sweep):
    return float.hex(sweep.residual), sweep.checked, sweep.skipped


def _nan_where(fam, hit):
    """fam with a NaN weight at each ADMISSIBLE entry whose ColoredVertexKind hit accepts."""
    return WeightFamily(lambda phi: [complex("nan") if hit(vk) else w
                                     for w, (_, vk) in zip(fam.weight_table(phi), ADMISSIBLE)],
                        ybe_shift=fam.ybe_shift)


def params(p=0.2, lam=0.24):
    return EllipticParams.from_nome(p, lam=lam)


def _cbits(values):
    """The bytes of each complex value, so that -0.0 and 0.0 differ."""
    return [struct.pack("dd", z.real, z.imag) for z in values]


def _appendix_entry(pr, kind, r, phi):
    """One weight of appendix_family, as its docstring writes it."""
    sheet = theta_triple(theta1, pr)
    lz, t1_23 = sheet.log_zeta, sheet(TWO_PI_OVER_3)
    if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
        return sheet.zeta_pow(r, -3 * phi / (4 * PI)) * sheet(TWO_PI_OVER_3 + phi) / t1_23
    if kind in (VertexKind.BETA, VertexKind.BETA_P):
        return -sheet.zeta_pow(r, 0.5 + 3 * phi / (4 * PI)) * sheet(phi) / t1_23
    expo = phi / (2 * PI)
    if kind is VertexKind.GAMMA:
        pre = guarded(cmath.exp, 1j * phi) * guarded(cmath.exp, expo * (lz[r] - lz[(r + 1) % 3]))
        return pre * sheet(pr.lam + TWO_PI_OVER_3 * r - phi) / sheet.values[r]
    pre = guarded(cmath.exp, -1j * phi) * guarded(cmath.exp, expo * (lz[r] - lz[(r - 1) % 3]))
    return pre * sheet(pr.lam + TWO_PI_OVER_3 * r + phi) / sheet.values[r]


def _rosengren_entry(pr, kind, r, phi):
    """One weight of rosengren_family, as its docstring writes it."""
    sheet = theta_triple(theta1, pr)
    b, t1_23 = sheet.values, sheet(TWO_PI_OVER_3)
    if kind in (VertexKind.ALPHA, VertexKind.ALPHA_P):
        return sheet(TWO_PI_OVER_3 + phi) / t1_23
    if kind is VertexKind.BETA:
        return -(b[(r - 1) % 3] / b[r]) * sheet(phi) / t1_23
    if kind is VertexKind.BETA_P:
        return -(b[(r + 1) % 3] / b[r]) * sheet(phi) / t1_23
    if kind is VertexKind.GAMMA:
        return sheet(pr.lam + TWO_PI_OVER_3 * r - phi) / b[r]
    return sheet(pr.lam + TWO_PI_OVER_3 * r + phi) / b[r]


def _gauged_entry(entry, g, vk, phi):
    """One weight of apply_gauge_kindwise(fam, g), entry(kind, r, phi) giving fam's."""
    lbl, ltl, ltr, lbr = vk.corner_lifts()
    cc = g.C(lbl) / g.C(ltr)
    ff = g.Phi(ltl, phi) * g.Phi(lbr, phi) / (g.Phi(lbl, phi) * g.Phi(ltr, phi))
    return cc * ff * entry(vk.kind, vk.r, phi)


def _substitution_entry(monkeypatch, pr):
    """One weight of appendix_substitution(pr): _raw_weight_ctx at -phi - pi/3
    under the context the family passes it."""
    seen, weight_ctx = [], yangbaxter._raw_weight_ctx
    with monkeypatch.context() as patch:
        patch.setattr(yangbaxter, "_raw_weight_ctx", lambda *args: seen.append(args[0]))
        appendix_substitution(pr).weight_table(0.0)
    return lambda kind, r, phi: weight_ctx(seen[0], kind, r, -phi - PI / 3)


def _weight_at(fam, bl, br, tl, tr, phi):
    """W^{tl tr}_{bl br}(phi) of an admissible quadruple, colors read mod 3."""
    return _by_quad(fam.weight_table(phi))[tuple(c % 3 for c in (bl, br, tl, tr))]


def _loop_admissible():
    """Each quadruple (bl, br, tl, tr) of the adjacency filter over all 81,
    with its kind from the % 3 loop reference."""
    return {(bl, br, tl, tr): _loop_classify_vertex(bl, tl, tr, br)
            for bl, br, tl, tr in itertools.product(range(3), repeat=4)
            if all((a - b) % 3 in (1, 2) for a, b in ((bl, tl), (tl, tr), (tr, br), (br, bl)))}


def test_admissible_quadruples():
    # the loop classification listed kind by kind in VertexKind order, base
    # by base: entry 3k + r is the k-th kind with base r
    kinds = list(VertexKind)
    want = tuple(sorted(_loop_admissible().items(),
                        key=lambda row: (kinds.index(row[1].kind), row[1].r)))
    assert ADMISSIBLE == want
    assert [3 * kinds.index(vk.kind) + vk.r for _, vk in ADMISSIBLE] == list(range(18))


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
        broken = dataclasses.replace(fam, ybe_shift=0.0)
        assert ybe_sweep(broken, 0.41, 0.13).residual > 1e-3

    def test_tensor_sweep_matches_loop(self):
        # the flat products and the one residual form do the loop's arithmetic:
        # the residual's bits, checked and skipped are the loop's
        rnd = random.Random(46)
        for p, lam in ((0.2, 0.24), (0.35, 0.5), (0.05, 0.9)):
            pr = params(p, lam)
            eta = rnd.uniform(0.3, 2.8)
            phi, php = rnd.uniform(0, PI), rnd.uniform(0, PI)
            for fam in (raw_family(pr), tilde_family(pr), appendix_family(pr),
                        appendix_substitution(pr), rosengren_family(pr),
                        sixvertex_family(eta)):
                assert _bits(ybe_sweep(fam, phi, php)) == _bits(_loop_ybe_sweep(fam, phi, php))

    def test_weight_tables_match_entry_by_entry_references(self, monkeypatch):
        # each table, built from its distinct values, has the bits of its
        # weights evaluated one entry at a time in ADMISSIBLE order: the
        # public per-entry functions, the closed forms as written, the raw
        # weight function under the substitution's context and the old
        # per-entry gauge
        for p, lam in ((0.2, 0.24), (0.35, 0.5), (0.05, 0.9)):
            pr = params(p, lam)
            cases = [
                (raw_family(pr), lambda kind, r, x: raw_weight(ColoredVertexKind(kind, r), x, pr)),
                (tilde_family(pr),
                 lambda kind, r, x: tilde_weight(ColoredVertexKind(kind, r), x, pr)),
                (sixvertex_family(1.1), lambda kind, r, x: weight6v(kind, x, 1.1)),
                (sixvertex_family(0.62 + 0.1j), lambda kind, r, x: weight6v(kind, x, 0.62 + 0.1j)),
                (appendix_family(pr), lambda kind, r, x: _appendix_entry(pr, kind, r, x)),
                (appendix_substitution(pr), _substitution_entry(monkeypatch, pr)),
                (rosengren_family(pr), lambda kind, r, x: _rosengren_entry(pr, kind, r, x)),
                (apply_gauge_kindwise(raw_family(pr), zeta_gauge(pr)),
                 lambda kind, r, x: _gauged_entry(
                     lambda k, s, y: raw_weight(ColoredVertexKind(k, s), y, pr),
                     zeta_gauge(pr), ColoredVertexKind(kind, r), x)),
                (apply_gauge_kindwise(appendix_family(pr), rosengren_gauge(pr)),
                 lambda kind, r, x: _gauged_entry(
                     lambda k, s, y: _appendix_entry(pr, k, s, y),
                     rosengren_gauge(pr), ColoredVertexKind(kind, r), x))]
            for fam, entry in cases:
                for phi in (0.37, -1.1, 0.4 + 0.3j, -0.2 - 0.5j):
                    want = [entry(vk.kind, vk.r, phi) for _, vk in ADMISSIBLE]
                    assert _cbits(fam.weight_table(phi)) == _cbits(want), (p, lam, phi)

    def test_weight_tables_evaluate_each_distinct_value_once(self, monkeypatch):
        # one call per formula and base for the raw and tilde weights (alpha'
        # takes alpha's, beta' beta's), one per formula for the six-vertex ones
        # (gamma = gamma' = 1, no base); a gauge's C and Phi once per lift -1..3
        pr = params()
        for name, make, arg, calls in (("_raw_weight_ctx", raw_family, pr, 12),
                                       ("_raw_weight_ctx", appendix_substitution, pr, 12),
                                       ("_tilde_weight_ctx", tilde_family, pr, 12),
                                       ("weight6v", sixvertex_family, 1.1, 3)):
            seen = []
            original = getattr(yangbaxter, name)
            with monkeypatch.context() as patch:
                patch.setattr(yangbaxter, name, lambda *a: seen.append(a) or original(*a))
                make(arg).weight_table(0.37)
            assert len(seen) == calls, (make, seen)
        g, seen = zeta_gauge(pr), []
        counted = GaugeData(C=lambda m: seen.append(("C", m)) or g.C(m),
                            Phi=lambda m, x: seen.append(("Phi", m)) or g.Phi(m, x))
        apply_gauge_kindwise(raw_family(pr), counted).weight_table(0.37)
        assert sorted(seen) == sorted((f, m) for f in ("C", "Phi") for m in range(-1, 4))

    def test_broken_family_matches_loop(self):
        fam = sixvertex_family(1.1)
        broken = dataclasses.replace(fam, ybe_shift=0.0)
        got = ybe_sweep(broken, 0.41, 0.13)
        assert got.residual > 1e-3
        assert _bits(got) == _bits(_loop_ybe_sweep(broken, 0.41, 0.13))

    def test_hand_built_families_match_loop(self):
        # weight tables drawn from 0, NaN and finite values: every sweep is
        # the loop's, and each of the four assignment shapes meets all three
        # edge cases: every product 0 (skipped), a NaN product after a zero
        # one (checked, though max drops the NaN), and every product NaN
        rnd = random.Random(48)
        args = (0.0, 1.0, -1.5)  # phi, phi' and phi - phi' - shift at shift 0.5
        seen = set()
        for _ in range(100):
            tables = [[rnd.choice((0j, complex("nan"), complex(rnd.gauss(0, 1), rnd.gauss(0, 1))))
                       for _ in ADMISSIBLE] for _ in args]
            fam = WeightFamily(lambda phi, tables=tables: tables[args.index(phi)], ybe_shift=0.5)
            assert _bits(ybe_sweep(fam, 0.0, 1.0)) == _bits(_loop_ybe_sweep(fam, 0.0, 1.0))
            w_phi, w_php, w_u3 = tables
            for _, lhs, rhs in _live_assignments():
                products = ([w_phi[i] * w_php[j] * w_u3[k] for _, i, j, k in lhs]
                            + [w_u3[i] * w_php[j] * w_phi[k] for _, i, j, k in rhs])
                nans = [cmath.isnan(x) for x in products]
                for case, hit in (("zero", not any(products)),
                                  ("nan-after-zero", products[0] == 0 and any(nans)),
                                  ("all-nan", all(nans))):
                    if hit:
                        seen.add(((len(lhs), len(rhs)), case))
        shapes = ((1, 1), (1, 2), (2, 1), (2, 2))
        assert seen == set(itertools.product(shapes, ("zero", "nan-after-zero", "all-nan")))

    def test_sweep_plan_covers_every_product_once(self):
        # each side's 84 products are _live_assignments()'s terms in order;
        # the 60 groups index every product of the flat lists exactly once,
        # in the order of the assignment's terms, and position 84, the 0j
        # pad, fills only the second slot of a side with one product: 18,
        # 18, 18 and 6 assignments of the shapes (1, 1), (1, 2), (2, 1), (2, 2)
        terms_a, terms_b, groups = yangbaxter._sweep_plan()
        rows = _live_assignments()
        assert list(terms_a) == [t[1:] for _, lhs, _ in rows for t in lhs]
        assert list(terms_b) == [t[1:] for _, _, rhs in rows for t in rhs]
        assert (len(terms_a), len(terms_b)) == (84, 84)
        assert len(groups) == len(rows) == 60
        for side, flat in ((0, terms_a), (2, terms_b)):
            slots = [group[side:side + 2] for group in groups]
            assert sorted(x for slot in slots for x in slot if x != 84) == list(range(84))
            assert 84 not in (first for first, _ in slots)
            for (first, second), row in zip(slots, rows):
                at = (first,) if second == 84 else (first, second)
                assert [flat[x] for x in at] == [t[1:] for t in row[1 + side // 2]]
        shapes = collections.Counter((1 + (y != 84), 1 + (w != 84)) for _, y, _, w in groups)
        assert shapes == {(1, 1): 18, (1, 2): 18, (2, 1): 18, (2, 2): 6}

    def test_hand_built_table_is_read_kind_major(self):
        # entry 3k + r of a hand-built table is the k-th VertexKind with base
        # r, both for weight and for the sweep: the quadruples the loop
        # reference reads the table at are those the % 3 loop classifies
        rnd = random.Random(49)
        kinds = list(VertexKind)
        args = (0.2, 0.9, -1.2)  # phi, phi' and phi - phi' - shift at shift 0.5
        tables = [[complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(18)] for _ in args]
        fam = WeightFamily(lambda phi: tables[args.index(phi)], ybe_shift=0.5)
        for k, kind in enumerate(kinds):
            for r in range(3):
                assert fam.weight(kind, r, 0.2) == tables[0][3 * k + r]
        for phi, table in zip(args, tables):
            assert _by_quad(fam.weight_table(phi)) == {
                quad: table[3 * kinds.index(vk.kind) + vk.r]
                for quad, vk in _loop_admissible().items()}
        assert _bits(ybe_sweep(fam, 0.2, 0.9)) == _bits(_loop_ybe_sweep(fam, 0.2, 0.9))

    def test_live_assignments_equal_the_exhaustive_scan(self):
        # the join gives the rows of the scan over all 3^6 assignments, three
        # faces t and two sides, the same rows in the same order
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
        assert _live_assignments() == tuple(rows)

    def test_live_assignments_are_the_nonzero_products(self):
        # every (assignment, side, t) whose three quadruples are admissible,
        # read off the loop reference's products with all 18 weights nonzero
        weights = WeightFamily(lambda phi: [1.0 + 0j] * 18)
        tables = (_by_quad(weights.weight_table(0.0)),) * 3
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
        nan_gamma1 = _nan_where(raw_family(params()),
                                lambda vk: (vk.kind, vk.r) == (VertexKind.GAMMA, 1))
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
        nan_kind = _nan_where(fam, lambda vk: vk.kind is kind)
        tables = [nan_kind.weight_table(x)
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

    def test_empty_samples_raise(self):
        # no sample checks nothing: both returned 0.0, a pass from zero samples
        with pytest.raises(ValueError, match="at least one sample phi"):
            rosengren_match(params(), [])
        with pytest.raises(ValueError, match=r"at least one \(phi, phi'\) pair"):
            gauge_constraint_residual(zeta_gauge(params()), [])

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
            return _nan_where(original(pr), lambda vk: vk == last)

        assert rosengren_match(params(), phis=(0.17, 0.53)) < 1e-12
        monkeypatch.setattr(yangbaxter, "rosengren_family", with_nan)
        assert math.isnan(rosengren_match(params(), phis=(0.17, 0.53)))

    @pytest.mark.parametrize("evaluate", [
        lambda: rosengren_gauge(params(0.2, 0.4)).Phi(-1, 2000j),
        lambda: appendix_family(params(0.2, 0.4)).weight_table(-2000j),
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
        lambda: appendix_family(params(0.2, 0.4)).weight_table(1e5),
        lambda: zeta_gauge(params(0.2, 0.4)).Phi(1, 1e5),
        lambda: raw_weight(ColoredVertexKind(VertexKind.ALPHA, 0), 1e5, params(0.2, 0.4)),
    ], ids=["appendix_family", "zeta_gauge", "raw_weight"])
    def test_overflowing_zeta_power_raises(self, evaluate):
        # ThetaTriple.zeta_pow at a large exponent: cmath's bare OverflowError escaped
        with pytest.raises(EvaluationOverflowError, match="^zeta_") as err:
            evaluate()
        assert isinstance(err.value.__cause__, OverflowError)

    def test_infinite_exponent_at_zero_log_zeta_raises(self):
        # at p = 0 every log zeta is 0: an exponent that overflowed to inf
        # gave inf * 0 = NaN, and raw_weight returned NaN + NaN j
        vk = ColoredVertexKind(VertexKind.ALPHA, 0)
        with pytest.raises(EvaluationOverflowError, match="^zeta_0"):
            raw_weight(vk, -1.7e308, params(0.0, 0.24))
        # a NaN phi meets the theta series' finiteness check
        with pytest.raises(NonFiniteParameterError, match="^theta argument .* is not finite$"):
            raw_weight(vk, math.nan, params(0.0, 0.24))

    @pytest.mark.parametrize("evaluate, error, message", [
        (lambda: raw_weight(ColoredVertexKind(VertexKind.GAMMA, 2), 1e5, params(0.2, 0.4)),
         EvaluationOverflowError, "^GAMMA prefactor overflows"),
        (lambda: raw_weight(ColoredVertexKind(VertexKind.GAMMA_P, 1), 1e5, params(0.2, 0.4)),
         EvaluationOverflowError, "^GAMMA_P prefactor overflows"),
        (lambda: ybe_sweep(raw_family(params(0.2, 0.4)), 1e5, 0.3),
         EvaluationOverflowError, "^GAMMA_P prefactor overflows"),
        (lambda: weight6v(VertexKind.ALPHA, math.inf, 1.1),
         NonFiniteParameterError, r"^rapidity \(inf\+0j\) is not finite"),
        (lambda: ybe_sweep(sixvertex_family(1.1), math.inf, 0.3),
         NonFiniteParameterError, r"^rapidity \(inf\+0j\) is not finite"),
        (lambda: ybe_sweep(sixvertex_family(1.1), math.nan, 0.3),
         NonFiniteParameterError, r"^rapidity \(nan\+0j\) is not finite"),
    ], ids=["raw_weight-gamma", "raw_weight-gamma_p", "ybe_sweep-raw", "weight6v-inf",
            "ybe_sweep-sixvertex-inf", "ybe_sweep-sixvertex-nan"])
    def test_public_seams_raise_typed_errors(self, evaluate, error, message):
        # the gamma and gamma' prefactor exps raised cmath's bare OverflowError,
        # an infinite phi cmath's bare "math domain error" ValueError, and a
        # NaN phi gave the six-vertex sweep a NaN residual and no error
        with pytest.raises(error, match=message):
            evaluate()

    @pytest.mark.parametrize("evaluate, error, message", [
        (lambda: apply_gauge_kindwise(sixvertex_family(1.1),
                                      rosengren_gauge(params(0.2, 0.4))).weight(
             VertexKind.GAMMA, 1, 300j),
         EvaluationOverflowError,
         r"^weight\(GAMMA, 1, phi = 300j\): the gauge factors of ALPHA underflow to 0"),
        (lambda: apply_gauge_kindwise(sixvertex_family(1.1),
                                      rosengren_gauge(params(0.2, 0.4))).weight(
             VertexKind.GAMMA_P, 1, 4000.0),
         EvaluationOverflowError,
         r"^weight\(GAMMA_P, 1, phi = 4000\.0\): the gauge factors of ALPHA underflow to 0"),
        (lambda: gauge_constraint_residual(rosengren_gauge(params(0.2, 0.4)), [(1e5, 1e5)]),
         EvaluationOverflowError, r"^a gauge factor Phi_r\(phi'\) underflows to 0"),
        (lambda: gauge_constraint_residual(rosengren_gauge(params(0.2, 0.4)), [(math.inf, 0.3)]),
         NonFiniteParameterError, r"^rapidity \(inf\+0j\) is not finite"),
        (lambda: apply_gauge_kindwise(appendix_family(params(0.2, 0.4)),
                                      rosengren_gauge(params(0.2, 0.4))).weight(
             VertexKind.GAMMA, 1, math.inf),
         NonFiniteParameterError, r"^weight\(GAMMA, 1, phi = inf\): rapidity \(inf\+0j\) is not"),
        (lambda: gauge_constraint_residual(zeta_gauge(params(0.2, 0.4)), [(math.nan, 0.3)]),
         NonFiniteParameterError, r"^rapidity \(nan\+0j\) is not finite"),
        (lambda: apply_gauge_kindwise(sixvertex_family(1e5), zeta_gauge(params(0.25, 0.0))).weight(
             VertexKind.ALPHA, 0, -2000.0),
         EvaluationOverflowError,
         r"^weight\(ALPHA, 0, phi = -2000\.0\): the gauge factors of ALPHA overflow"),
    ], ids=["gauged-weight-underflow", "gauged-real-weight-underflow", "constraint-underflow",
            "constraint-inf", "gauged-weight-inf", "constraint-nan", "gauged-weight-overflow"])
    def test_gauge_seams_raise_typed_errors(self, evaluate, error, message):
        # a Phi factor that underflows to 0 made the gauge divide by zero, a
        # bare ZeroDivisionError; an infinite phi gave cmath's bare "math
        # domain error" ValueError and a NaN phi a NaN residual with no error;
        # a Phi ratio past the doubles made a finite weight NaN + NaN j.  A
        # weight is read off its table, which raises at its first failing
        # entry (ALPHA, the first kind, in the gauged six-vertex cases), after
        # the base family's table: the six-vertex one stays finite where the
        # gauge factors fail.  The weight's error names the kind and base
        # asked for, and is chained from the table's error of the same type
        with pytest.raises(error, match=message) as err:
            evaluate()
        if str(err.value).startswith("weight("):
            cause = err.value.__cause__
            assert type(cause) is type(err.value)
            assert str(err.value).endswith(f"): {cause}")

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
