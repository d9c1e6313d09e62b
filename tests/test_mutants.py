"""Kill matrix: every gate of the theta, ybe, appendix and symmetry suites can fail.

Each mutant is a small known-wrong variant patched in at one or more named
seams.  Every mutant must fail at least one identity of the four suites, and
every identity must fail under at least one mutant (mutation adequacy:
DeMillo, Lipton and Sayward 1978, "Hints on test data selection").  An identity no
mutant moves is a gate that cannot fail.
"""

import cmath
import math

from icelab import sixvertex, theta, threecoloring, verify, yangbaxter
from icelab.sixvertex import _BETAS, VertexKind
from icelab.verify import run_suite
from icelab.yangbaxter import GaugeData, WeightFamily

SUITES = ("theta", "ybe", "appendix", "symmetry")

#: every value cache a mutant's values could sit in, cleared around each run
CACHES = (theta._series_sum, theta._nome_powers, theta.theta_triple,
          threecoloring._weight_constants, threecoloring._partial_sum)

#: (a, offset) of the kernel sums behind theta1, theta4 and theta1_reduced
THETA1, THETA4, THETA1_REDUCED = (1, 0.25), (0, 0.0), (1, 0.0)

SWAP_GAMMAS = {VertexKind.GAMMA: VertexKind.GAMMA_P, VertexKind.GAMMA_P: VertexKind.GAMMA}


def kernel(series, mutate):
    """theta._series_sum with the sums of one series passed through mutate(value, phi)."""
    def wrap(series_sum):
        def mutant(a, phi, key, offset):
            value = series_sum(a, phi, key, offset)
            return mutate(value, phi) if (a, offset) == series else value
        return mutant
    return theta, "_series_sum", wrap


def swap_gammas(module, name):
    """module's binding of a threecoloring weight function, gamma and gamma' swapped."""
    def wrap(weight_ctx):
        return lambda ctx, kind, r, phi: weight_ctx(ctx, SWAP_GAMMAS.get(kind, kind), r, phi)
    return module, name, wrap


def scale_swept_betas(module):
    """module's binding of sixvertex._vertex_sweep, the beta and beta' code
    weights of every vertex scaled by 1.001."""
    def wrap(sweep):
        def mutant(n, vertex_weights):
            return sweep(n, lambda i, j, codes: [
                w * (1.001 if kind in _BETAS else 1.0)
                for w, (kind, _) in zip(vertex_weights(i, j, codes), codes)])
        return mutant
    return module, "_vertex_sweep", wrap


def scale_betas(name, factor):
    """A yangbaxter family constructor whose beta and beta' weights are scaled by factor."""
    def wrap(family):
        def mutant(params):
            fam = family(params)
            return WeightFamily(lambda phi: [
                w * (factor if vk.kind in _BETAS else 1.0)
                for w, (_, vk) in zip(fam.weight_table(phi), yangbaxter.ADMISSIBLE)],
                ybe_shift=fam.ybe_shift)
        return mutant
    return yangbaxter, name, wrap


def tilt_gauge(name):
    """A yangbaxter gauge constructor whose Phi_m is multiplied by e^{1e-6 m}."""
    def wrap(gauge):
        def mutant(params):
            g = gauge(params)
            return GaugeData(C=g.C, shift=g.shift,
                             Phi=lambda m, phi: g.Phi(m, phi) * math.exp(1e-6 * m))
        return mutant
    return yangbaxter, name, wrap


#: name -> seams (module, attribute, wrap): each wrap(original) is patched in
MUTANTS = {
    "theta1 + 1e-9": [kernel(THETA1, lambda v, phi: v + 1e-9)],
    "theta1 * (1 + 1e-7 cos phi)": [
        kernel(THETA1, lambda v, phi: v * (1 + 1e-7 * cmath.cos(phi)))],
    "theta1 + 1e-6 phi": [kernel(THETA1, lambda v, phi: v + 1e-6 * phi)],
    "theta4 * (1 + 1e-7 sin phi)": [
        kernel(THETA4, lambda v, phi: v * (1 + 1e-7 * cmath.sin(phi)))],
    "theta1_reduced * (1 + 1e-7 Re sin 2phi)": [kernel(
        THETA1_REDUCED, lambda v, phi: v * (1 + 1e-7 * cmath.sin(2 * phi).real))],
    "raw gamma <-> gamma'": [swap_gammas(yangbaxter, "_raw_weight_ctx")],
    "tilde gamma <-> gamma'": [swap_gammas(yangbaxter, "_tilde_weight_ctx")],
    "weight6v beta * 1.001": [(yangbaxter, "weight6v", lambda weight6v: lambda kind, phi, eta: (
        weight6v(kind, phi, eta) * (1.001 if kind in _BETAS else 1.0)))],
    "appendix_family beta * (1 + 1e-6)": [scale_betas("appendix_family", 1 + 1e-6)],
    "rosengren_family beta * (1 + 1e-6)": [scale_betas("rosengren_family", 1 + 1e-6)],
    "zeta_gauge Phi_m * e^(1e-6 m)": [tilt_gauge("zeta_gauge")],
    "rosengren_gauge Phi_m * e^(1e-6 m)": [tilt_gauge("rosengren_gauge")],
    "verify.cubic_factor_D * (1 + 1e-9)": [(verify, "cubic_factor_D",
                                            lambda D: lambda params: D(params) * (1 + 1e-9))],
    "swept beta code weights * 1.001": [scale_swept_betas(sixvertex),
                                        scale_swept_betas(threecoloring)],
    "partial sums on raw weights": [(threecoloring, "_tilde_weight_ctx",
                                     lambda tilde: threecoloring._raw_weight_ctx)],
    "partial sums' tilde gamma <-> gamma'": [swap_gammas(threecoloring, "_tilde_weight_ctx")],
}


def failing_identities() -> tuple[list[str], set[str]]:
    """Every identity of the four suites at seed 0, two samples, and those that fail."""
    for cache in CACHES:
        cache.cache_clear()
    try:
        cases = [(f"{s}/{c.identity}", c.passed)
                 for s in SUITES for c in run_suite(s, seed=0, samples=2).cases]
    finally:
        for cache in CACHES:
            cache.cache_clear()
    return [name for name, _ in cases], {name for name, passed in cases if not passed}


def test_every_mutant_fails_a_gate_and_every_gate_fails_under_a_mutant(monkeypatch):
    identities, clean = failing_identities()
    assert not clean, f"the unmutated suites fail {sorted(clean)}"
    killed = {}
    for name, seams in MUTANTS.items():
        with monkeypatch.context() as patch:
            for module, attribute, wrap in seams:
                patch.setattr(module, attribute, wrap(getattr(module, attribute)))
            killed[name] = failing_identities()[1]
    dead = [name for name, kills in killed.items() if not kills]
    survivors = [i for i in identities if not any(i in kills for kills in killed.values())]
    assert not dead and not survivors, (
        f"mutants that fail no identity: {dead}; identities no mutant fails: {survivors}")
