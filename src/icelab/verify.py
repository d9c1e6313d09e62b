"""Verification suites and their machine-readable reports.

Each suite draws random parameter points from the configured domain, runs a
set of identities at those points and records the worst residual per
identity.  All randomness flows from one 64-bit seed: the seed is expanded
with numpy's SeedSequence and child sequence number i is assigned to the
i-th suite in SUITES, so a suite reproduces the same draws whether it is run
alone or as part of "all".

Reports are byte-stable for a fixed (seed, samples, config): the JSON
serialization contains no timing information (the CLI prints wall time to
stderr instead) and cases appear in a fixed order.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import sixvertex as sv
from . import threecoloring as tc
from . import yangbaxter as yb
from .errors import ConfigError
from .numutil import rel_residual
from .theta import (PI, EllipticParams, SeriesConfig, cubic_factor_D,
                    quasi_period_factor, theta1, theta1_prime_at_zero, theta4,
                    zeta)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Config:
    """Resolved verification configuration (series control, parameter domain,
    enumeration guards and per-suite tolerances)."""

    term_tolerance: float = 1e-16
    max_terms: int = 64
    lambda_min: float = 0.05
    lambda_max: float = PI / 3 - 0.05
    p_min: float = 0.01
    p_max: float = 0.5
    eta_margin: float = 0.2
    max_n_sixvertex: int = 4
    max_n_coloring: int = 3
    tol_theta: float = 1e-12
    tol_theta_derivative: float = 1e-8
    tol_ybe: float = 1e-9
    tol_recursion: float = 1e-10
    tol_functional6v: float = 1e-10
    tol_functional3c: float = 1e-9
    tol_parity: float = 1e-12
    tol_gauge: float = 1e-12
    tol_appendix: float = 1e-9

    def __post_init__(self) -> None:
        try:
            self.series()
        except ValueError as exc:
            raise ConfigError(f"bad series settings: {exc}") from exc
        for low, high in (("lambda_min", "lambda_max"), ("p_min", "p_max")):
            if not getattr(self, low) < getattr(self, high):
                raise ConfigError(f"{low} must be below {high}")
        if not 2 * self.eta_margin < PI:
            raise ConfigError("2 * eta_margin must be below pi")
        for name, limit in (("max_n_sixvertex", sv.MAX_ENUM_N),
                            ("max_n_coloring", tc.MAX_DWBC_N)):
            if not 1 <= getattr(self, name) <= limit:
                raise ConfigError(f"{name} must be in 1..{limit}")

    def series(self) -> SeriesConfig:
        return SeriesConfig(term_tolerance=self.term_tolerance, max_terms=self.max_terms)

    def to_echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def load_config(path: str) -> Config:
    """Parse a key = value configuration file (# starts a comment)."""
    values: dict[str, object] = {}
    fields = {f.name: f.type for f in dataclasses.fields(Config)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                val = val.strip()
                if key not in fields:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                try:
                    values[key] = int(val) if fields[key] == "int" else float(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {val}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return Config(**values)  # type: ignore[arg-type]


@dataclass
class CaseResult:
    identity: str
    point: dict
    residual: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "point": self.point,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.extra:
            obj.update(self.extra)
        return obj


@dataclass
class VerificationReport:
    suite: str
    seed: int
    samples: int
    config: Config
    cases: list[CaseResult]
    wall_time_s: float = 0.0  # informational; excluded from the JSON payload

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "config": self.config.to_echo(),
            "cases": [c.to_json_obj() for c in self.cases],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.identity}: residual {c.residual:.3e} "
                         f"(tolerance {c.tolerance:.1e})")
        return lines


# ---------------------------------------------------------------------------
# individual suites: each yields (identity, residual, point), ybe also the
# sweep's {"skipped", "checked"} counts
# ---------------------------------------------------------------------------


def _draw_params(rng, cfg: Config) -> EllipticParams:
    p = float(rng.uniform(cfg.p_min, cfg.p_max))
    lam = float(rng.uniform(cfg.lambda_min, cfg.lambda_max))
    return EllipticParams.from_nome(p, lam=lam)


def _draw_rapidities(rng, n: int) -> sv.SpectralAssignment:
    """n chi, then n psi rapidities uniform on [0, pi), at eta = 2 pi / 3."""
    return sv.SpectralAssignment(chi=rng.uniform(0.0, PI, size=n).tolist(),
                                 psi=rng.uniform(0.0, PI, size=n).tolist())


def _pins(max_n: int):
    """Every (n, k, l, sign, sign name) a recursion suite pins, in report order."""
    for n in range(1, max_n + 1):
        for k, l, sign in itertools.product(range(1, n + 1), range(1, n + 1), (1, -1)):
            yield n, k, l, sign, "plus" if sign > 0 else "minus"


def _suite_theta(rng, samples: int, cfg: Config):
    series = cfg.series()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        p = params.p.real
        phi = float(rng.uniform(0.0, PI))
        point = {"p": p, "lambda": params.lam.real, "phi": phi}

        t1 = theta1(phi, params, series)
        t4 = theta4(phi, params, series)
        yield "theta1-odd", rel_residual(theta1(-phi, params, series), -t1), point
        yield "theta4-even", rel_residual(theta4(-phi, params, series), t4), point
        yield ("theta1-pi-antiperiodic",
               rel_residual(theta1(phi + PI, params, series), -t1), point)
        yield ("theta4-pi-periodic",
               rel_residual(theta4(phi + PI, params, series), t4), point)

        shift = PI * params.tau
        factor = quasi_period_factor(phi, params)
        yield ("theta1-pi-tau-shift",
               rel_residual(theta1(phi + shift, params, series), factor * t1), point)
        yield ("theta4-pi-tau-shift",
               rel_residual(theta4(phi + shift, params, series), factor * t4), point)
        half = 1j * (p ** 0.25) * cmath.exp(-1j * phi) \
            * theta1(phi - PI * params.tau / 2, params, series)
        yield "theta4-from-theta1-half-shift", rel_residual(t4, half), point

        triple = (t1 * theta1(phi + PI / 3, params, series)
                  * theta1(phi + 2 * PI / 3, params, series))
        rhs = cubic_factor_D(params, series) * theta1(3 * phi, params.cubed(), series)
        yield "theta1-cubic-nome", rel_residual(triple, rhs), point

        prod = zeta(0, params, series) * zeta(1, params, series) * zeta(2, params, series)
        yield "zeta-product-one", rel_residual(prod, 1.0), point

        h = 1e-5
        fd = (theta1(h, params, series) - theta1(-h, params, series)) / (2 * h)
        yield ("theta1-derivative-central-difference",
               rel_residual(theta1_prime_at_zero(params, series), fd), point)


def _suite_ybe(rng, samples: int, cfg: Config):
    series = cfg.series()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        phi = float(rng.uniform(0.0, PI))
        php = float(rng.uniform(0.0, PI))
        eta = float(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
        point = {"p": params.p.real, "lambda": params.lam.real,
                 "phi": phi, "phi_prime": php}
        families = [
            ("ybe-raw", yb.raw_family(params, series), point),
            ("ybe-tilde", yb.tilde_family(params, series), point),
            ("ybe-appendix", yb.appendix_family(params, series), point),
            ("ybe-rosengren", yb.rosengren_family(params, series), point),
            ("ybe-sixvertex-trig", yb.sixvertex_family(eta), {**point, "eta": eta}),
        ]
        for name, fam, pt in families:
            sweep = yb.ybe_sweep(fam, phi, php)
            yield name, sweep.residual, pt, {"skipped": sweep.skipped,
                                             "checked": sweep.checked}


def _suite_recursion6v(rng, samples: int, cfg: Config):
    for n, k, l, sign, sgn in _pins(cfg.max_n_sixvertex):
        for _ in range(samples):
            eta = float(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
            a = _draw_rapidities(rng, n)
            point = {"n": n, "k": k, "l": l, "sign": sign, "eta": eta}
            yield (f"z-recursion-{sgn}-n{n}",
                   sv.check_recursion_6v(dataclasses.replace(a, eta=eta), k, l, sign,
                                         form="Z"), point)
            yield (f"f-recursion-{sgn}-n{n}",
                   sv.check_recursion_6v(a, k, l, sign, form="F"),
                   {**point, "eta": sv.ETA_COMBINATORIAL})


def _suite_recursion3c(rng, samples: int, cfg: Config):
    series = cfg.series()
    for n, k, l, sign, sgn in _pins(cfg.max_n_coloring):
        for _ in range(samples):
            params = _draw_params(rng, cfg)
            a = _draw_rapidities(rng, n)
            r = int(rng.integers(0, 3))
            point = {"n": n, "k": k, "l": l, "sign": sign, "r": r,
                     "p": params.p.real, "lambda": params.lam.real}
            for form in ("Z", "F"):
                yield (f"coloring-{form.lower()}-recursion-{sgn}-n{n}",
                       tc.check_recursion_3c(n, r, k, l, sign, a, params, form, series),
                       point)


def _suite_functional6v(rng, samples: int, cfg: Config):
    for n in range(1, cfg.max_n_sixvertex + 1):
        for _ in range(samples):
            a = _draw_rapidities(rng, n)
            k = int(rng.integers(1, n + 1))
            point = {"n": n, "k": k}
            yield f"f-sum-chi-n{n}", sv.functional_residual_6v(a, k, "chi"), point
            yield f"f-sum-psi-n{n}", sv.functional_residual_6v(a, k, "psi"), point
            yield (f"f-sum-psi-plus-variant-n{n}",
                   sv.functional_residual_6v(a, k, "psi", shift_sign=1), point)

            eta = float(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
            ag = dataclasses.replace(a, eta=eta)
            z = sv.partition_function_6v(ag)
            zs = sv.partition_function_6v(ag.shift_chi(n, PI))
            yield (f"pi-shift-parity-n{n}", rel_residual(zs, (-1) ** (n - 1) * z),
                   {**point, "eta": eta})


def _suite_functional3c(rng, samples: int, cfg: Config):
    series = cfg.series()
    for n in range(1, cfg.max_n_coloring + 1):
        for r in range(3):
            for _ in range(samples):
                params = _draw_params(rng, cfg)
                a = _draw_rapidities(rng, n)
                k = int(rng.integers(1, n + 1))
                point = {"n": n, "r": r, "k": k,
                         "p": params.p.real, "lambda": params.lam.real}
                for side in ("chi", "psi"):
                    yield (f"s-sum-{side}-n{n}",
                           tc.functional_residual_3c(n, r, k, side, a, params, series),
                           point)

    # the n = 1 sum written out: each shifted term against its explicit
    # theta1 * theta4 / (theta4 theta4) form
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        lam = params.lam
        phi = float(rng.uniform(0.0, PI))
        point = {"p": params.p.real, "lambda": lam.real, "phi": phi}
        explicit = [
            theta1(phi, params, series) * theta4(lam + phi + PI / 3, params, series)
            / (theta4(lam + 2 * PI / 3, params, series) * theta4(lam, params, series)),
            theta1(phi + 2 * PI / 3, params, series)
            * theta4(lam + phi + 5 * PI / 3, params, series)
            / (theta4(lam + 4 * PI / 3, params, series)
               * theta4(lam + 2 * PI / 3, params, series)),
            theta1(phi + 4 * PI / 3, params, series)
            * theta4(lam + phi + 3 * PI, params, series)
            / (theta4(lam + 2 * PI, params, series)
               * theta4(lam + 4 * PI / 3, params, series)),
        ]
        a1 = sv.SpectralAssignment(chi=[phi], psi=[0.0])
        yield "s-sum-n1-term-by-term", max(0.0, *(
            rel_residual(tc.F_rn(1, s, a1.shift_chi(1, 2 * PI * s / 3), params, series),
                         explicit[s]) for s in range(3))), point


def _suite_appendix(rng, samples: int, cfg: Config):
    series = cfg.series()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        phi = float(rng.uniform(-1.2, 1.2))
        php = float(rng.uniform(-1.2, 1.2))
        point = {"p": params.p.real, "lambda": params.lam.real, "phi": phi}

        substituted = yb.appendix_substitution(params, series)
        closed = yb.appendix_family(params, series)
        yield "substitution-matches-closed-forms", max(0.0, *(
            rel_residual(substituted.evaluator(*quad, phi), closed.evaluator(*quad, phi))
            for quad, _vk in yb.ADMISSIBLE)), point

        yield ("rosengren-gauge-match",
               yb.rosengren_match(params, series, phis=(phi, php)), point)

        pairs = [(phi, php), (php, -phi)]
        yield ("gauge-constraint-shifted",
               yb.gauge_constraint_residual(yb.zeta_gauge(params, series), pairs), point)
        yield ("gauge-constraint-difference",
               yb.gauge_constraint_residual(yb.rosengren_gauge(params, series), pairs),
               point)

        b = [theta1(params.lam + 2 * PI * m / 3, params, series) for m in range(3)]
        prod = 1.0 + 0j
        for m in range(3):
            prod *= b[(m - 1) % 3] * b[(m + 1) % 3] / b[m] ** 2
        yield "appendix-zeta-product-one", rel_residual(prod, 1.0), point


# ---------------------------------------------------------------------------
# the suite table and the one driver
# ---------------------------------------------------------------------------

#: name -> (suite generator, default samples, Config key of its tolerance)
_SUITES = {
    "theta": (_suite_theta, 200, "tol_theta"),
    "ybe": (_suite_ybe, 100, "tol_ybe"),
    "recursion6v": (_suite_recursion6v, 20, "tol_recursion"),
    "recursion3c": (_suite_recursion3c, 20, "tol_recursion"),
    "functional6v": (_suite_functional6v, 20, "tol_functional6v"),
    "functional3c": (_suite_functional3c, 20, "tol_functional3c"),
    "appendix": (_suite_appendix, 50, "tol_appendix"),
}

SUITES = tuple(_SUITES)

#: identity prefixes whose tolerance is not their suite's, checked first
_TOLERANCE_EXCEPTIONS = (
    ("theta1-derivative", "tol_theta_derivative"),
    ("pi-shift", "tol_parity"),
    ("gauge-constraint", "tol_gauge"),
    ("appendix-zeta-product-one", "tol_gauge"),
)


def _worst_cases(rows, cfg: Config, tol_key: str, prefix: str) -> list[CaseResult]:
    """One case per identity, in first-seen order, holding its worst residual
    (a later draw replaces it only when strictly larger) and summed counts."""
    worst: dict[str, tuple[float, dict]] = {}
    counts: dict[str, dict] = {}
    for identity, residual, point, *extra in rows:
        if identity not in worst or residual > worst[identity][0]:
            worst[identity] = (residual, point)
        for name, amount in (extra[0].items() if extra else ()):
            slot = counts.setdefault(identity, {})
            slot[name] = slot.get(name, 0) + amount
    cases = []
    for identity, (residual, point) in worst.items():
        tol = getattr(cfg, next((key for head, key in _TOLERANCE_EXCEPTIONS
                                 if identity.startswith(head)), tol_key))
        cases.append(CaseResult(identity=prefix + identity, point=point, residual=residual,
                                tolerance=tol, passed=residual < tol,
                                extra=counts.get(identity, {})))
    return cases


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """Child generator for one suite, split from the root seed by the suite's
    fixed position in SUITES."""
    children = np.random.SeedSequence(seed).spawn(len(SUITES))
    return np.random.default_rng(children[SUITES.index(suite)])


def run_suite(suite: str, seed: int = 0, samples: int | None = None,
              config: Config | None = None) -> VerificationReport:
    """Run one named suite (or 'all', every suite with its name as identity
    prefix) and return its report; samples defaults per suite."""
    cfg = config or Config()
    if suite != "all" and suite not in _SUITES:
        raise ConfigError(f"unknown suite '{suite}'; choose from {SUITES + ('all',)}")
    if samples is not None and samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    started = time.monotonic()
    cases: list[CaseResult] = []
    for name in SUITES if suite == "all" else (suite,):
        fn, default, tol_key = _SUITES[name]
        rows = fn(suite_rng(seed, name), samples or default, cfg)
        cases += _worst_cases(rows, cfg, tol_key, f"{name}/" if suite == "all" else "")
    recorded = samples or (0 if suite == "all" else _SUITES[suite][1])
    report = VerificationReport(suite=suite, seed=seed, samples=recorded,
                                config=cfg, cases=cases)
    report.wall_time_s = time.monotonic() - started
    return report
