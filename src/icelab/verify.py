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

SUITES = ("theta", "ybe", "recursion6v", "recursion3c",
          "functional6v", "functional3c", "appendix")

DEFAULT_SAMPLES = {
    "theta": 200,
    "ybe": 100,
    "recursion6v": 20,
    "recursion3c": 20,
    "functional6v": 20,
    "functional3c": 20,
    "appendix": 50,
}


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


class _Worst:
    """Track the worst residual per identity together with its point."""

    def __init__(self) -> None:
        self.data: dict[str, tuple[float, dict]] = {}
        self.order: list[str] = []
        self.extra: dict[str, dict] = {}

    def update(self, identity: str, residual: float, point: dict) -> None:
        if identity not in self.data:
            self.order.append(identity)
            self.data[identity] = (residual, point)
        elif residual > self.data[identity][0]:
            self.data[identity] = (residual, point)

    def bump(self, identity: str, key: str, amount: int) -> None:
        slot = self.extra.setdefault(identity, {})
        slot[key] = slot.get(key, 0) + amount

    def cases(self, tolerance_of) -> list[CaseResult]:
        out = []
        for identity in self.order:
            residual, point = self.data[identity]
            tol = tolerance_of(identity)
            out.append(CaseResult(identity=identity, point=point, residual=residual,
                                  tolerance=tol, passed=residual < tol,
                                  extra=self.extra.get(identity, {})))
        return out


def _f(x) -> float:
    return float(x)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _draw_params(rng, cfg: Config) -> EllipticParams:
    p = _f(rng.uniform(cfg.p_min, cfg.p_max))
    lam = _f(rng.uniform(cfg.lambda_min, cfg.lambda_max))
    return EllipticParams.from_nome(p, lam=lam)


def _suite_theta(rng, samples: int, cfg: Config) -> list[CaseResult]:
    series = cfg.series()
    worst = _Worst()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        p = params.p.real
        phi = _f(rng.uniform(0.0, PI))
        point = {"p": p, "lambda": params.lam.real, "phi": phi}

        t1 = theta1(phi, params, series)
        t4 = theta4(phi, params, series)
        worst.update("theta1-odd",
                     rel_residual(theta1(-phi, params, series), -t1), point)
        worst.update("theta4-even",
                     rel_residual(theta4(-phi, params, series), t4), point)
        worst.update("theta1-pi-antiperiodic",
                     rel_residual(theta1(phi + PI, params, series), -t1), point)
        worst.update("theta4-pi-periodic",
                     rel_residual(theta4(phi + PI, params, series), t4), point)

        shift = PI * params.tau
        factor = quasi_period_factor(phi, params)
        worst.update("theta1-pi-tau-shift",
                     rel_residual(theta1(phi + shift, params, series), factor * t1), point)
        worst.update("theta4-pi-tau-shift",
                     rel_residual(theta4(phi + shift, params, series), factor * t4), point)
        half = 1j * (p ** 0.25) * cmath.exp(-1j * phi) \
            * theta1(phi - PI * params.tau / 2, params, series)
        worst.update("theta4-from-theta1-half-shift", rel_residual(t4, half), point)

        triple = (t1 * theta1(phi + PI / 3, params, series)
                  * theta1(phi + 2 * PI / 3, params, series))
        rhs = cubic_factor_D(params, series) * theta1(3 * phi, params.cubed(), series)
        worst.update("theta1-cubic-nome", rel_residual(triple, rhs), point)

        prod = zeta(0, params, series) * zeta(1, params, series) * zeta(2, params, series)
        worst.update("zeta-product-one", rel_residual(prod, 1.0), point)

        h = 1e-5
        fd = (theta1(h, params, series) - theta1(-h, params, series)) / (2 * h)
        worst.update("theta1-derivative-central-difference",
                     rel_residual(theta1_prime_at_zero(params, series), fd), point)

    def tol(identity: str) -> float:
        if identity == "theta1-derivative-central-difference":
            return cfg.tol_theta_derivative
        return cfg.tol_theta

    return worst.cases(tol)


def _suite_ybe(rng, samples: int, cfg: Config) -> list[CaseResult]:
    series = cfg.series()
    worst = _Worst()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        phi = _f(rng.uniform(0.0, PI))
        php = _f(rng.uniform(0.0, PI))
        eta = _f(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
        point = {"p": params.p.real, "lambda": params.lam.real,
                 "phi": phi, "phi_prime": php}
        families = [
            ("ybe-raw", yb.raw_family(params, series)),
            ("ybe-tilde", yb.tilde_family(params, series)),
            ("ybe-appendix", yb.appendix_family(params, series)),
            ("ybe-rosengren", yb.rosengren_family(params, series)),
            ("ybe-sixvertex-trig", yb.sixvertex_family(eta)),
        ]
        for name, fam in families:
            pt = dict(point)
            if name == "ybe-sixvertex-trig":
                pt["eta"] = eta
            sweep = yb.ybe_sweep(fam, phi, php)
            worst.update(name, sweep.residual, pt)
            worst.bump(name, "skipped", sweep.skipped)
            worst.bump(name, "checked", sweep.checked)

    return worst.cases(lambda _identity: cfg.tol_ybe)


def _suite_recursion6v(rng, samples: int, cfg: Config) -> list[CaseResult]:
    worst = _Worst()
    for n in range(1, cfg.max_n_sixvertex + 1):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                for sign in (1, -1):
                    for _ in range(samples):
                        eta = _f(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
                        chi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                        psi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                        point = {"n": n, "k": k, "l": l, "sign": sign, "eta": eta}
                        a = sv.SpectralAssignment(chi=chi, psi=psi, eta=eta)
                        name = "z-recursion-plus" if sign > 0 else "z-recursion-minus"
                        worst.update(f"{name}-n{n}",
                                     sv.check_recursion_6v(a, k, l, sign, form="Z"), point)
                        a3 = sv.SpectralAssignment(chi=chi, psi=psi)
                        name = "f-recursion-plus" if sign > 0 else "f-recursion-minus"
                        pt = dict(point)
                        pt["eta"] = sv.ETA_COMBINATORIAL
                        worst.update(f"{name}-n{n}",
                                     sv.check_recursion_6v(a3, k, l, sign, form="F"), pt)
    return worst.cases(lambda _identity: cfg.tol_recursion)


def _suite_recursion3c(rng, samples: int, cfg: Config) -> list[CaseResult]:
    series = cfg.series()
    worst = _Worst()
    for n in range(1, cfg.max_n_coloring + 1):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                for sign in (1, -1):
                    for _ in range(samples):
                        params = _draw_params(rng, cfg)
                        chi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                        psi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                        r = int(rng.integers(0, 3))
                        point = {"n": n, "k": k, "l": l, "sign": sign, "r": r,
                                 "p": params.p.real, "lambda": params.lam.real}
                        a = sv.SpectralAssignment(chi=chi, psi=psi)
                        sgn = "plus" if sign > 0 else "minus"
                        worst.update(
                            f"coloring-z-recursion-{sgn}-n{n}",
                            tc.check_recursion_3c(n, r, k, l, sign, a, params, "Z", series),
                            point)
                        worst.update(
                            f"coloring-f-recursion-{sgn}-n{n}",
                            tc.check_recursion_3c(n, r, k, l, sign, a, params, "F", series),
                            point)
    return worst.cases(lambda _identity: cfg.tol_recursion)


def _suite_functional6v(rng, samples: int, cfg: Config) -> list[CaseResult]:
    worst = _Worst()
    for n in range(1, cfg.max_n_sixvertex + 1):
        for _ in range(samples):
            chi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
            psi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
            k = int(rng.integers(1, n + 1))
            a = sv.SpectralAssignment(chi=chi, psi=psi)
            point = {"n": n, "k": k}
            worst.update(f"f-sum-chi-n{n}",
                         sv.functional_residual_6v(a, k, "chi"), point)
            worst.update(f"f-sum-psi-n{n}",
                         sv.functional_residual_6v(a, k, "psi"), point)
            worst.update(f"f-sum-psi-plus-variant-n{n}",
                         sv.functional_residual_6v(a, k, "psi", shift_sign=1), point)

            eta = _f(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))
            ag = sv.SpectralAssignment(chi=chi, psi=psi, eta=eta)
            z = sv.partition_function_6v(ag)
            zs = sv.partition_function_6v(ag.shift_chi(n, PI))
            pt = dict(point)
            pt["eta"] = eta
            worst.update(f"pi-shift-parity-n{n}",
                         rel_residual(zs, (-1) ** (n - 1) * z), pt)

    def tol(identity: str) -> float:
        return cfg.tol_parity if identity.startswith("pi-shift") else cfg.tol_functional6v

    return worst.cases(tol)


def _suite_functional3c(rng, samples: int, cfg: Config) -> list[CaseResult]:
    series = cfg.series()
    worst = _Worst()
    for n in range(1, cfg.max_n_coloring + 1):
        for r in range(3):
            for _ in range(samples):
                params = _draw_params(rng, cfg)
                chi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                psi = [_f(x) for x in rng.uniform(0.0, PI, size=n)]
                k = int(rng.integers(1, n + 1))
                a = sv.SpectralAssignment(chi=chi, psi=psi)
                point = {"n": n, "r": r, "k": k,
                         "p": params.p.real, "lambda": params.lam.real}
                worst.update(f"s-sum-chi-n{n}",
                             tc.functional_residual_3c(n, r, k, "chi", a, params, series),
                             point)
                worst.update(f"s-sum-psi-n{n}",
                             tc.functional_residual_3c(n, r, k, "psi", a, params, series),
                             point)

    # the n = 1 sum written out: each shifted term against its explicit
    # theta1 * theta4 / (theta4 theta4) form
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        lam = params.lam
        phi = _f(rng.uniform(0.0, PI))
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
        res = 0.0
        for s in range(3):
            term = tc.F_rn(1, s, a1.shift_chi(1, 2 * PI * s / 3), params, series)
            res = max(res, rel_residual(term, explicit[s]))
        worst.update("s-sum-n1-term-by-term", res, point)

    return worst.cases(lambda _identity: cfg.tol_functional3c)


def _suite_appendix(rng, samples: int, cfg: Config) -> list[CaseResult]:
    series = cfg.series()
    worst = _Worst()
    for _ in range(samples):
        params = _draw_params(rng, cfg)
        phi = _f(rng.uniform(-1.2, 1.2))
        php = _f(rng.uniform(-1.2, 1.2))
        point = {"p": params.p.real, "lambda": params.lam.real, "phi": phi}

        substituted = yb.appendix_substitution(params, series)
        closed = yb.appendix_family(params, series)
        res = 0.0
        for (quad, _vk) in yb.ADMISSIBLE:
            got = substituted.evaluator(*quad, phi)
            want = closed.evaluator(*quad, phi)
            res = max(res, rel_residual(got, want))
        worst.update("substitution-matches-closed-forms", res, point)

        worst.update("rosengren-gauge-match",
                     yb.rosengren_match(params, series, phis=(phi, php)), point)

        pairs = [(phi, php), (php, -phi)]
        worst.update("gauge-constraint-shifted",
                     yb.gauge_constraint_residual(yb.zeta_gauge(params, series), pairs),
                     point)
        worst.update("gauge-constraint-difference",
                     yb.gauge_constraint_residual(yb.rosengren_gauge(params, series), pairs),
                     point)

        b = [theta1(params.lam + 2 * PI * m / 3, params, series) for m in range(3)]
        prod = 1.0 + 0j
        for m in range(3):
            prod *= b[(m - 1) % 3] * b[(m + 1) % 3] / b[m] ** 2
        worst.update("appendix-zeta-product-one", rel_residual(prod, 1.0), point)

    def tol(identity: str) -> float:
        if identity.startswith("gauge-constraint") or identity == "appendix-zeta-product-one":
            return cfg.tol_gauge
        return cfg.tol_appendix

    return worst.cases(tol)


_SUITE_FN = {
    "theta": _suite_theta,
    "ybe": _suite_ybe,
    "recursion6v": _suite_recursion6v,
    "recursion3c": _suite_recursion3c,
    "functional6v": _suite_functional6v,
    "functional3c": _suite_functional3c,
    "appendix": _suite_appendix,
}


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """Child generator for one suite, split from the root seed by the suite's
    fixed position in SUITES."""
    children = np.random.SeedSequence(seed).spawn(len(SUITES))
    return np.random.default_rng(children[SUITES.index(suite)])


def run_suite(suite: str, seed: int = 0, samples: int | None = None,
              config: Config | None = None) -> VerificationReport:
    """Run one named suite (or 'all') and return its report."""
    cfg = config or Config()
    started = time.monotonic()
    if suite == "all":
        cases: list[CaseResult] = []
        for name in SUITES:
            n_samples = samples if samples is not None else DEFAULT_SAMPLES[name]
            sub = _SUITE_FN[name](suite_rng(seed, name), n_samples, cfg)
            for c in sub:
                c.identity = f"{name}/{c.identity}"
            cases.extend(sub)
        report = VerificationReport(suite="all", seed=seed,
                                    samples=samples if samples is not None else 0,
                                    config=cfg, cases=cases)
    else:
        if suite not in _SUITE_FN:
            raise ConfigError(f"unknown suite '{suite}'; choose from {SUITES + ('all',)}")
        n_samples = samples if samples is not None else DEFAULT_SAMPLES[suite]
        cases = _SUITE_FN[suite](suite_rng(seed, suite), n_samples, cfg)
        report = VerificationReport(suite=suite, seed=seed, samples=n_samples,
                                    config=cfg, cases=cases)
    report.wall_time_s = time.monotonic() - started
    return report
