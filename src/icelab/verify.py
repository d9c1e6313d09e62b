"""Verification suites and their machine-readable reports.

Each suite is a generator of draws: a random point of the configured domain
and the rows of its identities there, each a residual that a model function
returned or an (lhs, rhs) pair.  One driver, _worst_cases, computes every
residual, keeps the worst per identity and reads its tolerance.  All
randomness flows from one seed, any non-negative int (2**97 too): numpy's
SeedSequence expands it and child i goes to the i-th suite in SUITES, so a
suite draws the same points alone or in "all".  "all" thus forks one worker
per usable CPU (at most one per suite), which pull suite indices from one
pipe, longest suite first (_DEAL_ORDER), and send their cases back through
pipes of their own; the cases come back in SUITES order, byte for byte the
report of the one-process run, which a single usable CPU gives.  A worker
that dies without a result fails the run with ChildProcessError instead of
leaving it waiting.

Reports are byte-stable for a fixed (seed, samples, config): the JSON
serialization contains no timing information (the CLI times its own call
and prints the wall time to stderr) and cases appear in a fixed order.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import sixvertex as sv
from . import threecoloring as tc
from . import yangbaxter as yb
from .errors import ConfigError
from .numutil import rel_residual, severity
from .theta import (PI, EllipticParams, cubic_factor_D, quasi_period_factor, theta1,
                    theta1_prime_at_zero, theta4)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Config:
    """Resolved verification configuration (series control, parameter domain,
    lattice sizes up to the evaluation guard and per-suite tolerances).  The
    series control, term_tolerance and max_terms, has EllipticParams' defaults
    and checks, and reaches the theta layer as two fields of every drawn params."""

    term_tolerance: float = EllipticParams.term_tolerance
    max_terms: int = EllipticParams.max_terms
    lambda_min: float = 0.05
    lambda_max: float = PI / 3 - 0.05
    p_min: float = 0.01
    p_max: float = 0.5
    eta_margin: float = 0.2
    max_n_sixvertex: int = 4
    max_n_coloring: int = 3
    tol_theta: float = 1e-12
    tol_ybe: float = 1e-9
    tol_recursion: float = 1e-10
    tol_functional6v: float = 1e-10
    tol_functional3c: float = 1e-9
    tol_parity: float = 1e-12
    tol_gauge: float = 1e-12
    tol_appendix: float = 1e-9

    def __post_init__(self) -> None:
        try:
            EllipticParams(0j, 0j, self.term_tolerance, self.max_terms)
        except ValueError as exc:
            raise ConfigError(f"bad series settings: {exc}") from exc
        for low, high in (("lambda_min", "lambda_max"), ("p_min", "p_max")):
            if not getattr(self, low) < getattr(self, high):
                raise ConfigError(f"{low} must be below {high}")
        if not (math.isfinite(self.lambda_min) and math.isfinite(self.lambda_max)):
            raise ConfigError("lambda_min and lambda_max must be finite")
        if not (0.0 < self.p_min and self.p_max < 1.0):
            raise ConfigError("p_min and p_max must lie in (0, 1), the nome's domain")
        if not 0.0 < 2 * self.eta_margin < PI:
            raise ConfigError("2 * eta_margin must lie in (0, pi)")
        for name in ("max_n_sixvertex", "max_n_coloring"):
            size = getattr(self, name)
            if type(size) is not int or not 1 <= size <= sv.MAX_EVAL_N:
                raise ConfigError(f"{name} must be an int in 1..{sv.MAX_EVAL_N}, got {size!r}")
        for f in dataclasses.fields(self):
            # an infinite tolerance passes every case and 0 or below none
            if f.name.startswith("tol_") and not 0.0 < getattr(self, f.name) < math.inf:
                raise ConfigError(f"{f.name} must be finite and positive")

    def to_echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def load_config(path: str) -> Config:
    """Parse a key = value configuration file (# starts a comment); a key
    given twice is an error, naming both lines."""
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    fields = {f.name: f.type for f in dataclasses.fields(Config)}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is no key
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
                if key in linenos:
                    raise ConfigError(f"{path}:{lineno}: key '{key}' already set "
                                      f"on line {linenos[key]}")
                linenos[key] = lineno
                try:
                    values[key] = int(val) if fields[key] == "int" else float(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {val}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return Config(**values)  # type: ignore[arg-type]


@dataclass
class CaseResult:
    identity: str
    point: dict
    residual: float
    tolerance: float
    passed: bool
    extra: dict  # summed counts, ybe's {"skipped", "checked"}, else empty

    def to_json_obj(self) -> dict:
        return {"identity": self.identity, "point": self.point, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed, **self.extra}


@dataclass
class VerificationReport:
    suite: str
    seed: int
    samples: int
    config: Config
    cases: list[CaseResult]

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
        return [f"{'pass' if c.passed else 'FAIL'}  {c.identity}: residual {c.residual:.3e} "
                f"(tolerance {c.tolerance:.1e})" for c in self.cases]


# ---------------------------------------------------------------------------
# individual suites: each yields draws (point, rows); a row is
# (family, value[, counts]) with value a residual or an (lhs, rhs) pair
# ---------------------------------------------------------------------------


def _draw_params(rng, cfg: Config) -> tuple[EllipticParams, dict]:
    """Params at a drawn nome and lambda, and the point recording them."""
    p = float(rng.uniform(cfg.p_min, cfg.p_max))
    lam = float(rng.uniform(cfg.lambda_min, cfg.lambda_max))
    params = EllipticParams.from_nome(p, lam=lam, term_tolerance=cfg.term_tolerance,
                                      max_terms=cfg.max_terms)
    return params, {"p": params.p.real, "lambda": params.lam.real}


def _draw_eta(rng, cfg: Config) -> float:
    return float(rng.uniform(cfg.eta_margin, PI - cfg.eta_margin))


def _draw_rapidities(rng, n: int) -> sv.SpectralAssignment:
    """n chi, then n psi rapidities uniform on [0, pi), at eta = 2 pi / 3."""
    return sv.SpectralAssignment(chi=rng.uniform(0.0, PI, size=n).tolist(),
                                 psi=rng.uniform(0.0, PI, size=n).tolist())


def _transpositions(rng, a: sv.SpectralAssignment) -> tuple[list, dict]:
    """a with two drawn chi exchanged and a with two drawn psi exchanged, and
    the point entries sigma and tau recording the two 1-based index pairs."""
    swapped, point = [], {}
    for side, name in (("chi", "sigma"), ("psi", "tau")):
        i, j = sorted(rng.choice(a.n, size=2, replace=False).tolist())
        values = list(getattr(a, side))
        values[i], values[j] = values[j], values[i]
        swapped.append(dataclasses.replace(a, **{side: values}))
        point[name] = [i + 1, j + 1]
    return swapped, point


#: the recursion pin's signs and their names in identity names, in report order
_SIGNS = ((1, "plus"), (-1, "minus"))


def _suite_theta(rng, samples: int, cfg: Config):
    for _ in range(samples):
        params, point = _draw_params(rng, cfg)
        phi = float(rng.uniform(0.0, PI))
        t1, t4 = theta1(phi, params), theta4(phi, params)
        shift = PI * params.tau
        factor = quasi_period_factor(phi, params)
        # Jacobi's theta1'(0) = 2 p^{1/4} prod_k (1 - p^{2k})^3, until a factor rounds to 1
        jacobi, power = 2.0 * params.p ** 0.25, params.p ** 2
        while 1.0 - power != 1.0:
            jacobi, power = jacobi * (1.0 - power) ** 3, power * params.p ** 2
        yield {**point, "phi": phi}, [
            ("theta1-odd", (theta1(-phi, params), -t1)),
            ("theta4-even", (theta4(-phi, params), t4)),
            ("theta1-pi-antiperiodic", (theta1(phi + PI, params), -t1)),
            ("theta4-pi-periodic", (theta4(phi + PI, params), t4)),
            ("theta1-pi-tau-shift", (theta1(phi + shift, params), factor * t1)),
            ("theta4-pi-tau-shift", (theta4(phi + shift, params), factor * t4)),
            ("theta4-from-theta1-half-shift",
             (t4, 1j * (point["p"] ** 0.25) * cmath.exp(-1j * phi)
              * theta1(phi - PI * params.tau / 2, params))),
            ("theta1-cubic-nome",
             (t1 * theta1(phi + PI / 3, params) * theta1(phi + 2 * PI / 3, params),
              cubic_factor_D(params) * theta1(3 * phi, params.cubed()))),
            ("theta1-derivative-jacobi-product", (theta1_prime_at_zero(params), jacobi)),
        ]


def _suite_ybe(rng, samples: int, cfg: Config):
    for _ in range(samples):
        params, point = _draw_params(rng, cfg)
        phi = float(rng.uniform(0.0, PI))
        php = float(rng.uniform(0.0, PI))
        eta = _draw_eta(rng, cfg)
        point = {**point, "phi": phi, "phi_prime": php}
        for family, fam, pt in (
                ("ybe-raw", yb.raw_family(params), point),
                ("ybe-tilde", yb.tilde_family(params), point),
                ("ybe-appendix", yb.appendix_family(params), point),
                ("ybe-rosengren", yb.rosengren_family(params), point),
                ("ybe-sixvertex-trig", yb.sixvertex_family(eta), {**point, "eta": eta})):
            sweep = yb.ybe_sweep(fam, phi, php)
            yield pt, [(family, sweep.residual,
                        {"skipped": sweep.skipped, "checked": sweep.checked})]


def _suite_recursion6v(rng, samples: int, cfg: Config):
    for n in range(1, cfg.max_n_sixvertex + 1):
        for sign, sgn in _SIGNS:
            for _ in range(samples):
                eta = _draw_eta(rng, cfg)
                a = _draw_rapidities(rng, n)
                k, l = rng.integers(1, n + 1, size=2).tolist()
                point = {"n": n, "k": k, "l": l, "sign": sign}
                yield {**point, "eta": eta}, [
                    (f"z-recursion-{sgn}", sv.check_recursion_6v(dataclasses.replace(a, eta=eta),
                                                                 k, l, sign, form="Z"))]
                yield {**point, "eta": sv.ETA_COMBINATORIAL}, [
                    (f"f-recursion-{sgn}", sv.check_recursion_6v(a, k, l, sign, form="F"))]


def _suite_recursion3c(rng, samples: int, cfg: Config):
    for n in range(1, cfg.max_n_coloring + 1):
        for sign, sgn in _SIGNS:
            for _ in range(samples):
                params, point = _draw_params(rng, cfg)
                a = _draw_rapidities(rng, n)
                r = int(rng.integers(0, 3))
                k, l = rng.integers(1, n + 1, size=2).tolist()
                yield {**point, "n": n, "k": k, "l": l, "sign": sign, "r": r}, [
                    (f"coloring-{form.lower()}-recursion-{sgn}",
                     tc.check_recursion_3c(n, r, k, l, sign, a, params, form))
                    for form in ("Z", "F")]


def _suite_functional6v(rng, samples: int, cfg: Config):
    for n in range(1, cfg.max_n_sixvertex + 1):
        for _ in range(samples):
            a = _draw_rapidities(rng, n)
            k = int(rng.integers(1, n + 1))
            point = {"n": n, "k": k}
            yield point, [
                ("f-sum-chi", sv.functional_residual_6v(a, k, "chi")),
                ("f-sum-psi", sv.functional_residual_6v(a, k, "psi"))]
            eta = _draw_eta(rng, cfg)
            ag = dataclasses.replace(a, eta=eta)
            yield {**point, "eta": eta}, [
                ("pi-shift-parity", (sv.partition_function_6v(ag.shift_chi(n, PI)),
                                     (-1) ** (n - 1) * sv.partition_function_6v(ag)))]


def _suite_functional3c(rng, samples: int, cfg: Config):
    for n in range(1, cfg.max_n_coloring + 1):
        for r in range(3):
            for _ in range(samples):
                params, point = _draw_params(rng, cfg)
                a = _draw_rapidities(rng, n)
                k = int(rng.integers(1, n + 1))
                yield {**point, "n": n, "r": r, "k": k}, [
                    (f"s-sum-{side}", tc.functional_residual_3c(n, r, k, side, a, params))
                    for side in ("chi", "psi")]

    # the n = 1 sum written out: each shifted term against its explicit
    # theta1 * theta4 / (theta4 theta4) form
    for _ in range(samples):
        params, point = _draw_params(rng, cfg)
        lam = params.lam
        phi = float(rng.uniform(0.0, PI))
        explicit = [
            theta1(phi, params) * theta4(lam + phi + PI / 3, params)
            / (theta4(lam + 2 * PI / 3, params) * theta4(lam, params)),
            theta1(phi + 2 * PI / 3, params) * theta4(lam + phi + 5 * PI / 3, params)
            / (theta4(lam + 4 * PI / 3, params) * theta4(lam + 2 * PI / 3, params)),
            theta1(phi + 4 * PI / 3, params) * theta4(lam + phi + 3 * PI, params)
            / (theta4(lam + 2 * PI, params) * theta4(lam + 4 * PI / 3, params)),
        ]
        a1 = sv.SpectralAssignment(chi=[phi], psi=[0.0])
        yield {**point, "phi": phi}, [
            ("s-sum-n1-term-by-term",
             (tc.F_rn(1, s, a1.shift_chi(1, 2 * PI * s / 3), params), explicit[s]))
            for s in range(3)]


def _suite_appendix(rng, samples: int, cfg: Config):
    for _ in range(samples):
        params, point = _draw_params(rng, cfg)
        phi = float(rng.uniform(-1.2, 1.2))
        php = float(rng.uniform(-1.2, 1.2))
        substituted = yb.appendix_substitution(params)
        closed = yb.appendix_family(params)
        pairs = [(phi, php), (php, -phi)]
        yield {**point, "phi": phi}, [
            *(("substitution-matches-closed-forms", pair)
              for pair in zip(substituted.weight_table(phi), closed.weight_table(phi))),
            ("rosengren-gauge-match", yb.rosengren_match(params, phis=(phi, php))),
            ("gauge-constraint-shifted",
             yb.gauge_constraint_residual(yb.zeta_gauge(params), pairs)),
            ("gauge-constraint-difference",
             yb.gauge_constraint_residual(yb.rosengren_gauge(params), pairs)),
        ]


def _suite_symmetry(rng, samples: int, cfg: Config):
    # Z is symmetric in the chi and in the psi (the train argument), so the
    # recursion suites' one drawn pin (k, l) per draw stands for all 2n^2; n = 1
    # permutes nothing, and at n = 2 a psi transposition is the chi one turned 180 degrees
    for n in range(2, cfg.max_n_sixvertex + 1):
        for _ in range(samples):
            eta = _draw_eta(rng, cfg)
            a = dataclasses.replace(_draw_rapidities(rng, n), eta=eta)
            swapped, pairs = _transpositions(rng, a)
            z = sv.partition_function_6v(a)
            yield {"n": n, "eta": eta, **pairs}, [
                (f"z6v-{side}-transposed", (sv.partition_function_6v(b), z))
                for side, b in zip(("chi", "psi"), swapped[:1 if n == 2 else 2])]
    for n in range(2, cfg.max_n_coloring + 1):
        for _ in range(samples):
            params, point = _draw_params(rng, cfg)
            a = _draw_rapidities(rng, n)
            r = int(rng.integers(0, 3))
            swapped, pairs = _transpositions(rng, a)
            z = tc.partial_partition_function(n, r, a, params)
            yield {**point, "n": n, "r": r, **pairs}, [
                (f"z3c-{side}-transposed", (tc.partial_partition_function(n, r, b, params), z))
                for side, b in zip(("chi", "psi"), swapped)]


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
    "symmetry": (_suite_symmetry, 20, "tol_recursion"),
}

SUITES = tuple(_SUITES)

#: the order in which the forked workers of "all" take up the suites: by
#: their warm in-process times at the defaults, longest first, so that no
#: worker is left with a long suite while the others idle
_DEAL_ORDER = ("ybe", "functional3c", "recursion3c", "theta", "appendix", "symmetry",
               "recursion6v", "functional6v")

#: the identity families whose Config tolerance key is not their suite's
_OWN_TOLERANCE = {
    "pi-shift-parity": "tol_parity",
    "gauge-constraint-shifted": "tol_gauge",
    "gauge-constraint-difference": "tol_gauge",
}


def _worst_cases(draws, cfg: Config, tol_key: str) -> list[CaseResult]:
    """One case per identity, in first-seen order, from draws (point, rows).

    A row (family, value[, counts]) is of identity family-n<n> when the point
    has a lattice size n, else of the family itself; rel_residual turns an
    (lhs, rhs) value into its residual.  A case holds the worst row of its
    identity, a row replacing the held one only if numutil.severity ranks it
    higher (so a NaN sticks and a tie keeps the first point), and its counts
    summed over all rows."""
    worst: dict[str, tuple[float, dict, float]] = {}
    counts: dict[str, dict] = {}
    for point, rows in draws:
        for family, value, *extra in rows:
            identity = f"{family}-n{point['n']}" if "n" in point else family
            residual = rel_residual(*value) if isinstance(value, tuple) else value
            prev = worst.get(identity)
            if prev is None or severity(residual) > severity(prev[0]):
                tol = getattr(cfg, _OWN_TOLERANCE.get(family, tol_key))
                worst[identity] = (residual, point, tol)
            for name, amount in (extra[0].items() if extra else ()):
                slot = counts.setdefault(identity, {})
                slot[name] = slot.get(name, 0) + amount
    return [CaseResult(identity=identity, point=point, residual=residual,
                       tolerance=tol, passed=residual < tol, extra=counts.get(identity, {}))
            for identity, (residual, point, tol) in worst.items()]


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """Child generator for one suite, split from the root seed by the suite's
    fixed position in SUITES."""
    children = np.random.SeedSequence(seed).spawn(len(SUITES))
    return np.random.default_rng(children[SUITES.index(suite)])


def _suite_cases(name: str, seed: int, samples: int | None, cfg: Config) -> list[CaseResult]:
    """The worst cases of one suite, drawn from its own SeedSequence child."""
    fn, default, tol_key = _SUITES[name]
    return _worst_cases(fn(suite_rng(seed, name), samples or default, cfg), cfg, tol_key)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can report its affinity
        return 1


def run_suite(suite: str, seed: int = 0, samples: int | None = None,
              config: Config | None = None) -> VerificationReport:
    """Run one named suite (or 'all', every suite with its name as identity
    prefix) and return its report; samples defaults per suite.  The report
    holds no timing: a caller that wants the wall time measures the call.

    'all' runs its suites in forked workers (forkmap), one per usable CPU
    and at most one per suite, which take them up longest first
    (_DEAL_ORDER); with one usable CPU, as with one suite, they run in this
    process.  Either way the cases come back in SUITES order,
    and a failing suite raises the error of the first failing suite in that
    order, so the report and the error do not depend on the number of CPUs.
    A worker that dies without a result (killed by a signal, say) raises
    ChildProcessError naming its exit status and the suites left without a
    result; no worker outlives the call."""
    cfg = config or Config()
    if suite != "all" and suite not in _SUITES:
        raise ConfigError(f"unknown suite '{suite}'; choose from {SUITES + ('all',)}")
    if type(seed) is not int or not (samples is None or type(samples) is int):
        raise ConfigError(f"seed and samples must be ints, got {seed!r} and {samples!r}")
    if samples is not None and samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    names = SUITES if suite == "all" else (suite,)
    body = functools.partial(_suite_cases, seed=seed, samples=samples, cfg=cfg)
    workers = min(len(names), _usable_cpus())
    if workers > 1:
        from .forkmap import fork_map  # compiled only by the runs that fork
        per_suite = fork_map(body, names, workers, tuple(map(SUITES.index, _DEAL_ORDER)))
    else:
        per_suite = list(map(body, names))
    recorded = samples or (0 if suite == "all" else _SUITES[suite][1])
    return VerificationReport(suite=suite, seed=seed, samples=recorded, config=cfg, cases=[
        dataclasses.replace(case, identity=f"{name}/{case.identity}") if suite == "all" else case
        for name, cases in zip(names, per_suite) for case in cases])
