"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
`icelab verify --suite all` for the JSON report equivalent.
"""

import itertools
import math
import time

import pytest

from icelab import (EllipticParams, FaceWeightParams, SpectralAssignment,
                    compute_census,
                    enumerate_colorings, enumerate_dwbc_states, lenard_map,
                    partial_partition_function, partition_function_6v)
from icelab.verify import run_suite

PI = math.pi
SEED = 2024


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _suite_max(report, prefix: str = "") -> float:
    return max(c.residual for c in report.cases if c.identity.startswith(prefix))


def test_criterion_01_enumeration_cross_check():
    started = time.monotonic()
    ok = True
    counts = []
    for n in range(1, 6):
        six = enumerate_dwbc_states(n)
        colorings = enumerate_colorings(n + 1, n + 1, "dwbc", corner=0)
        counts.append(len(six))
        ok = ok and len(six) == len(colorings)
        images = {lenard_map(g) for g in colorings}
        ok = ok and len(images) == len(colorings) and images == set(six)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report(1, "six-vertex states == fixed-corner colorings, arrow map bijective, n=1..5",
            ok, f"counts {counts}, {elapsed:.2f} s")


def test_criterion_02_theta_suite():
    started = time.monotonic()
    report = run_suite("theta", seed=SEED, samples=200)
    elapsed = time.monotonic() - started
    worst = _suite_max(report)
    ok = worst < 1e-12 and elapsed < 1.0
    _report(2, "theta symmetry/periodicity/quasi-periodicity + nome-cubing identity "
               "+ Jacobi's theta1'(0) product < 1e-12 over 200 draws", ok,
            f"worst {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_ybe_suite():
    started = time.monotonic()
    report = run_suite("ybe", seed=SEED, samples=100)
    elapsed = time.monotonic() - started
    worst = _suite_max(report)
    ok = worst < 1e-9 and elapsed < 30.0
    families = sorted({c.identity for c in report.cases})
    _report(3, "Yang-Baxter residual < 1e-9 for all five weight families, 100 draws",
            ok, f"worst {worst:.2e} over {families}, {elapsed:.1f} s")


def test_criterion_04_sixvertex_recursions():
    started = time.monotonic()
    report = run_suite("recursion6v", seed=SEED, samples=20)
    elapsed = time.monotonic() - started
    worst = _suite_max(report)
    ok = worst < 1e-10 and elapsed < 60.0
    _report(4, "six-vertex reduce-by-one recursions (generic eta and dressed form) "
               "< 1e-10, n <= 4", ok, f"worst {worst:.2e}, {elapsed:.1f} s")


def test_criterion_05_sixvertex_functional():
    report = run_suite("functional6v", seed=SEED, samples=20)
    sums = max(c.residual for c in report.cases if c.identity.startswith("f-sum"))
    parity = max(c.residual for c in report.cases if c.identity.startswith("pi-shift"))
    ok = sums < 1e-10 and parity < 1e-12
    _report(5, "six-vertex three-term functional sums < 1e-10 and pi-shift parity "
               "< 1e-12, n <= 4", ok, f"sums {sums:.2e}, parity {parity:.2e}")


def test_criterion_06_coloring_recursions():
    report = run_suite("recursion3c", seed=SEED, samples=20)
    worst = _suite_max(report)
    ok = worst < 1e-10
    _report(6, "coloring reduce-by-one recursions (plain and dressed) < 1e-10, "
               "n <= 3, all corner colors", ok, f"worst {worst:.2e}")


def test_criterion_07_coloring_functional():
    report = run_suite("functional3c", seed=SEED, samples=20)
    sums = max(c.residual for c in report.cases if c.identity.startswith("s-sum-chi")
               or c.identity.startswith("s-sum-psi"))
    term = max(c.residual for c in report.cases
               if c.identity == "s-sum-n1-term-by-term")
    ok = sums < 1e-9 and term < 1e-9
    _report(7, "coloring functional sums vanish (chi and psi sides) < 1e-9 and the "
               "n=1 sum matches its explicit three-term form", ok,
            f"sums {sums:.2e}, term match {term:.2e}")


def test_criterion_08_degeneration():
    params = EllipticParams.from_nome(1e-4, lam=0.3)
    import random
    rnd = random.Random(SEED)
    worst = 0.0
    for n in (1, 2, 3):
        chi = [rnd.uniform(0, PI) for _ in range(n)]
        psi = [rnd.uniform(0, PI) for _ in range(n)]
        a = SpectralAssignment(chi=chi, psi=psi)
        z6 = partition_function_6v(a)
        for r in range(3):
            z3 = partial_partition_function(n, r, a, params)
            worst = max(worst, abs(z3 - z6) / abs(z6))
    ok = worst < 1e-3
    _report(8, "tilde coloring sums at p=1e-4 match the six-vertex partition "
               "function at eta=2pi/3 within 1e-3, n <= 3", ok, f"worst {worst:.2e}")


def test_criterion_09_appendix_chain():
    report = run_suite("appendix", seed=SEED, samples=50)
    by_name = {c.identity: c.residual for c in report.cases}
    ok = (by_name["substitution-matches-closed-forms"] < 1e-9
          and by_name["rosengren-gauge-match"] < 1e-9
          and by_name["gauge-constraint-shifted"] < 1e-12
          and by_name["gauge-constraint-difference"] < 1e-12)
    _report(9, "half-period substitution matches closed forms, final gauge match "
               "< 1e-9, gauge constraints < 1e-12",
            ok, ", ".join(f"{k} {v:.1e}" for k, v in sorted(by_name.items())))


def test_criterion_10_census():
    # re-derive both reference counts inside the test by exhaustive scan
    free_1x1 = sum(1 for _ in itertools.product(range(3), repeat=1))
    assert free_1x1 == 3
    toroidal_2x2 = 0
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if a != b and c != d and a != c and b != d:
            toroidal_2x2 += 1
    assert toroidal_2x2 == 18

    unit = FaceWeightParams()
    ok = (compute_census(1, 1, "free").generating_function(unit) == pytest.approx(3.0)
          and compute_census(2, 2, "toroidal").generating_function(unit) == pytest.approx(
              float(toroidal_2x2)))
    for rows, cols, bc in [(1, 1, "free"), (2, 3, "free"), (2, 2, "toroidal"),
                           (3, 3, "toroidal"), (3, 3, "dwbc"), (4, 4, "dwbc")]:
        census = compute_census(rows, cols, bc)
        count = len(enumerate_colorings(rows, cols, bc))
        ok = ok and census.total() == count
        ok = ok and census.generating_function(unit) == pytest.approx(float(count))
    _report(10, "census: 1x1 free = 3, 2x2 toroidal = 18 (re-derived in-test), "
                "unit-weight generating function equals the count", ok)
