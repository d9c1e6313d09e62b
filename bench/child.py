"""One workload process.  Started by run.py; writes its timings, check
results and (when traced) per-layer numbers as JSON to --result.

  child.py --result FILE [--trace] cli ARGS...     run ``python -m icelab ARGS``
  child.py --result FILE [--trace] dwbc --seed S    call the public API
  child.py --result FILE suites --report FILE       single suites against 'all'

``first_result_s`` runs from the end of ``import icelab.cli`` to the first
checked result, so it excludes interpreter start and import.  When traced,
the spans go to ``spans.npz`` next to the result file.
"""

from __future__ import annotations

import argparse
import json
import math
import runpy
import sys
import time
from collections import Counter
from pathlib import Path

import icelab.cli  # noqa: F401

T_IMPORTED = time.perf_counter()

import oracles  # noqa: E402
from oracles import Checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(args, out: dict) -> int:
    sys.argv = ["icelab", *args.cli_args]
    try:
        runpy.run_module("icelab", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out["first_result_s"] = time.perf_counter() - T_IMPORTED
    return code


def run_suites(args, out: dict) -> int:
    """The seven single-suite reports, prefixed and concatenated, must give
    the cases of the 'all' report (one SeedSequence child per suite)."""
    from icelab.verify import SUITES, run_suite
    checks = Checks(args.corrupt)
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    cases = []
    walls = {}
    for name in SUITES:
        t0 = time.perf_counter()
        # an 'all' report records samples = 0 for the per-suite defaults
        sub = json.loads(run_suite(name, seed=report["seed"],
                                   samples=report["samples"] or None).to_json())
        walls[name] = time.perf_counter() - t0
        for case in sub["cases"]:
            case["identity"] = f"{name}/{case['identity']}"
            cases.append(case)
    if checks.wrong("suites"):
        cases = cases[:-1]
    checks.records.append({"gate": "suites", "ok": cases == report["cases"]})
    out["suite_wall_s"] = walls
    out["checks"] = checks.records
    return 0


def run_dwbc(args, out: dict) -> int:
    """Cold enumeration, colourings and the Lenard map, then a seeded draw
    of the n = 6 six-vertex and n = 5 colouring partition functions."""
    import numpy as np
    from icelab import (EllipticParams, F_rn, SpectralAssignment,
                        check_recursion_6v, enumerate_colorings,
                        enumerate_dwbc_states, lenard_map,
                        partial_partition_function, partition_function_6v)
    from icelab.verify import Config

    pi = math.pi
    n, nc = args.n, args.n - 1
    checks = Checks(args.corrupt)
    rng = np.random.default_rng(args.seed)

    z0 = partition_function_6v(SpectralAssignment(chi=[0.0] * n, psi=[0.0] * n))
    out["first_result_s"] = time.perf_counter() - T_IMPORTED
    a_n = oracles.asm_count(n)
    checks.rel("z-exact", z0, a_n)
    checks.equal("states", len(enumerate_dwbc_states(n)), a_n)

    colorings = enumerate_colorings(nc + 1, nc + 1, "dwbc")
    checks.equal("colorings", len(colorings), 3 * oracles.asm_count(nc))
    # exactly 3-to-1 onto the ice states: every state has three preimages
    # and no image lies outside the set
    images = Counter(lenard_map(c) for c in colorings)
    ice = set(enumerate_dwbc_states(nc))
    onto = sum(images[s] == 3 for s in ice) if set(images) <= ice else -1
    checks.equal("lenard", onto, len(ice))

    # one seeded draw; rapidities with |chi_i - psi_j| < eta/4 keep every
    # six-vertex weight positive
    eta = float(rng.uniform(0.2, pi - 0.2))
    chi = [float(x) for x in rng.uniform(0.0, eta / 4, n)]
    psi = [float(x) for x in rng.uniform(0.0, eta / 4, n)]
    i, j = (int(x) for x in rng.choice(n, 2, replace=False))
    swapped = list(chi)
    swapped[i], swapped[j] = chi[j], chi[i]
    z, z6v_ms = [], []
    for rapidities in (chi, swapped):
        a = SpectralAssignment(chi=rapidities, psi=psi, eta=eta)
        t0 = time.perf_counter()
        z.append(partition_function_6v(a))
        z6v_ms.append(1e3 * (time.perf_counter() - t0))
    checks.rel("z-symmetry", z[1], z[0])
    k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
    sign = int(rng.choice([1, -1]))
    checks.within("recursion",
                  check_recursion_6v(SpectralAssignment(chi=chi, psi=psi, eta=eta),
                                     k, l, sign, form="Z"),
                  Config().tol_recursion)

    # colouring draw: |chi_i - psi_j| < pi/6 keeps every face weight positive
    p = float(rng.uniform(0.01, 0.5))
    lam = float(rng.uniform(0.05, pi / 3 - 0.05))
    params = EllipticParams.from_nome(p, lam=lam)
    shifted = EllipticParams.from_nome(p, lam=lam + 2 * pi / 3)
    a5 = SpectralAssignment(chi=[float(x) for x in rng.uniform(0.0, pi / 6, nc)],
                            psi=[float(x) for x in rng.uniform(0.0, pi / 6, nc)])
    for r in range(3):
        # lambda shift law F^{r+1}_n(lambda) = F^r_n(lambda + 2pi/3)
        checks.rel("lambda-shift", F_rn(nc, (r + 1) % 3, a5, params),
                   F_rn(nc, r, a5, shifted))
    z3c_ms = []
    for r in range(3):  # warm: F_rn above enumerated every corner colour
        t0 = time.perf_counter()
        partial_partition_function(nc, r, a5, params)
        z3c_ms.append(1e3 * (time.perf_counter() - t0))

    out["z6v_eval_ms"] = z6v_ms
    out["z3c_eval_ms"] = z3c_ms
    out["checks"] = checks.records
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    suites = sub.add_parser("suites")
    suites.add_argument("--report", required=True, help="report of 'verify --suite all'")
    dwbc = sub.add_parser("dwbc")
    dwbc.add_argument("--seed", type=int, required=True)
    dwbc.add_argument("--n", type=int, default=6)
    args = parser.parse_args()

    out: dict = {}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    code = {"cli": run_cli, "suites": run_suites, "dwbc": run_dwbc}[args.mode](args, out)
    if tracer is not None:
        out["layers"] = tracer.aggregate()
        out["absent"] = tracer.absent
        tracer.save_spans(str(Path(args.result).with_name("spans.npz")))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
