"""icelab benchmark runner.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; icelab is imported from ./src.
The load is a closed loop of one workload process at a time, each on one
thread.  A run starts with one warm-up operation whose timings are
discarded, then repeats the workload's operation for ``--seconds``; with
``--trace 0`` each operation is preceded by timing ``import icelab.cli`` in
a fresh interpreter (``setup_s``) and surrounded by machine-speed probes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians; timings scaled by the adjacent probes); with ``--trace 1`` it
carries the per-layer metrics of BENCHMARK.json, taken from traced
operations that alternate with untraced ones.  Every operation's outputs are checked
against independent oracles; failed checks count in ``failed``.  Full
details (every sample, percentiles, checks, machine) go to
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from oracles import Checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
PROBE = BENCH / "probe.py"

MIN_TIMED_OPS = 5
RUN_DEADLINE_S = 165.0
#: (rows, cols, bc) of one census operation, full size and smoke size
CENSUS_GRIDS = {False: ((5, 5, "toroidal"), (4, 5, "free")),
                True: ((3, 3, "toroidal"), (3, 3, "free"))}
#: log10 margin reported when every toleranced residual is exactly zero
MARGIN_CAP = 20.0
#: probe time at which end-to-end timings are reported (see end_to_end)
PROBE_REF_S = 0.2


@dataclass
class Proc:
    """One finished child: wall time spawn to exit, its own peak RSS (from
    wait4, not RUSAGE_CHILDREN, which is a running maximum) and the JSON the
    child wrote."""

    wall_s: float
    rss_mb: float
    result: dict


class Runner:
    def __init__(self, seed: int, smoke: bool, corrupt: str | None, started: float):
        self.seed = seed
        self.smoke = smoke
        self.checks = Checks(corrupt)
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("PYTHONSTARTUP", None)
        self.reference_report: bytes | None = None

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], stderr_name: str) -> tuple[float, float, int]:
        timeout = max(1.0, self.remaining())
        with open(OUT / stderr_name, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - t0
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def child(self, mode_args: list[str], trace: bool = False) -> Proc:
        result_path = OUT / "child.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), "--result", str(result_path)]
        if trace:
            argv += ["--trace"]
        if self.checks.corrupt:
            argv += ["--corrupt", self.checks.corrupt]
        wall, rss, code = self.spawn(argv + mode_args, "child.stderr")
        self.checks.equal("exit", code, 0)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            result = {}
        self.checks.equal("result", int(bool(result)), 1)
        self.checks.records.extend(result.get("checks", []))
        return Proc(wall, rss, result)

    def setup_s(self) -> float:
        """Interpreter start to ``icelab.cli`` imported, in a fresh process."""
        wall, _, code = self.spawn([sys.executable, "-c", "import icelab.cli"], "setup.stderr")
        self.checks.equal("setup", code, 0)
        return wall

    def probe_s(self) -> float:
        """Wall time of the fixed machine-speed probe (bench/probe.py)."""
        wall, _, code = self.spawn([sys.executable, str(PROBE)], "probe.stderr")
        self.checks.equal("probe", code, 0)
        return wall


# ---------------------------------------------------------------------------
# workloads: each op(runner, index, trace) runs one operation and returns
# its processes plus operation-level facts
# ---------------------------------------------------------------------------


def op_verify_all(run: Runner, index: int, trace: bool) -> dict:
    """``icelab verify --suite all`` at default samples, one process; every
    report of a run uses the run's seed and must be byte-identical.  The
    warm-up (index 0) runs one sample per identity: it loads the same code."""
    report = OUT / f"verify-{index}.json"
    report.unlink(missing_ok=True)
    args = ["verify", "--suite", "all", "--seed", str(run.seed), "--out", str(report)]
    if run.smoke or index == 0:
        args += ["--samples", "1"]
    if run.checks.corrupt == "passed":
        strict = OUT / "strict.cfg"
        strict.write_text("tol_ybe = 1e-300\n", encoding="utf-8")
        args += ["--config", str(strict)]
    proc = run.child(["cli"] + args, trace)
    data = report.read_bytes() if report.exists() else b""
    parsed = json.loads(data) if data else {}
    run.checks.equal("passed", int(parsed.get("passed") is True), 1)
    if index > 0:
        if run.reference_report is None:
            run.reference_report = data + (b" " if run.checks.wrong("determinism") else b"")
        run.checks.equal("determinism", int(data == run.reference_report), 1)
    op = {"procs": [proc], "report_bytes": len(data),
          "margin": min_margin(parsed.get("cases", []))}
    if trace:
        # a process of its own, so that the traced wall time stays comparable
        op["suite_wall_s"] = run.child(["suites", "--report", str(report)]).result.get(
            "suite_wall_s", {})
    return op


def op_dwbc_large(run: Runner, index: int, trace: bool) -> dict:
    """Public-API calls on the largest lattices: cold n = 6 enumeration,
    n = 5 colourings and the Lenard map, seeded Z_6 and Z^r_5 draws."""
    args = ["dwbc", "--seed", str(run.seed)]
    if run.smoke:
        args += ["--n", "4"]
    proc = run.child(args, trace)
    return {"procs": [proc], "report_bytes": 0,
            "margin": min_margin(proc.result.get("checks", []))}


def op_census(run: Runner, index: int, trace: bool) -> dict:
    """``icelab census`` on a toroidal and a free grid, one process each.
    The warm-up uses unit face weights, where the generating function must
    equal the total; timed operations draw the weights from the seed."""
    if index == 0:
        z = (1.0, 1.0, 1.0)
    else:
        rng = random.Random(run.seed * 1_000_003 + index)
        z = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
    procs, size, first_check = [], 0, len(run.checks.records)
    for rows, cols, bc in CENSUS_GRIDS[run.smoke]:
        out = OUT / f"census-{rows}x{cols}-{bc}.json"
        out.unlink(missing_ok=True)
        args = ["census", "--rows", str(rows), "--cols", str(cols), "--bc", bc,
                "--format", "json", "--out", str(out),
                "--z0", repr(z[0]), "--z1", repr(z[1]), "--z2", repr(z[2])]
        procs.append(run.child(["cli"] + args, trace))
        data = out.read_bytes() if out.exists() else b"{}"
        size += len(data)
        got = json.loads(data)
        want = census_counts(rows, cols, bc)
        counts = {(c["k0"], c["k1"], c["k2"]): c["count"] for c in got.get("counts", [])}
        run.checks.equal("total", got.get("total"), sum(want.values()))
        run.checks.equal("counts", sum(counts.get(k) == v for k, v in want.items())
                         if set(counts) == set(want) else -1, len(want))
        gf = got.get("generating_function", math.nan)
        run.checks.rel("gf", gf, oracles.generating_function(want, z))
        if index == 0:
            run.checks.equal("gf-unit", gf, got.get("total"))
    return {"procs": procs, "report_bytes": size,
            "margin": min_margin(run.checks.records[first_check:])}


census_counts = functools.lru_cache(maxsize=None)(oracles.census_counts)


def min_margin(records: list[dict]) -> float:
    """Smallest log10(tolerance / residual) over toleranced comparisons."""
    return min((math.log10(c["tolerance"] / c["residual"]) for c in records
                if c.get("tolerance", 0) > 0 and c.get("residual", 0) > 0),
               default=MARGIN_CAP)


WORKLOADS = {
    "verify-all": op_verify_all,
    "dwbc-large": op_dwbc_large,
    "census": op_census,
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples above it (nearest-rank)."""
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            out[f"p{q:g}"] = ordered[rank - 1]
            break
    return out


def op_totals(op: dict) -> dict:
    procs = op["procs"]
    return {"wall_s": sum(p.wall_s for p in procs),
            "peak_rss_mb": max(p.rss_mb for p in procs),
            "first_result_s": sum(p.result.get("first_result_s", 0.0) for p in procs)}


def eval_samples(ops: list[dict], key: str) -> list[float]:
    """Per-call latencies a child recorded (dwbc-large: z6v/z3c_eval_ms)."""
    return [x for o in ops for p in o["procs"] for x in p.result.get(key, [])]


def end_to_end(run: Runner, op, seconds: float, details: dict) -> dict:
    """Probe, set-up, operation, probe, set-up, operation, ..., probe.

    Neighbours on a shared machine slow every process by up to 70% for
    minutes at a time.  Each timing is therefore divided by the probe time
    next to it (the mean of the probes on both sides of an operation) and
    reported at the reference probe time PROBE_REF_S: "seconds on a machine
    where the probe takes 0.2 s".  Raw samples stay in the details file.
    """
    ops, setup, probes = [], [], [run.probe_s()]
    t0 = time.perf_counter()
    while (len(ops) < MIN_TIMED_OPS or time.perf_counter() - t0 < seconds) \
            and run.remaining() > 0:
        setup.append(run.setup_s())
        ops.append(op(run, len(ops) + 1, False))
        probes.append(run.probe_s())
    totals = [op_totals(o) for o in ops]
    raw = {key: [t[key] for t in totals] for key in ("wall_s", "peak_rss_mb", "first_result_s")}
    raw["setup_s"] = setup
    raw["probe_s"] = probes
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    scaled = {"setup_s": [PROBE_REF_S * s / p for s, p in zip(setup, probes)]}
    for key in ("wall_s", "first_result_s"):
        scaled[key] = [PROBE_REF_S * t / p for t, p in zip(raw[key], around)]
    details["samples"] = raw
    details["scaled_samples"] = scaled
    details["summary"] = {k: summary(v) for k, v in raw.items()}
    details["scaled_summary"] = {k: summary(v) for k, v in scaled.items()}
    for key in ("z6v_eval_ms", "z3c_eval_ms"):
        details["summary"][key] = summary(eval_samples(ops, key))
    values = {k: statistics.median(v) for k, v in scaled.items()}
    values["peak_rss_mb"] = statistics.median(raw["peak_rss_mb"])
    return values


def per_layer(run: Runner, op, seconds: float, names: list[str], details: dict) -> dict:
    plain, traced = [], []
    t0 = time.perf_counter()
    while (not traced or time.perf_counter() - t0 < seconds) and run.remaining() > 0:
        plain.append(op(run, 2 * len(traced) + 1, False))
        traced.append(op(run, 2 * len(traced) + 2, True))
    layers = [{} for _ in traced]
    for merged, o in zip(layers, traced):
        for p in o["procs"]:
            for k, v in p.result.get("layers", {}).items():
                merged[k] = merged.get(k, 0) + v
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}

    def get(name):
        return metrics.get(name, 0.0)

    theta_calls = get("theta.calls")
    metrics["theta.us_per_call"] = 1e6 * get("theta.self_s") / theta_calls if theta_calls else 0.0
    attempted = get("yangbaxter.ybe.checked") + get("yangbaxter.ybe.skipped")
    metrics["yangbaxter.ybe.useful_ratio"] = (get("yangbaxter.ybe.checked") / attempted
                                              if attempted else 0.0)
    metrics["cli.to_json_s"] = metrics.pop("cli.to_json.self_s", 0.0)
    metrics.pop("cli.to_json.calls", None)
    metrics["cli.report_bytes"] = statistics.median(o["report_bytes"] for o in plain)
    metrics["verify.min_log10_margin"] = min(o["margin"] for o in plain + traced)
    suite_walls = [o["suite_wall_s"] for o in traced if "suite_wall_s" in o]
    for name in names:
        if name.startswith("verify.") and name.endswith(".wall_s"):
            suite = name[len("verify."):-len(".wall_s")]
            metrics[name] = (statistics.median(w.get(suite, 0.0) for w in suite_walls)
                             if suite_walls else 0.0)
    z6v = eval_samples(plain, "z6v_eval_ms")
    z3c = eval_samples(plain, "z3c_eval_ms")
    metrics["sixvertex.z6v_eval_ms"] = statistics.median(z6v) if z6v else 0.0
    metrics["threecoloring.z3c_eval_ms"] = statistics.median(z3c) if z3c else 0.0
    plain_wall = statistics.median(op_totals(o)["wall_s"] for o in plain)
    traced_wall = statistics.median(op_totals(o)["wall_s"] for o in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    details["summary"] = {"z6v_eval_ms": summary(z6v), "z3c_eval_ms": summary(z3c),
                          "untraced_wall_s": summary([op_totals(o)["wall_s"] for o in plain]),
                          "traced_wall_s": summary([op_totals(o)["wall_s"] for o in traced])}
    details["absent"] = sorted({a for o in traced for p in o["procs"]
                                for a in p.result.get("absent", [])})
    return metrics


# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest lattices and samples (self-test)")
    parser.add_argument("--corrupt", default=None,
                        help="perturb one gate's expected value (negative control)")
    args = parser.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "icelab" / "__init__.py").is_file():
        print(f"error: no icelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    run = Runner(args.seed, args.smoke, args.corrupt, started)
    op = WORKLOADS[args.workload]
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "smoke": args.smoke, "corrupt": args.corrupt,
                     "machine": machine(), "load": "closed loop, one process, one thread"}
    op(run, 0, False)  # warm-up: fills the bytecode and OS caches, timings discarded
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(run, op, args.seconds, [m["name"] for m in wanted], details)
    else:
        values = end_to_end(run, op, args.seconds, details)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3

    failed = sum(not c["ok"] for c in run.checks.records)
    attempted = len(run.checks.records)
    details["fail_ratio"] = failed / attempted
    details["gates"] = {}
    for c in run.checks.records:
        tally = details["gates"].setdefault(c["gate"], {"attempted": 0, "failed": 0})
        tally["attempted"] += 1
        tally["failed"] += not c["ok"]
    details["failed_checks"] = [c for c in run.checks.records if not c["ok"]][:20]
    details["metrics"] = values
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
