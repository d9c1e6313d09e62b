"""Self-test of the benchmark: smoke-size runs and negative controls.

  python3 bench/selftest.py

1. Runs every workload at smoke size with --trace 0 and --trace 1 and checks
   the output schema against BENCHMARK.json and that every check passed.
2. Negative controls: for every gate a clean run exercised, reruns with that
   gate's expected value deliberately wrong (--corrupt GATE) and requires
   the run to report failed > 0 for that gate.
3. Runs run.py in a directory holding only BENCHMARK.json and bench/,
   which must exit non-zero without printing a result.

Exits non-zero if any of these fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SEED = 1


def run(workload: str, trace: int, corrupt: str | None = None, root: Path = ROOT):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        argv += ["--corrupt", corrupt]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def schema_errors(line: str, wanted: list[dict]) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be an integer >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed must be an integer")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in wanted]:
        errors.append(f"metric names {list(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{m['name']}: {got}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            errors = schema_errors(lines[-1], spec[key])
            result = json.loads(lines[-1]) if not errors else {}
            if result and (result["failed"] or not result["correct"]):
                errors.append(f"clean run failed {result['failed']} checks")
            failures += [f"{label}: {e}" for e in errors]
            details = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json")
                                 .read_text(encoding="utf-8"))
            print(f"{label}: schema ok, gates {sorted(details['gates'])}", flush=True)
            for gate in sorted(details["gates"]):
                bad = run(workload, trace, corrupt=gate)
                tail = bad.stdout.strip().splitlines()[-1:] if bad.returncode == 0 else []
                got = json.loads(tail[0]) if tail else {}
                caught = (json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json")
                                     .read_text(encoding="utf-8"))["gates"]
                          .get(gate, {}).get("failed", 0)) if tail else 0
                ok = got.get("failed", 0) > 0 and got.get("correct") is False and caught > 0
                print(f"  negative control {gate}: {'caught' if ok else 'MISSED'}", flush=True)
                if not ok:
                    failures.append(f"{label}: corrupting gate {gate} was not caught")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    first = spec["workloads"][0]["name"]
    proc = run(first, 0, root=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("without sources run.py must fail without printing a result")
    else:
        print(f"bare checkout: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
