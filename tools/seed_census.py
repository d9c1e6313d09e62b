"""Seed census: `icelab verify --suite all` at seeds 0-63, margins per identity.

For each identity it prints the worst residual/tolerance ratio over the
seeds, the seed that gave it, and the lowest ratio; then the failing seeds.
A gate whose worst ratio stays far below 1 cannot fail for a small error,
and one within a decade of 1 fails on roundoff.  Nothing is written to a
report.  Exits 1 if any seed fails, else 0.

    PYTHONPATH=src python tools/seed_census.py
"""

from __future__ import annotations

import sys

from icelab.numutil import severity
from icelab.verify import run_suite

SEEDS = range(64)


def main() -> int:
    worst: dict[str, tuple[float, int]] = {}
    lowest: dict[str, float] = {}
    failing = []
    for seed in SEEDS:
        report = run_suite("all", seed=seed)
        if not report.passed:
            failing.append(seed)
        for case in report.cases:
            ratio = case.residual / case.tolerance
            held = worst.get(case.identity)
            if held is None or severity(ratio) > severity(held[0]):
                worst[case.identity] = (ratio, seed)
            lowest[case.identity] = min(lowest.get(case.identity, ratio), ratio)
    width = max(map(len, worst))
    print(f"{'identity':<{width}}  worst ratio  seed  lowest ratio")
    for identity, (ratio, seed) in worst.items():
        print(f"{identity:<{width}}  {ratio:11.3e}  {seed:4d}  {lowest[identity]:12.3e}")
    print(f"failing seeds: {failing or 'none'} of {SEEDS.start}..{SEEDS.stop - 1}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
