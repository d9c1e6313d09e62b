"""Suite times: each verify suite's warm in-process wall time at the defaults.

Every suite runs once at seed 0 to load its code and build its plans, then
once per seed of SEEDS, the suites in turn for each seed.  A new seed draws
new parameters, so no run is served by the value caches of an earlier one.
For each suite it prints the minimum over the seeds, then the longest-first
order these minima give and whether verify._DEAL_ORDER, the order in which
the forked workers of `verify --suite all` take up the suites, follows it.
Timings on a shared machine spread by tens of per cent: compare suites
whose minima are close over several runs before reordering them.  Nothing
is written to a report; exits 0.

    PYTHONPATH=src python tools/suite_times.py
"""

from __future__ import annotations

import sys
from time import perf_counter

from icelab.verify import _DEAL_ORDER, SUITES, run_suite

SEEDS = range(2, 6)


def main() -> int:
    for suite in SUITES:
        run_suite(suite, seed=0)
    best = dict.fromkeys(SUITES, float("inf"))
    for seed in SEEDS:
        for suite in SUITES:
            start = perf_counter()
            run_suite(suite, seed=seed)
            best[suite] = min(best[suite], perf_counter() - start)
    order = tuple(sorted(SUITES, key=best.__getitem__, reverse=True))
    print(f"{'suite':<13} min ms over seeds {SEEDS.start}-{SEEDS.stop - 1}")
    for suite in order:
        print(f"{suite:<13} {1e3 * best[suite]:6.1f}")
    print(f"longest first: {', '.join(order)}")
    print("verify._DEAL_ORDER " + ("follows it" if order == _DEAL_ORDER
                                   else f"differs: {', '.join(_DEAL_ORDER)}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
