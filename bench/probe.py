"""Machine-speed probe: a fixed amount of interpreter work in a fresh process.

run.py times this script (spawn to exit) next to every timed operation.  It
imports nothing from icelab, so no change to the program under test moves
it; it does the kind of work icelab does (interpreter start, numpy import,
complex arithmetic, dict and tuple churn), so a neighbour that slows the
machine slows the probe and the operation alike.
"""

import cmath

import numpy  # noqa: F401  (the shared libraries every workload process loads)

table = {}
acc = 0j
for i in range(30_000):
    z = cmath.exp(1j * (i % 97) / 97.0) * (1.0 + 1e-3 * (i % 13))
    key = (i % 3, (i // 3) % 3, (i // 9) % 3)
    table[key] = table.get(key, 0j) + z
    acc += z * z.conjugate()
if not acc.real > 0.0:
    raise SystemExit(1)
