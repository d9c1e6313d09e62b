"""Out-of-process-style tracing of icelab's public functions.

The tracer wraps public functions by name, from the outside: for every
target it looks up the object in its defining module and rebinds that same
object, wherever an ``icelab`` module namespace holds it, to a wrapper that
records a span.  Internal calls resolve module globals at call time, so
nested calls are traced too.  No private name of the package is touched, and
no source file changes.

Spans are kept in memory as flat arrays (group id, parent span, start, end)
and aggregated when the run ends: a group's self time is the sum of its
spans' durations minus the durations of the wrapped spans nested directly
inside them.  Targets that a later version of the package no longer defines
are recorded as absent and contribute zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

#: (defining module, public attribute, metric group).  An attribute of the
#: form "Class.method" wraps the method on the class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("theta", "theta1", "theta"),
    ("theta", "theta4", "theta"),
    ("theta", "theta1_reduced", "theta"),
    ("theta", "theta1_prime_at_zero", "theta"),
    ("theta", "zeta", "theta"),
    ("theta", "zeta_log_table", "theta"),
    ("theta", "cubic_factor_D", "theta"),
    ("sixvertex", "enumerate_dwbc_states", "sixvertex.enumerate_dwbc_states"),
    ("sixvertex", "partition_function_6v", "sixvertex.partition_function_6v"),
    ("sixvertex", "F_n_6v", "sixvertex.F_n_6v"),
    ("sixvertex", "check_recursion_6v", "sixvertex.checks"),
    ("sixvertex", "functional_residual_6v", "sixvertex.checks"),
    ("sixvertex", "functional_sum_6v", "sixvertex.checks"),
    ("threecoloring", "enumerate_colorings", "threecoloring.enumerate"),
    ("threecoloring", "compute_census", "threecoloring.enumerate"),
    ("threecoloring", "lenard_map", "threecoloring.lenard_map"),
    ("threecoloring", "partial_partition_function", "threecoloring.partial_partition_function"),
    ("threecoloring", "F_rn", "threecoloring.F_rn"),
    ("threecoloring", "check_recursion_3c", "threecoloring.checks"),
    ("threecoloring", "functional_residual_3c", "threecoloring.checks"),
    ("threecoloring", "functional_sum_3c", "threecoloring.checks"),
    ("threecoloring", "phi_ratio_relation_check", "threecoloring.checks"),
    ("yangbaxter", "ybe_sweep", "yangbaxter.ybe_sweep"),
    ("yangbaxter", "WeightFamily.weight_table", "yangbaxter.weight_table"),
    ("verify", "VerificationReport.to_json", "cli.to_json"),
)

GROUPS: tuple[str, ...] = tuple(dict.fromkeys(g for _, _, g in TARGETS))


class Tracer:
    """Installs the wrappers, records spans and counters, aggregates them."""

    def __init__(self) -> None:
        self.gid = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {
            "yangbaxter.ybe.checked": 0, "yangbaxter.ybe.skipped": 0,
            "threecoloring.colorings": 0,
        }
        self.dwbc_sizes: dict[int, int] = {}
        self.absent: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        importlib.import_module("icelab")
        for mod_name, attr, group in TARGETS:
            module = importlib.import_module(f"icelab.{mod_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, GROUPS.index(group), self._observer(attr))
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            namespaces = [m for key, m in sys.modules.items()
                          if key == "icelab" or key.startswith("icelab.")]
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def _observer(self, attr: str):
        if attr == "ybe_sweep":
            def observe(result, args):
                self.counters["yangbaxter.ybe.checked"] += result.checked
                self.counters["yangbaxter.ybe.skipped"] += result.skipped
            return observe
        if attr == "enumerate_dwbc_states":
            def observe(result, args):
                self.dwbc_sizes[args[0] if args else 0] = len(result)
            return observe
        if attr == "enumerate_colorings":
            def observe(result, args):
                self.counters["threecoloring.colorings"] += len(result)
            return observe
        if attr == "compute_census":
            def observe(result, args):
                self.counters["threecoloring.colorings"] += result.total()
            return observe
        return None

    def _wrap(self, fn, gid: int, observe):
        gids, parents, starts, ends, stack = (self.gid, self.parent, self.start,
                                             self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            gids.append(gid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-group calls and self time plus the counters, by metric name."""
        n_groups = len(GROUPS)
        calls = [0] * n_groups
        total = [0.0] * n_groups
        nested = [0.0] * n_groups
        gids, parents, starts, ends = self.gid, self.parent, self.start, self.end
        for i in range(len(gids)):
            dur = ends[i] - starts[i]
            g = gids[i]
            calls[g] += 1
            total[g] += dur
            p = parents[i]
            if p >= 0:
                nested[gids[p]] += dur
        out: dict[str, float] = {}
        for g, name in enumerate(GROUPS):
            out[f"{name}.calls"] = calls[g]
            out[f"{name}.self_s"] = total[g] - nested[g]
        out.update(self.counters)
        out["sixvertex.states"] = sum(self.dwbc_sizes.values())
        return out

    def save_spans(self, path: str) -> None:
        """Write every span as a compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, groups=np.array(GROUPS),
            gid=np.frombuffer(self.gid, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
