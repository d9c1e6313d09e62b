"""Command-line front end.

Subcommands:

  enumerate   dump lattice states (six-vertex ice states or colorings)
  census      coloring counts by color multiplicities + generating function
  verify      run a verification suite and emit a JSON report

Exit codes: 0 success / suite passed, 1 suite had a failing identity or a
suite worker died, 2 usage or configuration error (including size-guard
violations).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ConfigError, IcelabError
from .sixvertex import enumerate_dwbc_states
from .threecoloring import (BoundaryCondition, FaceWeightParams,
                            compute_census, enumerate_colorings)
from .verify import SUITES, Config, load_config, run_suite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _write_output(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _cmd_enumerate(args) -> int:
    if args.model == "sixvertex":
        if args.n is None:
            raise ConfigError("--model sixvertex requires --n")
        if (args.rows, args.cols, args.corner, args.bc) != (None, None, None, "dwbc"):
            raise ConfigError("--rows, --cols, --corner, --bc free|toroidal are coloring options")
        payload = {"n": args.n, "bc": "dwbc"}
        key, items = "states", enumerate_dwbc_states(args.n)
    else:
        if args.n is not None:
            if (args.rows, args.cols, args.bc) != (None, None, "dwbc"):
                raise ConfigError("--n selects a domain-wall lattice: drop --rows, --cols "
                                  "and --bc free|toroidal, or --n")
            rows = cols = args.n + 1
        elif args.rows is not None and args.cols is not None:
            rows, cols = args.rows, args.cols
        else:
            raise ConfigError("--model coloring requires --n (dwbc) or --rows and --cols")
        payload = {"rows": rows, "cols": cols, "bc": args.bc}
        if args.corner is not None:
            payload["corner"] = args.corner
        key, items = "colorings", enumerate_colorings(rows, cols, BoundaryCondition(args.bc),
                                                      corner=args.corner)
    payload |= {"model": args.model, "count": len(items), key: [x.to_json_obj() for x in items]}
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_census(args) -> int:
    z = FaceWeightParams(z0=args.z0, z1=args.z1, z2=args.z2)
    census = compute_census(args.rows, args.cols, BoundaryCondition(args.bc),
                            corner=args.corner)
    value = census.generating_function(z)
    value_out = value.real if value.imag == 0.0 else [value.real, value.imag]
    if args.format == "json":
        payload = {
            "rows": args.rows,
            "cols": args.cols,
            "bc": args.bc,
            "weights": {"z0": args.z0, "z1": args.z1, "z2": args.z2},
            "counts": [{"k0": k[0], "k1": k[1], "k2": k[2], "count": c}
                       for k, c in census.sorted_items()],
            "total": census.total(),
            "generating_function": value_out,
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = ["k0,k1,k2,count"]
        lines += [f"{k[0]},{k[1]},{k[2]},{c}" for k, c in census.sorted_items()]
        lines.append(f"# generating_function = {value_out!r}")
        _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = load_config(args.config) if args.config else Config()
    started = time.monotonic()
    report = run_suite(args.suite, seed=args.seed, samples=args.samples, config=config)
    elapsed = time.monotonic() - started
    _write_output(report.to_json(), args.out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    print(f"suite '{report.suite}' {'passed' if report.passed else 'FAILED'} "
          f"in {elapsed:.2f} s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icelab",
        description="Exact verification workbench for the three-coloring and "
                    "six-vertex models with domain-wall boundaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enumerate", help="dump lattice states")
    enum_p.add_argument("--model", choices=["sixvertex", "coloring"], required=True)
    enum_p.add_argument("--n", type=int, default=None,
                        help="domain-wall lattice size (vertices per row)")
    enum_p.add_argument("--rows", type=int, default=None)
    enum_p.add_argument("--cols", type=int, default=None)
    enum_p.add_argument("--bc", choices=["free", "toroidal", "dwbc"], default="dwbc")
    enum_p.add_argument("--corner", type=int, choices=[0, 1, 2], default=None,
                        help="fix the top-left face color (dwbc colorings)")
    enum_p.add_argument("--out", default=None, help="output path (default stdout)")
    enum_p.set_defaults(func=_cmd_enumerate)

    census_p = sub.add_parser("census", help="coloring census and generating function")
    census_p.add_argument("--rows", type=int, required=True)
    census_p.add_argument("--cols", type=int, required=True)
    census_p.add_argument("--bc", choices=["free", "toroidal", "dwbc"], default="free")
    census_p.add_argument("--corner", type=int, choices=[0, 1, 2], default=None,
                          help="fix the top-left face color (dwbc grids only)")
    census_p.add_argument("--z0", type=float, default=1.0)
    census_p.add_argument("--z1", type=float, default=1.0)
    census_p.add_argument("--z2", type=float, default=1.0)
    census_p.add_argument("--format", choices=["csv", "json"], default="csv")
    census_p.add_argument("--out", default=None)
    census_p.set_defaults(func=_cmd_census)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--samples", type=int, default=None,
                          help="draws per identity (suite-specific default)")
    verify_p.add_argument("--config", default=None, help="key = value config file")
    verify_p.add_argument("--format", choices=["json"], default="json")
    verify_p.add_argument("--out", default=None)
    verify_p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IcelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChildProcessError as exc:  # a suite worker died: the run did not pass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
