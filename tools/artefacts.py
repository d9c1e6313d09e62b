"""Artefacts: every output a byte-identity claim compares, in one directory.

    PYTHONPATH=src python tools/artefacts.py DIR
    python tools/artefacts.py reports BASE HEAD
    python tools/artefacts.py outputs BASE HEAD

The first form writes, for the icelab on PYTHONPATH, one file per artefact
into DIR: the `verify --suite all` reports of REPORTS, the Yang-Baxter digest
(ybe.txt), the enumerate and census outputs of OUTPUTS and the Lenard digest
(lenard.txt).  Each comes from its own `python -m icelab` or `python -c`
process, as a user would run it.  A run that fails keeps what it wrote and
ends its file with a line naming its exit status, so a crash is a difference
too.  A change keeps every output byte-identical when `diff -r` of DIR
written at the parent and DIR written at the change is empty.

The other two forms compare two such directories and exit 1 if anything they
compare differs.  `reports` prints, for each report that differs, the
identities only in one of them, those whose point, tolerance or pass
changed, the largest residual change and every residual that moved by more
than 10x either way, then whether the Yang-Baxter digests differ.  `outputs`
names each enumerate or census output that differs and whether the Lenard
digests do.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: the verify reports: file name -> (config file text or None, verify options).
#: The series run sums every q-series under a non-default rule, so params
#: that lose their series settings on the way change its report.  The tight
#: run caps every series at 10 terms, one above what it needs (8 raise
#: SeriesTruncationError), so the sums run near their cap; a term plan that
#: mis-sizes its stop boundary changes every report here.
REPORTS = {
    "verify-seed0.json": (None, "--seed 0"),
    "verify-seed1.json": (None, "--seed 1"),
    "verify-seed7.json": (None, "--seed 7"),
    "verify-series.json": ("term_tolerance = 1e-13\nmax_terms = 40\n", "--seed 0 --samples 2"),
    "verify-tight.json": ("term_tolerance = 1e-15\nmax_terms = 10\n", "--seed 0 --samples 2"),
}

#: the enumerate and census commands: the domain-wall censuses with all three
#: corners and with one; the toroidal censuses run one transfer sector per
#: orbit of first rows, 5 faces to a ring and 4 (an even ring, with smaller
#: orbits); the census of the 1x25 strip and of the 2x12 torus runs along
#: the short side, 25 levels of one face and 12 two-face rings
OUTPUTS = [
    "enumerate --model coloring --n 3 --bc dwbc",
    "enumerate --model coloring --rows 3 --cols 3 --bc toroidal",
    "enumerate --model coloring --rows 3 --cols 4 --bc free",
    "enumerate --model sixvertex --n 4",
    "enumerate --model sixvertex --n 5",
    "enumerate --model sixvertex --n 6",
    "enumerate --model coloring --n 5 --bc dwbc",
    "enumerate --model coloring --n 4 --bc dwbc --corner 1",
    "census --rows 4 --cols 5 --bc free --format json --z0 2 --z1 3",
    "census --rows 5 --cols 5 --bc toroidal --format json --z0 2 --z1 3",
    "census --rows 4 --cols 4 --bc toroidal",
    "census --rows 6 --cols 6 --bc dwbc --format json --z0 2 --z1 3",
    "census --rows 5 --cols 5 --bc dwbc --corner 1",
    "census --rows 1 --cols 25 --bc free",
    "census --rows 2 --cols 12 --bc toroidal --format json --z0 2 --z1 3",
]

#: the sha256 of ybe_sweep's (residual bits, checked, skipped) over the raw,
#: tilde, appendix, Rosengren, substitution and gauged appendix families at
#: p = 0.2, lambda = 0.24 and the six-vertex family at eta = 1.1, each at four
#: (phi, phi') points; the six-vertex sweep at phi = phi' checks 54
#: assignments, so the skip rule is read
YBE_DIGEST = """\
import hashlib
from icelab import (EllipticParams, appendix_family, appendix_substitution,
                    apply_gauge_kindwise, raw_family, rosengren_family,
                    rosengren_gauge, sixvertex_family, tilde_family, ybe_sweep)
pr = EllipticParams.from_nome(0.2, lam=0.24)
families = [make(pr) for make in (raw_family, tilde_family, appendix_family,
                                  rosengren_family, appendix_substitution)]
families += [apply_gauge_kindwise(appendix_family(pr), rosengren_gauge(pr)),
             sixvertex_family(1.1)]
points = [(0.3, 0.3), (0.41, 0.13), (-1.1, 0.7), (0.5 + 0.2j, -0.3)]
sweeps = [ybe_sweep(fam, phi, php) for fam in families for phi, php in points]
bits = [(s.residual.hex(), s.checked, s.skipped) for s in sweeps]
print(hashlib.sha256(repr(bits).encode()).hexdigest())
"""

#: lenard_map has no CLI: the sha256 of its images of every colouring of the
#: domain-wall grids n = 1..5, the 3x4 free grid and the 4x4 torus
LENARD_DIGEST = """\
import hashlib
from icelab import enumerate_colorings, lenard_map
grids = [(n + 1, n + 1, "dwbc") for n in range(1, 6)] + [(3, 4, "free"), (4, 4, "toroidal")]
images = [(s.h, s.v) for args in grids for s in map(lenard_map, enumerate_colorings(*args))]
print(hashlib.sha256(repr(images).encode()).hexdigest())
"""


def output_name(command: str) -> str:
    """The file of an OUTPUTS command: its words without dashes, joined by -."""
    return "-".join(word.lstrip("-") for word in command.split()) + ".txt"


def last_line(data: bytes | None) -> str:
    if data is None:
        return "missing"
    return (data.decode(errors="replace").strip().splitlines() or [""])[-1]


def write(out: Path) -> None:
    """Write every artefact into out for the icelab that this process imports;
    its child processes import the same one."""
    import icelab
    src = str(Path(icelab.__file__).resolve().parents[1])
    print(f"icelab from {src}", file=sys.stderr)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, (config, options) in REPORTS.items():
            args = ["-m", "icelab", "verify", "--suite", "all", *options.split()]
            if config is not None:
                (cfg := Path(tmp) / f"{name}.cfg").write_text(config, encoding="utf-8")
                args += ["--config", str(cfg)]
            runs.append((name, args, (0, 1)))  # 1: a gate failed, the report is still printed
        runs += [("ybe.txt", ["-c", YBE_DIGEST], (0,)), ("lenard.txt", ["-c", LENARD_DIGEST], (0,))]
        runs += [(output_name(command), ["-m", "icelab", *command.split()], (0,))
                 for command in OUTPUTS]
        for name, args, ok in runs:
            proc = subprocess.run([sys.executable, *args], env=env, capture_output=True)
            status = ("" if proc.returncode in ok
                      else f"exit status {proc.returncode}: {last_line(proc.stderr)}\n")
            (out / name).write_bytes(proc.stdout + status.encode())


def report_changes(old_report: dict, new_report: dict) -> list[str]:
    """What changed between two verify reports, identity by identity."""
    old, new = ({c["identity"]: c for c in report["cases"]}
                for report in (old_report, new_report))
    lines = [f"{name}: only in {'base' if name in old else 'head'}"
             for name in sorted(old.keys() ^ new.keys())]
    common = [k for k in new if k in old]
    lines += [f"{k}: {field} {old[k][field]!r} -> {new[k][field]!r}"
              for k in common for field in ("point", "tolerance", "pass")
              if old[k][field] != new[k][field]]
    if common:
        k = max(common, key=lambda k: abs(new[k]["residual"] - old[k]["residual"]))
        lines.append(f"largest residual change: {k}: "
                     f"{old[k]['residual']!r} -> {new[k]['residual']!r}")
    lines += [f"moved more than 10x: {k}: {old[k]['residual']!r} -> {new[k]['residual']!r}"
              for k in common if moved_tenfold(old[k]["residual"], new[k]["residual"])]
    return lines


def moved_tenfold(a: float, b: float) -> bool:
    """Whether residual b is more than 10 times a, or a more than 10 times b;
    a NaN on one side only is a move."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    low, high = sorted((abs(a), abs(b)))
    return high > 10 * low


def read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def compare_reports(base: Path, head: Path) -> int:
    status = 0
    for name in REPORTS:
        old, new = read(base / name), read(head / name)
        if old == new:
            continue
        status = 1
        print(f"{name} differs from the base commit:")
        try:
            lines = report_changes(json.loads(old), json.loads(new))
        except (TypeError, ValueError):  # a side is missing, or its run failed
            lines = [f"{side}: {last_line(data)}" for side, data in (("base", old), ("head", new))]
        print("\n".join(f"  {line}" for line in lines))
    if read(base / "ybe.txt") != read(head / "ybe.txt"):
        status = 1
        print("Yang-Baxter sweeps differ from the base commit:")
        print(f"  base {read(base / 'ybe.txt')!r}\n  head {read(head / 'ybe.txt')!r}")
    return status


def compare_outputs(base: Path, head: Path) -> int:
    status = 0
    for command in OUTPUTS:
        if read(base / output_name(command)) != read(head / output_name(command)):
            status = 1
            print(f"icelab {command}: output differs from the base commit")
    if read(base / "lenard.txt") != read(head / "lenard.txt"):
        status = 1
        print("lenard_map images differ from the base commit")
    return status


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        write(Path(argv[0]))
        return 0
    compare = {"reports": compare_reports, "outputs": compare_outputs}
    if len(argv) == 3 and argv[0] in compare:
        return compare[argv[0]](Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
