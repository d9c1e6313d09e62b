"""tools/artefacts.py: the artefacts a byte-identity claim compares, and
the explainer that reads two sets of them."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "artefacts", Path(__file__).parents[1] / "tools" / "artefacts.py")
artefacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artefacts)


def case(identity, residual, point=None, tolerance=1e-10, passed=True):
    return {"identity": identity, "point": point or {"n": 2}, "residual": residual,
            "tolerance": tolerance, "pass": passed}


BASE = {"cases": [case("gone", 1e-16), case("moved-point", 2e-16),
                  case("looser", 3e-16), case("up", 1e-16), case("down", 5e-12),
                  case("steady", 4e-16), case("from-zero", 0.0)]}
HEAD = {"cases": [case("moved-point", 2e-16, point={"n": 3}),
                  case("looser", 3e-16, tolerance=1e-9),
                  case("up", 2e-11, passed=False), case("down", 4e-13),
                  case("steady", 9e-16), case("from-zero", 1e-17), case("new", 1e-16)]}


def test_report_changes_prints_each_kind_of_line():
    assert artefacts.report_changes(BASE, HEAD) == [
        "gone: only in base",
        "new: only in head",
        "moved-point: point {'n': 2} -> {'n': 3}",
        "looser: tolerance 1e-10 -> 1e-09",
        "up: pass True -> False",
        "largest residual change: up: 1e-16 -> 2e-11",
        "moved more than 10x: up: 1e-16 -> 2e-11",
        "moved more than 10x: down: 5e-12 -> 4e-13",
        "moved more than 10x: from-zero: 0.0 -> 1e-17",
    ]


@pytest.mark.parametrize("a, b, moved", [
    (1e-16, 1e-15, False), (1e-16, 1.1e-15, True), (1.1e-15, 1e-16, True),
    (0.0, 0.0, False), (0.0, 5e-324, True), (math.nan, 1e-16, True),
    (1e-16, math.nan, True), (math.nan, math.nan, False)])
def test_moved_tenfold(a, b, moved):
    assert artefacts.moved_tenfold(a, b) is moved


def write_set(root, reports, ybe, outputs, lenard):
    root.mkdir()
    for name, text in reports.items():
        (root / name).write_text(text)
    (root / "ybe.txt").write_text(ybe)
    for command in artefacts.OUTPUTS:
        (root / artefacts.output_name(command)).write_text(outputs.get(command, "same\n"))
    (root / "lenard.txt").write_text(lenard)
    return root


def test_compare_reports_and_outputs(tmp_path, capsys):
    names = list(artefacts.REPORTS)
    same = json.dumps(BASE, indent=2)  # as a report is written
    base = write_set(tmp_path / "base", {name: same for name in names}, "y0\n",
                     {}, "l0\n")
    assert artefacts.compare_reports(base, base) == 0
    assert artefacts.compare_outputs(base, base) == 0
    assert capsys.readouterr().out == ""

    command = artefacts.OUTPUTS[3]
    head = write_set(tmp_path / "head",
                     {names[0]: json.dumps(HEAD, indent=2), names[1]: same,
                      names[2]: "exit status 2: error: series truncated\n", names[3]: same},
                     "y1\n", {command: "other\n"}, "l1\n")
    assert artefacts.compare_reports(base, head) == 1
    assert artefacts.compare_outputs(base, head) == 1
    out = capsys.readouterr().out.splitlines()
    changes = [f"  {line}" for line in artefacts.report_changes(BASE, HEAD)]
    assert out == [f"{names[0]} differs from the base commit:", *changes,
                   f"{names[2]} differs from the base commit:",
                   "  base: }",
                   "  head: exit status 2: error: series truncated",
                   f"{names[4]} differs from the base commit:",
                   "  base: }",
                   "  head: missing",
                   "Yang-Baxter sweeps differ from the base commit:",
                   "  base b'y0\\n'",
                   "  head b'y1\\n'",
                   f"icelab {command}: output differs from the base commit",
                   "lenard_map images differ from the base commit"]


def test_write_records_each_run_and_its_failure(tmp_path, monkeypatch):
    # one report, one digest that fails and two outputs, one of them refused
    monkeypatch.setattr(artefacts, "REPORTS", {"verify-one.json": (
        "max_n_sixvertex = 2\nmax_n_coloring = 2\n", "--seed 3 --samples 1")})
    monkeypatch.setattr(artefacts, "YBE_DIGEST", "print('ybe')")
    monkeypatch.setattr(artefacts, "LENARD_DIGEST", "raise SystemExit('no lenard')")
    monkeypatch.setattr(artefacts, "OUTPUTS", ["census --rows 2 --cols 2 --bc toroidal",
                                               "census --rows 0 --cols 2 --bc free"])
    artefacts.write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "census-rows-0-cols-2-bc-free.txt", "census-rows-2-cols-2-bc-toroidal.txt",
        "lenard.txt", "verify-one.json", "ybe.txt"]
    report = json.loads((tmp_path / "verify-one.json").read_text())
    assert (report["seed"], report["samples"], report["config"]["max_n_sixvertex"]) == (3, 1, 2)
    assert (tmp_path / "ybe.txt").read_text() == "ybe\n"
    assert (tmp_path / "lenard.txt").read_text() == "exit status 1: no lenard\n"
    assert (tmp_path / "census-rows-2-cols-2-bc-toroidal.txt").read_text().startswith("k0,k1,k2")
    assert (tmp_path / "census-rows-0-cols-2-bc-free.txt").read_text() == (
        "exit status 2: error: grid must be at least 1x1\n")
