"""Command-line interface: outputs, exit codes, report stability."""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import icelab
from icelab import ConfigError, SeriesTruncationError
from icelab import forkmap, theta, verify
from icelab.cli import main
from icelab.numutil import rel_residual
from icelab.sixvertex import MAX_EVAL_N
from icelab.verify import SUITES, Config, load_config, run_suite, suite_rng

#: the Config tolerance key of every identity family in "all" (identities
#: with their "-n<size>" suffix dropped)
TOLERANCE_KEYS = {
    "theta/theta1-odd": "tol_theta",
    "theta/theta4-even": "tol_theta",
    "theta/theta1-pi-antiperiodic": "tol_theta",
    "theta/theta4-pi-periodic": "tol_theta",
    "theta/theta1-pi-tau-shift": "tol_theta",
    "theta/theta4-pi-tau-shift": "tol_theta",
    "theta/theta4-from-theta1-half-shift": "tol_theta",
    "theta/theta1-cubic-nome": "tol_theta",
    "theta/theta1-derivative-jacobi-product": "tol_theta",
    "ybe/ybe-raw": "tol_ybe",
    "ybe/ybe-tilde": "tol_ybe",
    "ybe/ybe-appendix": "tol_ybe",
    "ybe/ybe-rosengren": "tol_ybe",
    "ybe/ybe-sixvertex-trig": "tol_ybe",
    "recursion6v/z-recursion-plus": "tol_recursion",
    "recursion6v/f-recursion-plus": "tol_recursion",
    "recursion6v/z-recursion-minus": "tol_recursion",
    "recursion6v/f-recursion-minus": "tol_recursion",
    "recursion3c/coloring-z-recursion-plus": "tol_recursion",
    "recursion3c/coloring-f-recursion-plus": "tol_recursion",
    "recursion3c/coloring-z-recursion-minus": "tol_recursion",
    "recursion3c/coloring-f-recursion-minus": "tol_recursion",
    "functional6v/f-sum-chi": "tol_functional6v",
    "functional6v/f-sum-psi": "tol_functional6v",
    "functional6v/pi-shift-parity": "tol_parity",
    "functional3c/s-sum-chi": "tol_functional3c",
    "functional3c/s-sum-psi": "tol_functional3c",
    "functional3c/s-sum-n1-term-by-term": "tol_functional3c",
    "appendix/substitution-matches-closed-forms": "tol_appendix",
    "appendix/rosengren-gauge-match": "tol_appendix",
    "appendix/gauge-constraint-shifted": "tol_gauge",
    "appendix/gauge-constraint-difference": "tol_gauge",
    "symmetry/z6v-chi-transposed": "tol_recursion",
    "symmetry/z6v-psi-transposed": "tol_recursion",
    "symmetry/z3c-chi-transposed": "tol_recursion",
    "symmetry/z3c-psi-transposed": "tol_recursion",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerateCommand:
    def test_sixvertex_n3(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--model", "sixvertex", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 7
        assert len(payload["states"]) == 7
        assert payload["states"][0][0][0] in {"alpha", "alpha_prime", "beta",
                                              "beta_prime", "gamma", "gamma_prime"}

    def test_coloring_free_1x1(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--model", "coloring",
                               "--rows", "1", "--cols", "1", "--bc", "free")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert payload["colorings"] == [[[0]], [[1]], [[2]]]

    def test_coloring_dwbc_corner(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--model", "coloring",
                               "--n", "2", "--bc", "dwbc", "--corner", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert all(row[0][0] == 0 for row in payload["colorings"])

    def test_size_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--model", "sixvertex", "--n", "9")
        assert code == 2
        assert "error" in err

    def test_missing_dimensions(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--model", "coloring", "--bc", "free")
        assert code == 2

    def test_sixvertex_requires_n(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--model", "sixvertex")
        assert (code, out, err) == (2, "", "error: --model sixvertex requires --n\n")

    @pytest.mark.parametrize("extra", [
        ["--rows", "5", "--cols", "5"], ["--rows", "5"], ["--cols", "5"], ["--bc", "free"],
        ["--bc", "toroidal"], ["--rows", "3", "--cols", "3", "--bc", "free"]])
    def test_coloring_n_rejects_grid_options(self, capsys, extra):
        # --rows and --cols were ignored: --n 1 --rows 5 --cols 5 wrote the
        # 2x2 domain-wall grid and exited 0
        code, out, err = run_cli(capsys, "enumerate", "--model", "coloring", "--n", "1", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: --n selects a domain-wall lattice: drop --rows, --cols "
                       "and --bc free|toroidal, or --n\n")
        code, out, _ = run_cli(capsys, "enumerate", "--model", "coloring", "--n", "1",
                               "--bc", "dwbc")
        assert (code, json.loads(out)["rows"], json.loads(out)["cols"]) == (0, 2, 2)

    @pytest.mark.parametrize("extra", [
        ["--bc", "free"], ["--bc", "toroidal"], ["--corner", "0"], ["--rows", "3"],
        ["--cols", "3"], ["--rows", "3", "--cols", "3"]])
    def test_sixvertex_rejects_coloring_options(self, capsys, extra):
        # each was ignored: --bc free wrote "bc": "dwbc" and exited 0
        code, out, err = run_cli(capsys, "enumerate", "--model", "sixvertex", "--n", "2", *extra)
        assert (code, out) == (2, "")
        assert err == "error: --rows, --cols, --corner, --bc free|toroidal are coloring options\n"
        code, out, _ = run_cli(capsys, "enumerate", "--model", "sixvertex", "--n", "2",
                               "--bc", "dwbc")
        assert (code, json.loads(out)["count"]) == (0, 2)


class TestCensusCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--rows", "1", "--cols", "1",
                               "--bc", "free", "--z0", "2", "--z1", "3", "--z2", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k0,k1,k2,count"
        assert "1,0,0,1" in lines
        assert lines[-1].startswith("# generating_function = 10.0")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--rows", "2", "--cols", "2",
                               "--bc", "toroidal", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 18
        assert payload["generating_function"] == 18.0
        assert sum(c["count"] for c in payload["counts"]) == 18

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "census", "--rows", "6", "--cols", "6",
                               "--bc", "free")
        assert code == 2

    @pytest.mark.parametrize("weight", [["--z0", "nan"], ["--z0=inf"], ["--z2=-inf"]])
    def test_non_finite_face_weight_exit_two(self, capsys, weight):
        # NaN and Infinity were written into the JSON, which is then invalid
        code, out, err = run_cli(capsys, "census", "--rows", "2", "--cols", "2",
                                 "--bc", "toroidal", "--format", "json", *weight)
        assert code == 2
        assert out == ""
        assert re.match(r"error: face weight z\d must be finite, got -?(nan|inf)$", err.strip())

    def test_overflowing_generating_function_exit_two(self, capsys):
        # an OverflowError traceback exited 1, the failed-suite code
        code, out, err = run_cli(capsys, "census", "--rows", "5", "--cols", "5",
                                 "--bc", "free", "--z0", "1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the generating function of the 5x5 free census overflows")

    def test_corner_rejected_off_dwbc(self, capsys):
        for command in (["census"], ["enumerate", "--model", "coloring"]):
            for bc in ("free", "toroidal"):
                code, out, err = run_cli(capsys, *command, "--rows", "2", "--cols", "2",
                                         "--bc", bc, "--corner", "1")
                assert code == 2
                assert out == ""
                assert err.startswith("error: corner pins the top-left color")


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--suite", "theta", "--seed", "5",
                               "--samples", "10", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["suite"] == "theta"
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert all(c["pass"] for c in report["cases"])
        assert "passed" in err

    def test_reports_are_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--suite", "functional3c", "--seed", "9",
                "--samples", "2", "--out", str(a))
        run_cli(capsys, "verify", "--suite", "functional3c", "--seed", "9",
                "--samples", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_failing_tolerance_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("tol_theta = 1e-30\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "theta", "--samples", "5",
                             "--config", str(cfg))
        assert code == 1

    def test_bad_config_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "theta", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("line, message", [
        ("p_max 0.3", "bad.cfg:2: expected 'key = value'"),
        ("p_max = 0.3x", "bad.cfg:2: bad value for 'p_max': 0.3x"),
        ("max_terms = 1.5", "bad.cfg:2: bad value for 'max_terms': 1.5")])
    def test_malformed_config_line_exit_two(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n" + line + "\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "theta", "--samples", "1",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / message}\n"

    @pytest.mark.parametrize("name", ["missing.cfg", ".", "not-utf8.cfg"])
    def test_unreadable_config_exit_two(self, capsys, tmp_path, name):
        # a file that is not UTF-8 raised a bare UnicodeDecodeError, exit 1
        (tmp_path / "not-utf8.cfg").write_bytes(b"\xff\xfe bad\n")
        path = str(tmp_path / name)
        code, out, err = run_cli(capsys, "verify", "--suite", "theta", "--samples", "1",
                                 "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {path}: ")

    def test_config_with_byte_order_mark(self, capsys, tmp_path):
        # a UTF-8 file that starts with a byte-order mark exited 2 with
        # "unknown key 'p_max'", the mark read as part of the key
        cfg, out_path = tmp_path / "bom.cfg", tmp_path / "report.json"
        cfg.write_bytes(b"\xef\xbb\xbfp_max = 0.3\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "theta", "--samples", "1",
                             "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["p_max"] == 0.3

    def test_overflowing_theta_term_exit_two(self, capsys, tmp_path):
        # at |p| ~ 1e-300 the pi*tau shift has |Im phi| ~ 690, where cos and
        # sin overflow below the envelope bound: a bare OverflowError and a
        # traceback, exit 1, before the kernel turned it into its typed error
        cfg = tmp_path / "tiny-nome.cfg"
        cfg.write_text("p_min = 1e-300\np_max = 1e-299\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "theta", "--samples", "1",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: theta series term overflow at k=1: ")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="^unknown suite 'nope'; choose from "):
            run_suite("nope")

    @pytest.mark.parametrize("line", ["max_terms = 0", "eta_margin = 2.0"])
    def test_bad_config_value_exit_two(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "verify", "--suite", "ybe", "--samples", "1",
                               "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("line", ["term_tolerance = inf", "max_terms = 0"])
    def test_bad_series_settings_exit_two(self, capsys, tmp_path, line):
        # an infinite tolerance stopped every series at its first term, so
        # theta1 read 0 and the run died on a misleading pole error
        cfg = tmp_path / "series.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--samples", "1",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad series settings: ")

    @pytest.mark.parametrize("values", [
        {"term_tolerance": 0.0}, {"max_terms": 0}, {"lambda_min": 0.5, "lambda_max": 0.5},
        {"p_min": 0.4, "p_max": 0.3}, {"eta_margin": math.pi / 2}, {"p_max": float("nan")},
        {"lambda_max": math.inf}, {"p_min": 0.0}, {"p_max": 1.0}, {"eta_margin": 0.0},
        {"term_tolerance": math.inf}, {"max_terms": 2.5}, {"max_n_coloring": 2.5},
        {"max_n_sixvertex": True}])
    def test_config_rejects_bad_values(self, values):
        with pytest.raises(ConfigError):
            Config(**values)

    @pytest.mark.parametrize("line", [
        "max_n_sixvertex = 0", f"max_n_sixvertex = {MAX_EVAL_N + 1}",
        "max_n_coloring = 0", f"max_n_coloring = {MAX_EVAL_N + 1}"])
    def test_size_limit_outside_guard_exit_two(self, capsys, tmp_path, line):
        # rejected when the config is read, whichever suite would run
        cfg = tmp_path / "sizes.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "theta", "--samples", "1",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: max_n_")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_tolerance_not_finite_positive_exit_two(self, capsys, tmp_path, value):
        # a tolerance of inf would pass every case, nan or 0 fail every case
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"tol_ybe = {value}\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "ybe", "--samples", "1",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol_ybe must be finite and positive")

    @pytest.mark.parametrize("line, message", [
        ("lambda_min = -inf", "lambda_min and lambda_max must be finite"),
        ("p_min = -0.4", "p_min and p_max must lie in (0, 1)"),
        ("eta_margin = -5", "2 * eta_margin must lie in (0, pi)")])
    def test_parameter_domain_exit_two(self, capsys, tmp_path, line, message):
        # an infinite lambda overflowed the sampler, a negative nome failed
        # theta1-cubic-nome and a negative margin drew eta outside (0, pi)
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--samples", "1",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_tiny_tolerance_accepted(self, capsys, tmp_path):
        # the benchmark's negative control: a gate this strict fails, exit 1
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("tol_ybe = 1e-300\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "ybe", "--samples", "1",
                             "--config", str(cfg))
        assert code == 1

    def test_size_limits_at_the_guards_accepted(self):
        Config(max_n_sixvertex=1, max_n_coloring=1)
        Config(max_n_sixvertex=MAX_EVAL_N, max_n_coloring=MAX_EVAL_N)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_two(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: samples must be at least 1")
        for suite in ("theta", "all"):
            with pytest.raises(ConfigError):
                run_suite(suite, samples=int(samples))

    @pytest.mark.parametrize("suite", ["theta", "all"])
    def test_negative_seed_exit_two(self, capsys, monkeypatch, suite):
        # numpy's SeedSequence rejected it with a traceback and exit 1; now
        # it is refused before any suite runs or forks
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed must be non-negative, got -1")
        monkeypatch.setattr(verify, "_suite_cases", None)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            run_suite(suite, seed=-1, samples=1)

    @pytest.mark.parametrize("suite", ["theta", "all"])
    @pytest.mark.parametrize("kwargs", [
        {"samples": 2.5}, {"samples": True}, {"seed": 1.5}, {"seed": True}])
    def test_non_int_samples_or_seed_rejected(self, monkeypatch, suite, kwargs):
        # 2.5 and 1.5 raised TypeError mid-run and samples=True was reported
        # as "samples": true; each is refused before any suite runs or forks
        monkeypatch.setattr(verify, "_suite_cases", None)
        with pytest.raises(ConfigError, match="seed and samples must be ints"):
            run_suite(suite, **kwargs)

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "theta", "--samples", "1"],
        ["census", "--rows", "2", "--cols", "2"],
        ["enumerate", "--model", "sixvertex", "--n", "2"]])
    def test_out_into_missing_directory_exit_two(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(capsys, *command, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\np_max = 0.3\nmax_terms = 48\n")
        parsed = load_config(str(cfg))
        assert parsed.p_max == 0.3
        assert parsed.max_terms == 48
        assert parsed.p_min == Config().p_min

    def test_seed_split_is_stable_across_all(self):
        # every suite alone gives the cases of "all", field for field and in
        # the same order, apart from the suite prefix of the identity
        combined = [c.to_json_obj() for c in run_suite("all", seed=13, samples=1).cases]
        solo = []
        for name in SUITES:
            for case in run_suite(name, seed=13, samples=1).cases:
                obj = case.to_json_obj()
                obj["identity"] = f"{name}/{case.identity}"
                solo.append(obj)
        assert solo == combined

    def test_tolerance_routing(self):
        keys = [f.name for f in dataclasses.fields(Config) if f.name.startswith("tol_")]
        cfg = Config(**{key: 10.0 ** -(i + 3) for i, key in enumerate(keys)})
        key_of = {getattr(cfg, key): key for key in keys}
        routed = {}
        for case in run_suite("all", seed=3, samples=1, config=cfg).cases:
            family = re.sub(r"-n\d+$", "", case.identity)
            assert key_of[case.tolerance] == TOLERANCE_KEYS[family], case.identity
            routed[family] = key_of[case.tolerance]
        assert routed == TOLERANCE_KEYS

    def test_configured_series_reaches_every_theta_sum(self, monkeypatch):
        # params built without their series would sum under DEFAULT_SERIES
        # silently; every sum must see the configured (tol, max_terms)
        original = theta._series_sum
        seen = []

        def recording(*args):
            seen[-1].add(args[2][2:])
            return original(*args)

        monkeypatch.setattr(theta, "_series_sum", recording)
        cfg = Config(term_tolerance=1e-13, max_terms=40)
        calls = {}
        for name in SUITES:
            seen.append(set())
            run_suite(name, samples=1, config=cfg)
            calls[name] = seen[-1]
        assert set().union(*calls.values()) == {(1e-13, 40)}
        assert [name for name in SUITES if calls[name]] == [
            "theta", "ybe", "recursion3c", "functional3c", "appendix", "symmetry"]

    def test_suite_rng_is_per_suite(self):
        a = suite_rng(3, "theta").uniform(0, 1)
        b = suite_rng(3, "ybe").uniform(0, 1)
        assert a != b
        assert suite_rng(3, "theta").uniform(0, 1) == a

    @pytest.mark.parametrize("seed, suite, scalar, vector, index, pair, chosen", [
        (0, "theta", 0.47203940091261093,
         [0.9938024739917957, 2.2693061698773254, 0.39459373046356033], 2, [2, 3], [3, 1]),
        (1, "ybe", 0.2431246141090954,
         [1.8868041175500943, 0.7699610809277648, 0.7080879709812504], 0, [3, 2], [0, 2]),
        (7, "recursion3c", 0.49133817169931093,
         [0.19148430199554953, 0.03680699557858669, 1.6319782409781622], 0, [1, 2], [1, 3]),
        (2 ** 97, "appendix", 0.3013043584466524,
         [0.03691719958643807, 0.4937818046744722, 0.2753413758402838], 2, [1, 3], [3, 0]),
    ])
    def test_suite_rng_draws_are_pinned(self, seed, suite, scalar, vector, index, pair, chosen):
        # every report is a function of these draws: each call form the
        # suites use, in turn, recorded under numpy 2.4.6.  A numpy whose
        # Generator draws otherwise changes every report and fails here.
        rng = suite_rng(seed, suite)
        assert float(rng.uniform(0.01, 0.5)) == scalar
        assert rng.uniform(0.0, math.pi, size=3).tolist() == vector
        assert int(rng.integers(0, 3)) == index
        assert rng.integers(1, 5, size=2).tolist() == pair
        assert rng.choice(4, size=2, replace=False).tolist() == chosen
        assert suite_rng(0, "theta").uniform(0, 1, 3).tolist() == [
            0.9429375528828794, 0.3163371523854981, 0.7223425886498254]

    def test_report_excludes_timing(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        run_cli(capsys, "verify", "--suite", "appendix", "--samples", "2",
                "--out", str(out_path))
        report = json.loads(out_path.read_text())
        assert "wall_time" not in json.dumps(report)


class TestWorstCases:
    """The one driver on synthetic draws (point, rows)."""

    @staticmethod
    def cases(*draws, tol_key="tol_theta"):
        return [(c.identity, c.point, c.residual, c.tolerance, c.passed, c.extra)
                for c in verify._worst_cases(iter(draws), Config(), tol_key)]

    def test_first_seen_identity_order(self):
        got = self.cases(({"i": 0}, [("b", 0.0), ("a", 0.0)]),
                         ({"i": 1}, [("c", 0.0), ("b", 0.0)]))
        assert [identity for identity, *_ in got] == ["b", "a", "c"]

    def test_only_a_strictly_larger_residual_replaces(self):
        draws = [({"i": i}, [("x", r)]) for i, r in enumerate((0.5, 0.5, 0.25, 0.75, 0.75))]
        assert self.cases(*draws) == [("x", {"i": 3}, 0.75, 1e-12, False, {})]
        assert self.cases(*draws[:3])[0][1] == {"i": 0}

    def test_pairs_go_through_rel_residual(self):
        [(_, _, residual, *_)] = self.cases(({}, [("x", (3.0, 1.0 + 1j))]))
        assert residual == rel_residual(3.0, 1.0 + 1j)

    def test_repeated_rows_at_one_point(self):
        got = self.cases(({"i": 0}, [("x", 1e-13), ("x", 3e-13), ("x", 2e-13)]),
                         ({"i": 1}, [("x", 2e-13)]))
        assert got == [("x", {"i": 0}, 3e-13, 1e-12, True, {})]

    def test_counts_summed_over_draws(self):
        got = self.cases(({}, [("ybe-raw", 1e-15, {"skipped": 669, "checked": 60})]),
                         ({}, [("ybe-raw", 2e-15, {"skipped": 660, "checked": 69})]),
                         tol_key="tol_ybe")
        assert got == [("ybe-raw", {}, 2e-15, 1e-9, True, {"skipped": 1329, "checked": 129})]

    def test_size_suffix_and_exact_tolerance_family(self):
        # the family, not a prefix of the identity, picks the tolerance
        got = self.cases(({"n": 2}, [("pi-shift-parity", 0.0), ("pi-shift-parity-x", 0.0)]),
                         tol_key="tol_functional6v")
        assert [(c[0], c[3]) for c in got] == [("pi-shift-parity-n2", Config().tol_parity),
                                               ("pi-shift-parity-x-n2",
                                                Config().tol_functional6v)]

    @pytest.mark.parametrize("rows", [
        [("x", 1e-15), ("x", math.nan)], [("x", 1e-15), ("x", (1.0, complex("nan")))],
        [("x", math.nan), ("x", 1.0)]])
    def test_nan_residual_sticks_and_fails(self, rows):
        # > and max skip a NaN: at a later row it was dropped and the case passed
        [(_, _, residual, _, passed, _)] = self.cases(({}, rows))
        assert math.isnan(residual) and not passed

    def test_nan_theta_value_fails_the_theta_suite(self, monkeypatch):
        # theta1'(0) = theta1(ih) / (ih) is the suite's one call of theta's
        # own theta1 binding, so the fourth call is the fourth sample's
        # product row
        calls, original = [], theta.theta1

        def flaky(*args):
            calls.append(None)
            return complex("nan") if len(calls) == 4 else original(*args)

        monkeypatch.setattr(theta, "theta1", flaky)
        report = run_suite("theta", samples=5)
        [failed] = [c for c in report.cases if not c.passed]
        assert failed.identity == "theta1-derivative-jacobi-product"
        assert len(calls) == 5
        assert math.isnan(failed.residual) and not report.passed


class TestParallelSuites:
    """'all' forks one worker per usable CPU; one usable CPU runs the same
    suites in-process.  Both must give the same report and the same error,
    a dead worker must fail the run, and no worker may outlive it."""

    @staticmethod
    def run_on(monkeypatch, cpus, *args, **kwargs):
        # a fake affinity of two CPUs forks two workers on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return run_suite("all", *args, **kwargs)

    @staticmethod
    def no_child_left() -> bool:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    @pytest.mark.parametrize("seed, samples", [(2, 1), (13, 1), (0, None)])
    def test_pooled_report_equals_in_process(self, monkeypatch, seed, samples):
        alone = self.run_on(monkeypatch, 1, seed=seed, samples=samples).to_json()
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for cpus in (2, 3, 8):
            forks.clear()
            assert self.run_on(monkeypatch, cpus, seed=seed, samples=samples).to_json() == alone
            assert len(forks) == min(cpus, len(SUITES))  # eight CPUs: eight workers

    def test_same_truncation_error_on_both_paths(self, monkeypatch):
        messages = []
        for cpus in (2, 1):
            with pytest.raises(SeriesTruncationError) as info:
                self.run_on(monkeypatch, cpus, samples=1, config=Config(max_terms=1))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("cpus", [2, 8, 1])
    def test_first_failing_suite_in_order_wins_over_first_to_fail(self, monkeypatch, cpus):
        def cases(name, *args, **kwargs):
            if name == "recursion6v":
                time.sleep(0.2)
            if name in ("recursion6v", "appendix"):
                raise ConfigError(f"{name} failed")
            return []
        monkeypatch.setattr(verify, "_suite_cases", cases)
        with pytest.raises(ConfigError, match="^recursion6v failed$"):
            self.run_on(monkeypatch, cpus, samples=1)
        assert self.no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_every_worker_is_reaped(self, monkeypatch, cpus):
        self.run_on(monkeypatch, cpus, samples=1)
        assert self.no_child_left()
        with pytest.raises(SeriesTruncationError):
            self.run_on(monkeypatch, cpus, samples=1, config=Config(max_terms=1))
        assert self.no_child_left()

    def test_deal_order_is_a_permutation_of_suites(self):
        assert len(verify._DEAL_ORDER) == len(SUITES)
        assert sorted(verify._DEAL_ORDER) == sorted(SUITES)
        # test_dead_worker_fails_the_run kills and stalls the first two dealt
        assert verify._DEAL_ORDER[:2] == ("ybe", "functional3c")

    def test_all_deals_the_suites_longest_first(self, monkeypatch):
        dealt = []
        def fork_map(body, items, workers, order):
            dealt.append(order)
            return [body(items[i]) for i in range(len(items))]
        monkeypatch.setattr(forkmap, "fork_map", fork_map)
        report = self.run_on(monkeypatch, 2, seed=2, samples=1)
        assert [SUITES[i] for i in dealt[0]] == list(verify._DEAL_ORDER)
        assert report.to_json() == self.run_on(monkeypatch, 1, seed=2, samples=1).to_json()

    def test_fork_map_deals_in_order_and_answers_in_items_order(self):
        # one worker takes the items in the dealt order; its results, and the
        # first error, come back in items order
        counter = itertools.count()
        got = forkmap.fork_map(lambda item: (item, next(counter)), tuple("abcd"), 1, (2, 0, 3, 1))
        assert got == [("a", 1), ("b", 3), ("c", 0), ("d", 2)]

        def body(item):
            if item in "bd":
                raise ConfigError(item)
        with pytest.raises(ConfigError, match="^b$"):
            forkmap.fork_map(body, tuple("abcd"), 2, (3, 2, 1, 0))
        assert self.no_child_left()

    @pytest.mark.parametrize("death, status", [
        ("os.kill(os.getpid(), signal.SIGKILL)", "killed by signal 9"),
        ("os._exit(3)", "exit status 3"),
        # a worker that writes a truncated result and exits 0
        ("pickle.dump = lambda obj, fh: fh.write(pickle.dumps(obj)[:9])", "exit status 0"),
    ])
    def test_dead_worker_fails_the_run(self, death, status):
        # ybe and functional3c are the first two suites dealt: the worker
        # that takes functional3c sleeps past the timeout unless it is killed
        code = ("import os, pickle, signal, sys, time\n"
                "from icelab import cli, verify\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "real = verify._suite_cases\n"
                "def cases(name, *args, **kwargs):\n"
                "    if name == 'functional3c':\n"
                "        time.sleep(120)\n"
                "    if name == 'ybe':\n"
                f"        {death}\n"
                "    return real(name, *args, **kwargs)\n"
                "verify._suite_cases = cases\n"
                "code = cli.main(['verify', '--suite', 'all', '--samples', '1'])\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "except ChildProcessError:\n"
                "    print('no child left')\n"
                "sys.exit(code)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(icelab.__file__).parents[1])}
        # a scheduler that misses a dead worker hangs here until the timeout
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 1
        assert result.stdout == "no child left\n"
        assert re.fullmatch(rf"error: a worker process died \({status}\) without a complete "
                            r"result; no result for [a-z0-9, ]*\bybe\b[a-z0-9, ]*\n",
                            result.stderr)

    def test_import_and_single_suite_do_not_load_multiprocessing(self):
        code = ("import os, sys, icelab.cli\n"
                "from icelab.verify import run_suite\n"
                "run_suite('theta', samples=1)\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "run_suite('all', samples=1)\n"
                "print('multiprocessing' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(icelab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        assert result.stdout == "False\n"

    def test_import_does_not_load_numpy_random(self):
        # numpy 2 loads numpy.random lazily, on the first draw; an eager import
        # of it by icelab would add its 19 modules, 10-15 ms, to every
        # process's start-up, the CLI's and each benchmark process's
        code = ("import sys, numpy\n"
                "print('numpy.random' in sys.modules)\n"
                "import icelab.cli\n"
                "print('numpy.random' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(icelab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        if result.stdout.startswith("True"):
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert result.stdout == "False\nFalse\n"
