"""End-to-end checks of the command line interface.

Every test drives a real subprocess so exit codes and stream separation
are observed exactly as a shell would see them.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "dimcalc", *args],
        capture_output=True, text=True, timeout=120, **kwargs)


class TestEval:
    def test_integer_result(self):
        proc = run_cli("eval", "dim(B(4) boxplus B(4))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "7"
        assert proc.stderr == ""

    def test_type_result(self):
        proc = run_cli("eval", "(DT{q=2; *=3-} oplus DT{q=2; *=1+}) + 1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "{q=5; *=5+}"

    def test_true_comparison_exits_zero(self):
        proc = run_cli("eval", "C(2) boxplus C(3) == C(5)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "true"

    def test_false_comparison_exits_one(self):
        proc = run_cli("eval", "B(4) == C(4)")
        assert proc.returncode == 1
        assert proc.stdout.strip() == "false"

    def test_parse_error_exits_two(self):
        proc = run_cli("eval", "DT{q=2; *=5}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "(line 1, column 1)" in proc.stderr

    def test_structured_output(self):
        proc = run_cli("eval", "B(6)", "--format", "structured")
        assert proc.returncode == 0
        tree = json.loads(proc.stdout)
        assert tree["kind"] == "dimension-type"
        assert tree["q"] == 5
        assert tree["default"] == {
            "kind": "decorated-number", "base": 5, "decoration": "plus"}

    def test_unbound_parameter_exits_two(self):
        proc = run_cli("eval", "B(n)")
        assert proc.returncode == 2
        assert "unbound parameter" in proc.stderr


class TestVerify:
    def test_builtin_section4(self):
        proc = run_cli("verify", "--scenario", "section4", "--n", "6..8")
        assert proc.returncode == 0
        blocks = proc.stdout.strip().split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].startswith("scenario section4 [n=6]")
        assert all("result: pass" in block for block in blocks)

    def test_builtin_square(self):
        proc = run_cli("verify", "--scenario", "boltyanskii-square", "--n", "2..12")
        assert proc.returncode == 0

    def test_structured_is_json_list(self):
        proc = run_cli("verify", "--scenario", "section4", "--n", "6..7",
                       "--format", "structured")
        assert proc.returncode == 0
        reports = json.loads(proc.stdout)
        assert [r["bindings"]["n"] for r in reports] == [6, 7]
        assert all(r["passed"] for r in reports)

    def test_missing_binding_exits_two(self):
        proc = run_cli("verify", "--scenario", "section4")
        assert proc.returncode == 2
        assert "needs bindings for: n" in proc.stderr

    def test_unknown_scenario_exits_two(self):
        proc = run_cli("verify", "--scenario", "no-such-thing")
        assert proc.returncode == 2
        assert "section4" in proc.stderr

    @pytest.mark.parametrize("name", ["a" * 5000, "a/" * 1000],
                             ids=["name too long for the OS", "long missing path"])
    def test_long_scenario_name_is_quoted_cut(self, name):
        proc = run_cli("verify", "--scenario", name)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"{name[:40]!r}..." in proc.stderr and len(proc.stderr.encode()) < 150

    def test_directory_scenario_exits_two(self, tmp_path):
        path = tmp_path / ("d" * 50)
        path.mkdir()
        proc = run_cli("verify", "--scenario", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: [Errno 21] Is a directory: {str(path)[:40]!r}...\n"

    def test_file_scenario_pass(self, tmp_path):
        path = tmp_path / "shift.claims"
        path.write_text("# shifting commutes with the sum\n"
                        "(C(1) boxplus C(2)) + 3 == C(1) boxplus (C(2) + 3)\n",
                        encoding="utf-8")
        proc = run_cli("verify", "--scenario", str(path))
        assert proc.returncode == 0
        assert "scenario shift" in proc.stdout

    def test_file_scenario_fail(self, tmp_path):
        path = tmp_path / "wrong.claims"
        path.write_text("B(4) == C(4)\n", encoding="utf-8")
        proc = run_cli("verify", "--scenario", str(path))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_undecodable_file_exits_two(self, tmp_path):
        path = tmp_path / "latin1.claims"
        path.write_bytes("C(1) == C(1)\n# caf\u00e9\n".encode("latin-1"))
        proc = run_cli("verify", "--scenario", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: scenario file is not UTF-8")
        assert proc.stderr.endswith("(line 2, column 6)\n")
        assert proc.stderr.count("\n") == 1

    def test_output_bytes_deterministic(self, tmp_path):
        args = ("verify", "--scenario", "section4", "--n", "6..9",
                "--format", "structured")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_laws(self):
        proc = run_cli("verify", "--scenario", "laws", "--samples", "200", "--seed", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "algebra laws: seed=3, samples=200"
        again = run_cli("verify", "--scenario", "laws", "--samples", "200", "--seed", "3")
        assert again.stdout == proc.stdout

    def test_bad_range_exits_two(self):
        proc = run_cli("verify", "--scenario", "section4", "--n", "6..x")
        assert proc.returncode == 2


class TestSweep:
    def test_cube_pass(self):
        proc = run_cli("sweep", "--cube", "--n", "6", "--bound", "8")
        assert proc.returncode == 0
        assert "counterexamples: none" in proc.stdout
        assert proc.stdout.strip().endswith("result: pass")

    def test_cube_structured(self):
        proc = run_cli("sweep", "--cube", "--n", "4", "--bound", "6",
                       "--format", "structured")
        assert proc.returncode == 0
        tree = json.loads(proc.stdout)
        assert tree["kind"] == "sweep-report"
        assert tree["counterexamples"] == []

    def test_missing_cube_flag(self):
        proc = run_cli("sweep", "--n", "6", "--bound", "8")
        assert proc.returncode == 2

    def test_bad_n(self):
        proc = run_cli("sweep", "--cube", "--n", "3", "--bound", "8")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")


class TestSigma:
    def test_pretty(self):
        proc = run_cli("sigma", "Z/2 + Z/12")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "{Z_2, Z_3}"

    def test_free(self):
        proc = run_cli("sigma", "Z^1")
        assert proc.stdout.strip() == "{Z_(p): all p}"

    def test_structured(self):
        proc = run_cli("sigma", "Z/2 + Z/12", "--format", "structured")
        tree = json.loads(proc.stdout)
        assert tree == {
            "kind": "sigma-set",
            "rationals": False,
            "cyclic": {"default": False, "exceptions": [2, 3]},
            "circle": {"default": False, "exceptions": []},
            "localized": {"default": False, "exceptions": []},
        }

    def test_non_group_exits_two(self):
        proc = run_cli("sigma", "B(2)")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")


class TestTopLevel:
    def test_no_arguments(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("eval", "verify", "sweep", "sigma"):
            assert name in proc.stdout

    # sha256 of the help text at COLUMNS=80, as Python 3.11's argparse lays it out
    @pytest.mark.parametrize("command, digest", [
        ((), "5f6155f90d52e79eee0098a641e642194b6b72b1f1a9a7b5447aa10eb3560bac"),
        (("eval",), "37e97076a893820c222b28c1ae288e16228bacc06af5382b17dfbc49a649e9bb"),
        (("verify",), "481698e1e63b4a6e8889bfdacbe28d7fd65f245a71f60baa40e7211077431ff8"),
        (("sweep",), "18dc80f24105566f24154c5d9fe14246a1d377173901ccd404541d2dd8f457a5"),
        (("sigma",), "89cb04bf9a60685bf946fabdd971f5e3604ee6149cb848cf1d3ccd72ac7ecc0c"),
    ], ids=["dimcalc", "eval", "verify", "sweep", "sigma"])
    def test_help_text_is_pinned(self, command, digest):
        proc = run_cli(*command, "--help", env={**os.environ, "COLUMNS": "80"})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_console_script_target(self):
        # the wiring the PATH test below checks, read where it is declared
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                            pyproject.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
        module, function = re.search(r'^dimcalc = "([\w.]+):(\w+)"$', scripts[1],
                                     re.MULTILINE).groups()
        assert (module, function) == ("dimcalc.cli", "main")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; "
             f"sys.exit({module}.{function}(['eval', 'dim(B(6))']))"],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "6\n", "")

    @pytest.mark.skipif(shutil.which("dimcalc") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["dimcalc", "eval", "dim(B(6))"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "6"
