"""Exit codes come from one place: ``cli.main`` maps a handler's verdict to 0 or 1.

A verdict is False only for a false comparison or a failed report (exit
1); any other value, a falsy integer or type among them, is no verdict
(exit 0).  The table drives ``main`` in-process, so a law can be broken
by monkeypatching.  The AST guard fails if a function other than
``main`` writes stdout, or if a ``_cmd_*`` handler returns an exit code
itself.
"""

import ast
from pathlib import Path

import pytest

from dimcalc import DimensionType, constant
from dimcalc.cli import main

CLI = Path(__file__).resolve().parent.parent / "src" / "dimcalc" / "cli.py"

VERDICTS = {
    "zero": (["eval", "0"], 0),
    "zero-dimension": (["eval", "dim(C(0))"], 0),
    "false-comparison": (["eval", "1 <= 0"], 1),
    "sigma": (["sigma", "Z"], 0),
    "one-run-of-three-fails": (["verify", "--scenario", "{claims}", "--n", "6..8"], 1),
    "broken-law": (["verify", "--scenario", "laws", "--samples", "5"], 1),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_main_maps_the_verdict(case, tmp_path, monkeypatch, capsys):
    argv, code = VERDICTS[case]
    claims = tmp_path / "at-most-seven.claims"
    claims.write_text("n <= 7\n", encoding="utf-8")
    if case == "broken-law":
        monkeypatch.setattr(DimensionType, "boxplus", lambda self, other: constant(0))
    assert main([arg.format(claims=claims) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out.endswith("\n") and err == ""
    if case == "one-run-of-three-fails":
        assert len(out.split("\n\n")) == 3


def _gives_int(expr) -> bool:
    # an int constant as the value, a branch of a conditional or a tuple item
    if isinstance(expr, ast.Constant):
        return type(expr.value) is int
    if isinstance(expr, ast.IfExp):
        return _gives_int(expr.body) or _gives_int(expr.orelse)
    if isinstance(expr, ast.Tuple):
        return any(_gives_int(item) for item in expr.elts)
    return False


def _to_stderr(call: ast.Call) -> bool:
    return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)


def stray_verdicts(source: str) -> list[str]:
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print" and not _to_stderr(node)):
                found.add(f"line {node.lineno}: print in {func.name}")
            elif (func.name.startswith("_cmd_") and isinstance(node, ast.Return)
                  and _gives_int(node.value)):
                found.add(f"line {node.lineno}: exit code from {func.name}")
    return sorted(found)


def test_only_main_writes_stdout_and_exit_codes():
    assert stray_verdicts(CLI.read_text(encoding="utf-8")) == []


def test_the_guard_sees_prints_and_exit_codes():
    source = '''def _cmd_a(args):
    print("text")
    return 0 if args.ok else 1
def _cmd_b(args):
    print("error", file=sys.stderr)
    return "text", 1
def _helper(args):
    print("text", file=sys.stdout)
    return 2
def main(argv):
    print("text")
    return 0
'''
    assert stray_verdicts(source) == [
        "line 2: print in _cmd_a", "line 3: exit code from _cmd_a",
        "line 6: exit code from _cmd_b", "line 8: print in _helper",
    ]
