"""Exit codes come from one place: ``cli.main`` maps a handler's verdict to 0 or 1.

A verdict is False only for a false comparison or a failed report (exit
1); any other value, a falsy integer or type among them, is no verdict
(exit 0).  The table drives ``main`` in-process, so a law can be broken
by monkeypatching, and each case checks the exit code and that only
stdout was written.  That only ``main`` writes stdout or returns an exit
code is a row of ``tests/test_source_rules.py``.
"""

import pytest

from dimcalc import DimensionType, constant
from dimcalc.cli import main

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
