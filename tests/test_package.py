"""What ``import dimcalc`` loads, and the names the package serves.

``import dimcalc`` loads the calculus alone, and every other name of
``__all__`` loads its module on first read.  What a read loads is
checked in a fresh interpreter, since this one has loaded every module.
"""

import ast
import hashlib
import importlib
import subprocess
import sys
from collections import Counter

import pytest

import dimcalc

SUBMODULES = ("decorated", "exprs", "groups", "harness")
PUBLIC = {*dimcalc.__all__, *SUBMODULES} - {"__version__"}


def child(code: str) -> list:
    """The literals a fresh interpreter prints, one a line, after ``import
    dimcalc`` and ``code``, ending with the dimcalc modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, dimcalc\n{code}\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dimcalc'))"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return [ast.literal_eval(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("code, added", [
    ("", []),
    ("dimcalc.boltyanskii_type(6).dim()", []),
    ("dimcalc.bockstein_basis(dimcalc.Cyclic(2))", ["groups"]),
    ("dimcalc.parse('C(1)')", ["exprs", "groups"]),
    ("dimcalc.harness", ["exprs", "groups", "harness"]),
], ids=["import", "calculus", "bockstein_basis", "parse", "harness"])
def test_a_read_loads_only_the_modules_it_needs(code, added):
    assert child(code) == [["dimcalc", "dimcalc.decorated", *(f"dimcalc.{m}" for m in added)]]


def test_dir_and_star_import_serve_all_of_all_from_a_fresh_import():
    dir_names, star_names, loaded = child(
        "print(sorted(n for n in dir(dimcalc) if not n.startswith('_')))\n"
        "star = {}\nexec('from dimcalc import *', star)\n"
        "print(sorted(n for n in star if n != '__builtins__'))")
    assert dir_names == sorted(PUBLIC)
    assert star_names == sorted(dimcalc.__all__)
    assert loaded == ["dimcalc", *(f"dimcalc.{m}" for m in SUBMODULES)]


def test_every_name_is_its_home_modules_object():
    modules = [importlib.import_module(f"dimcalc.{m}") for m in SUBMODULES]
    for name in PUBLIC - set(SUBMODULES):
        homes = [vars(m)[name] for m in modules if name in vars(m)]
        assert homes and all(getattr(dimcalc, name) is home for home in homes), name


def test_all_is_unchanged():
    assert dimcalc.__version__ == "0.1.0"
    assert hashlib.sha256("\n".join(dimcalc.__all__).encode()).hexdigest() == (
        "f3d5596681abfa05ae8456d08251fdd87b1bdabde592b13e3931e47141336017")


def test_no_name_is_in_two_rows_of_the_table():
    # a name in two rows would be bound from whichever module was read first
    rows = Counter(name for names in dimcalc._SERVED.values() for name in names)
    assert [name for name, count in rows.items() if count > 1] == []


@pytest.mark.parametrize("name", ["nosuch", "cli_main", "import_module"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'dimcalc' has no attribute '{name}'"):
        getattr(dimcalc, name)
