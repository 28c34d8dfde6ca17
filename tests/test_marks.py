"""Every module reads the singularity marks by the names ``decorated`` binds,
and builds decorated numbers through its one memo.

``decorated`` spells the marks once, as ``_MINUS, _NONE, _PLUS = _MARKS``.
Outside it, code that reads a member off the ``Decoration`` class or
iterates the class states the marks a second time (and runs the enum's
descriptor on each read).  Likewise a call of ``DecoratedNumber(...)``
outside ``decorated`` bypasses ``decorated_number``, the memo that
validates each entry once.  Annotations and ``isinstance`` tests name
only the class, and doctests are string constants, so none is looked at.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimcalc"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "decorated.py")
MEMBERS = {"MINUS", "NONE", "PLUS"}
ITERATING = {"tuple", "list", "set", "frozenset", "sorted", "iter"}


def is_enum(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Decoration"


def restated_marks(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and is_enum(node.value) and node.attr in MEMBERS:
            found.append(f"line {node.lineno}: Decoration.{node.attr}")
        elif isinstance(node, (ast.For, ast.comprehension)) and is_enum(node.iter):
            found.append(f"line {node.iter.lineno}: iteration over Decoration")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ITERATING and any(is_enum(arg) for arg in node.args)):
            found.append(f"line {node.lineno}: {node.func.id}(Decoration)")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_marks_are_read_from_decorated(module):
    assert restated_marks((SRC / module).read_text(encoding="utf-8")) == []


def test_the_guard_sees_reads_and_iterations():
    source = '''def f(e):
    """>>> Decoration.PLUS"""
    marks = [m for m in Decoration if m is not Decoration.NONE]
    for m in Decoration:
        pass
    return tuple(Decoration), e.decoration is Decoration.MINUS
'''
    assert sorted(restated_marks(source)) == [
        "line 3: Decoration.NONE", "line 3: iteration over Decoration",
        "line 4: iteration over Decoration",
        "line 6: Decoration.MINUS", "line 6: tuple(Decoration)",
    ]


def entry_constructor_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "DecoratedNumber":
                found.append(f"line {node.lineno}: DecoratedNumber(...)")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_entries_are_built_through_the_memo(module):
    assert entry_constructor_calls((SRC / module).read_text(encoding="utf-8")) == []


def test_the_guard_sees_constructor_calls():
    source = '''def f(e: DecoratedNumber, m) -> DecoratedNumber:
    """>>> DecoratedNumber(1)"""
    if isinstance(e, DecoratedNumber):
        return decorated_number(1, m)
    return DecoratedNumber(2, m), decorated.DecoratedNumber(3, m)
'''
    assert sorted(entry_constructor_calls(source)) == [
        "line 5: DecoratedNumber(...)", "line 5: DecoratedNumber(...)",
    ]
