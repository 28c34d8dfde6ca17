"""Rules of the source that no behaviour test can see, one row of ``RULES`` each.

A row has a finder, which yields ``(node, text)`` over a module's AST,
the ``src/dimcalc`` modules it covers, the functions exempt by name (every
node inside one is skipped), and a snippet with the exact findings it
must give, so that the snippet shows both what the row flags and what it
lets pass.  Docstrings are string constants, so none is looked at.

- ``marks``: ``decorated`` spells the singularity marks once, as
  ``_MINUS, _NONE, _PLUS = _MARKS``; reading a member off the
  ``Decoration`` class, or iterating the class, states them again.
- ``memo``: a ``DecoratedNumber(...)`` call outside ``decorated``
  bypasses ``decorated_number``, the memo that validates each entry once.
- ``integer rule``: "a non-``bool`` ``int``, at least k" is stated only in
  ``decorated.require_int``: no other ``if`` that tests
  ``isinstance(..., bool)`` raises ``ValidityError``.  Checks that do not
  raise it (``is_prime``, a shift's ``NotImplemented``,
  ``is_boltyanskii``'s ``False``, ``as_extnat``, which also takes ``inf``,
  and the language's parameter check) are other rules.
- ``verdicts``: in ``cli``, only ``main`` writes stdout, and no ``_cmd_*``
  handler returns an exit code.
- ``exact``: no floating point, with no function exempt.
- ``draws``: every random draw reads the generator's ``getrandbits``,
  directly or through ``harness._below``; a ``randint``, ``randrange``,
  ``choice``, ``sample`` or ``shuffle`` call runs the library's frames
  above that loop: ``randint(1, 12)`` took about 300 ns, the loop alone
  about 100 ns (Python 3.11).
- ``tables``: no function that ``bench/tracing.py`` traces is read into a
  display or comprehension that runs at import time: ``instrument``
  rebinds names, so a captured reference skips the span.  ``__init__``
  targets are left out, as a class in a table still reaches its traced
  ``__init__``.
- ``stdlib``: every absolute import is of the standard library.
- ``nodes``: the parser builds every node through ``exprs._node``, which
  writes the instance's ``__dict__`` once; an ``Expr(...)`` call runs the
  dataclass ``__init__``, which costs about twice as much.
"""

import ast
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from test_tracing import load_bench

SRC = Path(__file__).resolve().parent.parent / "src" / "dimcalc"
MODULES = tuple(sorted(path.name for path in SRC.glob("*.py")))
OUTSIDE_DECORATED = tuple(module for module in MODULES if module != "decorated.py")


class Rule(NamedTuple):
    find: Callable
    modules: tuple[str, ...]
    exempt: tuple[str, ...]
    snippet: str
    findings: list[str]


def findings(rule: Rule, source: str) -> list[str]:
    tree = ast.parse(source)
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name in rule.exempt
              for node in ast.walk(function)}
    return [f"line {line}: {text}" for line, text in sorted(
        (node.lineno, text) for node, text in rule.find(tree) if id(node) not in exempt)]


def called(node) -> str:
    """The callee of a call as written, such as ``print`` or ``rng.random``;
    empty for any other node."""
    return ast.unparse(node.func) if isinstance(node, ast.Call) else ""


def is_enum(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Decoration"


def restated_marks(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_enum(node.value)
                and node.attr in {"MINUS", "NONE", "PLUS"}):
            yield node, f"Decoration.{node.attr}"
        elif isinstance(node, (ast.For, ast.comprehension)) and is_enum(node.iter):
            yield node.iter, "iteration over Decoration"
        elif (called(node) in {"tuple", "list", "set", "frozenset", "sorted", "iter"}
              and any(map(is_enum, node.args))):
            yield node, f"{called(node)}(Decoration)"


def entry_constructor_calls(tree):
    for node in ast.walk(tree):
        if called(node).rpartition(".")[2] == "DecoratedNumber":
            yield node, "DecoratedNumber(...)"


def restated_int_rules(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.If)
                and any(called(call) == "isinstance" and len(call.args) == 2
                        and isinstance(call.args[1], ast.Name) and call.args[1].id == "bool"
                        for call in ast.walk(node.test))
                and any(isinstance(statement, ast.Raise) and statement.exc is not None
                        and ast.unparse(getattr(statement.exc, "func", statement.exc))
                        == "ValidityError" for statement in node.body)):
            yield node, "isinstance(..., bool) raising ValidityError"


def expr_constructor_calls(tree):
    for node in ast.walk(tree):
        if called(node).rpartition(".")[2] == "Expr":
            yield node, "Expr(...)"


def gives_int(expr) -> bool:
    # an int constant as the value, a branch of a conditional or a tuple item
    if isinstance(expr, ast.Constant):
        return type(expr.value) is int
    if isinstance(expr, ast.IfExp):
        return gives_int(expr.body) or gives_int(expr.orelse)
    return isinstance(expr, ast.Tuple) and any(map(gives_int, expr.elts))


def stray_verdicts(tree):
    for function in [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
        for node in ast.walk(function):
            if called(node) == "print" and not any(
                    k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                    for k in node.keywords):
                yield node, f"print in {function.name}"
            elif (function.name.startswith("_cmd_") and isinstance(node, ast.Return)
                  and gives_int(node.value)):
                yield node, f"exit code from {function.name}"


def floating_point(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif called(node) == "float" or called(node).rpartition(".")[2] == "random":
            yield node, f"{called(node)}(...)"


DRAWS = {"randint", "randrange", "choice", "sample", "shuffle"}


def library_draws(tree):
    for node in ast.walk(tree):
        _, dot, method = called(node).rpartition(".")
        if dot and method in DRAWS:
            yield node, f"{called(node)}(...)"


TRACED = {path.rpartition(".")[2] for _, path, *_ in load_bench("tracing").SPANS} - {"__init__"}
TABLES = (ast.Dict, ast.List, ast.Tuple, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def traced_in_tables(node, in_table=False):
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        # a body runs at call time; its defaults and decorators at import
        parts = [*node.args.defaults, *filter(None, node.args.kw_defaults),
                 *getattr(node, "decorator_list", ())]
    else:
        in_table = in_table or isinstance(node, TABLES)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if in_table and name in TRACED and isinstance(getattr(node, "ctx", None), ast.Load):
            yield node, f"{name} in a table"
        parts = ast.iter_child_nodes(node)
    for part in parts:
        yield from traced_in_tables(part, in_table)


def outside_stdlib(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:  # a relative import (level > 0) is of this package
            names = [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        # sys.stdlib_module_names holds __future__ too
        for top in {name.partition(".")[0] for name in names} - sys.stdlib_module_names:
            yield node, f"import of {top}"


RULES = {
    "marks": Rule(restated_marks, OUTSIDE_DECORATED, (), '''def f(e):
    """>>> Decoration.PLUS"""
    marks = [m for m in Decoration if m is not Decoration.NONE]
    for m in Decoration:
        pass
    return tuple(Decoration), e.decoration is Decoration.MINUS
''', ["line 3: Decoration.NONE", "line 3: iteration over Decoration",
      "line 4: iteration over Decoration",
      "line 6: Decoration.MINUS", "line 6: tuple(Decoration)"]),
    "memo": Rule(entry_constructor_calls, OUTSIDE_DECORATED, (), '''\
def f(e: DecoratedNumber, m) -> DecoratedNumber:
    """>>> DecoratedNumber(1)"""
    if isinstance(e, DecoratedNumber):
        return decorated_number(1, m)
    return DecoratedNumber(2, m), decorated.DecoratedNumber(3, m)
''', ["line 5: DecoratedNumber(...)", "line 5: DecoratedNumber(...)"]),
    "integer rule": Rule(restated_int_rules, MODULES, ("require_int",), '''\
def require_int(value, least, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidityError(what)

def f(n, rows):
    if isinstance(n, bool) or n < 1:
        raise ValidityError("n")
    for c in rows:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValidityError
    if isinstance(n, bool):
        return NotImplemented
    if isinstance(n, bool):
        raise EvaluationError("n")
    if isinstance(n, int) and not isinstance(n, bool):
        if n < 0:
            raise ValidityError("n")
''', ["line 6: isinstance(..., bool) raising ValidityError",
      "line 9: isinstance(..., bool) raising ValidityError"]),
    "verdicts": Rule(stray_verdicts, ("cli.py",), ("main",), '''def _cmd_a(args):
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
''', ["line 2: print in _cmd_a", "line 3: exit code from _cmd_a",
      "line 6: exit code from _cmd_b", "line 8: print in _helper"]),
    "exact": Rule(floating_point, MODULES, (), '''_HALF = 1 / 2
def f(rng, n):
    n /= 2
    return float(n) + 0.5, n // 2, rng.random(), rng.randint(0, 1), 1j
''', ["line 1: true division", "line 3: true division", "line 4: float literal 0.5",
      "line 4: float literal 1j", "line 4: float(...)", "line 4: rng.random(...)"]),
    "draws": Rule(library_draws, MODULES, (), '''def f(rng, items):
    """>>> rng.randint(0, 1)"""
    k = _below(rng, 3) + rng.getrandbits(8)
    random.shuffle(items)
    return rng.randint(0, k), rng.randrange(k), rng.choice(items), choice(items)
def g(rng, items):
    return random.Random(1).sample(items, 2), rng.randbytes(2), rng.random()
''', ["line 4: random.shuffle(...)", "line 5: rng.choice(...)", "line 5: rng.randint(...)",
      "line 5: rng.randrange(...)", "line 7: random.Random(1).sample(...)"]),
    "tables": Rule(traced_in_tables, MODULES, (), '''\
_T = {"parse": parse, "kinds": (DimensionType, Decoration.PLUS)}
OPS = [DimensionType.boxplus, lambda a, b: a.oplus(b)]
_BY_NAME = {name: exprs.render for name in FORMATS}
class Scenario:
    RUN = (run_scenario,)
def f(expr, table=(evaluate_expr,)):
    op, args, ev = expr.op, expr.args, evaluate_expr
    return {"parse": parse}
''', ["line 1: parse in a table", "line 2: boxplus in a table", "line 3: render in a table",
      "line 5: run_scenario in a table", "line 6: evaluate_expr in a table"]),
    "stdlib": Rule(outside_stdlib, MODULES, (), '''from __future__ import annotations
import os.path, sympy.core
from numpy import array
from . import decorated
from .exprs import parse
''', ["line 2: import of sympy", "line 3: import of numpy"]),
    "nodes": Rule(expr_constructor_calls, MODULES, (), '''def f(op, line, column):
    """>>> Expr("int")"""
    node = _node(op, (), line, column)
    if isinstance(node, Expr) and GroupExpr(node):
        return Expr(op, (node,)), exprs.Expr("int", (1,), line, column)
''', ["line 5: Expr(...)", "line 5: Expr(...)"]),
}


@pytest.mark.parametrize("rule, module", [(rule, module) for rule in RULES
                                          for module in RULES[rule].modules])
def test_source_keeps_the_rule(rule, module):
    assert findings(RULES[rule], (SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("rule", RULES)
def test_rule_finds_exactly_its_snippet_findings(rule):
    assert findings(RULES[rule], RULES[rule].snippet) == RULES[rule].findings
