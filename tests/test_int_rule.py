"""Every integer argument of the public calculus is checked by one rule.

A count, a modulus, a bound or a coefficient must be an ``int`` that is
not a ``bool``, and at least the site's lower bound where it has one.
``decorated.require_int`` states that rule once; each site names what it
checks, and the rejection reads ``"<what>, got <value!r>"``.  The guard
below fails on an ``if`` that tests ``isinstance(..., bool)`` and raises
``ValidityError`` outside ``require_int``, which would state the rule a
second time.  Checks that do not raise ``ValidityError`` (``is_prime``,
a shift's ``NotImplemented``, ``is_boltyanskii``'s ``False``,
``as_extnat``, which also takes ``inf``, and the language's parameter
check) are other rules and are not looked at.
"""

import ast
import random
from pathlib import Path

import pytest

from dimcalc import (
    Cyclic,
    Free,
    Presented,
    ValidityError,
    boltyanskii_type,
    check_algebra_laws,
    constant,
    cube_theorem_sweep,
    random_dimension_type,
    random_type_above,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "dimcalc"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


@pytest.mark.parametrize("build, what, least", [
    (Free, "rank must be a non-negative integer", 0),
    (Cyclic, "modulus must be an integer >= 2", 2),
    (lambda v: Presented(v, ()), "generator count must be >= 0", 0),
    (lambda v: Presented(1, ((v,),)), "relation coefficient must be an integer", None),
    (boltyanskii_type, "the ceiling type needs an integer n >= 1", 1),
    (lambda v: cube_theorem_sweep(v, 8), "the sweep needs an integer n >= 4", 4),
    (lambda v: cube_theorem_sweep(6, v), "base bound must be a non-negative integer", 0),
    (lambda v: random_dimension_type(random.Random(0), max_base=v),
     "random generation needs an integer max_base >= 1", 1),
    (lambda v: random_type_above(random.Random(0), constant(0), max_base=v),
     "random generation needs an integer max_base >= 1", 1),
    (lambda v: check_algebra_laws(samples=v), "the law suite needs an integer samples >= 1", 1),
], ids=["Free rank", "Cyclic modulus", "Presented generators", "Presented coefficient",
        "boltyanskii_type", "sweep n", "sweep base bound", "random_dimension_type max_base",
        "random_type_above max_base", "law samples"])
def test_each_integer_argument_rejects_a_bool_a_float_and_a_value_below_its_bound(
        build, what, least):
    # 7.0 is at or above every bound, so only the type test rejects it
    for value in (True, 7.0, *(() if least is None else (least - 1,))):
        with pytest.raises(ValidityError) as caught:
            build(value)
        assert str(caught.value) == f"{what}, got {value!r}"
    build(0 if least is None else least)  # the bound itself is accepted


def restated_int_rules(source: str) -> list[str]:
    tree = ast.parse(source)
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == "require_int"
              for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and id(node) not in exempt
                and any(is_bool_test(call) for call in ast.walk(node.test))
                and any(raises_validity_error(statement) for statement in node.body)):
            found.append(f"line {node.lineno}: isinstance(..., bool) raising ValidityError")
    return found


def is_bool_test(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "bool")


def raises_validity_error(statement) -> bool:
    if not isinstance(statement, ast.Raise) or statement.exc is None:
        return False
    raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
    return isinstance(raised, ast.Name) and raised.id == "ValidityError"


@pytest.mark.parametrize("module", MODULES)
def test_the_integer_rule_is_stated_only_in_require_int(module):
    assert restated_int_rules((SRC / module).read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_restated_integer_rule():
    source = '''def require_int(value, least, what):
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
'''
    assert restated_int_rules(source) == [
        "line 6: isinstance(..., bool) raising ValidityError",
        "line 9: isinstance(..., bool) raising ValidityError",
    ]
