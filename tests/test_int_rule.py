"""Every integer argument of the public calculus is checked by one rule.

A count, a modulus, a bound or a coefficient must be an ``int`` that is
not a ``bool``, and at least the site's lower bound where it has one.
``decorated.require_int`` states that rule once; each site names what it
checks, and the rejection reads ``"<what>, got <value!r>"``.  The table
below drives each site with a ``bool``, a float and a value below its
bound, and checks that the bound itself is accepted.  That no other code
restates the rule is a row of ``tests/test_source_rules.py``.
"""

import pytest

from dimcalc import (
    Cyclic,
    Free,
    Presented,
    ValidityError,
    boltyanskii_type,
    check_algebra_laws,
    cube_theorem_sweep,
    smith_normal_form,
)


@pytest.mark.parametrize("build, what, least", [
    (Free, "rank must be a non-negative integer", 0),
    (Cyclic, "modulus must be an integer >= 2", 2),
    (lambda v: Presented(v, ()), "generator count must be >= 0", 0),
    (lambda v: Presented(1, ((v,),)), "relation coefficient must be an integer", None),
    (lambda v: smith_normal_form((), v), "generator count must be >= 0", 0),
    (lambda v: smith_normal_form(((v,),), 1), "relation coefficient must be an integer", None),
    (boltyanskii_type, "the ceiling type needs an integer n >= 1", 1),
    (lambda v: cube_theorem_sweep(v, 8), "the sweep needs an integer n >= 4", 4),
    (lambda v: cube_theorem_sweep(6, v), "base bound must be a non-negative integer", 0),
    (lambda v: check_algebra_laws(samples=v), "the law suite needs an integer samples >= 1", 1),
], ids=["Free rank", "Cyclic modulus", "Presented generators", "Presented coefficient",
        "smith_normal_form generators", "smith_normal_form coefficient", "boltyanskii_type",
        "sweep n", "sweep base bound", "law samples"])
def test_each_integer_argument_rejects_a_bool_a_float_and_a_value_below_its_bound(
        build, what, least):
    # 7.0 is at or above every bound, so only the type test rejects it
    for value in (True, 7.0, *(() if least is None else (least - 1,))):
        with pytest.raises(ValidityError) as caught:
            build(value)
        assert str(caught.value) == f"{what}, got {value!r}"
    build(0 if least is None else least)  # the bound itself is accepted
