"""The calculus against the plain-tuple model of ``bench/oracles.py``.

The model is written from the definitions with no dimcalc arithmetic:
entries are ``(base, sign)`` pairs and each sign rule is its own small
function.  Here it is loaded by path, read-only, and every operation on
hypothesis-drawn finite types must give the model's text, JSON tree and
dimension, and be undefined exactly where the model is.  ``<=`` and
``==`` must agree with the model's values compared one by one.
"""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimcalc import Decoration, DimensionType, NotRepresentableError
from dimcalc.decorated import _DUAL, _FLIP, _PRODUCT
from dimcalc.exprs import to_json
from support import decorated_entries, dimension_types
from test_tracing import load_bench

oracles = load_bench("oracles")

TYPES = st.one_of(dimension_types(), dimension_types(star_safe=True))


def model_of(d):
    entry = lambda e: (e.base, int(e.decoration))
    return oracles.Model.make(
        d.rational, entry(d.default), {p: entry(e) for p, e in d.exceptions})


def assert_agrees(operation, model_operation):
    """Both sides give the same value, or both have none."""
    try:
        expected = model_operation()
    except oracles.ModelError:
        with pytest.raises(NotRepresentableError):
            operation()
        return
    value = operation()
    assert str(value) == expected.text()
    assert to_json(value) == expected.tree()
    assert value.dim() == expected.dim()


def test_sign_tables_match_the_model():
    pairs = [(a, b) for a in Decoration for b in Decoration]
    assert len(_PRODUCT) == len(_DUAL) == 9
    for a, b in pairs:
        assert _PRODUCT[a, b] is Decoration(oracles._sign_product(int(a), int(b)))
        assert _DUAL[a, b] is Decoration(oracles._dual_sign(int(a), int(b)))
    assert {m: -m for m in Decoration} == _FLIP


@given(TYPES)
def test_value_dim_text_and_tree(d):
    m = model_of(d)
    assert (str(d), to_json(d), d.dim()) == (m.text(), m.tree(), m.dim())


@given(TYPES, TYPES)
def test_boxplus(a, b):
    assert_agrees(lambda: a.boxplus(b), lambda: oracles.boxplus(model_of(a), model_of(b)))


@given(TYPES, TYPES)
def test_oplus(a, b):
    assert_agrees(lambda: a.oplus(b), lambda: oracles.oplus(model_of(a), model_of(b)))


@given(TYPES)
def test_star(d):
    assert_agrees(d.star, lambda: oracles.star(model_of(d)))


@given(TYPES, st.integers(0, 12))
def test_shift(d, k):
    assert_agrees(lambda: d + k, lambda: oracles.shift(model_of(d), k))


# Exception primes of the two sides of a compared pair, one set per shape.
SHAPES = {
    "disjoint": ((2, 5), (3, 7)),
    "overlapping": ((2, 3, 5), (3, 5, 7)),
    "left empty": ((), (2, 3)),
    "right empty": ((5, 7), ()),
    "both empty": ((), ()),
}
GENERIC_PRIME = 11  # marked by no type drawn here


@st.composite
def types_marked_at(draw, primes, max_base=4):
    """A type with an exception, other than its default, at each of primes."""
    q = draw(st.integers(0, max_base))
    default = draw(decorated_entries(q, max_base))
    other = decorated_entries(q, max_base).filter(lambda e: e != default)
    return DimensionType(q, default, {p: draw(other) for p in primes})


def value_by_value(x, y, compare):
    """compare holds at Q and at every value of every prime of x or y."""
    primes = sorted(x.primes() | y.primes()) + [GENERIC_PRIME]
    return compare(x.q, y.q) and all(
        compare(u, v)
        for p in primes
        for u, v in zip(x.values_at(x.entry(p)), y.values_at(y.entry(p))))


@pytest.mark.parametrize("mine, theirs", SHAPES.values(), ids=SHAPES)
@given(st.data())
def test_le_and_eq(mine, theirs, data):
    a, b = data.draw(types_marked_at(mine)), data.draw(types_marked_at(theirs))
    x, y = model_of(a), model_of(b)
    assert (x.primes(), y.primes()) == (set(mine), set(theirs))
    assert (a <= b) == value_by_value(x, y, operator.le)
    assert (b <= a) == value_by_value(y, x, operator.le)
    assert (a == b) == value_by_value(x, y, operator.eq)
    assert list(a._paired(b)) == [(p, a.entry(p), b.entry(p)) for p in
                                  sorted({*a.exception_primes(), *b.exception_primes()})]
