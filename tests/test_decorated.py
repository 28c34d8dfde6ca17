"""Core arithmetic: decorated order, evaluation, operations, predicates."""

import copy
import operator
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimcalc import (
    INF,
    BasisKind,
    BocksteinGroup,
    DecoratedNumber,
    Decoration,
    DimensionType,
    NotRepresentableError,
    ValidityError,
    boltyanskii_type,
    check_algebra_laws,
    constant,
)
from dimcalc.decorated import PRIME_BOUND, as_extnat, decorated_number
from support import (
    dim_oracle,
    dimension_types,
    dominating_pairs,
    pointwise_eq,
    pointwise_leq,
)

MINUS, NONE, PLUS = Decoration.MINUS, Decoration.NONE, Decoration.PLUS

D1 = DimensionType(2, DecoratedNumber(3, MINUS))

COMPARISONS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


class TestExtNat:
    def test_absorbing_arithmetic(self):
        assert INF + 1 is INF
        assert 1 + INF is INF
        assert INF + INF is INF
        assert INF - 1 is INF

    def test_order_against_integers(self):
        assert 3 < INF
        assert not INF < 3
        assert INF <= INF
        assert not INF < INF
        assert INF > 10**9
        assert max(4, INF) is INF
        assert max(INF, 4) is INF

    def test_not_equal_to_any_integer(self):
        assert INF != 0 and INF != 10**9

    def test_no_arithmetic_with_other_values(self):
        with pytest.raises(TypeError):
            INF + "x"
        with pytest.raises(TypeError):
            INF - "x"

    @pytest.mark.parametrize("other", [0, -1, True, 10**100, INF], ids=repr)
    @pytest.mark.parametrize("op", COMPARISONS, ids=lambda op: op.__name__)
    def test_order_exhaustive(self, op, other):
        # inf sits above every integer and equals only itself
        def key(v):
            return (1, 0) if v is INF else (0, v)

        assert op(INF, other) is op(key(INF), key(other))
        assert op(other, INF) is op(key(other), key(INF))

    @pytest.mark.parametrize("other", [1.5, "x"], ids=repr)
    @pytest.mark.parametrize("op", COMPARISONS, ids=lambda op: op.__name__)
    def test_no_order_against_other_values(self, op, other):
        if op in (operator.eq, operator.ne):
            assert op(INF, other) is op(other, INF) is (op is operator.ne)
            return
        with pytest.raises(TypeError):
            op(INF, other)
        with pytest.raises(TypeError):
            op(other, INF)


class TestDecoratedNumber:
    def test_order_chain(self):
        chain = [
            DecoratedNumber(3, MINUS),
            DecoratedNumber(3),
            DecoratedNumber(3, PLUS),
            DecoratedNumber(4, MINUS),
            DecoratedNumber(4),
            DecoratedNumber(INF),
            DecoratedNumber(INF, PLUS),
        ]
        for lower, upper in zip(chain, chain[1:]):
            assert lower < upper
            assert not upper <= lower

    def test_comparisons(self):
        assert DecoratedNumber(3, MINUS) < DecoratedNumber(3, PLUS)
        assert DecoratedNumber(3, PLUS) < DecoratedNumber(4, MINUS)
        assert DecoratedNumber(5) == DecoratedNumber(5)
        assert DecoratedNumber(5) <= DecoratedNumber(5)

    # every valid decorated number with base 0..4, then inf and inf+, in order
    LADDER = [DecoratedNumber(base, mark) for base in range(5) for mark in (MINUS, NONE, PLUS)
              if (base, mark) != (0, MINUS)] + [DecoratedNumber(INF), DecoratedNumber(INF, PLUS)]

    def test_ladder_exhaustive(self):
        for i, a in enumerate(self.LADDER):
            for j, b in enumerate(self.LADDER):
                assert (a < b) == (i < j), (a, b)
                assert (a <= b) == (i <= j), (a, b)
                assert (a > b) == (i > j), (a, b)
                assert (a >= b) == (i >= j), (a, b)
                assert (a == b) == (i == j), (a, b)

    def test_ladder_sorted_and_max(self):
        shuffled = list(self.LADDER)
        random.Random(0).shuffle(shuffled)
        assert sorted(shuffled) == self.LADDER
        assert sorted(reversed(self.LADDER)) == self.LADDER
        assert max(shuffled) == DecoratedNumber(INF, PLUS)
        assert max(d for d in shuffled if d.base is not INF) == DecoratedNumber(4, PLUS)
        assert min(shuffled) == DecoratedNumber(0)

    def test_is_the_plain_pair(self):
        # equal, ordered and hashed as the tuple (base, decoration)
        for e in self.LADDER:
            pair = (e.base, e.decoration)
            assert tuple(e) == pair and len(e) == 2
            assert e == pair and hash(e) == hash(pair)
            assert all((e < f) == (pair < (f.base, f.decoration)) for f in self.LADDER)

    def test_fields_are_read_only(self):
        for e in self.LADDER:
            for field in ("base", "decoration", "other"):
                with pytest.raises(AttributeError):
                    setattr(e, field, 1)

    @pytest.mark.parametrize("copied", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_keep_the_value(self, copied):
        d = DimensionType(2, DecoratedNumber(3, MINUS),
                          {5: DecoratedNumber(1, PLUS), 7: DecoratedNumber(INF, PLUS)})
        for value in [*self.LADDER, d]:
            twin = copied(value)
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value)

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValidityError):
            DecoratedNumber(0, MINUS)
        with pytest.raises(ValidityError):
            DecoratedNumber(INF, MINUS)
        with pytest.raises(ValidityError):
            DecoratedNumber(-1)
        with pytest.raises(ValidityError):
            DecoratedNumber(True)
        with pytest.raises(ValidityError):
            DecoratedNumber(3, "plus")

    def test_str(self):
        assert str(DecoratedNumber(3, MINUS)) == "3-"
        assert str(DecoratedNumber(3)) == "3"
        assert str(DecoratedNumber(0, PLUS)) == "0+"
        assert str(DecoratedNumber(INF, PLUS)) == "inf+"

    def test_starred(self):
        assert DecoratedNumber(3, MINUS).starred() == DecoratedNumber(3, PLUS)
        assert DecoratedNumber(3).starred() == DecoratedNumber(3)
        with pytest.raises(NotRepresentableError):
            DecoratedNumber(0, PLUS).starred()
        with pytest.raises(NotRepresentableError):
            DecoratedNumber(INF, PLUS).starred()


class TestDecorationAlgebra:
    def test_sign_product_table(self):
        assert PLUS.combine(NONE) is PLUS
        assert NONE.combine(MINUS) is MINUS
        assert NONE.combine(NONE) is NONE
        assert PLUS.combine(PLUS) is PLUS
        assert MINUS.combine(MINUS) is MINUS
        assert PLUS.combine(MINUS) is MINUS
        assert MINUS.combine(PLUS) is MINUS

    def test_flipped(self):
        assert PLUS.flipped is MINUS
        assert MINUS.flipped is PLUS
        assert NONE.flipped is NONE


class TestDecoratedNumberMemo:
    """``decorated_number`` is the constructor behind one bounded memo: a
    hit is a value the constructor accepted, and a rejection repeats."""

    def test_bounded_and_typed(self):
        assert decorated_number.cache_parameters() == {"maxsize": 4096, "typed": True}

    def test_hit_is_the_constructors_value(self):
        first = decorated_number(3, MINUS)
        assert decorated_number(3, MINUS) is first
        assert first == DecoratedNumber(3, MINUS)

    @pytest.mark.parametrize("good, bad", [((1, NONE), (True, NONE)),
                                           ((3, NONE), (3, 0))], ids=repr)
    def test_equal_key_of_another_type_is_not_a_hit(self, good, bad):
        decorated_number(*good)
        with pytest.raises(ValidityError):
            decorated_number(*bad)

    def test_rejection_repeats(self):
        for _ in range(2):
            with pytest.raises(ValidityError):
                decorated_number(0, MINUS)

    def test_law_suite_builds_each_entry_once(self, monkeypatch):
        # counts __init__ calls where bench/tracing.py does, so a call site
        # that builds through DecoratedNumber directly shows as a repeat
        decorated_number.cache_clear()
        init, built = DecoratedNumber.__init__, []

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((self.base, self.decoration))

        monkeypatch.setattr(DecoratedNumber, "__init__", counted)
        check_algebra_laws(seed=1, samples=200)
        assert len(built) == len(set(built)) > 0


class TestDimensionTypeForm:
    def test_canonical_drops_redundant_exceptions(self):
        d = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(3, MINUS)})
        assert d.exceptions == ()
        assert d == D1

    def test_exceptions_sorted(self):
        d = DimensionType(
            2, DecoratedNumber(3, MINUS),
            {7: DecoratedNumber(1, PLUS), 2: DecoratedNumber(4, MINUS)})
        assert d.exception_primes() == (2, 7)

    def test_regular_entry_must_match_q(self):
        with pytest.raises(ValidityError):
            DimensionType(2, DecoratedNumber(5))
        with pytest.raises(ValidityError):
            DimensionType(2, DecoratedNumber(3, MINUS), {3: DecoratedNumber(1)})

    def test_exception_keys_must_be_prime(self):
        with pytest.raises(ValidityError):
            DimensionType(2, DecoratedNumber(3, MINUS), {4: DecoratedNumber(1, PLUS)})

    def test_duplicate_exception_rejected(self):
        with pytest.raises(ValidityError):
            DimensionType(
                1, DecoratedNumber(1),
                [(3, DecoratedNumber(2, PLUS)), (3, DecoratedNumber(4, PLUS))])

    def test_equality_and_hash(self):
        a = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(1, PLUS)})
        b = DimensionType(2, DecoratedNumber(3, MINUS), [(5, DecoratedNumber(1, PLUS))])
        assert a == b and hash(a) == hash(b)
        assert a != D1

    def test_str(self):
        assert str(D1) == "{q=2; *=3-}"
        d = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(1, PLUS)})
        assert str(d) == "{q=2; *=3-; 5=1+}"
        assert str(constant(0)) == "{q=0; *=0}"

    def test_repr_with_exceptions(self):
        d = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(1, PLUS)})
        assert repr(d) == (
            "DimensionType(2, DecoratedNumber(base=3, decoration=<Decoration.MINUS: -1>), "
            "{5: DecoratedNumber(base=1, decoration=<Decoration.PLUS: 1>)})")

    def test_zero_base_plus_with_zero_q_admitted(self):
        d = DimensionType(0, DecoratedNumber(0, PLUS))
        assert d(BocksteinGroup.localized(2)) == 1
        assert d.dim() == 1


def test_basis_group_of_q_carries_no_prime():
    with pytest.raises(ValidityError, match="^Q carries no prime$"):
        BocksteinGroup(BasisKind.RATIONALS, 2)


@pytest.mark.parametrize("kind", ["Z_{p}", "Q", 1, None])
def test_basis_group_kind_must_be_a_basis_kind(kind):
    with pytest.raises(ValidityError) as caught:
        BocksteinGroup(kind, 2)
    assert str(caught.value) == f"kind must be a BasisKind, got {kind!r}"


class _Int(int):
    """An int subclass other than bool."""


E = DecoratedNumber(1, PLUS)


class TestConstructorContract:
    """What ``DimensionType`` accepts, what it checks and how it stores it."""

    @given(dimension_types(), st.randoms(use_true_random=False))
    def test_any_order_and_container(self, d, rng):
        # one pair equal to the default, which is checked and then dropped
        pairs = [*d.exceptions, (11, d.default)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        forms = [dict(pairs), sorted(pairs), pairs[::-1], shuffled, (pair for pair in pairs)]
        for form in forms:
            built = DimensionType(d.rational, d.default, form)
            assert built == d
            assert built.exceptions == tuple(sorted(d.exceptions))

    @pytest.mark.parametrize("exceptions", [{4: D1.default}, [(5, D1.default), (5, D1.default)],
                                            [(PRIME_BOUND, D1.default)]], ids=repr)
    def test_entry_equal_to_default_is_checked(self, exceptions):
        with pytest.raises(ValidityError):
            DimensionType(2, D1.default, exceptions)

    @pytest.mark.parametrize("empty", [None, [], (), {}, iter(())],
                             ids=["None", "list", "tuple", "dict", "iterator"])
    def test_empty_exceptions_give_the_uniform_type(self, empty):
        uniform = DimensionType(2, D1.default)
        built = DimensionType(2, D1.default, empty)
        assert built == uniform and hash(built) == hash(uniform)
        assert built.exceptions == uniform.exceptions == ()

    def test_bool_rejected_other_int_subclasses_as_as_extnat(self):
        with pytest.raises(ValidityError):
            DimensionType(True, DecoratedNumber(1))
        with pytest.raises(ValidityError):
            DimensionType(2, D1.default, {True: E})
        q = _Int(2)
        d = DimensionType(q, DecoratedNumber(2), {_Int(5): E})
        assert d.rational is as_extnat(q) and d.exceptions == ((5, E),)
        with pytest.raises(ValidityError, match="^value at Q must be >= 0, got -1$"):
            DimensionType(_Int(-1), DecoratedNumber(1, PLUS))

    @pytest.mark.parametrize("args, message", [
        ((-1, E), "value at Q must be >= 0, got -1"),
        ((2.0, E), "value at Q must be a non-negative integer or inf, got 2.0"),
        (("2", E), "value at Q must be a non-negative integer or inf, got '2'"),
        ((2, 2), "default entry must be a DecoratedNumber, got 2"),
        ((2, D1.default, {3: 1}), "entry at 3 must be a DecoratedNumber, got 1"),
        ((2, D1.default, {4: E}), "exception key must be a prime number, got 4"),
        ((2, D1.default, {2.0: E}), "exception key must be a prime number, got 2.0"),
        ((2, D1.default, [(3, E), (2, E), (3, E)]), "duplicate exception at prime 3"),
        ((2, DecoratedNumber(5)),
         "default entry 5 is undecorated but differs from the value 2 at Q"),
        ((2, D1.default, {3: DecoratedNumber(1)}),
         "entry at 3 1 is undecorated but differs from the value 2 at Q"),
        ((2, D1.default, {PRIME_BOUND: E}),
         f"cannot decide whether {PRIME_BOUND} is prime: candidates must be below "
         f"{PRIME_BOUND}"),
        # the value at Q and the default are checked alike with and without exceptions
        ((-1, E, None), "value at Q must be >= 0, got -1"),
        ((-1, E, []), "value at Q must be >= 0, got -1"),
        ((-1, E, {3: E}), "value at Q must be >= 0, got -1"),
        ((2.0, E, {3: E}), "value at Q must be a non-negative integer or inf, got 2.0"),
        ((2, 2, []), "default entry must be a DecoratedNumber, got 2"),
        ((2, 2, {3: E}), "default entry must be a DecoratedNumber, got 2"),
        ((2, DecoratedNumber(5), None),
         "default entry 5 is undecorated but differs from the value 2 at Q"),
        ((2, DecoratedNumber(5), {}),
         "default entry 5 is undecorated but differs from the value 2 at Q"),
        ((2, DecoratedNumber(5), {3: E}),
         "default entry 5 is undecorated but differs from the value 2 at Q"),
    ])
    def test_rejection_messages(self, args, message):
        with pytest.raises(ValidityError) as caught:
            DimensionType(*args)
        assert str(caught.value) == message


class TestEvaluate:
    def test_minus_entry(self):
        assert D1(BocksteinGroup.rationals()) == 2
        assert D1(BocksteinGroup.cyclic(7)) == 3
        assert D1(BocksteinGroup.circle(7)) == 2
        assert D1(BocksteinGroup.localized(7)) == 3

    def test_plus_entry(self):
        d = DimensionType(2, DecoratedNumber(1, PLUS))
        assert d(BocksteinGroup.cyclic(3)) == 1
        assert d(BocksteinGroup.circle(3)) == 1
        assert d(BocksteinGroup.localized(3)) == 2  # max(q, base + 1)

    def test_constant_type(self):
        for group in (
            BocksteinGroup.rationals(), BocksteinGroup.cyclic(2),
            BocksteinGroup.circle(3), BocksteinGroup.localized(5),
        ):
            assert constant(5)(group) == 5

    def test_exceptional_prime_overrides_default(self):
        d = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(2, PLUS)})
        assert d(BocksteinGroup.cyclic(5)) == 2
        assert d(BocksteinGroup.circle(5)) == 2
        assert d(BocksteinGroup.localized(5)) == 3
        assert d(BocksteinGroup.cyclic(3)) == 3

    def test_infinite_base(self):
        d = DimensionType(2, DecoratedNumber(3, MINUS), {2: DecoratedNumber(INF, PLUS)})
        assert d(BocksteinGroup.cyclic(2)) is INF
        assert d(BocksteinGroup.circle(2)) is INF
        assert d(BocksteinGroup.localized(2)) is INF

    def test_rejects_a_value_that_is_not_a_basis_group(self):
        with pytest.raises(TypeError, match=r"^expected a BocksteinGroup, got 2$"):
            constant(1)(2)


class TestOrder:
    def test_examples(self):
        assert D1 <= boltyanskii_type(6)
        assert pointwise_leq(D1, boltyanskii_type(6))
        assert D1 <= D1
        d_regular = constant(2)
        d_minus = DimensionType(2, DecoratedNumber(2, MINUS))
        assert not d_regular <= d_minus
        assert not pointwise_leq(d_regular, d_minus)
        assert d_minus <= d_regular

    def test_strict_and_reverse(self):
        assert D1 < boltyanskii_type(6)
        assert boltyanskii_type(6) > D1
        assert not D1 < D1
        assert D1 >= D1

    @given(dimension_types(), dimension_types())
    def test_agrees_with_pointwise_oracle(self, d1, d2):
        assert (d1 <= d2) == pointwise_leq(d1, d2)
        assert (d2 <= d1) == pointwise_leq(d2, d1)

    @given(dimension_types(allow_inf=True), dimension_types(allow_inf=True))
    def test_reflected_comparisons(self, d1, d2):
        assert (d1 >= d2) == (d2 <= d1)
        assert (d1 > d2) == (d2 < d1)

    def test_no_order_against_integers(self):
        for compare in (operator.ge, operator.gt, operator.le, operator.lt):
            with pytest.raises(TypeError):
                compare(D1, 3)
            with pytest.raises(TypeError):
                compare(3, D1)

    def test_not_equal_to_an_integer(self):
        assert (constant(1) == 1) is False

    @given(dimension_types(), dimension_types())
    def test_antisymmetry(self, d1, d2):
        if d1 <= d2 and d2 <= d1:
            assert d1 == d2

    @given(dimension_types())
    def test_equality_is_extensional(self, d):
        rebuilt = DimensionType(d.rational, d.default, dict(d.exceptions))
        assert rebuilt == d and pointwise_eq(rebuilt, d)


def entry_sum_by_definition(a, b):
    # the defining per-prime table, restated away from the implementation
    if a.decoration is NONE:
        sign = b.decoration
    elif b.decoration is NONE:
        sign = a.decoration
    elif a.decoration is b.decoration:
        sign = a.decoration
    else:
        sign = MINUS
    base = a.base + b.base
    if base is INF and sign is MINUS:
        sign = PLUS
    return DecoratedNumber(base, sign)


class TestBoxplus:
    def test_golden_square(self):
        b4 = boltyanskii_type(4)
        square = b4.boxplus(b4)
        assert square == DimensionType(6, DecoratedNumber(6, PLUS))
        assert square.dim() == 7

    def test_identity(self):
        assert D1.boxplus(constant(0)) == D1
        assert constant(0).boxplus(D1) == D1

    def test_rejects_an_operand_that_is_not_a_type(self):
        with pytest.raises(TypeError, match=r"^expected a DimensionType, got 1$"):
            constant(1).boxplus(1)

    def test_mixed_signs(self):
        d2 = DimensionType(2, DecoratedNumber(1, PLUS))
        assert D1.boxplus(d2) == DimensionType(4, DecoratedNumber(4, MINUS))

    def test_sign_table_cases(self):
        cases = {
            (NONE, NONE): NONE, (NONE, PLUS): PLUS, (NONE, MINUS): MINUS,
            (PLUS, PLUS): PLUS, (MINUS, MINUS): MINUS, (PLUS, MINUS): MINUS,
        }
        for (e1, e2), expected in cases.items():
            a = DimensionType(2, DecoratedNumber(2, e1))
            b = DimensionType(3, DecoratedNumber(3, e2))
            result = a.boxplus(b)
            assert result.rational == 5
            assert result.default == DecoratedNumber(5, expected)

    def test_exception_union(self):
        a = DimensionType(1, DecoratedNumber(1), {2: DecoratedNumber(3, PLUS)})
        b = DimensionType(2, DecoratedNumber(2), {3: DecoratedNumber(1, MINUS)})
        result = a.boxplus(b)
        assert result.rational == 3
        assert result.default == DecoratedNumber(3)
        assert result.entry(2) == DecoratedNumber(5, PLUS)
        assert result.entry(3) == DecoratedNumber(2, MINUS)
        assert result.exception_primes() == (2, 3)

    def test_infinite_minus_canonicalized(self):
        # inf with a minus sign is the same pattern as inf plus
        a = constant(INF)
        b = DimensionType(2, DecoratedNumber(3, MINUS))
        result = a.boxplus(b)
        assert result.default == DecoratedNumber(INF, PLUS)

    @given(dimension_types(allow_inf=True), dimension_types(allow_inf=True))
    def test_matches_per_prime_definition(self, a, b):
        result = a.boxplus(b)
        assert result.rational == a.rational + b.rational
        for p in (2, 3, 5, 7, 11):
            assert result.entry(p) == entry_sum_by_definition(a.entry(p), b.entry(p))

    @given(dimension_types(allow_inf=True), dimension_types(allow_inf=True))
    def test_commutative(self, a, b):
        assert a.boxplus(b) == b.boxplus(a)

    @given(dimension_types(), dimension_types(), dimension_types())
    def test_associative(self, a, b, c):
        assert a.boxplus(b).boxplus(c) == a.boxplus(b.boxplus(c))

    @given(dominating_pairs(), dominating_pairs())
    def test_monotone(self, pair1, pair2):
        low1, high1 = pair1
        low2, high2 = pair2
        assert low1.boxplus(low2) <= high1.boxplus(high2)

    def test_never_produces_zero_minus(self):
        # a minus factor forces base >= 1 somewhere, so sums stay >= 1
        a = DimensionType(0, DecoratedNumber(1, MINUS))
        b = DimensionType(0, DecoratedNumber(0))
        assert a.boxplus(b).default == DecoratedNumber(1, MINUS)


class TestStar:
    def test_examples(self):
        assert D1.star() == DimensionType(2, DecoratedNumber(3, PLUS))
        assert constant(5).star() == constant(5)

    def test_error_cases(self):
        with pytest.raises(NotRepresentableError):
            DimensionType(0, DecoratedNumber(0, PLUS)).star()
        with pytest.raises(NotRepresentableError):
            DimensionType(1, DecoratedNumber(INF, PLUS)).star()
        with pytest.raises(NotRepresentableError):
            DimensionType(1, DecoratedNumber(1), {3: DecoratedNumber(0, PLUS)}).star()

    @given(dimension_types(star_safe=True))
    def test_involution(self, d):
        assert d.star().star() == d

    @given(dimension_types(star_safe=True))
    def test_preserves_bases_and_q(self, d):
        starred = d.star()
        assert starred.rational == d.rational
        for p in (2, 3, 5, 7, 11):
            assert starred.entry(p).base == d.entry(p).base


class TestOplus:
    def test_golden_example(self):
        d2 = DimensionType(2, DecoratedNumber(1, PLUS))
        assert D1.oplus(d2) == DimensionType(4, DecoratedNumber(4, PLUS))

    def test_dual_sign_table(self):
        cases = {
            (NONE, NONE): NONE, (NONE, PLUS): PLUS, (NONE, MINUS): MINUS,
            (PLUS, PLUS): PLUS, (MINUS, MINUS): MINUS, (PLUS, MINUS): PLUS,
        }
        for (e1, e2), expected in cases.items():
            a = DimensionType(2, DecoratedNumber(2, e1))
            b = DimensionType(3, DecoratedNumber(3, e2))
            result = a.oplus(b)
            assert result.default == DecoratedNumber(5, expected)

    def test_requires_star_representable_operands(self):
        bad = DimensionType(0, DecoratedNumber(0, PLUS))
        with pytest.raises(NotRepresentableError):
            bad.oplus(constant(1))
        with pytest.raises(NotRepresentableError):
            constant(1).oplus(bad)

    @pytest.mark.parametrize("bad", [
        DimensionType(INF, DecoratedNumber(INF, PLUS)),
        DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(INF, PLUS)}),
    ], ids=["default", "exception"])
    def test_infinite_plus_entry_has_no_mirror(self, bad):
        message = f"^{re.escape(str(bad))} has an entry inf\\+ with no mirror image$"
        with pytest.raises(NotRepresentableError, match=message):
            bad.oplus(constant(1))
        with pytest.raises(NotRepresentableError, match=message):
            constant(1).oplus(bad)

    def test_defined_where_composition_is_not(self):
        # the mirror composition overflows at infinite bases, the direct
        # table canonicalizes instead of failing
        a = constant(INF)
        b = DimensionType(2, DecoratedNumber(3, MINUS))
        assert a.oplus(b).default == DecoratedNumber(INF, PLUS)
        with pytest.raises(NotRepresentableError):
            a.star().boxplus(b.star()).star()

    @given(dimension_types(star_safe=True), dimension_types(star_safe=True))
    def test_agrees_with_mirror_composition(self, a, b):
        # dual route: finite star-safe operands keep the composition defined
        assert a.oplus(b) == a.star().boxplus(b.star()).star()

    @given(dimension_types(star_safe=True), dimension_types(star_safe=True))
    def test_star_conjugation(self, a, b):
        assert a.oplus(b).star() == a.star().boxplus(b.star())
        assert a.boxplus(b).star() == a.star().oplus(b.star())

    @given(dimension_types(star_safe=True), dimension_types(star_safe=True))
    def test_dominates_boxplus_with_equal_bases(self, a, b):
        low, high = a.boxplus(b), a.oplus(b)
        assert low <= high
        assert low.rational == high.rational
        for p in (2, 3, 5, 7, 11):
            assert low.entry(p).base == high.entry(p).base

    @given(dominating_pairs(star_safe=True), dominating_pairs(star_safe=True))
    def test_monotone(self, pair1, pair2):
        low1, high1 = pair1
        low2, high2 = pair2
        assert low1.oplus(low2) <= high1.oplus(high2)


class TestShift:
    def test_examples(self):
        assert DimensionType(4, DecoratedNumber(4, PLUS)) + 1 == boltyanskii_type(6)
        assert D1 + 0 == D1
        assert constant(2) + 3 == constant(5)

    def test_shift_errors(self):
        with pytest.raises(ValidityError):
            D1 + (-1)
        with pytest.raises(TypeError):
            D1 + 1.5

    @given(dimension_types(allow_inf=True), st.integers(0, 6))
    def test_agreement_with_boxplus(self, d, k):
        assert d.boxplus(constant(k)) == d + k

    @given(dimension_types(star_safe=True), st.integers(0, 6))
    def test_agreement_with_oplus(self, d, k):
        assert d.oplus(constant(k)) == d + k == d.boxplus(constant(k))

    @given(dimension_types(), st.integers(0, 6))
    def test_shift_adds_to_dim(self, d, k):
        assert (d + k).dim() == d.dim() + k


class TestDim:
    def test_boltyanskii_family(self):
        for n in range(4, 13):
            assert boltyanskii_type(n).dim() == n
            assert dim_oracle(boltyanskii_type(n)) == n

    def test_examples(self):
        assert D1.dim() == 3
        assert dim_oracle(D1) == 3
        assert constant(7).dim() == 7
        assert constant(INF).dim() is INF

    @given(dimension_types(allow_inf=True))
    def test_agrees_with_oracle(self, d):
        assert d.dim() == dim_oracle(d)


class TestPredicates:
    def test_boltyanskii_type_shape(self):
        assert str(boltyanskii_type(6)) == "{q=5; *=5+}"
        assert boltyanskii_type(6) == DimensionType(5, DecoratedNumber(5, PLUS))
        assert boltyanskii_type(1) == DimensionType(0, DecoratedNumber(0, PLUS))
        with pytest.raises(ValidityError):
            boltyanskii_type(0)
        with pytest.raises(ValidityError):
            boltyanskii_type(INF)

    def test_boltyanskii_below_constant(self):
        for n in range(1, 10):
            assert boltyanskii_type(n) <= constant(n)

    def test_is_boltyanskii(self):
        assert boltyanskii_type(4).is_boltyanskii(4)
        assert not constant(4).is_boltyanskii(4)
        assert not boltyanskii_type(4).is_boltyanskii(5)
        assert not D1.is_boltyanskii(0)
        # D1 has dim 3 but its entry 3- exceeds the 2+ ceiling of B_3
        assert not D1.is_boltyanskii(3)

    def test_is_boltyanskii_at_one(self):
        assert boltyanskii_type(1).is_boltyanskii(1)

    def test_is_full_valued(self):
        assert constant(3).is_full_valued()
        assert constant(0).is_full_valued()
        assert not boltyanskii_type(4).is_full_valued()
        assert not D1.is_full_valued()

    @given(dimension_types())
    def test_full_valued_means_constant(self, d):
        assert d.is_full_valued() == (d == constant(d.dim()))
