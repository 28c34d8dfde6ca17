"""Bockstein bases, structural profiles, and Smith normal form."""

import copy
import dataclasses
import itertools
import operator
import pickle
import random
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimcalc import (
    BocksteinGroup,
    Cyclic,
    DimensionType,
    DecoratedNumber,
    Decoration,
    DirectSum,
    Free,
    GroupExpr,
    LocalizedIntegers,
    PadicCircle,
    Presented,
    PrimePredicate,
    Rationals,
    SigmaSet,
    StructuralProfile,
    ValidityError,
    bockstein_basis,
    boltyanskii_type,
    constant,
    dim_with_coefficients,
    profile,
    render,
    smith_normal_form,
)
from dimcalc.groups import _ALWAYS, _NEVER
from support import (
    ORACLE_PRIMES,
    bockstein_groups,
    det_invariants,
    dimension_types,
    elementary_summands,
    sigma_oracle,
)


class TestPrimePredicate:
    def test_membership(self):
        pred = PrimePredicate(False, frozenset({2, 5}))
        assert pred(2) and pred(5)
        assert not pred(3) and not pred(11)

    def test_boolean_algebra(self):
        a = PrimePredicate(False, frozenset({2, 3}))
        b = PrimePredicate(True, frozenset({3}))
        for p in (2, 3, 5, 7):
            assert (a & b)(p) == (a(p) and b(p))
            assert (a | b)(p) == (a(p) or b(p))
            assert (~a)(p) == (not a(p))

    SUBSETS = [frozenset(c) for k in range(5) for c in itertools.combinations((2, 3, 5, 7), k)]

    def test_boolean_algebra_exhaustive(self):
        for default_a, default_b in itertools.product((False, True), repeat=2):
            for exc_a, exc_b in itertools.product(self.SUBSETS, repeat=2):
                a, b = PrimePredicate(default_a, exc_a), PrimePredicate(default_b, exc_b)
                both, either, not_a = a & b, a | b, ~a
                for p in (*(exc_a | exc_b), 11):
                    assert both(p) == (a(p) and b(p))
                    assert either(p) == (a(p) or b(p))
                    assert not_a(p) == (not a(p))
                # canonical form: predicates equal at every prime compare equal
                for pred in (both, either, not_a):
                    rebuilt = PrimePredicate(
                        pred(11), frozenset(p for p in (2, 3, 5, 7) if pred(p) != pred(11)))
                    assert pred == rebuilt
                assert both == ~(~a | ~b)
                assert either == ~(~a & ~b)
                assert ~not_a == a

    def test_constant_results_are_the_shared_constants(self):
        for default_a, default_b in itertools.product((False, True), repeat=2):
            for exc_a, exc_b in itertools.product(self.SUBSETS, repeat=2):
                a, b = PrimePredicate(default_a, exc_a), PrimePredicate(default_b, exc_b)
                for result in (a & b, a | b, ~a):
                    if result.always():
                        assert result is _ALWAYS
                    elif result.never():
                        assert result is _NEVER

    def test_canonical_exceptions(self):
        a = PrimePredicate(False, frozenset({2}))
        assert (a | ~a).always()
        assert (a & ~a).never()

    def test_rejects_non_primes(self):
        with pytest.raises(ValidityError):
            PrimePredicate(False, frozenset({4}))
        with pytest.raises(ValidityError):
            PrimePredicate(True)(1)
        # checked in the order given, before a set is built: [2] is unhashable
        with pytest.raises(ValidityError, match="'a'"):
            PrimePredicate(False, ["a", [2]])

    @pytest.mark.parametrize("primes", [
        lambda: [2, 3], lambda: {3, 2}, lambda: (2, 3, 2), lambda: (p for p in (3, 2)),
    ], ids=["list", "set", "tuple", "generator"])
    def test_any_iterable_of_exceptions_is_kept_as_a_frozenset(self, primes):
        frozen = PrimePredicate(False, frozenset({2, 3}))
        other = PrimePredicate(True, frozenset({3, 5}))
        built = PrimePredicate(False, primes())
        assert type(built.exceptions) is frozenset
        assert built == frozen and hash(built) == hash(frozen)
        assert repr(built) == repr(frozen)
        assert (built & other, built | other, ~built) == (
            frozen & other, frozen | other, ~frozen)

    def test_equal_predicates_print_alike(self):
        # a frozenset iterates in the order it was built: 3 and 11 share a hash slot
        a, b = PrimePredicate(False, frozenset([3, 11])), PrimePredicate(False, frozenset([11, 3]))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "PrimePredicate(default=False, exceptions=frozenset({3, 11}))"
        assert repr(PrimePredicate(True)) == "PrimePredicate(default=True, exceptions=frozenset())"
        one, other = profile(Cyclic(33) + Cyclic(3)), profile(Cyclic(11) + Cyclic(3))
        assert one == other and render(one) == render(other) == str(one)


class TestGroupExpressions:
    def test_validation(self):
        with pytest.raises(ValidityError):
            Free(-1)
        with pytest.raises(ValidityError):
            Cyclic(1)
        with pytest.raises(ValidityError):
            PadicCircle(4)
        with pytest.raises(ValidityError):
            LocalizedIntegers(6)
        with pytest.raises(ValidityError):
            Presented(2, ((1,),))
        with pytest.raises(ValidityError):
            DirectSum((Free(1),))

    @pytest.mark.parametrize("args, message", [
        ((-1, ()), "generator count must be >= 0, got -1"),
        ((1, ((True,),)), "relation coefficient must be an integer, got True"),
    ], ids=["negative generator count", "bool coefficient"])
    def test_presentation_rejection_messages(self, args, message):
        with pytest.raises(ValidityError) as caught:
            Presented(*args)
        assert str(caught.value) == message

    def test_sum_rejects_a_summand_that_is_not_a_group(self):
        # the same error as profile gives for a value that is not a group
        for build in (lambda: DirectSum((Cyclic(2), "Z")), lambda: profile("Z")):
            with pytest.raises(TypeError) as caught:
                build()
            assert str(caught.value) == "not a coefficient group: 'Z'"

    def test_sum_flattens(self):
        total = Cyclic(2) + Cyclic(3) + Free(1)
        assert isinstance(total, DirectSum)
        assert total.parts == (Cyclic(2), Cyclic(3), Free(1))

    def test_sum_with_a_value_that_is_not_a_group(self):
        with pytest.raises(TypeError):
            Rationals() + 1

    def test_equal_groups_from_any_container_compare_equal(self):
        # the parser builds tuples; a caller may pass lists
        q, z = Rationals(), Free(1)
        for listed, parsed in ((Presented(2, [[2, 4], [0, 6]]), Presented(2, ((2, 4), (0, 6)))),
                               (DirectSum([q, z]), DirectSum((q, z)))):
            assert listed == parsed and hash(listed) == hash(parsed)
            assert str(listed) == str(parsed)
        assert DirectSum([q, z]) + Cyclic(2) == DirectSum((q, z, Cyclic(2)))

    def test_str(self):
        assert str(Free(1)) == "Z"
        assert str(Free(3)) == "Z^3"
        assert str(Cyclic(12)) == "Z/12"
        assert str(PadicCircle(2)) == "Zpinf(2)"
        assert str(LocalizedIntegers(5)) == "Zloc(5)"
        assert str(Presented(2, ((2, 0), (0, 12)))) == "pres[[2,0],[0,12]]"
        assert str(Cyclic(2) + Free(2)) == "Z/2 + Z^2"


class TestSmithNormalForm:
    def test_free_group(self):
        assert smith_normal_form([], 1) == (1, [])
        assert smith_normal_form([[]], 0) == (0, [])
        assert smith_normal_form([[0, 0]], 2) == (2, [])

    def test_frozen_examples(self):
        assert smith_normal_form([[2, 0], [0, 12]], 2) == (0, [2, 12])
        assert smith_normal_form([[1, 0], [0, 1]], 2) == (0, [])
        assert smith_normal_form([[6, 4], [4, 6]], 2) == (0, [2, 10])
        assert smith_normal_form([[2, 4, 4]], 3) == (2, [2])
        assert smith_normal_form([[-2, 0], [0, -3]], 2) == (0, [6])

    def test_oracle_agreement_examples(self):
        for matrix, generators in [
            ([[2, 0], [0, 12]], 2),
            ([[6, 4], [4, 6]], 2),
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3),
        ]:
            assert smith_normal_form(matrix, generators) == det_invariants(matrix, generators)

    def test_row_count_validated(self):
        with pytest.raises(ValidityError):
            smith_normal_form([[1, 2, 3]], 2)

    def test_divisibility_chain(self):
        rng = random.Random("snf-chain")
        for _ in range(300):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            _, factors = smith_normal_form(matrix, cols)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_oracle_agreement_random(self):
        rng = random.Random("snf-oracle")
        for _ in range(2000):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(matrix, cols) == det_invariants(matrix, cols)

    def test_oracle_agreement_large_entries(self):
        # wide entries leave remainders for several rounds per pivot
        rng = random.Random("snf-wide")
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            matrix = [[rng.randint(-1000, 1000) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(matrix, cols) == det_invariants(matrix, cols)


class TestRelationRows:
    """`Presented` and `smith_normal_form` read relation rows by one rule:
    one integer per generator in every row, an empty row included."""

    @pytest.mark.parametrize("generators, rows, message", [
        (2, [[1]], "relation [1] has 1 coefficients for 2 generators"),
        (1, [[]], "relation [] has 0 coefficients for 1 generators"),
        (2, [[1, 2], [3]], "relation [3] has 1 coefficients for 2 generators"),
        (1, [[True]], "relation coefficient must be an integer, got True"),
        (1, [[2.0]], "relation coefficient must be an integer, got 2.0"),
    ], ids=["short row", "empty row", "ragged rows", "bool coefficient", "float coefficient"])
    def test_both_entry_points_give_one_message(self, generators, rows, message):
        for build in (lambda: Presented(generators, rows), lambda: smith_normal_form(rows, generators)):
            with pytest.raises(ValidityError) as caught:
                build()
            assert str(caught.value) == message

    def test_an_empty_row_on_no_generators_is_the_trivial_group(self):
        assert smith_normal_form([[]], 0) == (0, [])
        group = Presented(0, [[]])
        assert str(group) == "pres[[]]"
        assert profile(group) == profile(Free(0))


class TestProfile:
    def test_free(self):
        pr = profile(Free(1))
        assert pr.free_quotient_nonzero
        assert pr.free_quotient_divisible.never()
        assert pr.torsion_nonzero.never()

    def test_trivial_free(self):
        pr = profile(Free(0))
        assert not pr.free_quotient_nonzero
        assert pr.free_quotient_divisible.always()

    def test_circle(self):
        pr = profile(PadicCircle(3))
        assert pr.torsion_nonzero(3) and not pr.torsion_nonzero(2)
        assert pr.torsion_divisible(3)
        assert not pr.free_quotient_nonzero

    def test_circle_with_cyclic_summand(self):
        pr = profile(PadicCircle(3) + Cyclic(3))
        assert pr.torsion_nonzero(3)
        assert not pr.torsion_divisible(3)

    def test_localized(self):
        pr = profile(LocalizedIntegers(5))
        assert pr.free_quotient_nonzero
        assert pr.free_quotient_divisible(3) and not pr.free_quotient_divisible(5)

    def test_presented_torsion_never_divisible(self):
        pr = profile(Presented(2, ((2, 0), (0, 12))))
        assert pr.torsion_nonzero(2) and pr.torsion_nonzero(3)
        assert not pr.torsion_divisible(2) and not pr.torsion_divisible(3)
        assert pr.torsion_divisible(5)

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            profile("Z")


class TestBocksteinBasis:
    def test_integers(self):
        sigma = bockstein_basis(Free(1))
        assert str(sigma) == "{Z_(p): all p}"
        assert BocksteinGroup.localized(2) in sigma
        assert BocksteinGroup.localized(97) in sigma
        assert BocksteinGroup.rationals() not in sigma
        assert BocksteinGroup.cyclic(2) not in sigma
        assert BocksteinGroup.circle(2) not in sigma

    def test_rationals(self):
        sigma = bockstein_basis(Rationals())
        assert str(sigma) == "{Q}"
        assert BocksteinGroup.rationals() in sigma
        assert BocksteinGroup.localized(2) not in sigma

    def test_circle(self):
        sigma = bockstein_basis(PadicCircle(5))
        assert str(sigma) == "{Z_5^inf}"
        assert BocksteinGroup.circle(5) in sigma
        assert BocksteinGroup.circle(3) not in sigma
        assert BocksteinGroup.cyclic(5) not in sigma

    def test_two_cyclics(self):
        sigma = bockstein_basis(Cyclic(2) + Cyclic(12))
        assert str(sigma) == "{Z_2, Z_3}"
        assert BocksteinGroup.cyclic(2) in sigma and BocksteinGroup.cyclic(3) in sigma
        assert BocksteinGroup.cyclic(5) not in sigma

    def test_circle_plus_cyclic(self):
        sigma = bockstein_basis(PadicCircle(3) + Cyclic(3))
        assert str(sigma) == "{Z_3}"
        assert BocksteinGroup.cyclic(3) in sigma
        assert BocksteinGroup.circle(3) not in sigma

    def test_each_basis_group_is_its_own_basis(self):
        cases = [
            (Cyclic(7), BocksteinGroup.cyclic(7)),
            (PadicCircle(7), BocksteinGroup.circle(7)),
            (LocalizedIntegers(7), BocksteinGroup.localized(7)),
            (Rationals(), BocksteinGroup.rationals()),
        ]
        for group, member in cases:
            sigma = bockstein_basis(group)
            assert member in sigma
            others = [
                BocksteinGroup.rationals(),
                BocksteinGroup.cyclic(7), BocksteinGroup.circle(7),
                BocksteinGroup.localized(7), BocksteinGroup.cyclic(3),
                BocksteinGroup.circle(3), BocksteinGroup.localized(3),
            ]
            assert [g for g in others if g in sigma] == [member]

    def test_finitely_generated_never_divisible_members(self):
        rng = random.Random("fg-sigma")
        for _ in range(200):
            cols = rng.randint(1, 3)
            rows = rng.randint(0, 3)
            matrix = tuple(
                tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
            sigma = bockstein_basis(Presented(cols, matrix))
            assert not sigma.rationals
            assert sigma.circle.never()

    def test_trivial_group_is_empty(self):
        for trivial in (Free(0), Presented(2, ((1, 0), (0, 1))), Presented(0, ())):
            sigma = bockstein_basis(trivial)
            assert sigma.is_empty()
            assert str(sigma) == "{}"

    def test_mixed_sum(self):
        sigma = bockstein_basis(PadicCircle(2) + Free(1))
        assert str(sigma) == "{Z_2^inf; Z_(p): all p}"

    def test_membership_needs_a_basis_group(self):
        with pytest.raises(TypeError, match=r"^expected a BocksteinGroup, got 2$"):
            2 in bockstein_basis(Free(1))

    def test_localized_renders_finite_list(self):
        assert str(bockstein_basis(LocalizedIntegers(2))) == "{Z_(2)}"
        both = LocalizedIntegers(2) + LocalizedIntegers(3)
        assert str(bockstein_basis(both)) == "{Z_(2), Z_(3)}"

    def test_render_exception_clause(self):
        # the "all p except" clause, constructed directly
        sigma = SigmaSet(
            True,
            PrimePredicate(True, frozenset({2, 3})),
            PrimePredicate(False),
            PrimePredicate(False, frozenset({5})),
        )
        assert str(sigma) == "{Q; Z_p: all p except 2, 3; Z_(5)}"


class TestBasisNames:
    """The name, JSON tree and value at DT{q=5; *=3-} of one group of
    each kind; that type takes a different value at each prime kind."""

    CASES = [
        (BocksteinGroup.rationals(), "Q", 5),
        (BocksteinGroup.cyclic(2), "Z_2", 3),
        (BocksteinGroup.circle(5), "Z_5^inf", 2),
        (BocksteinGroup.localized(7), "Z_(7)", 5),
    ]

    @pytest.mark.parametrize("group, name, value", CASES, ids=[c[1] for c in CASES])
    def test_name_tree_and_value(self, group, name, value):
        assert str(group) == name
        assert render(group, "pretty") == name
        assert render(group, "structured") == '{"kind": "basis-group", "text": "%s"}' % name
        assert DimensionType(5, DecoratedNumber(3, Decoration.MINUS))(group) == value


class TestSigmaSetShapes:
    """Every shape of SigmaSet: Q in or out, and for each prime kind a
    default in or out with no, one or two exception primes."""

    # the notation of the README and the docs: Z_p, Z_p^inf and Z_(p),
    # with p a prime or the letter p
    NAMES = ("Z_{}", "Z_{}^inf", "Z_({})")
    MEMBERS = (BocksteinGroup.cyclic, BocksteinGroup.circle, BocksteinGroup.localized)
    PREDICATES = [(default, frozenset(exceptions)) for default in (False, True)
                  for exceptions in ((), (2,), (2, 3))]

    def expected_text(self, rationals, predicates):
        clauses = ["Q"] if rationals else []
        for name, (default, exceptions) in zip(self.NAMES, predicates):
            primes = sorted(exceptions)
            if default and primes:
                clauses.append(name.format("p") + ": all p except "
                               + ", ".join(str(p) for p in primes))
            elif default:
                clauses.append(name.format("p") + ": all p")
            elif primes:
                clauses.append(", ".join(name.format(p) for p in primes))
        return "{" + "; ".join(clauses) + "}"

    def test_every_shape(self):
        for rationals in (False, True):
            for predicates in itertools.product(self.PREDICATES, repeat=3):
                sigma = SigmaSet(rationals, *(PrimePredicate(*pr) for pr in predicates))
                assert str(sigma) == self.expected_text(rationals, predicates)
                assert (BocksteinGroup.rationals() in sigma) == rationals
                for member, (default, exceptions) in zip(self.MEMBERS, predicates):
                    for p in ORACLE_PRIMES:
                        assert (member(p) in sigma) == (default != (p in exceptions))
                assert sigma.is_empty() == (
                    not rationals and not any(d or e for d, e in predicates))
                assert sigma.exception_primes() == tuple(
                    sorted(set().union(*(e for _, e in predicates))))


def reduction_oracle(d, group):
    """The largest value of d over the members of sigma(G) among the
    groups at the marked primes, ORACLE_PRIMES and 13."""
    sigma = bockstein_basis(group)
    primes = sorted({*d.exception_primes(), *sigma.exception_primes(), *ORACLE_PRIMES, 13})
    return max((d(g) for g in bockstein_groups(primes) if g in sigma), default=0)


# one group per branch of profile, and sums that mix them
REDUCTION_GROUPS = [
    Rationals(), Free(1), Free(0), Cyclic(12), PadicCircle(13), LocalizedIntegers(3),
    Presented(3, ((2, 4, 0), (6, 8, 0))), Presented(2, ((6, 4), (4, 6))),
    PadicCircle(13) + LocalizedIntegers(2), Rationals() + Cyclic(6),
    Free(2) + PadicCircle(2) + Cyclic(9), Rationals() + LocalizedIntegers(5),
]


class TestDimWithCoefficients:
    @given(st.one_of(dimension_types(), dimension_types(allow_inf=True)),
           st.sampled_from(REDUCTION_GROUPS))
    def test_matches_reduction_oracle(self, d, group):
        assert dim_with_coefficients(d, group) == reduction_oracle(d, group)

    def test_rejects_a_value_that_is_not_a_type(self):
        with pytest.raises(TypeError) as caught:
            dim_with_coefficients(5, Free(1))
        assert str(caught.value) == "expected a DimensionType, got 5"

    def test_integer_coefficients(self):
        for n in range(1, 8):
            assert dim_with_coefficients(boltyanskii_type(n), Free(1)) == n

    def test_rational_coefficients(self):
        d = DimensionType(2, DecoratedNumber(3, Decoration.MINUS))
        assert dim_with_coefficients(d, Rationals()) == d(BocksteinGroup.rationals())

    def test_constant_type(self):
        for group in (Free(1), Cyclic(6), PadicCircle(3), Rationals()):
            assert dim_with_coefficients(constant(4), group) == 4

    def test_trivial_group(self):
        assert dim_with_coefficients(boltyanskii_type(5), Free(0)) == 0

    def test_exceptional_primes_seen(self):
        d = DimensionType(1, DecoratedNumber(1), {5: DecoratedNumber(9, Decoration.PLUS)})
        assert dim_with_coefficients(d, Cyclic(5)) == 9
        assert dim_with_coefficients(d, Cyclic(3)) == 1
        assert dim_with_coefficients(d, LocalizedIntegers(5)) == 10

    @given(dimension_types())
    def test_bounded_by_dim(self, d):
        for group in (Free(1), Rationals(), Cyclic(6), PadicCircle(2),
                      LocalizedIntegers(3), Cyclic(2) + PadicCircle(2)):
            assert dim_with_coefficients(d, group) <= d.dim()

    def test_invariant_under_part_permutation(self):
        rng = random.Random("dsum-perm")
        parts = [Cyclic(4), PadicCircle(2), Free(2), LocalizedIntegers(3), Cyclic(9)]
        d = DimensionType(
            2, DecoratedNumber(3, Decoration.MINUS),
            {2: DecoratedNumber(5, Decoration.PLUS), 3: DecoratedNumber(1, Decoration.PLUS)})
        reference = dim_with_coefficients(d, DirectSum(tuple(parts)))
        for _ in range(10):
            rng.shuffle(parts)
            assert dim_with_coefficients(d, DirectSum(tuple(parts))) == reference

    def test_invariant_under_elementary_operations(self):
        rng = random.Random("snf-elem")
        d = DimensionType(
            1, DecoratedNumber(2, Decoration.MINUS), {2: DecoratedNumber(4, Decoration.PLUS)})
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            reference = dim_with_coefficients(d, Presented(cols, _freeze(matrix)))
            mutated = [row[:] for row in matrix]
            for _ in range(rng.randint(1, 4)):
                move = rng.randrange(4)
                if move == 0 and rows > 1:  # add a multiple of one row to another
                    i, j = rng.sample(range(rows), 2)
                    k = rng.randint(-2, 2)
                    mutated[i] = [a + k * b for a, b in zip(mutated[i], mutated[j])]
                elif move == 1 and cols > 1:  # add a multiple of one column to another
                    i, j = rng.sample(range(cols), 2)
                    k = rng.randint(-2, 2)
                    for row in mutated:
                        row[i] += k * row[j]
                elif move == 2:  # negate a row
                    i = rng.randrange(rows)
                    mutated[i] = [-a for a in mutated[i]]
                else:  # swap two rows if possible
                    if rows > 1:
                        i, j = rng.sample(range(rows), 2)
                        mutated[i], mutated[j] = mutated[j], mutated[i]
            assert dim_with_coefficients(d, Presented(cols, _freeze(mutated))) == reference


def _freeze(matrix):
    return tuple(tuple(row) for row in matrix)


# one strategy per case of profile; Presented draws 1-3 generators and up to
# three relations, so its torsion and rank both vary
LEAF_GROUPS = st.one_of(
    st.just(Rationals()),
    st.builds(Free, st.integers(0, 3)),
    st.builds(Cyclic, st.integers(2, 400)),
    st.builds(PadicCircle, st.sampled_from(ORACLE_PRIMES)),
    st.builds(LocalizedIntegers, st.sampled_from(ORACLE_PRIMES)),
    st.integers(1, 3).flatmap(lambda g: st.builds(
        Presented, st.just(g),
        st.lists(st.tuples(*[st.integers(-12, 12)] * g), max_size=3).map(tuple))),
)


def _sums(parts):
    # `+` flattens its operands; DirectSum(...) built directly may nest
    return st.one_of(
        st.lists(parts, min_size=2, max_size=4).map(lambda ps: reduce(operator.add, ps)),
        st.lists(parts, min_size=2, max_size=3).map(lambda ps: DirectSum(tuple(ps))))


GROUP_EXPRS = st.recursive(LEAF_GROUPS, _sums, max_leaves=8)
# above every prime factor of a drawn group: moduli are at most 400, and an
# invariant factor of a drawn presentation at most 3! * 12**3
GENERIC_PRIME = 100003


def exception_primes(pr):
    return set().union(*(pred.exceptions for pred in (
        pr.free_quotient_divisible, pr.torsion_nonzero, pr.torsion_divisible)))


def subexpressions(group):
    """The group and, for a sum, every summand at every depth."""
    yield group
    if isinstance(group, DirectSum):
        for part in group.parts:
            yield from subexpressions(part)


def flattened(group):
    """The same group with every nested direct sum spread into one."""
    if not isinstance(group, DirectSum):
        return group
    leaves = [leaf for part in group.parts
              for leaf in (flattened(part).parts if isinstance(part, DirectSum) else (part,))]
    return DirectSum(tuple(leaves))


class TestProfileInvariant:
    """Zero p-torsion is p-divisible and a zero torsion-free quotient is
    divisible at every prime, for every case of profile and every sum."""

    @given(GROUP_EXPRS)
    def test_invariant_and_nested_sums(self, group):
        for part in subexpressions(group):
            pr = profile(part)
            primes = (*sorted(exception_primes(pr)), GENERIC_PRIME)
            for p in primes:
                assert pr.torsion_nonzero(p) or pr.torsion_divisible(p), (part, p)
            if not pr.free_quotient_nonzero:
                assert pr.free_quotient_divisible.always(), part
            # the rule for Z/p before the invariant was stated, kept as the reference
            assert bockstein_basis(part).cyclic == pr.torsion_nonzero & ~pr.torsion_divisible
            assert profile(flattened(part)) == pr
            if isinstance(part, DirectSum):
                # pointwise from the summands, with no invariant assumed
                summands = [profile(leaf) for leaf in flattened(part).parts]
                free = [sp for sp in summands if sp.free_quotient_nonzero]
                assert pr.free_quotient_nonzero == bool(free)
                for p in {*primes, *(q for sp in summands for q in exception_primes(sp))}:
                    assert pr.torsion_nonzero(p) == any(sp.torsion_nonzero(p) for sp in summands)
                    assert pr.torsion_divisible(p) == all(
                        sp.torsion_divisible(p) or not sp.torsion_nonzero(p) for sp in summands)
                    assert pr.free_quotient_divisible(p) == all(
                        sp.free_quotient_divisible(p) for sp in free)

    @given(dimension_types(), GROUP_EXPRS)
    def test_dim_matches_reduction_oracle(self, d, group):
        assert dim_with_coefficients(d, group) == reduction_oracle(d, group)

    @given(dimension_types(allow_inf=True), GROUP_EXPRS)
    def test_dim_with_inf_matches_reduction_oracle(self, d, group):
        assert dim_with_coefficients(d, group) == reduction_oracle(d, group)

    @given(dimension_types(allow_inf=True), GROUP_EXPRS)
    def test_every_prime_localized_gives_dim(self, d, group):
        # a torsion-free quotient p-divisible at no prime puts every Z_(p) in
        # sigma(G), and the value at Z_(p) is at least every other value
        if profile(group).free_quotient_divisible.never():
            assert dim_with_coefficients(d, group) == d.dim()

    def test_flattened_spreads_nested_sums(self):
        nested = DirectSum((DirectSum((Cyclic(2), Free(1))), PadicCircle(3)))
        assert flattened(nested) == Cyclic(2) + Free(1) + PadicCircle(3)
        assert profile(nested) == profile(flattened(nested))


def rebuilt(group):
    """An equal group built afresh from its fields, each summand too, so that
    no part of it has been profiled."""
    if isinstance(group, DirectSum):
        return DirectSum(tuple(map(rebuilt, group.parts)))
    return dataclasses.replace(group)


COPIES = (lambda group: pickle.loads(pickle.dumps(group)), copy.copy, copy.deepcopy)
SOME_TYPE = DimensionType(2, DecoratedNumber(3, Decoration.MINUS),
                          {5: DecoratedNumber(9, Decoration.PLUS)})


class TestProfileKeptOnTheGroup:
    """A group keeps its profile once computed; copies and pickles hold its
    fields alone and compute their own, and a failed profile keeps nothing."""

    @given(GROUP_EXPRS, dimension_types(allow_inf=True))
    @example(Free(1), SOME_TYPE)
    @example(Rationals() + Free(1), SOME_TYPE)
    @example(Cyclic(12) + Presented(2, ((2, 4), (0, 6))), SOME_TYPE)
    def test_copies_and_pickles_recompute_it(self, group, d):
        group = rebuilt(group)
        unprofiled = pickle.dumps(group)
        sigma, dim = bockstein_basis(group), dim_with_coefficients(d, group)
        pr = profile(group)
        assert pickle.dumps(group) == unprofiled
        for make in COPIES:
            twin = make(group)
            assert vars(twin) == vars(rebuilt(group))
            assert twin == group and hash(twin) == hash(group)
            assert (profile(twin), bockstein_basis(twin), dim_with_coefficients(d, twin)) == (
                pr, sigma, dim)

    def test_a_failed_profile_is_not_kept(self):
        class Unknown(GroupExpr):
            pass

        unknown = Unknown()
        for group in (unknown, Cyclic(2) + unknown):
            for call in (profile, bockstein_basis, profile,
                         lambda g: dim_with_coefficients(SOME_TYPE, g)):
                with pytest.raises(TypeError) as caught:
                    call(group)
                assert str(caught.value) == f"not a coefficient group: {unknown!r}"
        assert vars(unknown) == {}


def folded_profile(group):
    """The profile of a group as the fold of its leaves' profiles under the
    public predicate algebra: the reference definition of a direct sum."""
    if not isinstance(group, DirectSum):
        return profile(group)
    profiles = [profile(leaf) for leaf in flattened(group).parts]
    free = [pr.free_quotient_divisible for pr in profiles if pr.free_quotient_nonzero]
    return StructuralProfile(
        bool(free), reduce(operator.and_, free, PrimePredicate(True)),
        reduce(operator.or_, [pr.torsion_nonzero for pr in profiles]),
        reduce(operator.and_, [pr.torsion_divisible for pr in profiles]))


def basis_from_profile(pr):
    """The Bockstein basis read off a profile with the public ~ and &."""
    localized = ~pr.free_quotient_divisible if pr.free_quotient_nonzero else PrimePredicate(False)
    return SigmaSet(pr.free_quotient_nonzero and pr.free_quotient_divisible.always(),
                    ~pr.torsion_divisible, pr.torsion_nonzero & pr.torsion_divisible, localized)


class TestSigmaOracle:
    """Bases and profiles against two references that do not read the
    set-based sum: the elementary summands of ``support.sigma_oracle``, and
    the fold of the leaves' profiles under ``&``, ``|`` and ``~``."""

    @given(GROUP_EXPRS)
    def test_basis_and_profile_match_references(self, group):
        sigma, pr = bockstein_basis(group), profile(group)
        primes = sorted({*sigma.exception_primes(), GENERIC_PRIME,
                         *(q for _, q in elementary_summands(group) if q)})
        assert {g for g in bockstein_groups(primes) if g in sigma} == sigma_oracle(group, primes)
        assert pr == folded_profile(group)
        assert sigma == basis_from_profile(pr)
