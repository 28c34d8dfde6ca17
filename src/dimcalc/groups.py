"""Abelian groups and their Bockstein bases.

The groups handled here are built from Q, free and finite cyclic groups,
p-adic circles Z_{p^inf}, localizations Z_(p), integer presentations, and
finite direct sums of all of those.  For each such group we compute, per
prime, whether the torsion-free quotient and the p-torsion are nonzero and
p-divisible; those four uniform predicates determine the Bockstein basis
sigma(G), the subset of the Bockstein family that controls cohomological
dimension with coefficients in G.

Predicates over primes are represented exactly as a default truth value
plus a finite exception set, closed under pointwise boolean algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import and_, or_
from typing import Sequence

from .decorated import (
    BocksteinGroup,
    BasisKind,
    DecoratedNumber,
    Decoration,
    DimensionType,
    ExtNat,
    ValidityError,
    _prime_factors,
    require_int,
    require_prime,
)


@dataclass(frozen=True)
class PrimePredicate:
    """A boolean function on primes with finite exception set.

    >>> even = PrimePredicate(False, frozenset({2}))
    >>> even(2), even(3)
    (True, False)
    >>> (~even)(2)
    False
    """

    default: bool
    exceptions: frozenset[int] = frozenset()

    def __post_init__(self):
        primes = self.exceptions
        unfrozen = type(primes) is not frozenset
        if unfrozen:
            primes = tuple(primes)  # a generator is read once, in the order given
        for p in primes:
            require_prime(p, "exception")
        if unfrozen:
            # kept as a frozenset whatever iterable built it: equal predicates
            # compare, hash and combine alike
            object.__setattr__(self, "exceptions", frozenset(primes))

    def __repr__(self) -> str:
        # the dataclass format with the primes sorted: equal predicates print
        # alike, whatever order built their sets
        primes = ", ".join(map(repr, sorted(self.exceptions)))
        exceptions = f"frozenset({{{primes}}})" if primes else "frozenset()"
        return f"PrimePredicate(default={self.default!r}, exceptions={exceptions})"

    def __call__(self, p: int) -> bool:
        require_prime(p)
        return self.default != (p in self.exceptions)

    def _pointwise(self, other: "PrimePredicate", op) -> "PrimePredicate":
        default = op(self.default, other.default)
        return _predicate(default, frozenset(p for p in self.exceptions | other.exceptions
                                             if op(self(p), other(p)) != default))

    def __and__(self, other: "PrimePredicate") -> "PrimePredicate":
        return self._pointwise(other, and_)

    def __or__(self, other: "PrimePredicate") -> "PrimePredicate":
        return self._pointwise(other, or_)

    def __invert__(self) -> "PrimePredicate":
        return _predicate(not self.default, self.exceptions)

    def always(self) -> bool:
        return self.default and not self.exceptions

    def never(self) -> bool:
        return not self.default and not self.exceptions


_ALWAYS = PrimePredicate(True)
_NEVER = PrimePredicate(False)
# marks a torsion-free quotient p-divisible at no prime p, such as Z^r for r > 0
_EVERY_PRIME, _NO_PRIMES = object(), frozenset()


def _predicate(default: bool, primes) -> PrimePredicate:
    # the predicate that is ``default`` except at ``primes`` (a set or _EVERY_PRIME)
    if primes is _EVERY_PRIME:
        return _NEVER if default else _ALWAYS
    if not primes:
        return _ALWAYS if default else _NEVER
    return PrimePredicate(default, primes)


class GroupExpr:
    """Base class for coefficient group descriptions."""

    def __add__(self, other: "GroupExpr") -> "GroupExpr":
        if not isinstance(other, GroupExpr):
            return NotImplemented
        left = self.parts if isinstance(self, DirectSum) else (self,)
        right = other.parts if isinstance(other, DirectSum) else (other,)
        return DirectSum(left + right)


@dataclass(frozen=True)
class Rationals(GroupExpr):
    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class Free(GroupExpr):
    """Free abelian group of finite rank."""

    rank: int = 1

    def __post_init__(self):
        require_int(self.rank, 0, "rank must be a non-negative integer")

    def __str__(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True)
class Cyclic(GroupExpr):
    """Finite cyclic group Z/m, m >= 2."""

    modulus: int

    def __post_init__(self):
        require_int(self.modulus, 2, "modulus must be an integer >= 2")

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class PadicCircle(GroupExpr):
    """The Pruefer group Z_{p^inf}: all p-power roots of unity."""

    prime: int

    def __post_init__(self):
        require_prime(self.prime)

    def __str__(self) -> str:
        return f"Zpinf({self.prime})"


@dataclass(frozen=True)
class LocalizedIntegers(GroupExpr):
    """Integers localized at p: denominators prime to p allowed."""

    prime: int

    def __post_init__(self):
        require_prime(self.prime)

    def __str__(self) -> str:
        return f"Zloc({self.prime})"


@dataclass(frozen=True)
class Presented(GroupExpr):
    """Finitely presented abelian group: Z^generators / rows(relations).

    Each relation is one row of integer coefficients, one per generator.
    """

    generators: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_int(self.generators, 0, "generator count must be >= 0")
        # any rows, lists too, are kept as tuples: equal groups compare equal
        object.__setattr__(self, "relations", tuple(map(tuple, self.relations)))
        for row in self.relations:
            if len(row) != self.generators:
                raise ValidityError(
                    f"relation {list(row)} has {len(row)} coefficients for {self.generators} generators"
                )
            for c in row:
                require_int(c, None, "relation coefficient must be an integer")

    def __str__(self) -> str:
        rows = ",".join("[" + ",".join(str(c) for c in row) + "]" for row in self.relations)
        return f"pres[{rows}]"


@dataclass(frozen=True)
class DirectSum(GroupExpr):
    parts: tuple[GroupExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValidityError("a direct sum needs at least two summands")
        for part in self.parts:
            if not isinstance(part, GroupExpr):
                raise TypeError(f"not a coefficient group: {part!r}")

    def __str__(self) -> str:
        return " + ".join(str(p) for p in self.parts)


def smith_normal_form(
    relations: Sequence[Sequence[int]], generators: int
) -> tuple[int, list[int]]:
    """Diagonalize an integer relation matrix.

    Returns ``(rank, factors)``: the free rank of the quotient group and
    the nontrivial invariant factors in divisibility order, units dropped.

    >>> smith_normal_form([[2, 0], [0, 12]], 2)
    (0, [2, 12])
    >>> smith_normal_form([[]], 1)
    (1, [])
    >>> smith_normal_form([[6, 4], [4, 6]], 2)
    (0, [2, 10])
    """
    require_int(generators, 0, "generator count must be >= 0")
    m = [list(row) for row in relations if row]
    rows, cols = len(m), generators
    for row in m:
        if len(row) != cols:
            raise ValidityError(f"relation rows must have {cols} entries")
        for c in row:
            if type(c) is not int:
                require_int(c, None, "relation coefficient must be an integer")

    diag: list[int] = []
    top = 0
    while top < rows and top < cols:
        # pivot on the nonzero entry of least magnitude
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = m[i][j]
                if v and (pivot is None or abs(v) < least):
                    pivot, least = (i, j), abs(v)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        # floor-reduce the pivot column and row; a remainder left behind is
        # smaller than the pivot and becomes the next round's pivot
        pivot_row = m[top]
        p = pivot_row[top]
        clear = True
        for i in range(top + 1, rows):
            q = m[i][top] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], pivot_row)]
            clear = clear and not m[i][top]
        for j in range(top + 1, cols):
            q = pivot_row[j] // p
            if q:
                for row in m[top:]:
                    row[j] -= q * row[top]
            clear = clear and not pivot_row[j]
        if clear:
            diag.append(abs(p))
            top += 1

    # repair divisibility along the diagonal: once each entry has taken the
    # gcd with every later one, and left it the lcm, it divides them all
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[j] = g, a * b // g

    rank = generators - len(diag)
    return rank, [d for d in diag if d != 1]


@dataclass(frozen=True)
class StructuralProfile:
    """The four per-prime facts that determine a Bockstein basis.

    Invariant of the set-based profile, kept by a direct sum: non-divisible
    p-torsion primes are p-torsion primes; a zero free quotient is divisible at all p.
    """

    free_quotient_nonzero: bool
    free_quotient_divisible: PrimePredicate
    torsion_nonzero: PrimePredicate
    torsion_divisible: PrimePredicate


def _profile(group: GroupExpr) -> tuple:
    # read by bockstein_basis and dim_with_coefficients:
    # (free quotient nonzero, primes where it is not p-divisible or _EVERY_PRIME,
    # primes with p-torsion, primes where that p-torsion is not p-divisible)
    match group:
        case DirectSum(parts=parts):
            # a sum is p-divisible exactly when every summand is: the free
            # quotient and p-torsion both split across summands
            free, free_rough, torsion, rough = zip(*map(_profile, parts))
            return (any(free), _EVERY_PRIME if _EVERY_PRIME in free_rough
                    else _NO_PRIMES.union(*free_rough),
                    _NO_PRIMES.union(*torsion), _NO_PRIMES.union(*rough))
        case Rationals():
            return True, _NO_PRIMES, _NO_PRIMES, _NO_PRIMES
        case Free(rank=r):
            return r > 0, _EVERY_PRIME if r else _NO_PRIMES, _NO_PRIMES, _NO_PRIMES
        case Cyclic(modulus=m):
            torsion = _prime_factors(m)
            return False, _NO_PRIMES, torsion, torsion
        case PadicCircle(prime=p):
            return False, _NO_PRIMES, frozenset({p}), _NO_PRIMES
        case LocalizedIntegers(prime=p):
            return True, frozenset({p}), _NO_PRIMES, _NO_PRIMES
        case Presented(generators=g, relations=rel):
            rank, factors = smith_normal_form(rel, g)
            # every invariant factor divides the last one
            torsion = _prime_factors(factors[-1]) if factors else _NO_PRIMES
            return rank > 0, _EVERY_PRIME if rank else _NO_PRIMES, torsion, torsion
        case _:
            raise TypeError(f"not a coefficient group: {group!r}")


def profile(group: GroupExpr) -> StructuralProfile:
    """Structural facts about the torsion-free quotient and p-torsion, each
    predicate built once from the set-based profile that ``bockstein_basis``
    and ``dim_with_coefficients`` read."""
    free, free_rough, torsion, rough = _profile(group)
    return StructuralProfile(free, _predicate(True, free_rough), _predicate(False, torsion),
                             _predicate(True, rough))


@dataclass(frozen=True)
class SigmaSet:
    """A Bockstein basis: which of Q, Z/p, Z_{p^inf}, Z_(p) it contains.

    >>> print(bockstein_basis(Free(1)))
    {Z_(p): all p}
    >>> print(bockstein_basis(Cyclic(2) + Cyclic(12)))
    {Z_2, Z_3}
    """

    rationals: bool
    cyclic: PrimePredicate
    circle: PrimePredicate
    localized: PrimePredicate

    def _by_kind(self) -> tuple[tuple[BasisKind, PrimePredicate], ...]:
        # each prime kind with the primes at which its group is a member
        return ((BasisKind.CYCLIC, self.cyclic), (BasisKind.CIRCLE, self.circle),
                (BasisKind.LOCALIZED, self.localized))

    def __contains__(self, group: BocksteinGroup) -> bool:
        if not isinstance(group, BocksteinGroup):
            raise TypeError(f"expected a BocksteinGroup, got {group!r}")
        if group.kind is BasisKind.RATIONALS:
            return self.rationals
        return next(pred for kind, pred in self._by_kind() if kind is group.kind)(group.prime)

    def is_empty(self) -> bool:
        return not self.rationals and all(pred.never() for _, pred in self._by_kind())

    def exception_primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for _, pred in self._by_kind() for p in pred.exceptions}))

    def __str__(self) -> str:
        clauses = ["Q"] if self.rationals else []
        for kind, pred in self._by_kind():
            primes = sorted(pred.exceptions)
            if pred.default:
                missing = " except " + ", ".join(map(str, primes)) if primes else ""
                clauses.append(f"{kind.value.format(p='p')}: all p{missing}")
            elif primes:
                clauses.append(", ".join(kind.value.format(p=p) for p in primes))
        return "{" + "; ".join(clauses) + "}"


def bockstein_basis(group: GroupExpr) -> SigmaSet:
    """The Bockstein basis sigma(G) of a coefficient group.

    Membership is read off the set-based profile that ``profile`` wraps: Z_(p)
    enters when the torsion-free quotient is not p-divisible, Z/p when
    the p-torsion is not p-divisible (non-divisible torsion is nonzero),
    Z_{p^inf} when it is nonzero and p-divisible, and Q when the
    torsion-free quotient is nonzero and divisible at every prime.

    >>> print(bockstein_basis(Rationals()))
    {Q}
    >>> print(bockstein_basis(PadicCircle(2) + Free(1)))
    {Z_2^inf; Z_(p): all p}
    """
    free, free_rough, torsion, rough = _profile(group)
    return SigmaSet(free and not free_rough, _predicate(False, rough),
                    _predicate(False, torsion - rough), _predicate(False, free_rough))


def dim_with_coefficients(d: DimensionType, group: GroupExpr) -> ExtNat:
    """Largest value of a dimension type over the basis of a group.

    By Bockstein's theorem, dim_G X is the largest value of X's type over
    sigma(G) (A. N. Dranishnikov, "Cohomological dimension theory of compact
    metric spaces", arXiv:math/0501523).  Membership is read off the
    set-based profile ``free, free_rough, torsion, rough`` by the rules
    ``bockstein_basis`` states: Q is in sigma(G) when ``free and not
    free_rough``, Z/p when p is in ``rough``, Z_{p^inf} when p is in
    ``torsion`` but not in ``rough``, and Z_(p) when ``free_rough`` is every
    prime or holds p.

    The supremum only needs the finitely many primes marked in the type or
    the profile.  Every other prime reads the type's default, so one slot
    keyed ``None``, which no prime set holds, stands for them all; it is in
    Z_(p) only when the torsion-free quotient is p-divisible at no prime.
    Each slot's entry is read once.

    >>> d = DimensionType(2, DecoratedNumber(3, Decoration.MINUS),
    ...                   {5: DecoratedNumber(9, Decoration.PLUS)})
    >>> dim_with_coefficients(d, Rationals() + Cyclic(5))
    9
    >>> dim_with_coefficients(d, Rationals() + PadicCircle(3))
    2
    >>> dim_with_coefficients(d, Free(1)) == d.dim() == 10
    True
    """
    if not isinstance(d, DimensionType):
        raise TypeError(f"expected a DimensionType, got {d!r}")
    free, free_rough, torsion, rough = _profile(group)
    every_prime = free_rough is _EVERY_PRIME
    values: list[ExtNat] = [d.rational] if free and not free_rough else []
    entries = dict(d.exceptions)
    for p in {None, *entries, *torsion, *(() if every_prime else free_rough)}:
        cyclic, circle, localized = d._values_at(entries.get(p, d.default))
        if p in torsion:  # rough primes are torsion primes
            values.append(cyclic if p in rough else circle)
        if every_prime or p in free_rough:
            values.append(localized)
    return max(values, default=0)
