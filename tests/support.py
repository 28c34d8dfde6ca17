"""Independent oracles the test suite checks the package against.

Everything here is written from the defining formulas, not from the
package internals: the order oracle compares evaluations group by
group, the Smith normal form oracle goes through determinantal
divisors, and the Bockstein basis oracle splits a group into its
elementary summands.  Slow and obviously correct beats fast and clever in a test
oracle.
"""

from __future__ import annotations

import math
import string
from itertools import combinations

from hypothesis import strategies as st
from sympy import factorint

from dimcalc import (
    INF,
    BocksteinGroup,
    Cyclic,
    DecoratedNumber,
    Decoration,
    DimensionType,
    DirectSum,
    Free,
    LocalizedIntegers,
    PadicCircle,
    Presented,
    Rationals,
)

ORACLE_PRIMES = (2, 3, 5, 7, 11)
EXCEPTION_PRIMES = (2, 3, 5, 7)


def bockstein_groups(primes=ORACLE_PRIMES):
    yield BocksteinGroup.rationals()
    for p in primes:
        yield BocksteinGroup.cyclic(p)
        yield BocksteinGroup.circle(p)
        yield BocksteinGroup.localized(p)


def pointwise_leq(d1: DimensionType, d2: DimensionType, primes=ORACLE_PRIMES) -> bool:
    """Order oracle: compare the two types group by group."""
    return all(d1(g) <= d2(g) for g in bockstein_groups(primes))


def pointwise_eq(d1: DimensionType, d2: DimensionType, primes=ORACLE_PRIMES) -> bool:
    return all(d1(g) == d2(g) for g in bockstein_groups(primes))


def dim_oracle(d: DimensionType, extra_primes=ORACLE_PRIMES):
    """Dimension oracle: largest evaluation over the exception primes of
    d plus a generic prime supply."""
    primes = tuple(sorted(set(d.exception_primes()) | set(extra_primes)))
    return max(d(g) for g in bockstein_groups(primes))


def _det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, value in enumerate(matrix[0]):
        if value == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * value * _det(minor)
    return total


def det_invariants(relations, generators: int):
    """Smith normal form oracle via determinantal divisors.

    d_k = gcd of all k-by-k minors; the k-th invariant factor is
    d_k / d_(k-1); the quotient's free rank is generators minus the
    number of nonzero divisor levels.
    """
    rows = [list(r) for r in relations if r]
    previous = 1
    factors = []
    matrix_rank = 0
    for k in range(1, min(len(rows), generators) + 1):
        divisor = 0
        for row_set in combinations(range(len(rows)), k):
            for col_set in combinations(range(generators), k):
                sub = [[rows[i][j] for j in col_set] for i in row_set]
                divisor = math.gcd(divisor, _det(sub))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
        matrix_rank = k
    return generators - matrix_rank, [f for f in factors if f != 1]


def elementary_summands(group):
    """The group as a direct sum of Q, Z, Z/p^k, Z_{p^inf} and Z_(p), each
    given as (name, prime or None); the torsion of a presentation comes
    from its determinantal invariant factors."""
    if isinstance(group, DirectSum):
        return [piece for part in group.parts for piece in elementary_summands(part)]
    if isinstance(group, Rationals):
        return [("Q", None)]
    if isinstance(group, Free):
        return [("Z", None)] * group.rank
    if isinstance(group, Cyclic):
        return [("Z/p^k", p) for p in factorint(group.modulus)]
    if isinstance(group, PadicCircle):
        return [("Z_{p^inf}", group.prime)]
    if isinstance(group, LocalizedIntegers):
        return [("Z_(p)", group.prime)]
    if isinstance(group, Presented):
        rank, factors = det_invariants(group.relations, group.generators)
        return [("Z", None)] * rank + [("Z/p^k", p) for f in factors for p in factorint(f)]
    raise TypeError(f"not a coefficient group: {group!r}")


def sigma_oracle(group, primes):
    """The members of sigma(G) among Q and the Bockstein groups at ``primes``.

    From the definitions: the torsion-free quotient of G is the sum of its
    Q, Z and Z_(q) summands, and Q and Z_(q), q != p, are p-divisible while
    Z is not; its p-torsion is the sum of its Z/p^k and Z_{p^inf} summands,
    and only Z_{p^inf} is p-divisible.  Z_(p) is a member when the
    torsion-free quotient is not p-divisible, Z/p when the p-torsion is not
    p-divisible, Z_{p^inf} when the p-torsion is nonzero and p-divisible,
    and Q when the torsion-free quotient is nonzero and divisible at every
    prime.
    """
    pieces = elementary_summands(group)
    free = [(name, q) for name, q in pieces if name in ("Q", "Z", "Z_(p)")]
    members = set()
    if free and all(name == "Q" for name, _ in free):
        members.add(BocksteinGroup.rationals())
    for p in primes:
        if ("Z", None) in free or ("Z_(p)", p) in free:
            members.add(BocksteinGroup.localized(p))
        torsion = [name for name, q in pieces if q == p and name in ("Z/p^k", "Z_{p^inf}")]
        if "Z/p^k" in torsion:
            members.add(BocksteinGroup.cyclic(p))
        elif torsion:
            members.add(BocksteinGroup.circle(p))
    return members


# -- hypothesis strategies -------------------------------------------------


def decorated_entries(q, max_base=12, star_safe=False, allow_inf=False):
    """Valid prime entries for a type whose value at Q is q."""
    choices = [st.just(DecoratedNumber(q))]
    plus_bases = st.integers(1 if star_safe else 0, max_base)
    if allow_inf and not star_safe:
        plus_bases = st.one_of(plus_bases, st.just(INF))
    choices.append(plus_bases.map(lambda b: DecoratedNumber(b, Decoration.PLUS)))
    choices.append(
        st.integers(1, max_base).map(lambda b: DecoratedNumber(b, Decoration.MINUS)))
    return st.one_of(choices)


@st.composite
def dimension_types(draw, max_base=12, star_safe=False, allow_inf=False):
    if allow_inf:
        q = draw(st.one_of(st.integers(0, max_base), st.just(INF)))
    else:
        q = draw(st.integers(0, max_base))
    default = draw(decorated_entries(q, max_base, star_safe, allow_inf))
    exceptions = {
        p: draw(decorated_entries(q, max_base, star_safe, allow_inf))
        for p in EXCEPTION_PRIMES
        if draw(st.booleans())
    }
    return DimensionType(q, default, exceptions)


def entries_above(entry, q, max_base, star_safe):
    """Every valid entry >= entry with base at most max_base + 1, for a
    type whose value at Q is q, sorted; built by enumeration."""
    candidates = []
    for base in range(max_base + 2):
        for dec in (Decoration.MINUS, Decoration.NONE, Decoration.PLUS):
            if dec is Decoration.MINUS and base == 0:
                continue
            if dec is Decoration.NONE and base != q:
                continue
            if star_safe and dec is Decoration.PLUS and base == 0:
                continue
            candidate = DecoratedNumber(base, dec)
            if entry <= candidate:
                candidates.append(candidate)
    return candidates


def type_above_by_enumeration(rng, d, max_base, star_safe):
    """Reference for ``random_type_above``: the same draws, each one a
    ``rng.choice`` from :func:`entries_above`."""
    q2 = rng.randint(d.rational, max_base + 1)

    def above(e):
        return rng.choice(entries_above(e, q2, max_base, star_safe))

    return DimensionType(q2, above(d.default), {p: above(e) for p, e in d.exceptions})


@st.composite
def dominating_pairs(draw, max_base=12, star_safe=False):
    """(low, high) with low <= high entrywise, for monotonicity laws."""
    low = draw(dimension_types(max_base=max_base, star_safe=star_safe))
    high_q = draw(st.integers(low.rational, max_base + 1))

    def above(entry):
        return draw(st.sampled_from(entries_above(entry, high_q, max_base, star_safe)))

    high = DimensionType(
        high_q, above(low.default), {p: above(e) for p, e in low.exceptions})
    return low, high


def tokens_by_hand(text: str, start_line: int = 1):
    """The (kind, text, line, column) of each token of ``text`` and of its end,
    read one character at a time, or the message of the first error.  Rows
    break at CRLF, CR and LF.  Digits and names are ASCII, and a number has
    at most 1000 digits."""
    word = string.ascii_letters + string.digits + "_"
    tokens = []
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line, row in enumerate(rows, start_line):
        i = 0
        while i < len(row):
            c, j = row[i], i + 1
            if c.isspace():
                i = j
                continue
            if c in string.digits:
                kind, more = "num", string.digits
            elif c in word:  # a letter or '_'
                kind, more = "name", word
            elif c in "{}()[];,=+-*/^<>":
                kind, more = "op", ""
                j += row[i:i + 2] in ("==", "<=")
            else:
                return f"unexpected character {c!r} (line {line}, column {i + 1})"
            while j < len(row) and row[j] in more:
                j += 1
            if kind == "num" and j - i > 1000:
                return f"number longer than 1000 digits (line {line}, column {i + 1})"
            tokens.append((kind, row[i:j], line, i + 1))
            i = j
    return tokens + [("end", "", line, len(row) + 1)]
