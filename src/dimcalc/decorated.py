"""Exact arithmetic for dimension types in decorated form.

A dimension type assigns to every group in the Bockstein family
{Q, Z/p, Z_{p^inf}, Z_(p) : p prime} a value in N u {inf}, subject to
the regularity relations that cohomological dimension satisfies at each
prime.  At a prime the four constraints collapse to a single decorated
number: the value at Z/p carrying a sign that records which singular
pattern the prime follows.  This module implements decorated numbers,
finitely supported dimension types, and their operation algebra: the
product sum ``boxplus``, the dual sum ``oplus``, the sign involution
``star``, integer shifts, pointwise comparison, and dimension.

Everything here is immutable and safe to share.
"""

from __future__ import annotations

from _collections import _tuplegetter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache, total_ordering
from typing import Union


class ValidityError(ValueError):
    """A value that violates a structural invariant of the calculus."""


class NotRepresentableError(ValidityError):
    """An operation result with no decorated representation."""


@total_ordering
class _Infinity:
    """The unbounded dimension value; compares above every integer."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __lt__(self, other):
        if other is self or isinstance(other, int):
            return False
        return NotImplemented

    def __add__(self, other):
        if other is self or isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented


INF = _Infinity()

ExtNat = Union[int, _Infinity]


def as_extnat(value: object, what: str = "value") -> ExtNat:
    """Validate a value in N u {inf}."""
    if value is INF:
        return INF
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise ValidityError(f"{what} must be >= 0, got {value}")
        return value
    raise ValidityError(f"{what} must be a non-negative integer or inf, got {value!r}")


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all of _BASES (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: object) -> bool:
    """Primality, decided exactly for every integer below ``PRIME_BOUND``.

    Anything but a non-bool ``int`` is not prime.  Integers go through one
    bounded memo (``functools.lru_cache``, 4096 entries): division by the
    primes up to 41, then Miller-Rabin to those 13 bases, which is exact
    below ``PRIME_BOUND`` (about 3.3e24).  A candidate at or above it with
    no divisor up to 41 cannot be decided and raises ``ValidityError``.

    >>> is_prime(10**18 + 3), is_prime(10**18 + 1), is_prime(True)
    (True, False, False)
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    return _is_prime(n)


@lru_cache(maxsize=4096)
def _is_prime(n: int) -> bool:
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n >= PRIME_BOUND:
        raise ValidityError(
            f"cannot decide whether {n} is prime: candidates must be below {PRIME_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 == d * 2**s with d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: object, what: str = "prime") -> int:
    """Return ``p`` if it is a prime ``int``, else raise ``ValidityError``.

    The message names ``what`` the value stands for; a candidate too large
    to decide raises the ``ValidityError`` of ``is_prime``.
    """
    if not is_prime(p):
        raise ValidityError(f"{what} must be a prime number, got {p!r}")
    return p  # type: ignore[return-value]


def require_int(value: object, least: int | None, what: str) -> None:
    """Raise ``ValidityError("{what}, got {value!r}")`` unless ``value`` is
    an ``int``, not a ``bool``, and at least ``least`` (no bound when
    ``least`` is None).
    """
    if isinstance(value, bool) or not isinstance(value, int) or (
            least is not None and value < least):
        raise ValidityError(f"{what}, got {value!r}")


class Decoration(IntEnum):
    """Singularity mark on a prime entry, ordered minus < none < plus."""

    MINUS = -1
    NONE = 0
    PLUS = 1

    @property
    def flipped(self) -> "Decoration":
        """Mirror image: plus and minus exchanged, none fixed."""
        return Decoration(-self)

    def combine(self, other: "Decoration") -> "Decoration":
        """Sign product: none is neutral, like signs persist, mixed give minus."""
        if self is Decoration.NONE:
            return other
        if other is Decoration.NONE:
            return self
        return min(self, other)


# Reading a member off the enum class runs a descriptor (about 0.2 us in
# Python 3.11), so every module reads the marks from these names, and
# iterates them, in order, as _MARKS.
_MINUS, _NONE, _PLUS = _MARKS = tuple(Decoration)

# The text of each mark, the one table that printing and parsing read.
_SYMBOLS = {_MINUS: "-", _NONE: "", _PLUS: "+"}

# Each sign rule tabulated once over the nine pairs of marks, so an entry
# sum looks its mark up instead of calling the enum.
_PRODUCT = {(a, b): a.combine(b) for a in _MARKS for b in _MARKS}
# The dual rule is the mirror conjugate of the sign product: mixed signs give plus.
_DUAL = {(a, b): a.flipped.combine(b.flipped).flipped for a in _MARKS for b in _MARKS}
_FLIP = {m: m.flipped for m in _MARKS}


class DecoratedNumber(tuple):
    """A base value with a singularity mark: 3-, 3, 3+ or inf+.

    A decorated number is the validated pair ``(base, decoration)``: it
    equals, orders and hashes as that plain tuple does, and it iterates as
    one, with length 2.  Tuple order interleaves marks between bases:
    3- < 3 < 3+ < 4- < ... < inf < inf+.  A minus mark on base 0 or inf is
    rejected: 0- would stand for the value -1, and inf- duplicates inf+.

    >>> DecoratedNumber(3, Decoration.MINUS) < DecoratedNumber(3, Decoration.PLUS)
    True
    >>> DecoratedNumber(INF) < DecoratedNumber(INF, Decoration.PLUS)
    True
    >>> print(DecoratedNumber(INF, Decoration.PLUS))
    inf+
    """

    __slots__ = ()

    # the fields as namedtuple reads them, each through one C descriptor
    base = _tuplegetter(0, "The base value, in N u {inf}.")
    decoration = _tuplegetter(1, "The singularity mark.")

    # bound here, not only inherited, so that bench/tracing.py finds it in the
    # class __dict__; CPython keeps tuple's C comparison in the slot
    __lt__ = tuple.__lt__

    def __new__(cls, base: ExtNat, decoration: Decoration = Decoration.NONE):
        return tuple.__new__(cls, (base, decoration))

    def __init__(self, base: ExtNat, decoration: Decoration = Decoration.NONE):
        as_extnat(base, "base")
        if not isinstance(decoration, Decoration):
            raise ValidityError(f"decoration must be a Decoration, got {decoration!r}")
        if decoration is _MINUS and (base == 0 or base is INF):
            raise ValidityError(f"{base}- is not a representable decorated number")

    def __getnewargs__(self):
        # pickle and copy rebuild from the two fields, not from one tuple
        return tuple(self)

    def __repr__(self) -> str:
        return f"DecoratedNumber(base={self.base!r}, decoration={self.decoration!r})"

    def __str__(self) -> str:
        return f"{self.base}{_SYMBOLS[self.decoration]}"

    def shifted(self, n: int) -> "DecoratedNumber":
        """Same mark, base raised by n."""
        return decorated_number(self.base + n, self.decoration)

    def starred(self) -> "DecoratedNumber":
        """Mirror image; undefined at 0+ and inf+."""
        if self.decoration is _NONE:
            return self
        if self.decoration is _PLUS and (self.base == 0 or self.base is INF):
            raise NotRepresentableError(f"{self} has no mirror image")
        return decorated_number(self.base, _FLIP[self.decoration])


# The one memo of decorated numbers: each distinct (base, mark) among the
# 4096 most recent is validated by the constructor once.  typed=True keeps
# 1 apart from True and Decoration.NONE apart from 0, so a hit is never a
# value the constructor would reject; exceptions are not cached, so a
# rejected value raises on every call.  Each entry the package builds, parsed
# ones too, comes from here; DecoratedNumber(...) is only the public constructor.
decorated_number = lru_cache(maxsize=4096, typed=True)(DecoratedNumber)


class BasisKind(Enum):
    """The four kinds of group in the Bockstein family.

    Each value is the name a group of that kind is shown by, with ``{p}``
    standing for its prime.  Q comes first; the three prime kinds follow
    in the order in which one prime entry of a dimension type gives its
    values: Z/p, then Z_{p^inf}, then Z_(p).
    """

    RATIONALS = "Q"
    CYCLIC = "Z_{p}"
    CIRCLE = "Z_{p}^inf"
    LOCALIZED = "Z_({p})"


_PRIME_KINDS = tuple(BasisKind)[1:]
_LOCALIZED = _PRIME_KINDS.index(BasisKind.LOCALIZED)


@dataclass(frozen=True)
class BocksteinGroup:
    """One group of the Bockstein family: Q, Z/p, Z_{p^inf} or Z_(p)."""

    kind: BasisKind
    prime: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise ValidityError(f"kind must be a BasisKind, got {self.kind!r}")
        if self.kind is BasisKind.RATIONALS:
            if self.prime is not None:
                raise ValidityError("Q carries no prime")
        else:
            require_prime(self.prime)

    @classmethod
    def rationals(cls) -> "BocksteinGroup":
        return cls(BasisKind.RATIONALS)

    @classmethod
    def cyclic(cls, p: int) -> "BocksteinGroup":
        return cls(BasisKind.CYCLIC, p)

    @classmethod
    def circle(cls, p: int) -> "BocksteinGroup":
        return cls(BasisKind.CIRCLE, p)

    @classmethod
    def localized(cls, p: int) -> "BocksteinGroup":
        return cls(BasisKind.LOCALIZED, p)

    def __str__(self) -> str:
        return self.kind.value.format(p=self.prime)


def _undecorated_error(what: str, entry: DecoratedNumber, rational: ExtNat) -> ValidityError:
    return ValidityError(
        f"{what} {entry} is undecorated but differs from the value {rational} at Q")


def _entry_sum(a: DecoratedNumber, b: DecoratedNumber, sign_rule) -> DecoratedNumber:
    # one entry of a sum: bases add, the mark is looked up in sign_rule
    base = a.base + b.base
    sign = sign_rule[a.decoration, b.decoration]
    if base is INF and sign is _MINUS:
        sign = _PLUS  # inf- and inf+ are the same pattern
    return decorated_number(base, sign)


class DimensionType:
    """A dimension type with finite support: the value at Q, a default
    prime entry, and decorated exceptions at finitely many primes.

    Canonical form is enforced on construction: an undecorated entry must
    equal the value at Q, and exceptional entries equal to the default are
    dropped, so ``==`` between instances decides equality as functions on
    the Bockstein family.  Calling an instance on a :class:`BocksteinGroup`
    gives its value there.

    The exceptions may be given as a mapping from primes to entries or as
    an iterable of ``(prime, entry)`` pairs, in any order.  Every key is
    checked to be a prime that occurs once, and every entry to be a valid
    :class:`DecoratedNumber`, including an entry equal to the default,
    which is then dropped.  ``exceptions`` holds the rest as a tuple of
    ``(prime, entry)`` pairs sorted by prime.

    >>> d = DimensionType(2, DecoratedNumber(3, Decoration.MINUS))
    >>> print(d)
    {q=2; *=3-}
    >>> d(BocksteinGroup.circle(5))
    2
    >>> d(BocksteinGroup.localized(5))
    3
    >>> print(d.boxplus(DimensionType(2, DecoratedNumber(1, Decoration.PLUS))))
    {q=4; *=4-}
    >>> print(d.oplus(DimensionType(2, DecoratedNumber(1, Decoration.PLUS))))
    {q=4; *=4+}
    """

    __slots__ = ("rational", "default", "exceptions")

    def __init__(
        self,
        rational: ExtNat,
        default: DecoratedNumber,
        exceptions: Mapping[int, DecoratedNumber] | Iterable[tuple[int, DecoratedNumber]] | None = None,
    ):
        if type(rational) is not int or rational < 0:
            rational = as_extnat(rational, "value at Q")
        if not isinstance(default, DecoratedNumber):
            raise ValidityError(f"default entry must be a DecoratedNumber, got {default!r}")
        if default.decoration is _NONE and default.base != rational:
            raise _undecorated_error("default entry", default, rational)
        self.rational = rational
        self.default = default
        # a uniform type has nothing to walk
        if exceptions is None:
            self.exceptions = ()
            return
        if type(exceptions) is not list and isinstance(exceptions, Mapping):
            exceptions = exceptions.items()
        kept: list[tuple[int, DecoratedNumber]] = []
        in_order = True
        seen: set[int] = set()
        last = 0
        for p, entry in exceptions:
            require_prime(p, "exception key")
            if p in seen:
                raise ValidityError(f"duplicate exception at prime {p}")
            seen.add(p)
            if not isinstance(entry, DecoratedNumber):
                raise ValidityError(f"entry at {p} must be a DecoratedNumber, got {entry!r}")
            if entry.decoration is _NONE and entry.base != rational:
                raise _undecorated_error(f"entry at {p}", entry, rational)
            # an exception equal to the default carries no information
            if entry != default:
                kept.append((p, entry))
                in_order = in_order and last < p
                last = p
        self.exceptions = tuple(kept) if in_order else tuple(sorted(kept))

    def entry(self, p: int) -> DecoratedNumber:
        """Decorated value at the prime p."""
        require_prime(p)
        for q, e in self.exceptions:
            if q == p:
                return e
        return self.default

    def exception_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptions)

    def _paired(self, other: "DimensionType"):
        # (p, entry here, entry there) at each exception prime of either
        # side, in increasing p: one merge walk over the two exceptions
        # tuples, which the constructor stores sorted by prime
        mine, theirs = self.exceptions, other.exceptions
        i = j = 0
        while i < len(mine) and j < len(theirs):
            p, a = mine[i]
            q, b = theirs[j]
            if p == q:
                yield p, a, b
                i += 1
                j += 1
            elif p < q:
                yield p, a, other.default
                i += 1
            else:
                yield q, self.default, b
                j += 1
        for p, a in mine[i:]:
            yield p, a, other.default
        for q, b in theirs[j:]:
            yield q, self.default, b

    def __eq__(self, other):
        if not isinstance(other, DimensionType):
            return NotImplemented
        return (
            self.rational == other.rational
            and self.default == other.default
            and self.exceptions == other.exceptions
        )

    def __hash__(self):
        return hash((self.rational, self.default, self.exceptions))

    def __repr__(self):
        if self.exceptions:
            return f"DimensionType({self.rational!r}, {self.default!r}, {dict(self.exceptions)!r})"
        return f"DimensionType({self.rational!r}, {self.default!r})"

    def __str__(self):
        parts = [f"q={self.rational}", f"*={self.default}"]
        parts.extend(f"{p}={e}" for p, e in self.exceptions)
        return "{" + "; ".join(parts) + "}"

    # -- evaluation ----------------------------------------------------

    def _values_at(self, e: DecoratedNumber) -> tuple[ExtNat, ExtNat, ExtNat]:
        # The values encoded by one entry, one per prime kind in BasisKind order.
        # Each field is read once: a local is cheaper than the tuple descriptor,
        # and two reads cheaper than unpacking a tuple subclass.
        base, mark = e.base, e.decoration
        if mark is _NONE:
            return base, base, base
        if mark is _PLUS:
            return base, base, max(self.rational, base + 1)
        return base, base - 1, max(self.rational, base)

    def __call__(self, group: BocksteinGroup) -> ExtNat:
        """The value at one group of the Bockstein family."""
        if not isinstance(group, BocksteinGroup):
            raise TypeError(f"expected a BocksteinGroup, got {group!r}")
        if group.kind is BasisKind.RATIONALS:
            return self.rational
        return self._values_at(self.entry(group.prime))[_PRIME_KINDS.index(group.kind)]

    def dim(self) -> ExtNat:
        """Largest value attained over the whole family.

        The one fact used: the value at Z_(p), the last of the three that
        ``_values_at`` reads from an entry, is at least the other two and
        the value at Q.  So the dimension is the largest value at Z_(p)
        over the default and the exceptions.

        >>> boltyanskii_type(6).dim()
        6
        """
        top = self._values_at(self.default)[_LOCALIZED]
        for _, e in self.exceptions:
            value = self._values_at(e)[_LOCALIZED]
            if top < value:
                top = value
        return top

    # -- order ---------------------------------------------------------

    def __le__(self, other):
        if not isinstance(other, DimensionType):
            return NotImplemented
        return (self.rational <= other.rational and self.default <= other.default
                and all(a <= b for _, a, b in self._paired(other)))

    def __lt__(self, other):
        if not isinstance(other, DimensionType):
            return NotImplemented
        return self != other and self.__le__(other)

    # -- operations ----------------------------------------------------

    def _combine(self, other: "DimensionType", sign_rule) -> "DimensionType":
        if not isinstance(other, DimensionType):
            raise TypeError(f"expected a DimensionType, got {other!r}")
        return DimensionType(
            self.rational + other.rational,
            _entry_sum(self.default, other.default, sign_rule),
            # the sum of two uniform types is uniform: nothing to walk
            [(p, _entry_sum(a, b, sign_rule)) for p, a, b in self._paired(other)]
            if self.exceptions or other.exceptions else None,
        )

    def boxplus(self, other: "DimensionType") -> "DimensionType":
        """Product sum: values at Q add, bases add, signs multiply."""
        return self._combine(other, _PRODUCT)

    def oplus(self, other: "DimensionType") -> "DimensionType":
        """Dual sum, the mirror conjugate of :meth:`boxplus`: bases add
        and mixed signs give plus.  Defined exactly where the mirrors of
        both operands are."""
        self._require_starrable()
        other._require_starrable()
        return self._combine(other, _DUAL)

    def _require_starrable(self) -> None:
        for e in (self.default, *(e for _, e in self.exceptions)):
            if e.decoration is _PLUS and (e.base == 0 or e.base is INF):
                raise NotRepresentableError(f"{self} has an entry {e} with no mirror image")

    def star(self) -> "DimensionType":
        """Sign involution; undefined when any entry is 0+ or inf+.

        >>> print(DimensionType(2, DecoratedNumber(3, Decoration.MINUS)).star())
        {q=2; *=3+}
        """
        return DimensionType(
            self.rational,
            self.default.starred(),
            [(p, e.starred()) for p, e in self.exceptions],
        )

    def __add__(self, n: int) -> "DimensionType":
        """Shift every value up by a non-negative integer."""
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValidityError(f"shift must be non-negative, got {n}")
        return DimensionType(
            self.rational + n,
            self.default.shifted(n),
            [(p, e.shifted(n)) for p, e in self.exceptions],
        )

    # -- predicates ------------------------------------------------------

    def is_full_valued(self) -> bool:
        """Constantly equal to its own dimension."""
        return self == constant(self.dim())

    def is_boltyanskii(self, n: int) -> bool:
        """Dimension exactly n and below the ceiling type of sides n.

        A type below ``boltyanskii_type(n)`` squares to dimension 2n-1
        instead of 2n.

        >>> boltyanskii_type(4).is_boltyanskii(4)
        True
        >>> constant(4).is_boltyanskii(4)
        False
        """
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            return False
        return self.dim() == n and self <= boltyanskii_type(n)


def constant(n: ExtNat) -> DimensionType:
    """The type with value n at every group of the family."""
    n = as_extnat(n, "constant value")
    return DimensionType(n, decorated_number(n, _NONE))


def boltyanskii_type(n: int) -> DimensionType:
    """Largest type of an n-dimensional compactum whose square drops a
    dimension: n-1 at Q and (n-1)+ at every prime.

    >>> print(boltyanskii_type(6))
    {q=5; *=5+}
    """
    require_int(n, 1, "the ceiling type needs an integer n >= 1")
    return DimensionType(n - 1, decorated_number(n - 1, _PLUS))
