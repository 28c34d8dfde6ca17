"""Expectations computed without dimcalc's own arithmetic.

* A small model of decorated dimension types (plain tuples) written from
  the calculus' definitions; it produces the canonical text and JSON of
  every value the language workload generates.
* The Bockstein basis of a direct sum, derived from per-summand facts
  with sympy's Smith normal form and ``factorint``.
* The size of the cube-sweep grid in closed form.
* The pointwise oracles of ``tests/support.py``, loaded from the checkout.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

MINUS, NONE, PLUS = -1, 0, 1
_SIGN_TEXT = {MINUS: "-", NONE: "", PLUS: "+"}
_SIGN_NAME = {MINUS: "minus", NONE: "none", PLUS: "plus"}


class ModelError(ValueError):
    """The model has no value here (invalid literal or no mirror image)."""


def load_support(root: Path):
    """The test suite's oracle module, imported from ``tests/support.py``."""
    path = root / "tests" / "support.py"
    spec = importlib.util.spec_from_file_location("dimcalc_test_support", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- decorated dimension types ---------------------------------------------


@dataclass(frozen=True)
class Model:
    """A finite dimension type: value at Q, default entry, exceptions.

    Entries are ``(base, sign)`` pairs; the constructor checks validity
    and drops exceptions equal to the default, as the calculus requires.
    """

    q: int
    default: tuple[int, int]
    exceptions: tuple[tuple[int, tuple[int, int]], ...]

    @classmethod
    def make(cls, q, default, exceptions=None) -> "Model":
        for base, sign in (default, *(exceptions or {}).values()):
            if base < 0 or (sign == NONE and base != q) or (sign == MINUS and base == 0):
                raise ModelError(f"invalid entry {base}{_SIGN_TEXT[sign]} with q={q}")
        kept = tuple(sorted((p, e) for p, e in (exceptions or {}).items() if e != default))
        return cls(q, default, kept)

    def entry(self, p: int) -> tuple[int, int]:
        return dict(self.exceptions).get(p, self.default)

    def primes(self) -> set[int]:
        return {p for p, _ in self.exceptions}

    def text(self) -> str:
        parts = [f"q={self.q}", f"*={_entry_text(self.default)}"]
        parts += [f"{p}={_entry_text(e)}" for p, e in self.exceptions]
        return "{" + "; ".join(parts) + "}"

    def tree(self) -> dict:
        return {
            "kind": "dimension-type",
            "q": self.q,
            "default": _entry_tree(self.default),
            "exceptions": {str(p): _entry_tree(e) for p, e in self.exceptions},
        }

    def values_at(self, e: tuple[int, int]) -> tuple[int, int, int]:
        """Values at (Z/p, Z_{p^inf}, Z_(p)) encoded by one entry."""
        base, sign = e
        if sign == NONE:
            return base, base, base
        if sign == PLUS:
            return base, base, max(self.q, base + 1)
        return base, base - 1, max(self.q, base)

    def dim(self) -> int:
        entries = (self.default, *(e for _, e in self.exceptions))
        return max(self.q, *(max(self.values_at(e)) for e in entries))

    def starrable(self) -> bool:
        return all(e != (0, PLUS) for e in (self.default, *(e for _, e in self.exceptions)))


def _entry_text(e) -> str:
    return f"{e[0]}{_SIGN_TEXT[e[1]]}"


def _entry_tree(e) -> dict:
    return {"kind": "decorated-number", "base": e[0], "decoration": _SIGN_NAME[e[1]]}


def _sign_product(a: int, b: int) -> int:
    # none is neutral, like signs persist, mixed signs give minus
    if a == NONE:
        return b
    if b == NONE:
        return a
    return min(a, b)


def _dual_sign(a: int, b: int) -> int:
    # mirror conjugate of the sign product: mixed signs give plus
    if a == NONE:
        return b
    if b == NONE:
        return a
    return max(a, b)


def _combine(x: Model, y: Model, rule) -> Model:
    def add(a, b):
        return a[0] + b[0], rule(a[1], b[1])

    primes = x.primes() | y.primes()
    return Model.make(
        x.q + y.q, add(x.default, y.default), {p: add(x.entry(p), y.entry(p)) for p in primes})


def boxplus(x: Model, y: Model) -> Model:
    return _combine(x, y, _sign_product)


def oplus(x: Model, y: Model) -> Model:
    if not (x.starrable() and y.starrable()):
        raise ModelError("oplus needs operands with mirror images")
    return _combine(x, y, _dual_sign)


def star(x: Model) -> Model:
    if not x.starrable():
        raise ModelError("0+ has no mirror image")
    flip = lambda e: (e[0], -e[1])
    return Model.make(x.q, flip(x.default), {p: flip(e) for p, e in x.exceptions})


def shift(x: Model, k: int) -> Model:
    up = lambda e: (e[0] + k, e[1])
    return Model.make(x.q + k, up(x.default), {p: up(e) for p, e in x.exceptions})


def ceiling(n: int) -> Model:
    """B(n): n-1 at Q and (n-1)+ at every prime."""
    if n < 1:
        raise ModelError("B(n) needs n >= 1")
    return Model.make(n - 1, (n - 1, PLUS))


def constant(n: int) -> Model:
    if n < 0:
        raise ModelError("C(n) needs n >= 0")
    return Model.make(n, (n, NONE))


def to_dimcalc(dimcalc, m: Model):
    """The model value as a dimcalc object, for the pointwise oracles."""
    dec = {MINUS: dimcalc.Decoration.MINUS, NONE: dimcalc.Decoration.NONE,
           PLUS: dimcalc.Decoration.PLUS}
    num = lambda e: dimcalc.DecoratedNumber(e[0], dec[e[1]])
    return dimcalc.DimensionType(m.q, num(m.default), {p: num(e) for p, e in m.exceptions})


# -- Bockstein bases of direct sums -----------------------------------------


@dataclass(frozen=True)
class Summand:
    """Per-summand facts: the torsion-free quotient and the p-torsion.

    ``quotient`` is None (zero), "Q", "free" or a prime p (the quotient is
    Z_(p), divisible at every prime but p).  ``torsion`` maps each prime
    with nonzero p-torsion to whether that torsion is p-divisible.
    """

    text: str
    quotient: object
    torsion: tuple[tuple[int, bool], ...]


def cyclic_summand(m: int) -> Summand:
    from sympy import factorint

    return Summand(f"Z/{m}", None, tuple((p, False) for p in sorted(factorint(m))))


def presented_summand(rows: list[list[int]], generators: int) -> Summand:
    """Facts from sympy's Smith normal form of the relation matrix."""
    from sympy import ZZ, Matrix, factorint
    from sympy.matrices.normalforms import smith_normal_form

    diag = smith_normal_form(Matrix(rows), domain=ZZ)
    factors = [abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i] != 0]
    primes: set[int] = set()
    for f in factors:
        primes |= set(factorint(f))
    free_rank = generators - len(factors)
    text = "pres[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
    return Summand(text, "free" if free_rank else None,
                   tuple((p, False) for p in sorted(primes)))


def expected_basis(summands: list[Summand]) -> tuple:
    """sigma(G) as (rationals, cyclic, circle, localized); each predicate is
    (default, sorted exception primes)."""
    quotients = [s.quotient for s in summands if s.quotient is not None]
    loc_primes = sorted({q for q in quotients if isinstance(q, int)})
    free = "free" in quotients
    rationals = bool(quotients) and not free and not loc_primes
    if not quotients:
        localized = (False, ())
    elif free:
        localized = (True, ())
    else:
        localized = (False, tuple(loc_primes))
    divisible: dict[int, bool] = {}
    for s in summands:
        for p, div in s.torsion:
            divisible[p] = divisible.get(p, True) and div
    cyclic = (False, tuple(sorted(p for p, d in divisible.items() if not d)))
    circle = (False, tuple(sorted(p for p, d in divisible.items() if d)))
    return rationals, cyclic, circle, localized


def basis_tree(basis: tuple) -> dict:
    """The structured CLI rendering of an expected basis."""
    rationals, cyclic, circle, localized = basis
    pred = lambda b: {"default": b[0], "exceptions": list(b[1])}
    return {"kind": "sigma-set", "rationals": rationals, "cyclic": pred(cyclic),
            "circle": pred(circle), "localized": pred(localized)}


def expected_dim_with_coefficients(d: Model, basis: tuple) -> int:
    """Largest value of d over the groups of the basis."""
    rationals, cyclic, circle, localized = basis
    values = [d.q] if rationals else []
    values += [d.values_at(d.entry(p))[0] for p in cyclic[1]]
    values += [d.values_at(d.entry(p))[1] for p in circle[1]]
    if localized[0]:
        # cofinite: every marked prime not excluded, plus the generic prime
        marked = d.primes() - set(localized[1])
        values += [d.values_at(d.entry(p))[2] for p in marked]
        values.append(d.values_at(d.default)[2])
    else:
        values += [d.values_at(d.entry(p))[2] for p in localized[1]]
    return max(values, default=0)


# -- the cube sweep ---------------------------------------------------------


def sweep_counts(n: int, bound: int) -> tuple[int, int, int]:
    """(dim-2 base types, fiber types, pairs) of ``cube_theorem_sweep``.

    Exception-free types of dimension 2 with q and bases at most 2 are
    {q=2; *=2}, four plus types and four minus types.  A uniform type
    {q; *=b s} dominates constant(m) iff q >= m and b s >= m in the
    decorated order, which leaves, for each of the K-m+1 values of q, one
    undecorated entry, K-m+1 plus entries and K-m minus entries.
    """
    dim2 = 9
    m = n - 2
    side = max(bound - m + 1, 0)
    fibers = 2 * side * side
    return dim2, fibers, dim2 * fibers
