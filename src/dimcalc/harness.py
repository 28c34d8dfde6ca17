"""Replay of theorem arithmetic: bounds, scenario scripts, sweeps, laws.

Three services on top of the core calculus:

* closed-form bounds for unions, decompositions and fiber maps;
* scenarios: small scripts of comparison claims with integer parameters,
  evaluated into deterministic pass/fail reports;
* finite verification: an exhaustive sweep over the uniform-type grid
  used by the product/fiber contradiction argument, and seeded random
  suites for the algebraic laws of the operations.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from .decorated import (
    _MARKS,
    _MINUS,
    _NONE,
    _PLUS,
    INF,
    DecoratedNumber,
    DimensionType,
    ValidityError,
    constant,
    decorated_number,
    require_int,
)
from .exprs import (
    _LINE_BREAK,
    EvaluationError,
    Expr,
    ParseError,
    apply_comparison,
    evaluate_expr,
    fields_tree,
    formatted,
    free_parameters,
    kind_of,
    parse,
    placed,
    render,
    to_json,
    walk,
)


# -- closed-form bounds --------------------------------------------------


def union_bound(d1: DimensionType, d2: DimensionType) -> DimensionType:
    """Upper bound for a space split into two pieces of the given types.

    >>> print(union_bound(constant(1), constant(1)))
    {q=3; *=3}
    """
    return d1.oplus(d2) + 1


def fiber_bound(d_fibers: DimensionType, d_base: DimensionType) -> DimensionType:
    """Upper bound for the total space of a map from fiber and base types."""
    return d_fibers.oplus(d_base)


def decomposition_bound_holds(
    d_x: DimensionType, d1: DimensionType, d2: DimensionType
) -> bool:
    """Whether the two-piece decomposition hypothesis d_x <= d1 (+) d2 + 1 holds.

    >>> decomposition_bound_holds(constant(3), constant(1), constant(1))
    True
    >>> decomposition_bound_holds(constant(4), constant(1), constant(1))
    False
    """
    return d_x <= union_bound(d1, d2)


# -- scenarios -----------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One comparison line of a scenario, kept with its source text."""

    text: str
    expr: Expr


@dataclass(frozen=True)
class Scenario:
    name: str
    parameters: tuple[str, ...]
    claims: tuple[Claim, ...]

    @classmethod
    def from_text(cls, name: str, text: str) -> "Scenario":
        claims: list[Claim] = []
        for lineno, line in enumerate(_LINE_BREAK.split(text), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            expr = parse(line, start_line=lineno)
            if kind_of(expr) != "boolean":
                raise ParseError(
                    "a claim must be a comparison ('<=' or '==')", lineno, 1)
            claims.append(Claim(stripped, expr))
        params: set[str] = set()
        for claim in claims:
            params |= free_parameters(claim.expr)
        return cls(name, tuple(sorted(params)), tuple(claims))

    @classmethod
    def from_path(cls, path: str | Path) -> "Scenario":
        path = Path(path)
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            # place the first bad byte; "." closes the last line's column
            before = _LINE_BREAK.split(data[: err.start].decode("utf-8") + ".")
            raise ParseError(f"scenario file is not UTF-8: {err.reason}",
                             len(before), len(before[-1])) from None
        return cls.from_text(path.stem, text)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    passed: bool
    lhs: object
    rhs: object
    op: str


class _Report:
    """A report: pretty text from ``_pretty``, a JSON tree from ``tree``."""

    def render(self, format: str = "pretty") -> str:
        return formatted(format, self._pretty, self.tree)


@dataclass(frozen=True)
class ScenarioReport(_Report):
    scenario: Scenario
    bindings: tuple[tuple[str, int], ...]
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def _pretty(self) -> str:
        suffix = ""
        if self.bindings:
            suffix = " [" + ", ".join(f"{k}={v}" for k, v in self.bindings) + "]"
        lines = [f"scenario {self.scenario.name}{suffix}"]
        for r in self.results:
            verdict = "pass" if r.passed else "FAIL"
            lines.append(f"  {verdict:4s}  {r.claim.text}")
            lines.append(f"        lhs = {render(r.lhs, 'pretty')}")
            lines.append(f"        rhs = {render(r.rhs, 'pretty')}")
        n = len(self.results)
        k = sum(1 for r in self.results if r.passed)
        lines.append(f"result: {'pass' if self.passed else 'FAIL'} ({k}/{n} claims)")
        return "\n".join(lines)

    def tree(self) -> dict:
        return {
            "kind": "scenario-report",
            "scenario": self.scenario.name,
            "bindings": {k: v for k, v in self.bindings},
            "passed": self.passed,
            "claims": [
                {
                    "text": r.claim.text,
                    "op": r.op,
                    "passed": r.passed,
                    "lhs": to_json(r.lhs),
                    "rhs": to_json(r.rhs),
                }
                for r in self.results
            ],
        }


def run_scenario(scenario: Scenario, bindings: Mapping[str, int] | None = None) -> ScenarioReport:
    """Evaluate every claim of a scenario under the given parameter values.

    >>> report = run_scenario(builtin_scenario("section4"), {"n": 6})
    >>> report.passed
    True
    """
    bindings = dict(bindings or {})
    missing = [p for p in scenario.parameters if p not in bindings]
    if missing:
        # placed at the first use, in text order, of a missing parameter
        at = min((n.line, n.column) for claim in scenario.claims for n, _ in walk(claim.expr, False)
                 if n.op == "param" and n.args[0] in missing)
        raise placed(EvaluationError(f"scenario {scenario.name!r} needs bindings for: "
                                     + ", ".join(missing)), *at)
    results = []
    for claim in scenario.claims:
        lhs_expr, rhs_expr = claim.expr.args
        try:
            lhs = evaluate_expr(lhs_expr, bindings)
            rhs = evaluate_expr(rhs_expr, bindings)
        except (ValidityError, EvaluationError) as err:
            wrapped = EvaluationError(f"claim '{claim.text}': {err}")
            wrapped.line, wrapped.column = err.line, err.column
            raise wrapped from err
        passed = apply_comparison(claim.expr.op, lhs, rhs)
        results.append(ClaimResult(claim, passed, lhs, rhs, claim.expr.op))
    return ScenarioReport(
        scenario, tuple(sorted(bindings.items())), tuple(results))


_BUILTIN_TEXTS = {
    # the two identities behind the low-dimensional ceiling examples
    "section4": """\
# golden family: two singular summands assembling the ceiling type
(DT{q=2; *=3-} oplus DT{q=n-4; *=(n-5)+}) + 1 == B(n)
dim((DT{q=2; *=3-} + 1) boxplus DT{q=n-4; *=(n-5)+}) == n - 1
""",
    # the square of the ceiling type loses exactly one dimension
    "boltyanskii-square": """\
dim(B(n)) == n
B(n) boxplus B(n) == DT{q=2*n-2; *=(2*n-2)+}
dim(B(n) boxplus B(n)) == 2*n - 1
""",
}


def builtin_scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_TEXTS))


def builtin_scenario(name: str) -> Scenario:
    return Scenario.from_text(name, _BUILTIN_TEXTS[name])


# -- exhaustive sweep ----------------------------------------------------


def uniform_types(bound: int) -> Iterator[DimensionType]:
    """All valid exception-free types with value at Q and every base at most bound."""
    return _uniform_types(0, bound)


def _uniform_types(low: int, bound: int) -> Iterator[DimensionType]:
    # the value at Q and every base in low .. bound, with a minus mark only
    # above low: the uniform types >= constant(low) within the bound
    for q in range(low, bound + 1):
        yield DimensionType(q, decorated_number(q, _NONE))
        for base in range(low, bound + 1):
            yield DimensionType(q, decorated_number(base, _PLUS))
            if base > low:
                yield DimensionType(q, decorated_number(base, _MINUS))


@dataclass(frozen=True)
class SweepReport(_Report):
    n: int
    base_bound: int
    dim2_count: int
    fiber_count: int
    pairs_checked: int
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def _pretty(self) -> str:
        lines = [
            f"cube sweep: n={self.n}, base bound {self.base_bound}",
            f"  dim-2 base types: {self.dim2_count}",
            f"  fiber types at least constant({self.n - 2}): {self.fiber_count}",
            f"  pairs checked: {self.pairs_checked}",
        ]
        if self.counterexamples:
            lines.append(f"  counterexamples: {len(self.counterexamples)}")
            lines.extend(f"    {c}" for c in self.counterexamples)
        else:
            lines.append("  counterexamples: none")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def tree(self) -> dict:
        return {"kind": "sweep-report", "passed": self.passed, **fields_tree(self)}


def cube_theorem_sweep(n: int, base_bound: int) -> SweepReport:
    """Check the two arithmetic contradictions of the fiber argument over
    the uniform-type grid.

    For every uniform base type d_Y of dimension 2: (a) unless d_Y is
    full-valued, the shifted bound d_Y + (n-3) cannot dominate
    constant(n-1); (b) the product with any fiber type d_F at least
    constant(n-2) reaches dimension n.  The fiber grid is exactly the
    uniform types at least constant(n-2) within the bound, so nothing is
    filtered: the value at Q and every base run from n-2, with no (n-2)-
    entry.  An empty fiber grid (base bound below n-2) passes vacuously.
    A pair whose product raises ValidityError is a counterexample that
    names the pair and the message.

    >>> cube_theorem_sweep(6, 8).passed
    True
    """
    require_int(n, 4, "the sweep needs an integer n >= 4")
    require_int(base_bound, 0, "base bound must be a non-negative integer")

    # dimension 2 forces every base and the value at Q under 2, so the
    # d_Y grid does not depend on base_bound
    dim2 = [d for d in uniform_types(2) if d.dim() == 2]
    fibers = list(_uniform_types(n - 2, base_bound))
    ceiling = constant(n - 1)
    counterexamples = [
        f"shift bound: constant({n - 1}) <= {d_y} + {n - 3}"
        for d_y in dim2 if not d_y.is_full_valued() and ceiling <= d_y + (n - 3)
    ]
    for d_y in dim2:
        for d_f in fibers:
            try:
                if d_y.boxplus(d_f).dim() < n:
                    counterexamples.append(f"product dimension: dim({d_y} boxplus {d_f}) < {n}")
            except ValidityError as err:
                counterexamples.append(f"product dimension: {d_y} boxplus {d_f}: error: {err}")
    return SweepReport(n, base_bound, len(dim2), len(fibers), len(dim2) * len(fibers),
                       tuple(counterexamples))


# -- seeded random law suites ---------------------------------------------


_MAX_BASE = 12  # the largest base of a random type; random_type_above adds one


def _below(rng: random.Random, n: int) -> int:
    # rng.randrange(n) for n >= 1, as CPython's Random._randbelow_with_getrandbits
    # draws it: the same value, and the generator left in the same state,
    # without the frames of randint and randrange
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_entry(rng: random.Random, q: int, star_safe: bool) -> DecoratedNumber:
    roll = _below(rng, 3)
    if roll == 0:
        return decorated_number(q, _NONE)
    if roll == 1:
        low = 1 if star_safe else 0
        return decorated_number(low + _below(rng, _MAX_BASE + 1 - low), _PLUS)
    return decorated_number(1 + _below(rng, _MAX_BASE), _MINUS)


def random_dimension_type(rng: random.Random, *, star_safe: bool = False) -> DimensionType:
    """One uniformly scattered valid type with exceptions on 2, 3, 5 and 7."""
    q = _below(rng, _MAX_BASE + 1)
    default = _random_entry(rng, q, star_safe)
    # one coin per prime: is the first of two 32-bit words below 2**31?  That
    # reads the stream as random() < 0.5 did, with no float.  The pairs go
    # in increasing prime order, as the constructor keeps them
    exceptions = [
        (p, _random_entry(rng, q, star_safe))
        for p in (2, 3, 5, 7)
        if not rng.getrandbits(64) & (1 << 31)
    ]
    return DimensionType(q, default, exceptions)


def random_type_above(
    rng: random.Random, d: DimensionType, *, star_safe: bool = False
) -> DimensionType:
    """A random valid type dominating d, for monotonicity checks.

    The value at Q is drawn uniformly from d's value up to _MAX_BASE + 1.
    Each entry e of d is then replaced by a draw that is uniform over the
    valid entries >= e with base at most _MAX_BASE + 1, where the bare
    base appears only at the new value at Q (and 0+ not at all when
    star_safe).  Each draw is the one ``rng.choice`` would make from the
    sorted list of those entries, and it leaves the generator in the same
    state, but only the drawn entry is built.
    """
    top = _MAX_BASE + 1
    for value in (d.rational, d.default.base, *(e.base for _, e in d.exceptions)):
        if value is INF or value > top:
            raise ValidityError(
                f"random generation needs a finite type with values at most {top}, got {d}")
    q2 = d.rational + _below(rng, top + 1 - d.rational)

    def entry_above(e: DecoratedNumber) -> DecoratedNumber:
        # in order: the marks at e.base from e's up, then at each higher
        # base its minus and plus marks, with the bare q2 between them
        first = [m for m in _MARKS if m >= e.decoration
                 and (m is not _NONE or e.base == q2)
                 and not (star_safe and m is _PLUS and e.base == 0)]
        k = _below(rng, len(first) + 2 * (top - e.base) + (e.base < q2))
        if k < len(first):
            return decorated_number(e.base, first[k])
        k -= len(first)
        if e.base < q2:
            bare = 2 * (q2 - e.base) - 1
            if k == bare:
                return decorated_number(q2, _NONE)
            if k > bare:
                k -= 1
        return decorated_number(
            e.base + 1 + k // 2, _PLUS if k % 2 else _MINUS)

    return DimensionType(
        q2,
        entry_above(d.default),
        [(p, entry_above(e)) for p, e in d.exceptions],
    )


def _audit_canonical(d: DimensionType) -> bool:
    # validity audit written against the invariants, not the constructor
    entries = [d.default, *(e for _, e in d.exceptions)]
    for e in entries:
        if e.decoration is _NONE and e.base != d.rational:
            return False
        if e.decoration is _MINUS and e.base == 0:
            return False
    primes = [p for p, _ in d.exceptions]
    if primes != sorted(set(primes)):
        return False
    return all(e != d.default for _, e in d.exceptions)


@dataclass(frozen=True)
class LawResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class LawReport(_Report):
    seed: int
    samples: int
    laws: tuple[LawResult, ...]

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def _pretty(self) -> str:
        lines = [f"algebra laws: seed={self.seed}, samples={self.samples}"]
        for law in self.laws:
            verdict = "pass" if law.passed else "FAIL"
            lines.append(f"  {verdict:4s}  {law.name} ({law.checked} checks)")
            lines.extend(f"        {f}" for f in law.failures)
        k = sum(1 for law in self.laws if law.passed)
        lines.append(
            f"result: {'pass' if self.passed else 'FAIL'} ({k}/{len(self.laws)} laws)")
        return "\n".join(lines)

    def tree(self) -> dict:
        tree = {"kind": "law-report", "passed": self.passed, **fields_tree(self)}
        for law, law_tree in zip(self.laws, tree["laws"]):
            law_tree["passed"] = law.passed
        return tree


_MAX_RECORDED_FAILURES = 5


def check_algebra_laws(seed: int = 0, samples: int = 10000) -> LawReport:
    """Seeded random verification of the operation laws over bases up to
    12; deterministic for a fixed (seed, samples).

    Each law is one row ``(name, draw, check)``: ``draw`` takes a
    generator and returns the operands of one sample, and ``check`` holds
    for them.  Every law draws from its own generator, seeded with
    ``f"{seed}:{name}"``, so adding, removing or reordering a law leaves
    the samples of the others unchanged.

    A sample that raises ValidityError, while its operands are drawn or
    while its law is checked, fails that law, and the run goes on; its
    failure text is the operands drawn, if any, then ``error: <message>``.
    So ``boxplus-closed`` and ``oplus-closed`` check the constructor's
    canonical form, and an operation that is not closed fails as a raise.

    >>> check_algebra_laws(seed=1, samples=200).passed
    True
    """
    require_int(samples, 1, "the law suite needs an integer samples >= 1")

    def draw(rng, count, star_safe=False, above=False):
        # count types, then, if above, one type above each in the same order
        lows = [random_dimension_type(rng, star_safe=star_safe) for _ in range(count)]
        if above:
            lows += [random_type_above(rng, d, star_safe=star_safe) for d in lows]
        return lows

    zero = constant(0)
    rows = (
        ("boxplus-commutes", lambda r: draw(r, 2),
         lambda a, b: a.boxplus(b) == b.boxplus(a)),
        ("boxplus-associates", lambda r: draw(r, 3),
         lambda a, b, c: a.boxplus(b).boxplus(c) == a.boxplus(b.boxplus(c))),
        ("boxplus-identity", lambda r: draw(r, 1),
         lambda a: a.boxplus(zero) == a and zero.boxplus(a) == a),
        ("star-involutes", lambda r: draw(r, 1, star_safe=True),
         lambda a: a.star().star() == a),
        ("boxplus-closed", lambda r: draw(r, 2),
         lambda a, b: _audit_canonical(a.boxplus(b))),
        ("oplus-closed", lambda r: draw(r, 2, star_safe=True),
         lambda a, b: _audit_canonical(a.oplus(b))),
        ("shift-agreement", lambda r: [*draw(r, 1, star_safe=True), _below(r, 13)],
         lambda a, k: a.boxplus(constant(k)) == a + k == a.oplus(constant(k))),
        ("boxplus-below-oplus", lambda r: draw(r, 2, star_safe=True),
         lambda a, b: _below_with_equal_bases(a.boxplus(b), a.oplus(b))),
        ("monotone-boxplus", lambda r: draw(r, 2, above=True),
         lambda d1, d2, e1, e2: d1.boxplus(d2) <= e1.boxplus(e2)),
        ("monotone-oplus", lambda r: draw(r, 2, star_safe=True, above=True),
         lambda d1, d2, e1, e2: d1.oplus(d2) <= e1.oplus(e2)),
    )
    laws = []
    for name, generate, check in rows:
        # string seeds hash stably across processes, unlike tuples
        rng = random.Random(f"{seed}:{name}")
        failures: list[str] = []
        for _ in range(samples):
            args = ()
            try:
                args = generate(rng)
                passed = check(*args)
            except ValidityError as err:  # a draw or an operation built an invalid value
                passed, args = False, [*args, f"error: {err}"]
            if not passed and len(failures) < _MAX_RECORDED_FAILURES:
                failures.append(", ".join(str(a) for a in args))
        laws.append(LawResult(name, samples, tuple(failures)))
    return LawReport(seed, samples, tuple(laws))


def _below_with_equal_bases(low: DimensionType, high: DimensionType) -> bool:
    return (low <= high and low.rational == high.rational
            and low.default.base == high.default.base
            and all(a.base == b.base for _, a, b in low._paired(high)))
