"""The four benchmark workloads.

Each workload builds a fixed pool of items from the seed, with every
expectation computed up front by the oracles in ``oracles.py``; dimcalc
sees only the generated inputs.  The runner times ``run`` and checks its
outcome with ``check`` outside the timed region.

``check`` returns ``(failed, wrong, digest)``: the number of items that
failed, whether any output disagreed with its oracle, and the text whose
sha256 the run records.  ``wrong`` marks a wrong answer; an input that
breaks the error contract (an error without a position) is counted as
failed but is not a wrong answer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracles
from oracles import MINUS, NONE, PLUS, Model, ModelError

LAW_NAMES = (
    "boxplus-commutes", "boxplus-associates", "boxplus-identity", "star-involutes",
    "boxplus-closed", "oplus-closed", "shift-agreement", "boxplus-below-oplus",
    "monotone-boxplus", "monotone-oplus",
)


class Laws:
    """``check_algebra_laws`` over seeds derived from the workload seed."""

    name = "laws"
    setup_call = "dimcalc.check_algebra_laws(seed=0, samples=1)"
    SAMPLES = 60  # per law and call, so one call checks 600 law samples
    POOL = 12
    CLI_SAMPLES = 40

    def __init__(self, dimcalc, support, seed: int, outdir: Path):
        self.dimcalc = dimcalc
        rng = random.Random(f"laws:{seed}")
        self.items = [rng.randrange(10**9) for _ in range(self.POOL)]
        self.trace_items = self.items[:1]
        self.cli_args = ["verify", "--scenario", "laws", "--seed", str(self.items[0]),
                         "--samples", str(self.CLI_SAMPLES), "--format", "structured"]

    def run(self, law_seed):
        return self.dimcalc.check_algebra_laws(seed=law_seed, samples=self.SAMPLES)

    def size(self, law_seed) -> int:
        return len(LAW_NAMES) * self.SAMPLES

    def check(self, law_seed, report, first: bool):
        # Every law is a theorem: each must pass on every sample.  A report
        # keeps at most five counterexamples per law, so a failing law counts
        # all its samples as failed.
        laws = {law.name: law for law in report.laws}
        failed = self.SAMPLES * sum(
            1 for name in LAW_NAMES
            if name not in laws or not laws[name].passed or laws[name].checked != self.SAMPLES)
        wrong = failed > 0 or tuple(laws) != LAW_NAMES or not report.passed
        return failed, wrong, report.render("structured")

    def check_cli(self, code: int, stdout: str) -> bool:
        tree = json.loads(stdout)
        return code == 0 and tree["passed"] and [
            (law["name"], law["checked"], law["passed"]) for law in tree["laws"]
        ] == [(name, self.CLI_SAMPLES, True) for name in LAW_NAMES]


class Sweep:
    """``cube_theorem_sweep`` over seeded (n, bound) grids."""

    name = "sweep"
    setup_call = "dimcalc.cube_theorem_sweep(4, 2)"
    POOL = 48

    def __init__(self, dimcalc, support, seed: int, outdir: Path):
        self.dimcalc = dimcalc
        rng = random.Random(f"sweep:{seed}")
        # every seed draws the same multisets of n and of bound - n; only
        # their pairing differs, so the pool's total work barely moves
        ns = [5 + i % 20 for i in range(self.POOL)]
        widths = [3 + i % 14 for i in range(self.POOL)]
        rng.shuffle(ns)
        rng.shuffle(widths)
        self.items = [(n, n - 2 + w) for n, w in zip(ns, widths)]
        self.trace_items = self.items[:3]
        n = rng.randint(15, 17)  # a narrow range keeps the CLI's work nearly constant
        self.cli_grid = (n, n + 10)
        self.cli_args = ["sweep", "--cube", "--n", str(n), "--bound", str(n + 10),
                         "--format", "structured"]

    def run(self, grid):
        return self.dimcalc.cube_theorem_sweep(*grid)

    def size(self, grid) -> int:
        return oracles.sweep_counts(*grid)[2]

    def _agrees(self, grid, tree: dict) -> bool:
        dim2, fibers, pairs = oracles.sweep_counts(*grid)
        return (tree["n"], tree["base_bound"], tree["dim2_count"], tree["fiber_count"],
                tree["pairs_checked"], tree["counterexamples"], tree["passed"]) == (
                    *grid, dim2, fibers, pairs, [], True)

    def check(self, grid, report, first: bool):
        ok = self._agrees(grid, report.tree())
        return (0 if ok else self.size(grid)), not ok, report.render("structured")

    def check_cli(self, code: int, stdout: str) -> bool:
        return code == 0 and self._agrees(self.cli_grid, json.loads(stdout))


# -- language -----------------------------------------------------------------

_EXCEPTION_PRIMES = (2, 3, 5, 7, 11, 13, 101)
_MUTATION_ALPHABET = "0123456789+-*/(){}[];=<>,^ abdeilmnopqsuxzBCDQTZ"


class _Texts:
    """Random expression texts, each with a function from the parameter n
    to its model value.  Without a parameter every integer is a constant."""

    def __init__(self, dimcalc, rng: random.Random, param: bool):
        self.dimcalc = dimcalc
        self.rng = rng
        self.param = param

    def integer(self, low: int, high: int):
        """An integer term whose value stays in [low, high + 8] for n in 6..14."""
        rng = self.rng
        if self.param and rng.random() < 0.6:
            shift = rng.randint(max(low - 6, -5), min(high - 6, 4))
            text = "n" if shift == 0 else f"n{shift:+d}"
            return text, (lambda n: n + shift)
        c = rng.randint(low, high)
        return str(c), (lambda n: c)

    def literal(self):
        rng = self.rng
        q_text, q = self.integer(0, 6)

        def entry():
            sign = rng.choice((MINUS, NONE, PLUS))
            if sign == NONE:
                return q_text, q, sign
            text, base = self.integer(1 if sign == MINUS else 0, 8)
            return text, base, sign

        default = entry()
        primes = sorted(rng.sample(_EXCEPTION_PRIMES, rng.randint(0, 3)))
        entries = [(p, entry()) for p in primes]

        def entry_text(e):
            text, _, sign = e
            wrapped = f"({text})" if not text.isdigit() and sign != NONE else text
            return wrapped + {MINUS: "-", NONE: "", PLUS: "+"}[sign]

        sep = rng.choice(("; ", ";"))
        body = sep.join([f"q={q_text}", f"*={entry_text(default)}"]
                        + [f"{p}={entry_text(e)}" for p, e in entries])
        head = rng.choice(("DT", ""))

        def value(n):
            return Model.make(q(n), (default[1](n), default[2]),
                              {p: (e[1](n), e[2]) for p, e in entries})

        return f"{head}{{{body}}}", value

    def type_expr(self, depth: int):
        rng = self.rng
        kind = rng.choice(("lit", "lit", "B", "C") if depth == 0 else
                          ("lit", "B", "boxplus", "oplus", "shift", "star"))
        if kind == "lit":
            return self.literal()
        if kind in ("B", "C"):
            text, k = self.integer(1, 6)
            make = oracles.ceiling if kind == "B" else oracles.constant
            return f"{kind}({text})", (lambda n: make(k(n)))
        a_text, a = self.type_expr(depth - 1)
        if kind == "shift":
            k = rng.randint(0, 4)
            return f"({a_text}) + {k}", (lambda n: oracles.shift(a(n), k))
        if kind == "star":
            return f"({a_text})*", (lambda n: oracles.star(a(n)))
        b_text, b = self.type_expr(depth - 1)
        op = oracles.boxplus if kind == "boxplus" else oracles.oplus
        return f"({a_text}) {kind} ({b_text})", (lambda n: op(a(n), b(n)))

    def comparison(self, support):
        """A claim text and the oracle's verdict as a function of n."""
        rng = self.rng
        x_text, x = self.type_expr(rng.randint(0, 1))
        roll = rng.random()
        if roll < 0.3:
            y_text, y = self.type_expr(rng.randint(0, 1))
        elif roll < 0.6:
            z_text, z = self.type_expr(0)
            op = rng.choice(("boxplus", "oplus"))
            f = oracles.boxplus if op == "boxplus" else oracles.oplus
            y_text, y = f"({x_text}) {op} ({z_text})", (lambda n: f(x(n), z(n)))
        else:
            k = rng.randint(0, 2)
            y_text, y = f"({x_text}) + {k}", (lambda n: oracles.shift(x(n), k))
        form = rng.choice(("leq", "leq", "eq", "dim"))
        if form == "dim":
            def truth(n):
                dims = [support.dim_oracle(oracles.to_dimcalc(self.dimcalc, m(n)))
                        for m in (x, y)]
                return dims[0] <= dims[1]
            return f"dim({x_text}) <= dim({y_text})", truth
        order = support.pointwise_leq if form == "leq" else support.pointwise_eq

        def truth(n):
            dx, dy = (oracles.to_dimcalc(self.dimcalc, m(n)) for m in (x, y))
            primes = _oracle_primes(support, dx, dy)
            return order(dx, dy, primes)

        return f"{x_text} {'<=' if form == 'leq' else '=='} {y_text}", truth


def _oracle_primes(support, *types) -> tuple[int, ...]:
    primes = set(support.ORACLE_PRIMES)
    for d in types:
        primes |= set(d.exception_primes())
    return tuple(sorted(primes))


class Language:
    """Seeded texts through ``parse``, ``evaluate_expr`` and ``render``, plus
    generated scenario files through ``Scenario.from_text`` and
    ``run_scenario`` over a range of n."""

    name = "language"
    setup_call = "dimcalc.render(dimcalc.evaluate_expr(dimcalc.parse('C(1)')))"
    POOL = 1200
    MUTATED = 0.25  # share of the pool: one-character mutations of a text
    MUTATION_CORPUS = "language:mutations"  # seeds the rng of the mutated texts
    SCENARIOS = 0.04  # share of the pool: scenario files
    N_SPAN = 5  # values of n per scenario item
    CLI_N = (6, 9)
    CLI_CLAIMS = 12

    def __init__(self, dimcalc, support, seed: int, outdir: Path):
        self.dimcalc = dimcalc
        self.support = support
        self.errors = (dimcalc.ParseError, dimcalc.TypeMismatchError,
                       dimcalc.ValidityError, dimcalc.EvaluationError)
        # fixed counts of each kind, so that seeds differ in content, not mix
        scenarios = int(self.POOL * self.SCENARIOS)
        expressions = ["type"] * int(self.POOL * 0.38) + ["int"] * int(self.POOL * 0.15)
        expressions += ["bool"] * (self.POOL - scenarios - len(expressions))
        # The mutations are one fixed corpus for every seed, so that the
        # known unpositioned-error defects give every seed the same
        # fail_ratio and any change in their number shows.
        fixed = random.Random(self.MUTATION_CORPUS)
        fixed.shuffle(expressions)
        mutated = int(self.POOL * self.MUTATED)
        corpus_texts = _Texts(dimcalc, fixed, param=False)
        corpus = [("mutated", _mutate(fixed, _source(corpus_texts, support, kind)), None)
                  for kind in expressions[:mutated]]
        rng = random.Random(f"language:{seed}")
        texts = _Texts(dimcalc, rng, param=False)
        kinds = ["scenario"] * scenarios + ["mutated"] * mutated + expressions[mutated:]
        rng.shuffle(kinds)
        self.items = []
        for kind in kinds:
            if kind == "mutated":
                self.items.append(corpus.pop())
            elif kind == "scenario":
                self.items.append(_draw(lambda: self._scenario(rng, support)))
            else:
                self.items.append(_draw(lambda: self._expression(texts, support, kind)))
        self.trace_items = self.items[:120]
        path = outdir / "language.scenario"
        path.write_text(self._cli_scenario(rng, support), encoding="utf-8")
        first, last = self.CLI_N
        self.cli_args = ["verify", "--scenario", str(path), "--n", f"{first}..{last}",
                         "--format", "structured"]

    def _expression(self, texts: _Texts, support, kind: str):
        if kind == "type":
            text, value = texts.type_expr(texts.rng.randint(0, 2))
            return ("type", text, value(0))
        if kind == "int":
            text, value = texts.type_expr(texts.rng.randint(0, 2))
            dim = support.dim_oracle(oracles.to_dimcalc(self.dimcalc, value(0)))
            # where the two oracles disagree no answer can match
            return ("int", f"dim({text})", dim if dim == value(0).dim() else None)
        text, truth = texts.comparison(support)
        return ("bool", text, truth(0))

    def _claims(self, rng, support, count: int, n_range, all_true: bool):
        texts = _Texts(self.dimcalc, rng, param=True)
        claims = []
        while len(claims) < count:
            try:
                text, truth = texts.comparison(support)
                verdicts = tuple(truth(n) for n in n_range)
            except ModelError:
                continue
            if all_true and not all(verdicts):
                continue
            claims.append((text, verdicts))
        return claims

    def _scenario(self, rng, support):
        first = rng.randint(6, 10)
        n_range = range(first, first + self.N_SPAN)
        claims = self._claims(rng, support, rng.randint(3, 5), n_range, all_true=False)
        text = "# generated claims\n\n" + "\n".join(c for c, _ in claims) + "\n"
        return ("scenario", text, (tuple(n_range), tuple(v for _, v in claims)))

    def _cli_scenario(self, rng, support) -> str:
        first, last = self.CLI_N
        claims = self._claims(rng, support, self.CLI_CLAIMS, range(first, last + 1),
                              all_true=True)
        return "\n".join(c for c, _ in claims) + "\n"

    def run(self, item):
        kind, text, _ = item
        dc = self.dimcalc
        if kind == "scenario":
            scenario = dc.Scenario.from_text("generated", text)
            return [dc.run_scenario(scenario, {"n": n}) for n in item[2][0]]
        value = dc.evaluate_expr(dc.parse(text))
        return value, dc.render(value, "pretty"), dc.render(value, "structured")

    def size(self, item) -> int:
        return 1

    def check(self, item, outcome, first: bool):
        kind, text, expected = item
        if isinstance(outcome, Exception):
            digest = f"{type(outcome).__name__}: {outcome}"
            if kind == "mutated":
                return (0 if self._positioned(outcome) else 1), False, digest
            return 1, True, digest
        if kind == "scenario":
            n_values, verdicts = expected
            got = tuple(tuple(r.passed for r in report.results) for report in outcome)
            want = tuple(tuple(v[i] for v in verdicts) for i in range(len(n_values)))
            ok = got == want and all(dict(r.bindings) == {"n": n}
                                     for r, n in zip(outcome, n_values))
            return (0 if ok else 1), not ok, "\n".join(r.render("structured") for r in outcome)
        value, pretty, structured = outcome
        digest = pretty + "\n" + structured
        if kind == "mutated":
            return 0, False, digest
        ok = (pretty, structured) == _expected_renders(kind, expected)
        if ok and first and kind == "type":
            d = oracles.to_dimcalc(self.dimcalc, expected)
            ok = self.support.pointwise_eq(value, d, _oracle_primes(self.support, value, d))
        return (0 if ok else 1), not ok, digest

    def _positioned(self, err: Exception) -> bool:
        """One error with a line and column, as the README promises."""
        line, column = getattr(err, "line", None), getattr(err, "column", None)
        return (isinstance(err, self.errors) and isinstance(line, int)
                and isinstance(column, int)
                and str(err).endswith(f"(line {line}, column {column})"))

    def check_cli(self, code: int, stdout: str) -> bool:
        reports = json.loads(stdout)
        first, last = self.CLI_N
        return code == 0 and [r["bindings"] for r in reports] == [
            {"n": n} for n in range(first, last + 1)
        ] and all(r["passed"] and len(r["claims"]) == self.CLI_CLAIMS for r in reports)


def _expected_renders(kind: str, expected) -> tuple[str, str]:
    if kind == "type":
        return expected.text(), json.dumps(expected.tree(), sort_keys=True)
    if kind == "int":
        return str(expected), json.dumps({"kind": "extnat", "value": expected}, sort_keys=True)
    return ("true" if expected else "false"), json.dumps(
        {"kind": "boolean", "value": expected}, sort_keys=True)


def _source(texts: _Texts, support, kind: str) -> str:
    """An expression text of ``kind`` to mutate; its value may be undefined."""
    if kind == "bool":
        return texts.comparison(support)[0]
    text = texts.type_expr(texts.rng.randint(0, 2))[0]
    return f"dim({text})" if kind == "int" else text


def _draw(make):
    """``make()``, drawn again while the generator hits an undefined value."""
    while True:
        try:
            return make()
        except ModelError:
            continue


def _mutate(rng: random.Random, text: str) -> str:
    while True:
        i = rng.randrange(len(text))
        op = rng.choice(("replace", "delete", "insert"))
        c = rng.choice(_MUTATION_ALPHABET)
        if op == "replace":
            out = text[:i] + c + text[i + 1:]
        elif op == "delete":
            out = text[:i] + text[i + 1:]
        else:
            out = text[:i] + c + text[i:]
        if out != text and out.strip():
            return out


# -- groups -------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97)
_SQRT_STRATA = 40  # strata of sqrt(p) for large primes; trial division costs ~sqrt(p)


class _Deck:
    """Draws from shuffled copies of a fixed list, so that every seed's pool
    holds the same values in the same proportions."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _shares(share: tuple[int, int]) -> list[bool]:
    hits, out_of = share
    return [True] * hits + [False] * (out_of - hits)


class Groups:
    """``bockstein_basis`` and ``dim_with_coefficients`` on seeded direct sums.

    Moduli and relation matrices carry at most one prime factor near 10^6
    per invariant factor, so trial division stays bounded; integers near
    10^18 are left out on purpose (see ``bench/meta.json``).
    """

    name = "groups"
    setup_call = "dimcalc.bockstein_basis(dimcalc.Cyclic(2))"
    POOL = 400
    CLI_GROUPS = 6
    # The mix is set so that one pass reproduces the profile this workload
    # stands for (cProfile self time, see bench/meta.json): is_prime ~50% of
    # self time and ~85 is_prime calls per group.  Calls grow with the primes
    # in a group's basis, so groups are small; their cost per call grows with
    # sqrt(p), so few primes are large.
    SIZES = (2, 2, 3)  # summands per group, in these proportions
    KINDS = (("cyclic", 25), ("circle", 10), ("loc", 10), ("free", 20), ("Q", 15),
             ("pres", 20))  # percent of all summands
    BIG_PRIME = (1, 4)  # share of Zpinf(p) and Zloc(p) primes drawn large
    BIG_FACTOR = (1, 10)  # share of moduli and presentations given a large prime factor
    CYCLIC_SMALL_FACTORS = (1, 1)  # range of small prime powers in a modulus

    def __init__(self, dimcalc, support, seed: int, outdir: Path):
        from sympy import nextprime

        self.dimcalc = dimcalc
        self.nextprime = nextprime
        rng = random.Random(f"groups:{seed}")
        self.strata = _Deck(rng, range(_SQRT_STRATA))
        self.big = _Deck(rng, _shares(self.BIG_PRIME))
        self.big_factor = _Deck(rng, _shares(self.BIG_FACTOR))
        # fixed counts of summand kinds and of group sizes, shuffled per seed
        sizes = [self.SIZES[i % len(self.SIZES)] for i in range(self.POOL)]
        deck = []
        for kind, share in self.KINDS:
            deck += [kind] * round(sum(sizes) * share / 100)
        deck += ["cyclic"] * (sum(sizes) - len(deck))
        rng.shuffle(deck)
        self.items, summands = [], []
        for size in sizes:
            kinds, deck = deck[:size], deck[size:]
            item, parts = self._item(rng, kinds)
            self.items.append(item)
            summands.append(parts)
        self.trace_items = self.items[:40]
        # the CLI takes the sum of the first groups, so its work varies little by seed
        first = range(self.CLI_GROUPS)
        self.cli_basis = oracles.expected_basis([s for i in first for s in summands[i]])
        self.cli_args = ["sigma", " + ".join(self.items[i][0] for i in first),
                         "--format", "structured"]

    def _big_prime(self, rng) -> int:
        """A prime in [10^3, 10^6], stratified in sqrt(p)."""
        low, high = 1000 ** 0.5, 1000
        width = (high - low) / _SQRT_STRATA
        root = low + width * (self.strata.draw() + rng.random())
        return int(self.nextprime(int(root * root)))

    def _prime(self, rng) -> int:
        return self._big_prime(rng) if self.big.draw() else rng.choice(_SMALL_PRIMES)

    def _smooth(self, rng, factors: int) -> int:
        out = 1
        for _ in range(factors):
            out *= rng.choice(_SMALL_PRIMES) ** rng.randint(1, 2)
        return out

    def _summand(self, rng, kind: str):
        dc = self.dimcalc
        if kind == "cyclic":
            m = self._smooth(rng, rng.randint(*self.CYCLIC_SMALL_FACTORS))
            if self.big_factor.draw():
                m *= self._big_prime(rng)
            return dc.Cyclic(m), oracles.cyclic_summand(m)
        if kind == "circle":
            p = self._prime(rng)
            return dc.PadicCircle(p), oracles.Summand(f"Zpinf({p})", None, ((p, True),))
        if kind == "loc":
            p = self._prime(rng)
            return dc.LocalizedIntegers(p), oracles.Summand(f"Zloc({p})", p, ())
        if kind == "free":
            r = rng.randint(0, 3)
            return dc.Free(r), oracles.Summand(f"Z^{r}", "free" if r else None, ())
        if kind == "Q":
            return dc.Rationals(), oracles.Summand("Q", "Q", ())
        rows, generators = self._relations(rng)
        return (dc.Presented(generators, tuple(map(tuple, rows))),
                oracles.presented_summand(rows, generators))

    def _relations(self, rng):
        """U * D * V for unimodular U, V and a diagonal D whose last
        nonzero invariant factor may carry one large prime."""
        g = rng.randint(2, 3)
        r = rng.randint(g - 1, g + 1)
        nonzero = rng.randint(1, min(r, g))
        diag, d = [], self._smooth(rng, rng.randint(0, 1))
        for i in range(nonzero):
            d *= self._smooth(rng, rng.randint(0, 1))
            diag.append(d)
        if self.big_factor.draw():
            diag[-1] *= self._big_prime(rng)
        m = [[diag[i] if i == j and i < nonzero else 0 for j in range(g)] for i in range(r)]
        for _ in range(3):  # row operations: U
            i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
            c = rng.randint(-3, 3)
            if i != j:
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for _ in range(3):  # column operations: V
            i, j = rng.sample(range(g), 2)
            c = rng.randint(-3, 3)
            for row in m:
                row[i] += c * row[j]
        return m, g

    def _item(self, rng, kinds: list[str]):
        parts, summands = zip(*(self._summand(rng, kind) for kind in kinds))
        group = self.dimcalc.DirectSum(tuple(parts))
        basis = oracles.expected_basis(list(summands))
        marked = sorted({p for s in summands for p, _ in s.torsion}
                        | {s.quotient for s in summands if isinstance(s.quotient, int)})
        model = self._random_type(rng, marked)
        text = " + ".join(s.text for s in summands)
        d = oracles.to_dimcalc(self.dimcalc, model)
        dim = oracles.expected_dim_with_coefficients(model, basis)
        return (text, group, d, basis, dim), summands

    def _random_type(self, rng, marked: list[int]) -> Model:
        q = rng.randint(0, 8)

        def entry():
            sign = rng.choice((MINUS, NONE, PLUS))
            if sign == NONE:
                return q, NONE
            return rng.randint(1 if sign == MINUS else 0, 9), sign

        pool = sorted(set(marked[:4]) | set(rng.sample(_SMALL_PRIMES[:6], 2)))
        primes = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
        return Model.make(q, entry(), {p: entry() for p in primes})

    def run(self, item):
        _, group, d, _, _ = item
        return (self.dimcalc.bockstein_basis(group),
                self.dimcalc.dim_with_coefficients(d, group))

    def size(self, item) -> int:
        return 1

    def check(self, item, outcome, first: bool):
        _, _, _, basis, dim = item
        sigma, got_dim = outcome
        pred = lambda p: (p.default, tuple(sorted(p.exceptions)))
        got = (sigma.rationals, pred(sigma.cyclic), pred(sigma.circle), pred(sigma.localized))
        ok = got == basis and got_dim == dim
        digest = self.dimcalc.render(sigma, "structured") + f"\n{got_dim}"
        return (0 if ok else 1), not ok, digest

    def check_cli(self, code: int, stdout: str) -> bool:
        return code == 0 and json.loads(stdout) == oracles.basis_tree(self.cli_basis)


WORKLOADS = {w.name: w for w in (Laws, Sweep, Language, Groups)}
