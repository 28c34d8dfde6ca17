"""Acceptance suite.

One test per criterion, each printing a single [acceptance] pass/fail
line. Run with `pytest tests/test_acceptance.py -s` to see the lines as
they happen; without -s pytest shows them in the captured-output block.

Budgets are wall-clock seconds and are asserted, not advisory.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from support import (
    EXCEPTION_PRIMES,
    det_invariants,
    dim_oracle,
    pointwise_leq,
)

from dimcalc import (
    Cyclic,
    DecoratedNumber,
    Decoration,
    DimensionType,
    Free,
    PadicCircle,
    ParseError,
    Rationals,
    Scenario,
    TypeMismatchError,
    ValidityError,
    bockstein_basis,
    boltyanskii_type,
    builtin_scenario,
    check_algebra_laws,
    constant,
    evaluate_expr,
    parse,
    render,
    run_scenario,
    smith_normal_form,
)
from dimcalc.harness import random_dimension_type, random_type_above

MINUS, PLUS = Decoration.MINUS, Decoration.PLUS


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_golden_identities():
    with criterion("golden identities, n=6..20"):
        started = time.perf_counter()
        d1 = DimensionType(2, DecoratedNumber(3, MINUS))
        scenario = builtin_scenario("section4")
        for n in range(6, 21):
            d2 = DimensionType(n - 4, DecoratedNumber(n - 5, PLUS))
            assert d1.oplus(d2) + 1 == boltyanskii_type(n)
            assert ((d1 + 1).boxplus(d2)).dim() == n - 1
            assert run_scenario(scenario, {"n": n}).passed
        assert time.perf_counter() - started < 1.0


def test_criterion_2_boltyanskii_square():
    with criterion("square of the extremal type, n=2..12"):
        started = time.perf_counter()
        for n in range(2, 13):
            b = boltyanskii_type(n)
            square = b.boxplus(b)
            assert square.dim() == 2 * n - 1
            assert b.is_boltyanskii(n)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_sigma_examples():
    with criterion("coefficient bases of the named groups"):
        cases = [
            (Free(1), "{Z_(p): all p}"),
            (Rationals(), "{Q}"),
            (PadicCircle(7), "{Z_7^inf}"),
            (Cyclic(2) + Cyclic(12), "{Z_2, Z_3}"),
            (PadicCircle(3) + Cyclic(3), "{Z_3}"),
        ]
        for group, expected in cases:
            assert str(bockstein_basis(group)) == expected
        # membership spot checks behind the rendered strings
        from dimcalc import BocksteinGroup
        sigma = bockstein_basis(Cyclic(2) + Cyclic(12))
        assert BocksteinGroup.cyclic(2) in sigma
        assert BocksteinGroup.cyclic(3) in sigma
        assert BocksteinGroup.cyclic(5) not in sigma
        assert BocksteinGroup.rationals() not in sigma
        sigma = bockstein_basis(PadicCircle(3) + Cyclic(3))
        assert BocksteinGroup.cyclic(3) in sigma
        assert BocksteinGroup.circle(3) not in sigma
        assert BocksteinGroup.localized(3) not in sigma


def test_criterion_4_order_oracle():
    with criterion("order agrees with pointwise evaluation, 10^4 pairs"):
        started = time.perf_counter()
        rng = random.Random("acceptance:order")
        disagreements = 0
        pairs = 0
        for _ in range(6000):
            a = random_dimension_type(rng)
            b = random_dimension_type(rng)
            if (a <= b) != pointwise_leq(a, b):
                disagreements += 1
            pairs += 1
        for _ in range(4000):
            low = random_dimension_type(rng)
            high = random_type_above(rng, low)
            if not (low <= high) or not pointwise_leq(low, high):
                disagreements += 1
            pairs += 1
        assert pairs >= 10_000
        assert disagreements == 0
        assert time.perf_counter() - started < 10.0


def test_criterion_5_algebraic_laws():
    with criterion("algebraic laws, 10^4 samples per law"):
        started = time.perf_counter()
        report = check_algebra_laws(seed=20260814, samples=10_000)
        assert report.passed, report.render()
        names = {law.name for law in report.laws}
        assert names == {
            "boxplus-commutes", "boxplus-associates", "boxplus-identity",
            "star-involutes", "boxplus-closed", "oplus-closed",
            "shift-agreement", "boxplus-below-oplus",
            "monotone-boxplus", "monotone-oplus",
        }
        assert all(law.checked >= 10_000 for law in report.laws)
        digest = hashlib.sha256(report.render("structured").encode()).hexdigest()
        assert digest == "eb43c02ffd2a9413e8c68789f318fb193c3f861688cda76acd9ee461ef49464d"
        pretty = hashlib.sha256(report.render("pretty").encode()).hexdigest()
        assert pretty == "e212eaeed6fa995b439bfec2ad7088e63e852c7218012669d770b7b46d5fdd6c"
        assert time.perf_counter() - started < 10.0


def test_criterion_6_snf_oracle():
    with criterion("normal form agrees with minor-gcd oracle, 10^4 matrices"):
        started = time.perf_counter()
        rng = random.Random("acceptance:snf")
        for _ in range(10_000):
            rows = rng.randint(0, 4)
            cols = rng.randint(1, 4)
            matrix = [[rng.randint(-6, 6) for _ in range(cols)]
                      for _ in range(rows)]
            assert smith_normal_form(matrix, cols) == det_invariants(matrix, cols)
        assert time.perf_counter() - started < 30.0


def test_criterion_7_cube_sweep_cli():
    with criterion("cube sweep finds no counterexamples"):
        started = time.perf_counter()
        for args in (("--n", "6", "--bound", "8"), ("--n", "4", "--bound", "6")):
            proc = subprocess.run(
                [sys.executable, "-m", "dimcalc", "sweep", "--cube", *args],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert "counterexamples: none" in proc.stdout
        assert time.perf_counter() - started < 10.0


def test_criterion_8_round_trip_and_diagnostics():
    with criterion("parse after render is the identity, 10^4 values"):
        rng = random.Random("acceptance:roundtrip")
        for _ in range(10_000):
            d = random_dimension_type(rng)
            assert evaluate_expr(parse(render(d))) == d
            assert json.loads(render(d, "structured"))["kind"] == "dimension-type"
        malformed = [
            "", "B(", "DT{q=2}", "DT{q=2; *=5}", "dim(Q)", "5 boxplus 5",
            "B(0)", "Zpinf(4)", "{q=0; *=0-}", "B(4) oplus B(4) boxplus B(4)",
        ]
        for text in malformed:
            try:
                parse(text)
            except (ParseError, TypeMismatchError, ValidityError) as err:
                assert "(line " in str(err)
                assert err.line >= 1 and err.column >= 1
            else:
                raise AssertionError(f"{text!r} parsed but should not")


def test_acceptance_footer():
    # keep the sanity anchors of the whole suite in one visible place
    with criterion("anchors"):
        assert boltyanskii_type(6).dim() == 6
        assert constant(0).boxplus(constant(0)) == constant(0)
        assert dim_oracle(boltyanskii_type(6), EXCEPTION_PRIMES) == 6
