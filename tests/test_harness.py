"""Verification harness: bounds, scenarios, the cube sweep, and the law checker."""

import hashlib
import itertools
import json
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings

from support import (
    dimension_types,
    dominating_pairs,
    entries_above,
    type_above_by_enumeration,
)

from dimcalc import (
    INF,
    DecoratedNumber,
    Decoration,
    DimensionType,
    EvaluationError,
    ParseError,
    Scenario,
    ValidityError,
    boltyanskii_type,
    builtin_scenario,
    builtin_scenario_names,
    check_algebra_laws,
    constant,
    cube_theorem_sweep,
    decomposition_bound_holds,
    evaluate_expr,
    fiber_bound,
    parse,
    random_dimension_type,
    random_type_above,
    render,
    run_scenario,
    uniform_types,
    union_bound,
)
from dimcalc.cli import main
from dimcalc.exprs import fields_tree, to_json
from dimcalc.harness import LawReport, LawResult, SweepReport

D1 = evaluate_expr(parse("DT{q=2; *=3-}"))


def d2_for(n):
    return evaluate_expr(parse("DT{q=n-4; *=(n-5)+}"), {"n": n})


class TestBounds:
    def test_union_bound_recovers_square_type(self):
        for n in range(6, 21):
            assert union_bound(D1, d2_for(n)) == boltyanskii_type(n)

    def test_union_bound_constants(self):
        assert union_bound(constant(1), constant(1)) == constant(3)
        assert union_bound(constant(2), constant(5)) == constant(8)

    @given(dominating_pairs(star_safe=True), dimension_types(star_safe=True))
    def test_union_bound_monotone(self, pair, other):
        low, high = pair
        assert union_bound(low, other) <= union_bound(high, other)

    def test_fiber_bound_identity(self):
        d = evaluate_expr(parse("DT{q=4; *=3+; 5=6-}"))
        assert fiber_bound(constant(0), d) == d

    def test_fiber_bound_dominates_boxplus(self):
        rng = random.Random("fiber-bound")
        from dimcalc.harness import random_dimension_type
        for _ in range(200):
            a = random_dimension_type(rng, star_safe=True)
            b = random_dimension_type(rng, star_safe=True)
            assert a.boxplus(b) <= fiber_bound(a, b)

    def test_decomposition_bound(self):
        for n in range(6, 13):
            assert decomposition_bound_holds(boltyanskii_type(n), D1, d2_for(n))
        assert decomposition_bound_holds(constant(3), constant(1), constant(1))
        assert not decomposition_bound_holds(constant(4), constant(1), constant(1))


class TestScenarioParsing:
    TEXT = """\
# the two identities, parameterized
(DT{q=2; *=3-} oplus DT{q=n-4; *=(n-5)+}) + 1 == B(n)

dim((DT{q=2; *=3-} + 1) boxplus DT{q=n-4; *=(n-5)+}) == n - 1
"""

    def test_from_text(self):
        scenario = Scenario.from_text("pair", self.TEXT)
        assert scenario.name == "pair"
        assert scenario.parameters == ("n",)
        assert len(scenario.claims) == 2
        assert scenario.claims[0].text.endswith("== B(n)")

    def test_comment_and_blank_lines_skipped(self):
        scenario = Scenario.from_text("small", "# nothing\n\n5 == 5\n")
        assert scenario.parameters == ()
        assert len(scenario.claims) == 1

    def test_non_comparison_rejected_with_file_line(self):
        with pytest.raises(ParseError, match=r"comparison.*line 3"):
            Scenario.from_text("bad", "# intro\n\nB(4) boxplus B(4)\n")

    def test_parse_error_carries_file_line(self):
        with pytest.raises(ParseError, match=r"line 2"):
            Scenario.from_text("bad", "5 == 5\nB( == 3\n")

    def test_from_path(self, tmp_path):
        path = tmp_path / "pair.claims"
        path.write_text(self.TEXT, encoding="utf-8")
        scenario = Scenario.from_path(path)
        assert scenario.name == "pair"
        assert run_scenario(scenario, {"n": 6}).passed

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"], ids=ascii)
    def test_only_cr_and_lf_break_lines(self, brk, tmp_path):
        # str.splitlines also breaks at these; the tokenizer reads them as whitespace
        scenario = Scenario.from_text("ws", f"C(1) <={brk} C(2)\n")
        assert [c.text for c in scenario.claims] == [f"C(1) <={brk} C(2)"]
        assert run_scenario(scenario).passed
        path = tmp_path / "ws.claims"
        path.write_text(f"# {brk}\n5 == 5{brk}\n\nB( == 3\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"\(line 4, column 4\)$"):
            Scenario.from_path(path)
        path.write_bytes(f"5 == 5{brk}\n".encode() + b"caf\xe9")
        with pytest.raises(ParseError, match=r"not UTF-8.*\(line 2, column 4\)$"):
            Scenario.from_path(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_files_keep_their_line_numbers(self, newline, tmp_path):
        path = tmp_path / "eol.claims"
        path.write_bytes(newline.join(["# one", "5 == 5", "", "B( == 3", ""]).encode())
        with pytest.raises(ParseError, match=r"\(line 4, column 4\)$"):
            Scenario.from_path(path)
        path.write_bytes(newline.join(["5 == 5", "caf\u00e9"]).encode("latin-1"))
        with pytest.raises(ParseError, match=r"not UTF-8.*\(line 2, column 4\)$"):
            Scenario.from_path(path)

    def test_empty_scenario_passes(self):
        report = run_scenario(Scenario.from_text("empty", "# only comments\n"))
        assert report.passed
        assert report.results == ()


class TestBuiltinScenarios:
    def test_names(self):
        assert list(builtin_scenario_names()) == ["boltyanskii-square", "section4"]
        with pytest.raises(KeyError):
            builtin_scenario("unknown")

    def test_section4_holds_across_range(self):
        scenario = builtin_scenario("section4")
        for n in range(6, 21):
            report = run_scenario(scenario, {"n": n})
            assert report.passed, report.render()

    def test_boltyanskii_square_holds(self):
        scenario = builtin_scenario("boltyanskii-square")
        for n in range(2, 13):
            assert run_scenario(scenario, {"n": n}).passed

    def test_boltyanskii_square_holds_at_one(self):
        assert run_scenario(builtin_scenario("boltyanskii-square"), {"n": 1}).passed

    def test_unknown_name_lists_the_builtins(self, capsys):
        assert main(["verify", "--scenario", "nosuch"]) == 2
        assert capsys.readouterr() == ("", "error: no builtin scenario or file named 'nosuch' "
                                           "(builtins: boltyanskii-square, section4, laws)\n")

    def test_failing_claim_reports_both_sides(self):
        report = run_scenario(Scenario.from_text("off", "B(4) == C(4)\n"))
        assert not report.passed
        text = report.render()
        assert "FAIL" in text
        assert "{q=3; *=3+}" in text
        assert "{q=4; *=4}" in text
        assert text.splitlines()[-1] == "result: FAIL (0/1 claims)"

    def test_missing_binding(self):
        scenario = builtin_scenario("section4")
        with pytest.raises(EvaluationError, match=r"needs bindings for: n"):
            run_scenario(scenario)

    def test_claim_errors_name_the_claim(self):
        scenario = builtin_scenario("section4")
        # n=3 makes a negative entry base inside a literal
        with pytest.raises(EvaluationError, match=r"claim '"):
            run_scenario(scenario, {"n": 3})
        # n=5 builds 0+ which has no mirror image under oplus
        with pytest.raises(EvaluationError, match=r"claim '"):
            run_scenario(scenario, {"n": 5})

    def test_claim_errors_carry_the_file_line(self):
        scenario = Scenario.from_text("shifts", "C(1) == C(1)\nC(1) + n == C(0)\n")
        with pytest.raises(EvaluationError) as info:
            run_scenario(scenario, {"n": -1})
        assert (info.value.line, info.value.column) == (2, 6)
        assert str(info.value).startswith("claim 'C(1) + n == C(0)': shift must be")
        assert str(info.value).endswith("(line 2, column 6)")

    def test_report_rendering_deterministic(self):
        scenario = builtin_scenario("section4")
        first = run_scenario(scenario, {"n": 7})
        second = run_scenario(scenario, {"n": 7})
        assert first.render() == second.render()
        assert first.render("structured") == second.render("structured")

    def test_pretty_report_shape(self):
        report = run_scenario(builtin_scenario("section4"), {"n": 6})
        lines = report.render().splitlines()
        assert lines[0] == "scenario section4 [n=6]"
        assert lines[1].startswith("  pass  ")
        assert lines[-1] == "result: pass (2/2 claims)"

    def test_structured_report_tree(self):
        report = run_scenario(builtin_scenario("boltyanskii-square"), {"n": 4})
        tree = report.tree()
        assert tree["kind"] == "scenario-report"
        assert tree["bindings"] == {"n": 4}
        assert tree["passed"] is True
        assert len(tree["claims"]) == 3
        assert all(claim["passed"] for claim in tree["claims"])
        assert tree["claims"][0]["op"] == "eq"


class TestMissingBindings:
    """The "needs bindings" error is placed at the first use, in text
    order, of a parameter left unbound."""

    def error_line(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        return err

    def test_builtin_scenario(self, capsys):
        err = self.error_line(["verify", "--scenario", "section4"], capsys)
        assert err == "error: scenario 'section4' needs bindings for: n (line 2, column 27)\n"

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "late.claims"
        path.write_text("# k is read on line 3 only\n"
                        "C(n) <= C(n + 1)\n"
                        "C(n) + k <= C(n + k)\n", encoding="utf-8")
        err = self.error_line(["verify", "--scenario", str(path), "--n", "4"], capsys)
        assert err == "error: scenario 'late' needs bindings for: k (line 3, column 8)\n"
        err = self.error_line(["verify", "--scenario", str(path)], capsys)
        assert err == "error: scenario 'late' needs bindings for: k, n (line 2, column 3)\n"

    def test_error_carries_the_place(self):
        scenario = Scenario.from_text("late", "C(1) == C(1)\nC(1) + m == C(n)\n")
        with pytest.raises(EvaluationError) as info:
            run_scenario(scenario, {"n": 1})
        assert (info.value.line, info.value.column) == (2, 8)


@pytest.mark.parametrize("report", [
    cube_theorem_sweep(6, 8),
    check_algebra_laws(seed=1, samples=5),
    run_scenario(builtin_scenario("section4"), {"n": 6}),
], ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("format", ["yaml", "json", "Pretty", ""])
def test_reports_reject_unknown_formats(report, format):
    with pytest.raises(ValueError, match=f"unknown format '{format}'"):
        report.render(format)
    with pytest.raises(ValueError, match=f"unknown format '{format}'"):
        render(constant(1), format)


def test_golden_outputs(capsys):
    """Byte-identical CLI output: sha256 of stdout, final newline included."""
    golden = {
        ("verify", "--scenario", "section4", "--n", "6..20", "--format", "structured"):
            "45f5fb71c101ff59f1733127bd53b41455699f32218b352d2e635026837acc71",
        ("sweep", "--cube", "--n", "6", "--bound", "8", "--format", "structured"):
            "944e58327fa7ef45aeed0c83c32230c8afd79ec7ef04488ce4b836288ae539cf",
        ("verify", "--scenario", "section4", "--n", "6..20"):
            "b9a53cf346cf33bb322a27410e1b6ae182872b19d925d2b2f052e6ec9a396373",
        ("sweep", "--cube", "--n", "6", "--bound", "8"):
            "9793eac869d4f14d391a543f573eddcf519f4b486dd4d2aba7f1f212ef4a6997",
    }
    for argv, digest in golden.items():
        assert main(list(argv)) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class TestUniformTypes:
    def test_counts(self):
        # per q in 0..2: one regular, plus bases, minus bases
        assert len(list(uniform_types(2))) == 18
        assert len(list(uniform_types(0))) == 2

    def test_dim2_grid(self):
        grid = [d for d in uniform_types(2) if d.dim() == 2]
        assert len(grid) == 9
        texts = {str(d) for d in grid}
        assert "{q=2; *=2}" in texts
        assert "{q=0; *=2-}" in texts
        assert "{q=1; *=1+}" in texts

    def test_all_uniform(self):
        for d in uniform_types(3):
            assert d.exceptions == ()


class TestCubeSweep:
    def test_known_ranges_pass(self):
        report = cube_theorem_sweep(6, 8)
        assert report.passed
        assert (report.dim2_count, report.fiber_count) == (9, 50)
        assert report.pairs_checked == 450
        assert report.counterexamples == ()

        report = cube_theorem_sweep(4, 6)
        assert report.passed
        assert (report.dim2_count, report.fiber_count) == (9, 50)

    def test_vacuous_when_bound_too_small(self):
        report = cube_theorem_sweep(6, 3)
        assert report.fiber_count == 0
        assert report.pairs_checked == 0
        assert report.passed

    def test_rendering(self):
        report = cube_theorem_sweep(6, 8)
        text = report.render()
        assert text.splitlines()[0] == "cube sweep: n=6, base bound 8"
        assert "counterexamples: none" in text
        assert text.splitlines()[-1] == "result: pass"
        tree = report.tree()
        assert tree["kind"] == "sweep-report"
        assert tree["pairs_checked"] == 450

    @pytest.mark.parametrize("n", range(4, 15))
    def test_fibers_match_the_full_grid(self, n):
        from dimcalc.harness import _uniform_types
        # oracle: the whole uniform grid from 0, filtered by the floor
        floor = constant(n - 2)
        for bound in range(19):
            report = cube_theorem_sweep(n, bound)
            fibers = [d for d in uniform_types(bound) if floor <= d]
            assert report.fiber_count == len(fibers) == 2 * max(0, bound - n + 3) ** 2
            assert list(_uniform_types(n - 2, bound)) == fibers
            assert report.pairs_checked == 9 * report.fiber_count
            assert report.passed

    def test_validation(self):
        with pytest.raises(ValidityError):
            cube_theorem_sweep(3, 8)
        with pytest.raises(ValidityError):
            cube_theorem_sweep(6, -1)

    # the dimension-2 base types and the fibers of the n=4, bound 2 grid, in order
    DIM2 = ["{q=0; *=1+}", "{q=0; *=2-}", "{q=1; *=1+}", "{q=1; *=2-}", "{q=2; *=2}",
            "{q=2; *=0+}", "{q=2; *=1+}", "{q=2; *=1-}", "{q=2; *=2-}"]
    FIBERS = ["{q=2; *=2}", "{q=2; *=2+}"]

    def test_failing_product_dimension(self, monkeypatch, capsys):
        monkeypatch.setattr(DimensionType, "boxplus", lambda self, other: constant(0))
        assert main(["sweep", "--cube", "--n", "4", "--bound", "2"]) == 1
        lines = ["cube sweep: n=4, base bound 2", "  dim-2 base types: 9",
                 "  fiber types at least constant(2): 2", "  pairs checked: 18",
                 "  counterexamples: 18",
                 *(f"    product dimension: dim({y} boxplus {f}) < 4"
                   for y in self.DIM2 for f in self.FIBERS),
                 "result: FAIL"]
        assert capsys.readouterr() == ("\n".join(lines) + "\n", "")

    def test_failing_shift_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(DimensionType, "is_full_valued", lambda self: False)
        assert main(["sweep", "--cube", "--n", "4", "--bound", "1"]) == 1
        assert capsys.readouterr() == (
            "cube sweep: n=4, base bound 1\n  dim-2 base types: 9\n"
            "  fiber types at least constant(2): 0\n  pairs checked: 0\n"
            "  counterexamples: 1\n    shift bound: constant(3) <= {q=2; *=2} + 1\n"
            "result: FAIL\n", "")

    def test_a_product_that_raises_is_a_counterexample(self, monkeypatch, capsys):
        # a broken sign table: two minus marks multiply to a bare mark, so a
        # product of two minus entries is invalid unless its bases sum to q
        import dimcalc.decorated as decorated

        minus = Decoration.MINUS
        monkeypatch.setitem(decorated._PRODUCT, (minus, minus), Decoration.NONE)
        assert main(["sweep", "--cube", "--n", "4", "--bound", "3"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        dim2 = [d for d in uniform_types(2) if d.dim() == 2]
        fibers = [d for d in uniform_types(3) if constant(2) <= d]
        raised = [
            f"product dimension: {y} boxplus {f}: error: default entry "
            f"{y.default.base + f.default.base} is undecorated but differs from "
            f"the value {y.rational + f.rational} at Q"
            for y in dim2 for f in fibers
            if y.default.decoration is f.default.decoration is minus
            and y.default.base + f.default.base != y.rational + f.rational]
        assert len(raised) == 6
        assert cube_theorem_sweep(4, 3).counterexamples == tuple(raised)
        assert out.endswith("".join(f"    {c}\n" for c in raised) + "result: FAIL\n")

    def test_failure_rendering(self):
        report = SweepReport(6, 8, 9, 50, 450, ("product dimension: dim(x) < 6",))
        assert not report.passed
        assert "result: FAIL" in report.render()
        assert "product dimension" in report.render()


class TestAlgebraLaws:
    def test_smoke(self):
        report = check_algebra_laws(seed=7, samples=300)
        assert report.passed
        assert len(report.laws) == 10
        assert all(law.checked == 300 for law in report.laws)

    def test_law_names(self):
        report = check_algebra_laws(seed=0, samples=10)
        assert [law.name for law in report.laws] == [
            "boxplus-commutes",
            "boxplus-associates",
            "boxplus-identity",
            "star-involutes",
            "boxplus-closed",
            "oplus-closed",
            "shift-agreement",
            "boxplus-below-oplus",
            "monotone-boxplus",
            "monotone-oplus",
        ]

    def test_same_seed_same_report(self):
        a = check_algebra_laws(seed=11, samples=100)
        b = check_algebra_laws(seed=11, samples=100)
        assert a.render() == b.render()
        assert a.render("structured") == b.render("structured")

    def test_rendering(self):
        report = check_algebra_laws(seed=2, samples=50)
        text = report.render()
        assert text.splitlines()[0] == "algebra laws: seed=2, samples=50"
        assert text.splitlines()[-1] == "result: pass (10/10 laws)"
        tree = report.tree()
        assert tree["kind"] == "law-report"
        assert tree["passed"] is True

    def test_failure_rendering(self):
        broken = LawResult("boxplus-commutes", 5, ("a=..., b=...",))
        report = LawReport(0, 5, (broken,))
        assert not report.passed
        text = report.render()
        assert "FAIL" in text
        assert "a=..., b=..." in text
        assert text.splitlines()[-1] == "result: FAIL (0/1 laws)"

    def test_five_failures_kept_when_every_sample_fails(self, monkeypatch):
        # each broken sum is a constant no earlier call returned, so the
        # first three laws fail on every sample
        fresh = itertools.count()
        monkeypatch.setattr(DimensionType, "boxplus", lambda self, other: constant(next(fresh)))
        report = check_algebra_laws(seed=0, samples=20)
        assert [(law.name, law.checked, len(law.failures)) for law in report.laws[:3]] == [
            ("boxplus-commutes", 20, 5), ("boxplus-associates", 20, 5),
            ("boxplus-identity", 20, 5)]

    def test_a_law_that_raises_fails_and_the_run_goes_on(self, monkeypatch, capsys):
        # a broken sign table: two bare marks multiply to a minus, so a sum
        # with a bare entry at base 0 would be 0-, which no entry can be
        import dimcalc.decorated as decorated

        monkeypatch.setitem(decorated._PRODUCT, (Decoration.NONE, Decoration.NONE),
                            Decoration.MINUS)
        assert main(["verify", "--scenario", "laws", "--seed", "1", "--samples", "200"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        tree = check_algebra_laws(seed=1, samples=200).tree()
        assert [law["name"] for law in tree["laws"] if not law["passed"]] == [
            "boxplus-associates", "boxplus-identity", "boxplus-closed", "shift-agreement"]
        for law in tree["laws"]:
            assert (f"  FAIL  {law['name']} " in out) is not law["passed"]
        raised = "error: 0- is not a representable decorated number"
        # boxplus-closed fails only by raising: each sample is its two operands and the message
        closed = next(law for law in tree["laws"] if law["name"] == "boxplus-closed")
        assert len(closed["failures"]) == 2
        for failure in closed["failures"]:
            assert re.fullmatch(r"\{[^{}]*\}, \{[^{}]*\}, " + re.escape(raised), failure)
            assert f"        {failure}\n" in out
        identity = next(law for law in tree["laws"] if law["name"] == "boxplus-identity")
        assert any(failure.endswith(", " + raised) for failure in identity["failures"])

    def test_operand_stream_is_pinned(self, monkeypatch):
        # the report's hash covers names, counts and failures only, so
        # while every law passes a reordered draw would go unseen
        import dimcalc.harness as harness

        drawn = []

        def recorded(generate):
            def wrapper(*args, **kwargs):
                result = generate(*args, **kwargs)
                drawn.append(str(result))
                return result
            return wrapper

        monkeypatch.setattr(harness, "random_dimension_type",
                            recorded(harness.random_dimension_type))
        monkeypatch.setattr(harness, "random_type_above", recorded(harness.random_type_above))
        assert check_algebra_laws(seed=1, samples=50).passed
        assert len(drawn) == 1100
        assert hashlib.sha256("\n".join(drawn).encode()).hexdigest() == (
            "aaa536af88a6bca5192262331eafe951bc038ac184ca201ac32298c7ab2dc9c3")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_rejected(self, samples, capsys):
        with pytest.raises(ValidityError, match="samples >= 1"):
            check_algebra_laws(samples=samples)
        assert main(["verify", "--scenario", "laws", "--samples", str(samples)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the law suite needs an integer samples >= 1, got {samples}\n"


    def test_below_with_equal_bases(self):
        from dimcalc.harness import _below_with_equal_bases
        minus, plus = Decoration.MINUS, Decoration.PLUS
        low = DimensionType(2, DecoratedNumber(3, minus), {5: DecoratedNumber(4, minus)})
        assert _below_with_equal_bases(
            low, DimensionType(2, DecoratedNumber(3, plus), {5: DecoratedNumber(4, plus)}))
        # a base that moves at the default, at an exception of either side, at Q
        for high in (DimensionType(2, DecoratedNumber(4, minus), {5: DecoratedNumber(4, minus)}),
                     DimensionType(2, DecoratedNumber(3, minus), {5: DecoratedNumber(5, minus)}),
                     DimensionType(2, DecoratedNumber(3, minus), {5: DecoratedNumber(4, minus),
                                                                  7: DecoratedNumber(4, minus)}),
                     DimensionType(3, DecoratedNumber(3, minus), {5: DecoratedNumber(4, minus)})):
            assert low <= high and not _below_with_equal_bases(low, high)
        assert not _below_with_equal_bases(DimensionType(2, DecoratedNumber(3, plus)),
                                           DimensionType(2, DecoratedNumber(3, minus)))


class TestRandomGenerators:
    def test_below_draws_as_randrange(self):
        from dimcalc.harness import _below
        for seed in range(6):
            rng, ref = random.Random(seed), random.Random(seed)
            for n in range(1, 71):
                assert _below(rng, n) == ref.randrange(n)
                assert rng.getrandbits(32) == ref.getrandbits(32)

    def test_random_types_are_canonical(self):
        from dimcalc.harness import _audit_canonical, random_dimension_type
        rng = random.Random("canonical-audit")
        for _ in range(500):
            assert _audit_canonical(random_dimension_type(rng))

    def test_audit_rejects_types_built_past_the_constructor(self):
        from dimcalc.harness import _audit_canonical

        def built(rational, default, exceptions=()):
            d = object.__new__(DimensionType)
            d.rational, d.default, d.exceptions = rational, default, exceptions
            return d

        minus, plus = Decoration.MINUS, Decoration.PLUS
        zero_minus = tuple.__new__(DecoratedNumber, (0, minus))
        default = DecoratedNumber(3, minus)
        assert _audit_canonical(built(2, default, ((3, DecoratedNumber(1, plus)),)))
        for d in (built(2, DecoratedNumber(3)),  # undecorated, but not the value at Q
                  built(2, default, ((3, zero_minus),)),
                  built(2, default, ((5, DecoratedNumber(1, plus)), (3, DecoratedNumber(1, plus)))),
                  built(2, default, ((5, default),))):  # an exception equal to the default
            assert not _audit_canonical(d)

    def test_star_safe_types_mirror(self):
        from dimcalc.harness import random_dimension_type
        rng = random.Random("star-safe")
        for _ in range(300):
            d = random_dimension_type(rng, star_safe=True)
            assert d.star().star() == d

    def test_type_above_dominates(self):
        from dimcalc.harness import random_dimension_type, random_type_above
        rng = random.Random("above")
        for _ in range(300):
            low = random_dimension_type(rng)
            high = random_type_above(rng, low)
            assert low <= high

    def test_star_safe_type_above_mirrors(self):
        # monotone-oplus takes oplus of these, which needs a mirror image
        rng = random.Random("above-star-safe")
        for _ in range(300):
            low = random_dimension_type(rng, star_safe=True)
            high = random_type_above(rng, low, star_safe=True)
            assert high.star().star() == high

    @pytest.mark.parametrize("max_base", [1, 2, 3, 4])
    @pytest.mark.parametrize("star_safe", [False, True])
    def test_type_above_matches_enumeration_exhaustively(self, max_base, star_safe, monkeypatch):
        # every finite valid entry at every value q at Q; the seeds cover
        # every admissible new value at Q, which is drawn first
        monkeypatch.setattr("dimcalc.harness._MAX_BASE", max_base)
        top = max_base + 1
        seeds = range(40)
        for q in range(top + 1):
            assert {random.Random(s).randint(q, top) for s in seeds} == set(range(q, top + 1))
            entries = [DecoratedNumber(q)] + [
                DecoratedNumber(base, mark)
                for base in range(top + 1)
                for mark in (Decoration.MINUS, Decoration.PLUS)
                if base > 0 or mark is Decoration.PLUS]
            for entry in entries:
                low = DimensionType(q, entry)
                for seed in seeds:
                    rng, ref = random.Random(seed), random.Random(seed)
                    got = random_type_above(rng, low, star_safe=star_safe)
                    assert got == type_above_by_enumeration(ref, low, max_base, star_safe)
                    assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("star_safe", [False, True])
    def test_type_above_matches_enumeration_seeded(self, star_safe):
        rng = random.Random(f"above-enumeration:{star_safe}")
        for _ in range(500):
            low = random_dimension_type(rng, star_safe=star_safe)
            ref = random.Random()
            ref.setstate(rng.getstate())
            got = random_type_above(rng, low, star_safe=star_safe)
            assert got == type_above_by_enumeration(ref, low, 12, star_safe)
            assert rng.getstate() == ref.getstate()

    def test_entries_above_sorted_and_dominating(self):
        entry = DecoratedNumber(2, Decoration.PLUS)
        found = entries_above(entry, 4, 4, False)
        assert found == sorted(found) and all(entry <= e for e in found)
        assert [str(e) for e in found] == ["2+", "3-", "3+", "4-", "4", "4+", "5-", "5+"]

    def test_type_above_rejects_an_infinite_entry(self):
        low = DimensionType(3, DecoratedNumber(INF, Decoration.PLUS))
        with pytest.raises(ValidityError, match="finite type"):
            random_type_above(random.Random(0), low)

    def test_type_above_rejects_a_base_beyond_max_base(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValidityError, match="at most 13"):
            random_type_above(rng, constant(14))
        assert rng.getstate() == state
        # the largest admissible value still works
        assert random_type_above(rng, constant(13)).rational == 13


def json_ready(tree):
    """The tree, after checking that it is plain JSON: lists, not tuples."""
    assert tree == json.loads(json.dumps(tree))
    return tree


SCENARIO_KEYS = {"kind", "scenario", "bindings", "passed", "claims"}
CLAIM_KEYS = {"text", "op", "passed", "lhs", "rhs"}
SWEEP_KEYS = {"kind", "passed", "n", "base_bound", "dim2_count", "fiber_count",
              "pairs_checked", "counterexamples"}
LAW_REPORT_KEYS = {"kind", "passed", "seed", "samples", "laws"}
LAW_KEYS = {"name", "checked", "passed", "failures"}
SIGMA_KEYS = {"kind", "rationals", "cyclic", "circle", "localized"}
PREDICATE_KEYS = {"default", "exceptions"}


class TestTrees:
    """Report and sigma-set trees are JSON-ready, with their keys pinned,
    for passing and failing reports alike."""

    @pytest.mark.parametrize("text, passed", [("C(2) boxplus C(3) == C(5)", True),
                                              ("B(4) == C(4)", False)])
    def test_scenario_report(self, text, passed):
        tree = json_ready(run_scenario(Scenario.from_text("one", text + "\n")).tree())
        assert set(tree) == SCENARIO_KEYS and tree["passed"] is passed
        (claim,) = tree["claims"]
        assert set(claim) == CLAIM_KEYS and claim["passed"] is passed

    def test_passing_sweep_report(self):
        tree = json_ready(cube_theorem_sweep(6, 8).tree())
        assert set(tree) == SWEEP_KEYS
        assert tree["counterexamples"] == [] and tree["passed"] is True

    def test_failing_sweep_report(self):
        report = SweepReport(6, 8, 9, 50, 450, ("shift bound: x", "product dimension: y"))
        assert json_ready(report.tree()) == {
            "kind": "sweep-report", "passed": False, "n": 6, "base_bound": 8,
            "dim2_count": 9, "fiber_count": 50, "pairs_checked": 450,
            "counterexamples": ["shift bound: x", "product dimension: y"]}

    def test_passing_law_report(self):
        tree = json_ready(check_algebra_laws(seed=1, samples=5).tree())
        assert set(tree) == LAW_REPORT_KEYS and tree["passed"] is True
        assert len(tree["laws"]) == 10
        assert all(set(law) == LAW_KEYS and law["failures"] == [] for law in tree["laws"])

    def test_failing_law_report(self):
        report = LawReport(0, 5, (LawResult("boxplus-commutes", 5, ("a=..., b=...",)),
                                  LawResult("star-involutes", 5, ())))
        assert json_ready(report.tree()) == {
            "kind": "law-report", "passed": False, "seed": 0, "samples": 5, "laws": [
                {"name": "boxplus-commutes", "checked": 5, "passed": False,
                 "failures": ["a=..., b=..."]},
                {"name": "star-involutes", "checked": 5, "passed": True, "failures": []}]}

    def test_fields_tree_keys_are_the_record_fields(self):
        sigma = evaluate_expr(parse("sigma(Z/12 + Zpinf(5) + Q + Z/2)"))
        laws = check_algebra_laws(seed=1, samples=2)
        records = (sigma, sigma.cyclic, cube_theorem_sweep(6, 8), laws, laws.laws[0])
        assert [type(r).__name__ for r in records] == [
            "SigmaSet", "PrimePredicate", "SweepReport", "LawReport", "LawResult"]
        for record in records:
            assert list(fields_tree(record)) == [f.name for f in fields(record)]

    def test_sigma_set(self):
        tree = json_ready(to_json(evaluate_expr(parse("sigma(Z/12 + Zpinf(5) + Q + Z/2)"))))
        assert tree == {
            "kind": "sigma-set", "rationals": True,
            "cyclic": {"default": False, "exceptions": [2, 3]},
            "circle": {"default": False, "exceptions": [5]},
            "localized": {"default": False, "exceptions": []}}
        tree = json_ready(to_json(evaluate_expr(parse("sigma(Z^1 + Zpinf(7))"))))
        assert set(tree) == SIGMA_KEYS
        assert all(set(tree[kind]) == PREDICATE_KEYS for kind in ("cyclic", "circle", "localized"))
        assert tree["localized"]["default"] is True


class TestWorkCaps:
    """Each CLI work cap: just above it is one error line with exit 2,
    before any of the work is done."""

    def error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        return err

    def test_sweep_bound(self, capsys):
        err = self.error(["sweep", "--cube", "--n", "6", "--bound", "101"], capsys)
        assert err == "error: --bound is at most 100, got 101\n"

    def test_sweep_bound_at_the_cap_runs(self, capsys):
        # no fiber type reaches constant(198), so only the grid is built
        assert main(["sweep", "--cube", "--n", "200", "--bound", "100"]) == 0
        assert "pairs checked: 0" in capsys.readouterr().out

    def test_law_samples(self, capsys):
        err = self.error(["verify", "--scenario", "laws", "--samples", "10001"], capsys)
        assert err == "error: --samples is at most 10000, got 10001\n"
