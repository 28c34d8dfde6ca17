"""Parsing, evaluation, kinds, diagnostics, and rendering."""

import copy
import enum
import hashlib
import inspect
import itertools
import json
import pickle
import re
import shlex
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimcalc import (
    INF,
    Cyclic,
    DecoratedNumber,
    Decoration,
    DimensionType,
    DirectSum,
    EvaluationError,
    Free,
    LocalizedIntegers,
    NotRepresentableError,
    PadicCircle,
    ParseError,
    Presented,
    Rationals,
    TypeMismatchError,
    ValidityError,
    boltyanskii_type,
    bockstein_basis,
    builtin_scenario,
    builtin_scenario_names,
    constant,
    evaluate_expr,
    free_parameters,
    kind_of,
    parse,
    profile,
    render,
)
from dimcalc.cli import main
from dimcalc.exprs import Expr, _tokenize, to_json, walk
from support import dimension_types, tokens_by_hand

MINUS, PLUS = Decoration.MINUS, Decoration.PLUS


def ev(text, **bindings):
    return evaluate_expr(parse(text), bindings or None)


class TestTypeLiterals:
    def test_basic(self):
        assert ev("DT{q=2; *=3-}") == DimensionType(2, DecoratedNumber(3, MINUS))
        assert ev("{q=2; *=3-}") == DimensionType(2, DecoratedNumber(3, MINUS))
        assert ev("DT{q=0; *=0}") == constant(0)

    def test_exceptions(self):
        d = ev("DT{q=2; *=3-; 5=1+; 2=2}")
        assert d == DimensionType(
            2, DecoratedNumber(3, MINUS),
            {5: DecoratedNumber(1, PLUS), 2: DecoratedNumber(2)})

    def test_infinite_entries(self):
        assert ev("DT{q=inf; *=inf}") == constant(INF)
        d = ev("DT{q=1; *=1; 3=inf+}")
        assert d.entry(3) == DecoratedNumber(INF, PLUS)

    def test_parameterized(self):
        expr = parse("DT{q=n-4; *=(n-5)+}")
        assert free_parameters(expr) == {"n"}
        assert evaluate_expr(expr, {"n": 6}) == DimensionType(2, DecoratedNumber(1, PLUS))

    def test_invalid_regular_entry(self):
        with pytest.raises(ValidityError, match=r"\(line 1, column 1\)"):
            parse("DT{q=2; *=5}")

    def test_invalid_zero_minus(self):
        with pytest.raises(ValidityError, match=r"0- is not a representable"):
            parse("{q=0; *=0-}")

    def test_duplicate_prime(self):
        with pytest.raises(ParseError, match=r"duplicate entry for prime 5"):
            parse("DT{q=1; *=1; 5=2+; 5=3+}")

    def test_composite_key(self):
        with pytest.raises(ValidityError, match=r"prime.*\(line 1, column 14\)"):
            parse("DT{q=1; *=1; 4=2+}")

    def test_parameterized_literal_fails_at_evaluation(self):
        expr = parse("DT{q=n; *=5}")
        with pytest.raises(ValidityError):
            evaluate_expr(expr, {"n": 2})
        assert evaluate_expr(expr, {"n": 5}) == constant(5)


class TestPrecedenceAndOperators:
    def test_headline_expressions(self):
        assert ev("dim(B(4) boxplus B(4))") == 7
        assert ev("(DT{q=2;*=3-} oplus DT{q=2;*=1+}) + 1 == B(6)") is True
        assert ev("C(2) boxplus C(3)") == constant(5)
        assert ev("sigma(Z^1)") == bockstein_basis(Free(1))

    def test_shift_binds_tighter_than_boxplus(self):
        assert ev("C(1) boxplus C(1) + 1") == constant(3)
        assert ev("(C(1) boxplus C(1)) + 1") == constant(3)
        assert ev("C(1) boxplus (C(1) + 1)") == constant(3)

    def test_shift_amount_is_greedy(self):
        assert ev("C(0) + 2 * 3 + 1") == constant(7)
        assert ev("B(6) + 2 - 2 == B(6)") is True

    def test_postfix_star(self):
        assert ev("DT{q=2; *=3-}* == DT{q=2; *=3+}") is True
        assert ev("DT{q=2; *=3-}** == DT{q=2; *=3-}") is True
        # mirrored plus meets plus: mixed signs collapse to minus
        assert ev("B(2)* boxplus B(2) == DT{q=2; *=2-}") is True

    def test_integer_arithmetic(self):
        assert ev("2*3+4") == 10
        assert ev("2+3*4") == 14
        assert ev("-2-3") == -5
        assert ev("2*(3+4)") == 14
        assert ev("10 <= 11") is True
        assert ev("11 <= 10") is False

    def test_mixing_requires_parens(self):
        with pytest.raises(ParseError, match=r"parentheses required.*\(line 1, column 19\)"):
            parse("B(4) boxplus B(4) oplus B(4)")
        assert ev("(B(4) boxplus B(4)) oplus B(4)").dim() == 10

    def test_chain_left_associative(self):
        assert ev("C(1) boxplus C(2) boxplus C(3)") == constant(6)

    def test_comparison_loosest(self):
        assert ev("C(1) boxplus C(2) == C(3)") is True
        assert ev("DT{q=1; *=2-} <= B(3)") is True
        assert ev("DT{q=1; *=2-} <= B(2)") is False

    def test_dim_and_sigma_calls(self):
        assert ev("dim(C(4))") == 4
        assert ev("dim(DT{q=2; *=3-})") == 3
        assert str(ev("sigma(Zpinf(3) + Z/3)")) == "{Z_3}"

    def test_parameters(self):
        assert ev("n + 1", n=5) == 6
        assert ev("dim(B(n) boxplus B(n)) == 2*n - 1", n=9) is True


class TestGroupExpressions:
    def test_atoms(self):
        assert ev("Q") == Rationals()
        assert ev("Z") == Free(1)
        assert ev("Z^3") == Free(3)
        assert ev("Z/12") == Cyclic(12)
        assert ev("Zpinf(7)") == PadicCircle(7)
        assert ev("Zloc(5)") == LocalizedIntegers(5)

    def test_presentation(self):
        assert ev("pres[[2,0],[0,12]]") == Presented(2, ((2, 0), (0, 12)))
        assert ev("pres[[-2,4]]") == Presented(2, ((-2, 4),))
        assert ev("pres[]") == Presented(0, ())

    def test_direct_sum_flattens(self):
        assert ev("Z/2 + Z/4 + Q") == DirectSum((Cyclic(2), Cyclic(4), Rationals()))

    def test_validation_positioned(self):
        with pytest.raises(ValidityError, match=r"\(line 1, column 1\)"):
            parse("Zpinf(4)")
        with pytest.raises(ValidityError, match=r"modulus"):
            parse("Z/1")
        with pytest.raises(ValidityError, match=r"relation"):
            parse("pres[[1,2],[3]]")


class TestDiagnostics:
    BAD_INPUTS = [
        "",
        "B(",
        "B(4",
        "DT{q=2}",
        "DT{q=2; *=3- 5=2+}",
        "2 +",
        "boxplus",
        "C(2) boxplus",
        "(C(2)",
        "5 @ 3",
        "B(4) == C(4) == C(4)",
        "DT{q=1; *=1respond}",
        "²",
    ]

    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_parse_errors_are_positioned(self, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "(line " in str(info.value)
        assert info.value.line >= 1 and info.value.column >= 1

    MISMATCHES = [
        "dim(5)",
        "dim(Q)",
        "sigma(C(2))",
        "sigma(5)",
        "B(C(2))",
        "5 boxplus 5",
        "C(2) boxplus 5",
        "B(4) <= 3",
        "Q == Q",
        "sigma(Q) <= sigma(Q)",
        "C(2) * 2",
        "2 * C(2)",
        "5*",
        "2 ** 3",
        "Q + 2",
        "C(2) + Q",
        "2 + Q",
        "Q - Q",
        "-Q",
    ]

    @pytest.mark.parametrize("text", MISMATCHES)
    def test_kind_mismatches_are_positioned(self, text):
        with pytest.raises(TypeMismatchError) as info:
            parse(text)
        assert "(line " in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("1 + C(1)", "cannot add integer and dimension type (line 1, column 3)"),
        ("1 - Q", "cannot subtract group from integer (line 1, column 3)"),
    ])
    def test_sum_and_difference_mismatches_name_the_operands_in_order(self, text, message):
        with pytest.raises(TypeMismatchError) as info:
            parse(text)
        assert str(info.value) == message

    def test_multiline_positions(self):
        with pytest.raises(ParseError) as info:
            parse("C(1) boxplus\nC(2) oplus C(3)", start_line=1)
        assert info.value.line == 2

    def test_unbound_parameter(self):
        with pytest.raises(EvaluationError, match=r"unbound parameter 'n'"):
            ev("n + 1")

    def test_inf_guards(self):
        assert ev("inf + 1") is INF
        assert ev("inf - 5") is INF
        with pytest.raises(EvaluationError):
            ev("5 - inf")
        with pytest.raises(EvaluationError):
            ev("2 * inf")
        with pytest.raises(EvaluationError):
            ev("-inf")
        with pytest.raises(EvaluationError):
            ev("C(1) + inf")
        with pytest.raises(ValidityError):
            ev("B(inf)")
        assert ev("C(inf)") == constant(INF)

    def test_negative_shift_rejected_at_evaluation(self):
        with pytest.raises(ValidityError):
            ev("C(1) + n", n=-2)

    # every token kind, each word the parser reads and the literal keys
    ATOMS = ("{ } ( ) [ ] ; , = + - * / ^ < > <= == DT Q Z B C dim sigma Zpinf Zloc pres "
             "inf boxplus oplus q n 0 1 2 12").split()

    def test_every_short_text_gives_a_value_or_one_positioned_error(self):
        digest, count = hashlib.sha256(), 0
        for size in (1, 2, 3):
            for atoms in itertools.product(self.ATOMS, repeat=size):
                text = " ".join(atoms)
                try:
                    outcome = render(evaluate_expr(parse(text), {"n": 3}), "structured")
                except (ParseError, TypeMismatchError, ValidityError, EvaluationError) as err:
                    assert err.line == 1 and 1 <= err.column <= len(text) + 1, text
                    assert str(err).count("(line ") == 1, text
                    outcome = f"{type(err).__name__}: {err}"
                digest.update(f"{outcome}\n".encode())
                count += 1
        assert count == 37 + 37**2 + 37**3
        assert digest.hexdigest() == (
            "4c6a6a3b1d539e7afe59c3c26c1d0e1cde69443d5b7bb9df63584c8609d1b676")


class TestTokens:
    """Digits and names are ASCII, and any other character no token holds is
    an error at its column.  A number starts at a digit that no word
    character precedes.  Rows are read in order, and the leftmost trouble in
    a row is the one reported."""

    def error(self, text, start_line=1):
        with pytest.raises(ParseError) as info:
            parse(text, start_line)
        return str(info.value)

    @pytest.mark.parametrize("text, column", [("B(¹)", 3), ("1 + ٣", 5), ("né", 2), ("é", 1)])
    def test_non_ascii_is_an_unexpected_character(self, text, column):
        assert self.error(text) == (f"unexpected character {text[column - 1]!r}"
                                    f" (line 1, column {column})")

    @pytest.mark.parametrize("start", ["x", "_", "x2"])
    def test_digits_after_a_name_character_are_the_name(self, start):
        name = start + "1" * 1001
        assert free_parameters(parse(f"1 + {name}")) == {name}

    def test_numbers_up_to_the_cap(self):
        assert ev("1" * 1000) == int("1" * 1000)
        assert self.error("2 + " + "1" * 1001) == (
            "number longer than 1000 digits (line 1, column 5)")

    LONG = "1" * 1001

    @pytest.mark.parametrize("text, message", [
        (f"2 + {LONG} + é", "number longer than 1000 digits (line 1, column 5)"),
        (f"2 + é + {LONG}", "unexpected character 'é' (line 1, column 5)"),
        (f"é{LONG}", "unexpected character 'é' (line 1, column 1)"),
        (f"C(1) <=\n2 + {LONG}\n@", "number longer than 1000 digits (line 2, column 5)"),
        (f"C(1) <=\n2 + @\n{LONG}", "unexpected character '@' (line 2, column 5)"),
    ], ids=["number first", "character first", "character before digits",
            "number on an earlier row", "character on an earlier row"])
    def test_leftmost_trouble_wins(self, text, message):
        assert self.error(text) == message

    def test_rows_count_from_start_line(self):
        assert self.error("C(1) boxplus\nC(2) @ 1", start_line=3) == (
            "unexpected character '@' (line 4, column 6)")
        assert self.error("(1 +\n" + self.LONG, start_line=3) == (
            "number longer than 1000 digits (line 4, column 1)")

    def test_end_of_input_follows_the_last_row(self):
        assert self.error("(1\n+2") == "expected ')', found end of input (line 2, column 3)"
        assert self.error("(1\n+2\n", start_line=5) == (
            "expected ')', found end of input (line 7, column 1)")

    @pytest.mark.parametrize("brk", ["\r", "\n", "\r\n"], ids=ascii)
    def test_cr_lf_and_crlf_each_break_a_row(self, brk):
        # the same line breaks as a scenario file
        assert self.error(f"C(1) <={brk}C(2) @") == "unexpected character '@' (line 2, column 6)"
        assert self.error(f"(1{brk}+2{brk}") == (
            "expected ')', found end of input (line 3, column 1)")

    # the language benchmark's mutation alphabet, with the characters and
    # digit runs that decide between a token and an error
    PIECES = st.one_of(
        st.sampled_from("0123456789+-*/(){}[];=<>,^ abdeilmnopqsuxzBCDQTZ_\n\r\t¹٣²é@"),
        st.integers(999, 1002).map(lambda n: "7" * n))

    @given(st.lists(PIECES, max_size=40).map("".join), st.integers(1, 3))
    def test_tokenize_matches_the_character_reading(self, text, start_line):
        expected = tokens_by_hand(text, start_line)
        try:
            found = [tuple(tok) for tok in _tokenize(text, start_line)]
        except ParseError as err:
            found = str(err)
        else:
            assert found[-1] == found[-2]  # the end token, twice
            found.pop()
        assert found == expected


class TestPositionedEvaluation:
    """Errors raised while evaluating carry the innermost node's place."""

    def place(self, text, error=ValidityError, **bindings):
        with pytest.raises(error) as info:
            ev(text, **bindings)
        err = info.value
        assert str(err).endswith(f"(line {err.line}, column {err.column})")
        return err.line, err.column

    def test_inf_guard(self):
        assert self.place("5 - inf", EvaluationError) == (1, 3)
        assert self.place("C(1) boxplus (C(1) + inf)", EvaluationError) == (1, 20)

    def test_oplus_on_unmirrorable_entry(self):
        text = "{q=1; *=0+} oplus C(1)"
        assert self.place(text, NotRepresentableError) == (1, 13)

    def test_entry_errors_are_the_literals(self):
        assert self.place("C(1) boxplus {q=n; *=n-}", n=0) == (1, 14)
        with pytest.raises(ValidityError) as info:
            parse("C(1) boxplus {q=0; *=0-}")
        assert (info.value.line, info.value.column) == (1, 14)

    def test_unbound_parameter(self):
        assert self.place("2 * (n + 1)", EvaluationError) == (1, 6)

    @pytest.mark.parametrize("value", [2.5, True, "7", [1]], ids=repr)
    @pytest.mark.parametrize("text, column", [("n + 1", 1), ("C(n)", 3), ("{q=n; *=n}", 4)])
    def test_parameter_must_be_an_integer_or_inf(self, text, column, value):
        with pytest.raises(EvaluationError) as info:
            ev(text, n=value)
        assert str(info.value) == (f"parameter 'n' must be an integer or inf, got {value!r}"
                                   f" (line 1, column {column})")
        assert (info.value.line, info.value.column) == (1, column)

    class Unhashable(int):
        __hash__ = None

    class Three(enum.IntEnum):
        THREE = 3

    @pytest.mark.parametrize("value", [Unhashable(3), Three.THREE], ids=["unhashable", "IntEnum"])
    @pytest.mark.parametrize("text", ["C(n)", "{q=n; *=n}", "Zpinf(n)"])
    def test_int_subclass_binds_as_its_int(self, text, value):
        # memoized constructors hash their arguments, and values keep them
        assert repr(ev(text, n=value)) == repr(ev(text, n=3))

    def test_literal_keeps_its_value(self):
        expr = parse("DT{q=2; *=3-; 5=1+}")
        assert expr.value == evaluate_expr(expr)
        assert parse("DT{q=n; *=3-}").value is None

    def test_constant_groups_keep_their_value(self):
        assert parse("Q").value == Rationals()
        assert parse("Z").value == Free(1)

    # failing cores, each placed at a column of its own; a type core fills
    # an integer slot through dim()
    CORES = ["C(1) oplus {q=0;*=0+}", "{q=0;*=0+}*", "5 - inf", "B(0)"]
    # '@' marks the integer slot: alone, in calls, in a type literal, in a row
    SLOTS = ["@", "Zloc(@)", "Zpinf(@)", "C(@)", "B(@ + 1)", "{q=@; *=1}", "{q=1; *=@}",
             "{q=1; *=1; 2=@+}", "pres[[1, @]]"]

    def raised(self, text):
        with pytest.raises((ValidityError, EvaluationError)) as info:
            ev(text)
        return info.value

    @pytest.mark.parametrize("slot", SLOTS)
    @pytest.mark.parametrize("core", CORES)
    def test_literal_slots_keep_the_innermost_place(self, core, slot):
        alone = self.raised(core)
        integer = core if core == "5 - inf" else f"dim({core})"
        err = self.raised(slot.replace("@", integer))
        offset = slot.index("@") + integer.index(core)
        assert (type(err), err.line, err.column) == (type(alone), 1, offset + alone.column)
        unplaced = r" \(line 1, column [0-9]+\)$"
        assert re.sub(unplaced, "", str(err)) == re.sub(unplaced, "", str(alone))
        assert str(err).count("(line ") == 1


class TestInputCaps:
    """Oversized input ends in one positioned error line and exit 2."""

    CASES = {
        "non-ascii digit": "B(²)",
        "non-ascii name": "né + 1",
        "long number": "1" * 5000,
        "deep parentheses": "(" * 3000 + "1" + ")" * 3000,
        "deep unary minus": "0 + " + "-" * 3000 + "1",
        "long chain": "1+" * 500 + "1",
        "long chain in a literal": "B(" + "1+" * 500 + "1)",
        "long shift": "C(0)" + " + 1" * 500,
        "nested literals": "{q=dim(" * 150 + "C(1)" + ");*=1}" * 150,
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exit_two_with_one_positioned_line(self, name, capsys):
        assert main(["eval", self.CASES[name]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert re.search(r"\(line 1, column [0-9]+\)$", err.strip())

    def test_caps_leave_room_below_them(self):
        assert ev("(" * 150 + "1" + ")" * 150) == 1
        assert ev("-" * 199 + "1") == -1
        assert ev("1+" * 199 + "1") == 200
        assert ev("B(" + "1+" * 190 + "1)") == boltyanskii_type(191)
        assert ev("1" * 1000 + " - 1") == int("1" * 999 + "0")


class TestProductCap:
    """A product longer than MAX_DIGITS digits is an evaluation error at
    its '*', so no integer reaches Python's int-to-text limit."""

    BIG = "9" * 1000

    def run(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        return code, err.strip()

    @pytest.mark.parametrize("text, column", [
        ("*".join(["9" * 1000] * 5), 1001),
        ("C(" + "*".join(["9" * 1000] * 5) + ")", 1003),
        ("1 + " + "9" * 1000 + " * 99", 1006),
        ("9" * 999 + " * 10 * 10", 1006),
    ], ids=["five factors", "in a literal", "in a sum", "second product"])
    def test_eval_exits_two_at_the_star(self, text, column, capsys):
        code, err = self.run(["eval", text], capsys)
        assert code == 2
        assert err.endswith(f"product longer than 1000 digits (line 1, column {column})")

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "big.claims"
        path.write_text("C(1) <= C(2)\n"
                        f"n * {self.BIG} * {self.BIG} <= 1\n", encoding="utf-8")
        code, err = self.run(["verify", "--scenario", str(path), "--n", "1"], capsys)
        assert code == 2
        assert err.endswith("product longer than 1000 digits (line 2, column 1006)")

    def test_products_up_to_the_cap(self):
        assert ev("9" * 999 + " * 10") == int("9" * 999 + "0")
        assert ev("-" + "9" * 500 + " * " + "9" * 500) == -int("9" * 500) ** 2
        with pytest.raises(EvaluationError, match="product longer"):
            ev("1" + "0" * 999 + " * 10")


class TestNBoundCap:
    """A --n bound longer than MAX_DIGITS digits is an invalid value, as
    the same number written as a literal is a parse error."""

    def claims(self, tmp_path):
        path = tmp_path / "double.claims"
        path.write_text("n + n <= 1\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("n_range", ["9" * 1001, "9" * 4300, "1.." + "9" * 1001,
                                         "-" + "9" * 1001 + "..1", "9" * 5000, "0" * 1001],
                             ids=["1001 digits", "4300 digits", "upper bound", "lower bound",
                                  "5000 digits", "1001 zeros"])
    def test_exits_two_with_one_line(self, n_range, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n=" + n_range]) == 2
        assert capsys.readouterr() == ("", "error: --n bound longer than 1000 digits\n")

    def test_bound_at_the_cap_runs(self, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n", "9" * 1000]) == 1
        out, err = capsys.readouterr()
        assert err == "" and f"lhs = 1{'9' * 999}8\n" in out


class TestNRange:
    """An --n range holds at most 1000 values, and a negative lower bound
    takes the --n=A..B form."""

    def claims(self, tmp_path):
        path = tmp_path / "zero.claims"
        path.write_text("n - n == 0\n", encoding="utf-8")
        return str(path)

    def test_range_at_the_cap_runs(self, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n", "1..1000"]) == 0
        assert capsys.readouterr().out.count("result: pass") == 1000

    def test_range_above_the_cap_exits_two(self, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n", "1..1001"]) == 2
        assert capsys.readouterr() == ("", "error: --n range longer than 1000 values\n")

    def test_negative_lower_bound_with_equals(self, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n=-3..3"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("result: pass") == 7
        assert "[n=-3]" in out and "[n=3]" in out

    @pytest.mark.parametrize("option", ["--n=٣..٥", "--n=1_0", "--n=+6..7", "--n= 6 .. 7"],
                             ids=["arabic digits", "underscore", "plus sign", "spaces"])
    def test_bounds_are_ascii_digits_with_an_optional_minus(self, option, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), option]) == 2
        text = option.removeprefix("--n=")
        assert capsys.readouterr() == (
            "", f"error: --n expects an integer or a range A..B, got {text!r}\n")

    def test_negative_lower_bound_as_a_separate_word(self, tmp_path, capsys):
        # argparse reads "-3..3" as an option, prints usage and exits 2
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n", "-3..3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: argument --n: expected one argument\n")

    @pytest.mark.parametrize("text, error", [
        ("5..3", "empty range '5..3'"),
        ("9" * 1000 + "..1", f"empty range '{'9' * 40}'..."),
        ("9" * 5000 + "x", f"--n expects an integer or a range A..B, got '{'9' * 40}'..."),
    ], ids=["empty range", "long empty range", "long malformed text"])
    def test_errors_quote_at_most_40_characters(self, text, error, tmp_path, capsys):
        assert main(["verify", "--scenario", self.claims(tmp_path), "--n=" + text]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {error}\n")
        assert len(err.encode()) <= 120


def test_expression_after_double_dash(capsys):
    assert main(["eval", "--", "-1+2"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_sigma_of_a_non_group_is_positioned(capsys):
    assert main(["sigma", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: sigma needs a group expression, found integer (line 1, column 1)\n")


def test_group_value_structured(capsys):
    assert main(["eval", "Z/2", "--format", "structured"]) == 0
    assert capsys.readouterr() == ('{"kind": "group", "text": "Z/2"}\n', "")


class TestKinds:
    def test_kind_of(self):
        assert kind_of(parse("5")) == "integer"
        assert kind_of(parse("dim(C(1))")) == "integer"
        assert kind_of(parse("B(4)")) == "dimension type"
        assert kind_of(parse("Q")) == "group"
        assert kind_of(parse("sigma(Q)")) == "sigma-set"
        assert kind_of(parse("5 == 5")) == "boolean"

    def test_every_node_has_a_kind(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        evals = [shlex.split(argv)[-1]
                 for argv in re.findall(r"^\$ dimcalc eval (.*)$", readme, re.MULTILINE)]
        assert len(evals) == 3
        # the texts of TestInputCaps.test_caps_leave_room_below_them
        room = ["(" * 150 + "1" + ")" * 150, "-" * 199 + "1", "1+" * 199 + "1",
                "B(" + "1+" * 190 + "1)", "1" * 1000 + " - 1"]
        trees = [parse(text) for text in evals + room]
        trees += [claim.expr for name in builtin_scenario_names()
                  for claim in builtin_scenario(name).claims]
        kinds = {"integer", "dimension type", "group", "sigma-set", "boolean"}
        for tree in trees:
            assert {kind_of(node) for node, _ in walk(tree)} <= kinds

    def test_free_parameters_nested(self):
        expr = parse("dim(DT{q=a; *=(b-1)+} boxplus B(c)) == d")
        assert free_parameters(expr) == {"a", "b", "c", "d"}

    def test_unknown_node_is_not_evaluated(self):
        with pytest.raises(ValueError, match=r"^unknown node 'nosuch'$"):
            evaluate_expr(Expr("nosuch"))


# texts the parser accepts, of every kind: literals with a value, literals
# with the parameter n, and every operator and call
COUNTS = st.recursive(
    st.one_of(st.integers(1, 20).map(str), st.just("n")),
    lambda inner: st.tuples(inner, st.sampled_from("+*"), inner).map(" ".join), max_leaves=3)
INTEGERS = st.one_of(COUNTS, COUNTS.map(lambda c: f"-({c}) - 1"))
TYPE_TEXTS = st.recursive(
    st.one_of(dimension_types(allow_inf=True).map(render), COUNTS.map(lambda c: f"B({c})"),
              COUNTS.map(lambda c: f"C({c})"), st.just("DT{q=n; *=(n-1)+; 3=n}")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["boxplus", "oplus"]), inner)
        .map(lambda t: "(%s %s %s)" % t),
        st.tuples(inner, COUNTS).map(" + ".join), inner.map(lambda t: f"({t})*")),
    max_leaves=4)
GROUP_TEXTS = st.lists(st.sampled_from(["Q", "Z", "Z^2", "Z/12", "Zpinf(5)", "Zloc(7)",
                                        "pres[[2,4],[0,3]]", "pres[]"]),
                       min_size=1, max_size=3).map(" + ".join)
TEXTS = st.one_of(
    INTEGERS, TYPE_TEXTS, GROUP_TEXTS,
    st.tuples(TYPE_TEXTS, st.sampled_from(["<=", "=="]), TYPE_TEXTS).map(" ".join),
    st.tuples(TYPE_TEXTS, INTEGERS).map(lambda t: "dim(%s) <= %s" % t),
    GROUP_TEXTS.map(lambda g: f"sigma({g}) == sigma(Z)"))


class TestNodes:
    """Expr's hand-written __init__ is its one builder, the parser's too;
    each node is still the frozen dataclass that its fields describe."""

    def test_one_builder(self):
        assert Expr.__dataclass_params__.init is False
        assert "__init__" in vars(Expr)

    def test_signature_lists_the_fields(self):
        parameters = list(inspect.signature(Expr).parameters.values())
        assert [p.name for p in parameters] == [f.name for f in fields(Expr)]
        assert [p.default for p in parameters] == [
            inspect.Parameter.empty if f.default is MISSING else f.default for f in fields(Expr)]

    @pytest.mark.parametrize("rebuild", [
        lambda node: Expr(**vars(node)), replace, copy.copy, copy.deepcopy,
        lambda node: pickle.loads(pickle.dumps(node)),
    ], ids=["keywords", "replace", "copy", "deepcopy", "pickle"])
    def test_rebuilt_and_copied_nodes_are_equal(self, rebuild):
        for node, _ in walk(parse("(DT{q=2; *=3-} oplus C(n)) + 1 <= B(4)")):
            rebuilt = rebuild(node)
            assert rebuilt == node
            assert vars(rebuilt) == vars(node)

    @staticmethod
    def assert_built_as_by_init(tree):
        for node, _ in walk(tree):
            rebuilt = Expr(**{f.name: getattr(node, f.name) for f in fields(Expr)})
            assert node == rebuilt
            assert hash(node) == hash(rebuilt)
            assert repr(node) == repr(rebuilt)
            assert vars(node) == vars(rebuilt)
            assert is_dataclass(node)
            with pytest.raises(FrozenInstanceError):
                node.op = "x"

    def test_readme_evals_and_builtin_claims(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        evals = [shlex.split(argv)[-1]
                 for argv in re.findall(r"^\$ dimcalc eval (.*)$", readme, re.MULTILINE)]
        assert len(evals) == 3
        for tree in [parse(text) for text in evals] + [
                claim.expr for name in builtin_scenario_names()
                for claim in builtin_scenario(name).claims]:
            self.assert_built_as_by_init(tree)

    @given(TEXTS)
    def test_drawn_texts(self, text):
        self.assert_built_as_by_init(parse(text))
        assert all(type(tok) is tuple and len(tok) == 4 for tok in _tokenize(text))


class TestRender:
    def test_pretty_golden(self):
        assert render(boltyanskii_type(6)) == "{q=5; *=5+}"
        assert render(constant(0)) == "{q=0; *=0}"
        assert render(True) == "true"
        assert render(False) == "false"
        assert render(7) == "7"
        assert render(INF) == "inf"
        assert render(DecoratedNumber(3, MINUS)) == "3-"
        assert render(Cyclic(2) + Free(1)) == "Z/2 + Z"

    def test_structured_golden_type(self):
        d = DimensionType(2, DecoratedNumber(3, MINUS), {5: DecoratedNumber(1, PLUS)})
        assert json.loads(render(d, "structured")) == {
            "kind": "dimension-type",
            "q": 2,
            "default": {"kind": "decorated-number", "base": 3, "decoration": "minus"},
            "exceptions": {
                "5": {"kind": "decorated-number", "base": 1, "decoration": "plus"}},
        }

    def test_structured_golden_others(self):
        assert json.loads(render(INF, "structured")) == {"kind": "extnat", "value": "inf"}
        assert json.loads(render(True, "structured")) == {"kind": "boolean", "value": True}
        sigma = bockstein_basis(Cyclic(2) + Cyclic(12))
        assert json.loads(render(sigma, "structured")) == {
            "kind": "sigma-set",
            "rationals": False,
            "cyclic": {"default": False, "exceptions": [2, 3]},
            "circle": {"default": False, "exceptions": []},
            "localized": {"default": False, "exceptions": []},
        }

    def test_structured_profile(self):
        pr = profile(Cyclic(6))
        assert json.loads(render(pr, "structured")) == {
            "kind": "structural-profile",
            "free_quotient_nonzero": False,
            "free_quotient_divisible": {"default": True, "exceptions": []},
            "torsion_nonzero": {"default": False, "exceptions": [2, 3]},
            "torsion_divisible": {"default": True, "exceptions": [2, 3]},
        }
        assert render(pr) == repr(pr)  # the pretty form stays the repr

    def test_structured_key_order_stable(self):
        d = constant(INF)
        assert render(d, "structured") == render(d, "structured")
        assert render(d, "structured").index('"default"') < render(d, "structured").index('"q"')

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(constant(1), "yaml")

    def test_unknown_value(self):
        with pytest.raises(ValueError, match=r"^cannot render <object object at 0x[0-9a-f]+>$"):
            to_json(object())


class TestRoundTrip:
    @given(dimension_types(allow_inf=True))
    def test_pretty_round_trip(self, d):
        assert evaluate_expr(parse(render(d, "pretty"))) == d

    @given(dimension_types())
    def test_structured_stable_through_parse(self, d):
        reparsed = evaluate_expr(parse(render(d, "pretty")))
        assert render(reparsed, "structured") == render(d, "structured")

    def test_literal_normalizes_spacing(self):
        text = render(evaluate_expr(parse("{q=2;*=3-}")), "pretty")
        assert text == "{q=2; *=3-}"
        assert evaluate_expr(parse(text)) == DimensionType(2, DecoratedNumber(3, MINUS))

    @given(st.integers(0, 50))
    def test_integer_round_trip(self, n):
        assert evaluate_expr(parse(render(n, "pretty"))) == n

    def test_group_round_trip(self):
        groups = [
            Rationals(), Free(1), Free(4), Cyclic(9), PadicCircle(2),
            LocalizedIntegers(7), Presented(2, ((2, 0), (0, 12))),
            Cyclic(2) + PadicCircle(3) + Free(2), Presented(0, ()),
            Presented(2, ((-2, 4),)),
        ]
        for group in groups:
            assert evaluate_expr(parse(str(group))) == group
