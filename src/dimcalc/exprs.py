"""Expression language for the calculator.

Grammar sketch (whitespace free between tokens).  One binding-power loop
reads the infix operators, loosest first; each right operand binds one
power tighter, so chains associate to the left:

    expression := primary ( OPERATOR primary )*
    '<=' '=='          one comparison at most; both sides of one kind
    'boxplus' 'oplus'  same word only; parentheses required to mix
    '+' '-'            integer addition, type shift, or group sum, decided
                       by the left kind; a shift amount is a greedy INT
    '*'                integer product, or the mirror involution when no
                       term follows the star

    primary    := NUM | 'inf' | name | '(' expression ')'
                | ['DT'] '{' 'q' '=' INT ';' '*' '=' DECNUM ( ';' PRIME '=' DECNUM )* '}'
                | 'B' '(' INT ')' | 'C' '(' INT ')'
                | 'dim' '(' expression ')' | 'sigma' '(' expression ')'
                | 'Q' | 'Z' ['^' NUM | '/' NUM] | 'Zpinf' '(' INT ')' | 'Zloc' '(' INT ')'
                | 'pres' '[' [ '[' [INT (',' INT)*] ']' (',' '[' [INT (',' INT)*] ']')* ] ']'
                | '-' primary
    INT        := term ( ('+' | '-') term )*                 an integer expression
    DECNUM     := INT ['+' | '-']                            trailing sign is a
                                                             decoration when no term
                                                             follows it
    NUM        := [0-9]+        name := [A-Za-z_][A-Za-z0-9_]*

Integer subexpressions may contain free parameters (any non-reserved
name), each bound to an integer or inf at evaluation time.  Literals with
no parameters are validated once, during parsing, and keep their value,
so a malformed type never survives to evaluation.  Numbers have at most
MAX_DIGITS digits and nesting is at most MAX_DEPTH deep.  A longer
product is an evaluation error at its '*': sums grow by at most one
digit per operator, so products are the only way past that cap.  Every
diagnostic carries a 1-based line and column.
"""

from __future__ import annotations

import json
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass

from .decorated import (
    _NONE,
    _SYMBOLS,
    INF,
    BocksteinGroup,
    DecoratedNumber,
    DimensionType,
    ValidityError,
    boltyanskii_type,
    constant,
    decorated_number,
    require_prime,
)
from .groups import (
    Cyclic,
    Free,
    GroupExpr,
    LocalizedIntegers,
    PadicCircle,
    Presented,
    Rationals,
    SigmaSet,
    StructuralProfile,
    bockstein_basis,
)

MAX_DIGITS = 1000  # longest number literal or product
_NUMBER_LIMIT = 10**MAX_DIGITS
MAX_DEPTH = 200  # deepest nesting of brackets and unary minus, and of a parse tree
FORMATS = ("pretty", "structured")  # output formats of values and reports


def _where(line: int, column: int) -> str:
    return f" (line {line}, column {column})"


class _Positioned:
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message + _where(line, column))
        self.line = line
        self.column = column


class ParseError(_Positioned, ValueError):
    """Malformed input text; message ends with '(line L, column C)'."""


class TypeMismatchError(_Positioned, TypeError):
    """An operator applied across value kinds; positioned like ParseError."""


class EvaluationError(RuntimeError):
    """A well-formed expression that has no value under the given bindings."""


def placed(err: ValidityError | EvaluationError, line: int, column: int):
    """``err`` placed at (line, column), of its own class so callers still
    catch it narrowly."""
    out = type(err)(str(err) + _where(line, column))
    out.line = line
    out.column = column
    return out


# Tokens are (kind, text, line, column) tuples, kind num, name, op or end,
# from character classes written once.  _REJECT finds a row's first character
# no token holds, or first number (from a digit no word character precedes)
# over MAX_DIGITS; _TOKEN cuts a row without either, one alternative per kind.
# Two end tokens close the list, as the parser looks one token past the first.
_DIGIT, _WORD, _OPS = "0-9", "A-Za-z0-9_", r"{}()\[\];,=+\-*/^<>"
_TOKEN = re.compile(rf"([{_DIGIT}]+)|([A-Za-z_][{_WORD}]*)|(==|<=|[{_OPS}])")
_TOKEN_KINDS = (None, "num", "name", "op")
_REJECT = re.compile(rf"([^\s{_WORD}{_OPS}])|(?<![{_WORD}])[{_DIGIT}]{{{MAX_DIGITS + 1}}}")
# the line breaks an editor shows; str.splitlines also breaks at \x0b, \x0c,
# \x1c-\x1e, \x85, \u2028 and \u2029, which _REJECT reads as whitespace
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _tokenize(text: str, start_line: int = 1) -> list[tuple]:
    tokens: list[tuple] = []
    for line, row in enumerate(_LINE_BREAK.split(text), start_line):
        if trouble := _REJECT.search(row):
            message = (f"unexpected character {trouble[1]!r}" if trouble[1]
                       else f"number longer than {MAX_DIGITS} digits")
            raise ParseError(message, line, trouble.start() + 1)
        tokens += [(_TOKEN_KINDS[m.lastindex], m.group(), line, m.start() + 1)
                   for m in _TOKEN.finditer(row)]
    return tokens + [("end", "", line, len(row) + 1)] * 2


@dataclass(frozen=True, init=False)
class Expr:
    """A parsed node; args nest Expr, tuples and plain atoms.  ``value``
    is the value of a literal without parameters, built by the parser."""

    op: str
    args: tuple = ()
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)
    value: object = field(default=None, compare=False, repr=False)

    def __init__(self, op: str, args: tuple = (), line: int = 0, column: int = 0, value=None):
        # the generated frozen __init__ sets each field through object.__setattr__ at twice the cost
        d = self.__dict__
        d["op"], d["args"], d["line"], d["column"], d["value"] = op, args, line, column, value


_KINDS = {
    "int": "integer", "param": "integer", "add": "integer", "sub": "integer",
    "mul": "integer", "neg": "integer", "dim": "integer",
    "type": "dimension type", "bn": "dimension type", "const": "dimension type",
    "boxplus": "dimension type", "oplus": "dimension type",
    "star": "dimension type", "shift": "dimension type",
    "rationals": "group", "free": "group", "cyclic": "group", "circle": "group",
    "localized": "group", "pres": "group", "dsum": "group",
    "sigma": "sigma-set",
    "leq": "boolean", "eq": "boolean",
}


def kind_of(expr: Expr) -> str:
    """The value kind an expression evaluates to (integer, dimension
    type, group, sigma-set or boolean)."""
    return _KINDS[expr.op]


def _need(node: Expr, kind: str, message: str, line: int, column: int) -> Expr:
    """``node`` if it has ``kind``; otherwise a TypeMismatchError placed at
    (line, column), with the kind found filled in for '{}'."""
    found = _KINDS[node.op]
    if found != kind:
        raise TypeMismatchError(message.format(found), line, column)
    return node


def walk(root: Expr, into_values: bool = True):
    """Every node of a tree with its depth (the root has depth 1), without
    recursion; optionally not below the nodes that keep a value."""
    todo = [(root, 1)]
    while todo:
        node, depth = todo.pop()
        yield node, depth
        args = list(node.args)
        while args:
            arg = args.pop()
            if isinstance(arg, Expr):
                if into_values or arg.value is None:
                    todo.append((arg, depth + 1))
            elif isinstance(arg, tuple):
                args.extend(arg)


def free_parameters(expr: Expr) -> frozenset[str]:
    """Names of the unbound integer parameters in an expression."""
    return frozenset(n.args[0] for n, _ in walk(expr, False) if n.op == "param")


def _check_depth(root: Expr, into_values: bool = True) -> None:
    for node, depth in walk(root, into_values):
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             node.line, node.column)


# binding powers of the infix operators, loosest first
_POWER = {"<=": 1, "==": 1, "boxplus": 2, "oplus": 2, "+": 3, "-": 3, "*": 4}
# infix operators, '+' and '-' by the kind on their left: node op, the kinds
# both operands may have, and the message for another ('{}' is the kind found)
_INFIX = {
    "<=": ("leq", ("integer", "dimension type"), "'<=' does not compare {} values"),
    "==": ("eq", ("integer", "dimension type", "sigma-set"), "'==' does not compare {} values"),
    "boxplus": ("boxplus", ("dimension type",),
                "'boxplus' combines dimension types, not {} values"),
    "oplus": ("oplus", ("dimension type",), "'oplus' combines dimension types, not {} values"),
    ("+", "integer"): ("add", ("integer",), "cannot add integer and {}"),
    ("-", "integer"): ("sub", ("integer",), "cannot subtract {} from integer"),
    ("+", "group"): ("dsum", ("group",), "cannot form a direct sum of group and {}"),
    "*": ("mul", ("integer",), "'*' multiplies integers, not {} values"),
}
# name(argument) primaries: node op and argument kind
_CALLS = {
    "B": ("bn", "integer"), "C": ("const", "integer"),
    "Zpinf": ("circle", "integer"), "Zloc": ("localized", "integer"),
    "dim": ("dim", "dimension type"), "sigma": ("sigma", "group"),
}
_RESERVED = {"DT", "Q", "Z", "pres", "inf", "boxplus", "oplus", *_CALLS}
# the text of each mark read back: the inverse of decorated's one table
_SIGNS = {text: mark for mark, text in _SYMBOLS.items()}


def _found(tok: tuple) -> str:
    return "end of input" if tok[0] == "end" else repr(tok[1])


def _starts_term(tok: tuple) -> bool:
    kind, text = tok[0], tok[1]
    if kind == "num":
        return True
    if kind == "name":
        return text not in ("boxplus", "oplus")
    return text in ("(", "-", "{")


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.params = 0  # parameter names read so far
        self.depth = 0  # primaries open now: brackets, unary minus, literals

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {_found(tok)}", tok[2], tok[3])
        self.pos += 1

    def number(self, what: str) -> int:
        tok = self.advance()
        if tok[0] != "num":
            raise ParseError(f"expected a number for the {what}, found {_found(tok)}",
                             tok[2], tok[3])
        return int(tok[1])

    def integer(self) -> Expr:
        """An integer expression read greedily: a shift amount, ``q``, an
        entry base or a relation entry."""
        term = self.climb(self.primary(), 4)
        _need(term, "integer", "expected an integer expression, found {}",
              term.line, term.column)
        return self.climb(term, 3)

    def climb(self, left: Expr, min_power: int) -> Expr:
        """Extend ``left`` by every infix operator binding at least
        ``min_power``."""
        mixing = None  # the first of 'boxplus' and 'oplus' in this chain
        while True:
            tok = self.tokens[self.pos]
            op = tok[1]
            power = _POWER.get(op, 0)
            if power < min_power:
                return left
            if power == 3 and not _starts_term(self.tokens[self.pos + 1]):
                return left  # a trailing sign is a decoration, not an operator
            self.pos += 1
            at, kind = tok[2:], _KINDS[left.op]
            if op == "*" and not _starts_term(self.tokens[self.pos]):
                need = "postfix '*' mirrors dimension types, not {} values"
                left = Expr("star", (_need(left, "dimension type", need, *at),), *at)
                continue
            if op == "+" and kind == "dimension type":
                left = Expr("shift", (left, self.integer()), *at)
                continue
            if power == 2:
                if mixing is None:
                    mixing = op
                elif op != mixing:
                    raise ParseError(
                        "parentheses required when mixing 'boxplus' and 'oplus'", *at)
            row = _INFIX.get(op) or _INFIX.get((op, kind))
            if row is None:
                raise TypeMismatchError(f"{op!r} is not defined on {kind} values", *at)
            node_op, kinds, message = row
            rhs = self.climb(self.primary(), power + 1)
            if power == 1 and kind != _KINDS[rhs.op]:
                raise TypeMismatchError(f"cannot compare {kind} with {_KINDS[rhs.op]}", *at)
            for operand in (left, rhs):
                if _KINDS[operand.op] not in kinds:
                    raise TypeMismatchError(message.format(_KINDS[operand.op]), *at)
            left = Expr(node_op, (left, rhs), *at)
            if power == 1:
                return left  # comparisons do not chain: the caller meets a second one

    def primary(self) -> Expr:
        kind, text, line, column = tok = self.advance()
        if kind == "num":
            return Expr("int", (int(text),), line, column)
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", line, column)
        params, start = self.params, self.pos
        self.depth += 1
        try:
            if text == "-":
                operand = _need(self.primary(), "integer",
                                "unary '-' negates integers, not {} values", line, column)
                return Expr("neg", (operand,), line, column)
            if text == "(":
                node = self.climb(self.primary(), 1)
                self.expect(")")
                return node
            if text == "inf":
                return Expr("int", (INF,), line, column)
            if text in ("{", "DT"):
                node = self.type_literal(text, line, column)
            elif text in _CALLS:
                op, need = _CALLS[text]
                self.expect("(")
                arg = self.climb(self.primary(), 1)
                _need(arg, need, f"expected a {need} argument, found {{}}", arg.line, arg.column)
                self.expect(")")
                node = Expr(op, (arg,), line, column)
                if op in ("dim", "sigma"):
                    return node
            elif text == "Q":
                node = Expr("rationals", (), line, column)
            elif text == "Z":
                if self.accept("^"):
                    node = Expr("free", (self.number("free rank"),), line, column)
                elif self.accept("/"):
                    node = Expr("cyclic", (self.number("modulus"),), line, column)
                else:
                    node = Expr("free", (1,), line, column)
            elif text == "pres":
                rows = self.bracketed(lambda: self.bracketed(self.integer))
                node = Expr("pres", (rows, len(rows[0]) if rows else 0), line, column)
            elif kind == "name" and text not in _RESERVED:
                self.params += 1
                return Expr("param", (text,), line, column)
            else:
                raise ParseError(f"expected a value, found {_found(tok)}", line, column)
        finally:
            self.depth -= 1
        # a literal: if no parameter was read in it, validated now and kept
        # with its value, set before the node leaves the parser
        if self.params != params:
            return node
        if self.pos - start > MAX_DEPTH:
            # a long literal may be too deep to evaluate; nodes that keep
            # a value are not evaluated again, so each node is walked once
            _check_depth(node, into_values=False)
        node.__dict__["value"] = evaluate_expr(node)
        return node

    def type_literal(self, text: str, line: int, column: int) -> Expr:
        if text == "DT":
            self.expect("{")
        self.expect("q")
        self.expect("=")
        q = self.integer()
        self.expect(";")
        self.expect("*")
        self.expect("=")
        default = self.decorated()
        entries: dict[int, tuple] = {}
        while self.accept(";"):
            at = self.tokens[self.pos][2:]  # the key's line and column
            prime = self.number("prime key")
            try:
                require_prime(prime, "exception key")
            except ValidityError as err:
                raise placed(err, *at) from None
            if prime in entries:
                raise ParseError(f"duplicate entry for prime {prime}", *at)
            self.expect("=")
            entries[prime] = self.decorated()
        self.expect("}")
        return Expr("type", (q, default, tuple(entries.items())), line, column)

    def decorated(self) -> tuple:
        """An entry as a (base, mark) pair."""
        base = self.integer()
        decoration = _SIGNS.get(self.tokens[self.pos][1], _NONE)
        if decoration is not _NONE:
            self.pos += 1
        return base, decoration

    def bracketed(self, item) -> tuple:
        """'[' ( item (',' item)* )? ']' as a tuple of items."""
        self.expect("[")
        items = []
        if self.tokens[self.pos][1] != "]":
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect("]")
        return tuple(items)


def parse(text: str, start_line: int = 1) -> Expr:
    """Parse one expression; reject trailing input.

    >>> evaluate_expr(parse("C(2) boxplus C(3)")) == constant(5)
    True
    >>> evaluate_expr(parse("(DT{q=2;*=3-} oplus DT{q=2;*=1+}) + 1 == B(6)"))
    True
    >>> parse("DT{q=2; *=5}")
    Traceback (most recent call last):
        ...
    dimcalc.decorated.ValidityError: default entry 5 is undecorated but differs from the value 2 at Q (line 1, column 1)
    """
    tokens = _tokenize(text, start_line)
    parser = _Parser(tokens)
    node = parser.climb(parser.primary(), 1)
    kind, rest, line, column = tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {rest!r}", line, column)
    if len(tokens) - 2 > MAX_DEPTH:  # at most one node per token before the ends
        _check_depth(node)
    return node


_COMPARE = {"leq": operator.le, "eq": operator.eq}
# value constructors by node op: classes, so a traced __init__ is still reached,
# and two functions no span traces
_CONSTRUCTORS = {"rationals": Rationals, "free": Free, "cyclic": Cyclic,
                 "circle": PadicCircle, "localized": LocalizedIntegers,
                 "bn": boltyanskii_type, "const": constant}


def apply_comparison(op: str, lhs, rhs) -> bool:
    return bool(_COMPARE[op](lhs, rhs))


def evaluate_expr(expr: Expr, bindings: Mapping[str, int] | None = None):
    """Evaluate a parse tree to a value: integer (possibly inf),
    dimension type, group, sigma-set, or boolean.

    An invalid or undefined value raises its error placed at the
    innermost node that raised it.

    >>> print(render(evaluate_expr(parse("sigma(Z^1)")), "pretty"))
    {Z_(p): all p}
    >>> evaluate_expr(parse("dim(B(4) boxplus B(4))"))
    7
    >>> evaluate_expr(parse("n + 1"), {"n": 5})
    6
    >>> evaluate_expr(parse("5 - inf"))
    Traceback (most recent call last):
        ...
    dimcalc.exprs.EvaluationError: cannot subtract inf (line 1, column 3)
    """
    if expr.value is not None:
        return expr.value
    op, args, ev = expr.op, expr.args, evaluate_expr
    try:
        match op:
            case "int":
                return args[0]
            case "param":
                if bindings is None or args[0] not in bindings:
                    raise EvaluationError(f"unbound parameter {args[0]!r}")
                value = bindings[args[0]]
                if value is not INF and (isinstance(value, bool) or not isinstance(value, int)):
                    raise EvaluationError(
                        f"parameter {args[0]!r} must be an integer or inf, got {value!r}")
                return value if value is INF else int(value)
            case "add" | "dsum":
                return ev(args[0], bindings) + ev(args[1], bindings)
            case "sub":
                lhs, rhs = ev(args[0], bindings), ev(args[1], bindings)
                if rhs is INF:
                    raise EvaluationError("cannot subtract inf")
                return lhs - rhs
            case "mul":
                lhs, rhs = ev(args[0], bindings), ev(args[1], bindings)
                if lhs is INF or rhs is INF:
                    raise EvaluationError("cannot multiply by inf")
                product = lhs * rhs
                if abs(product) >= _NUMBER_LIMIT:
                    raise EvaluationError(f"product longer than {MAX_DIGITS} digits")
                return product
            case "neg":
                value = ev(args[0], bindings)
                if value is INF:
                    raise EvaluationError("cannot negate inf")
                return -value
            case "type":
                # entries are (base, mark) pairs built here: their errors are the literal's
                q, (base, mark), entries = args
                return DimensionType(
                    ev(q, bindings), decorated_number(ev(base, bindings), mark),
                    {p: decorated_number(ev(b, bindings), m) for p, (b, m) in entries})
            # DimensionType methods, read off the class so a method patched there is called
            case "boxplus" | "oplus":
                return getattr(DimensionType, op)(ev(args[0], bindings), ev(args[1], bindings))
            case "star" | "dim":
                return getattr(DimensionType, op)(ev(args[0], bindings))
            case "shift":
                amount = ev(args[1], bindings)
                if amount is INF:
                    raise EvaluationError("shift amount must be a finite integer")
                return ev(args[0], bindings) + amount
            case "sigma":
                return bockstein_basis(ev(args[0], bindings))
            case "rationals" | "free" | "cyclic":
                return _CONSTRUCTORS[op](*args)
            case "circle" | "localized" | "bn" | "const":
                return _CONSTRUCTORS[op](ev(args[0], bindings))
            case "pres":
                rows, generators = args
                return Presented(generators, tuple(
                    tuple(ev(e, bindings) for e in row) for row in rows))
            case "leq" | "eq":
                return apply_comparison(op, ev(args[0], bindings), ev(args[1], bindings))
            case _:
                raise ValueError(f"unknown node {op!r}")
    except (ValidityError, EvaluationError) as err:
        if hasattr(err, "line"):
            raise
        raise placed(err, expr.line, expr.column) from None


def render(value, format: str = "pretty") -> str:
    """Render a value as canonical text or a stable JSON tree.

    Pretty output of a dimension type parses back to an equal value.

    >>> render(boltyanskii_type(6), "pretty")
    '{q=5; *=5+}'
    >>> render(constant(0), "pretty")
    '{q=0; *=0}'
    """
    return formatted(format, lambda: _pretty(value), lambda: to_json(value))


def formatted(format: str, pretty, tree) -> str:
    """Text in one of FORMATS, ``pretty()`` or the JSON of ``tree()``; values
    and reports both render here.  Any other format is a ValueError."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    return pretty() if format == "pretty" else json.dumps(tree(), sort_keys=True)


def _pretty(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _extnat_json(value):
    return "inf" if value is INF else value


def to_json(value):
    """The JSON tree of a value, as structured output and reports show it."""
    if isinstance(value, bool):
        return {"kind": "boolean", "value": value}
    if isinstance(value, int) or value is INF:
        return {"kind": "extnat", "value": _extnat_json(value)}
    if isinstance(value, DecoratedNumber):
        return {
            "kind": "decorated-number",
            "base": _extnat_json(value.base),
            "decoration": value.decoration.name.lower(),
        }
    if isinstance(value, DimensionType):
        return {
            "kind": "dimension-type",
            "q": _extnat_json(value.rational),
            "default": to_json(value.default),
            "exceptions": {str(p): to_json(e) for p, e in value.exceptions},
        }
    if isinstance(value, SigmaSet):
        return {"kind": "sigma-set", **fields_tree(value)}
    if isinstance(value, StructuralProfile):
        return {"kind": "structural-profile", **fields_tree(value)}
    if isinstance(value, GroupExpr):
        return {"kind": "group", "text": str(value)}
    if isinstance(value, BocksteinGroup):
        return {"kind": "basis-group", "text": str(value)}
    raise ValueError(f"cannot render {value!r}")


def fields_tree(record) -> dict:
    """The fields of a dataclass as a JSON tree: a nested dataclass becomes
    its own tree, a tuple a list and a frozenset a sorted list."""
    return {f.name: _field_json(getattr(record, f.name)) for f in fields(record)}


def _field_json(value):
    if is_dataclass(value):
        return fields_tree(value)
    if isinstance(value, tuple):
        return [_field_json(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value
