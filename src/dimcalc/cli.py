"""Command line front end.

Subcommands:

* ``eval "<expr>"``: evaluate one expression and print the value; an
  expression that starts with ``-`` follows ``--`` (``eval -- "-1+2"``),
  or argparse reads it as an option.
* ``verify --scenario <name|file> [--n A..B]``: run a claim scenario;
  the builtin ``laws`` target runs the seeded random law suites
  (``--seed``, ``--samples``).  A range with a negative lower bound is
  written ``--n=-3..3``; as a separate word, argparse reads ``-3..3`` as
  an option.
* ``sweep --cube --n N --bound K``: exhaustive grid check of the fiber
  argument.
* ``sigma "<group>"``: print the Bockstein basis of a group expression.

The work of one run is capped: ``sweep --bound`` at MAX_BOUND, the
length of an ``--n`` range at MAX_N_RUNS and ``--samples`` at
MAX_SAMPLES.  Going over a cap is an invalid value.

Exit codes, set in ``main`` alone: 0 for success (and true comparisons),
1 for a false comparison or failed report, 2 for any error.
"""

from __future__ import annotations

# dimcalc compiles before argparse loads, which keeps the CLI's peak RSS down.
from .decorated import ValidityError
from .exprs import (
    FORMATS,
    _DIGIT,
    MAX_DIGITS,
    EvaluationError,
    ParseError,
    TypeMismatchError,
    _need,
    evaluate_expr,
    formatted,
    parse,
    render,
)
from .groups import bockstein_basis
from .harness import (
    Scenario,
    builtin_scenario,
    builtin_scenario_names,
    check_algebra_laws,
    cube_theorem_sweep,
    run_scenario,
)

import argparse
import re
import sys
from pathlib import Path

MAX_BOUND = 100  # largest sweep --bound K; at n = 4 it builds about 2*(K-1)**2 fiber types
MAX_N_RUNS = 1000  # most values in one --n range, each one scenario run
MAX_SAMPLES = 10_000  # largest --samples of the law suite, its default
_BOUND = re.compile(rf"-?[{_DIGIT}]+")  # an --n bound: ASCII digits, as in the language
_ECHO = 40  # an error quotes a text this long whole, a longer one cut and '...'
_TARGETS = (*builtin_scenario_names(), "laws")  # the builtin names of verify --scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimcalc",
        description="Exact calculator for decorated dimension types and Bockstein bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=FORMATS, default="pretty",
            help="output as canonical text or as a JSON tree")

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("expression")
    p_eval.set_defaults(handler=_cmd_eval)
    add_format(p_eval)

    p_verify = sub.add_parser("verify", help="run a claim scenario or the law suites")
    p_verify.add_argument(
        "--scenario", required=True,
        help="builtin name (%s) or path to a scenario file" % ", ".join(_TARGETS))
    p_verify.add_argument(
        "--n", dest="n_range", metavar="A..B",
        help="bind the parameter n to one value or to every value of a range, at most "
             f"{MAX_N_RUNS} values; write --n=A..B when A is negative")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the laws target")
    p_verify.add_argument(
        "--samples", type=int, default=MAX_SAMPLES,
        help=f"sample count for the laws target, at most {MAX_SAMPLES}")
    p_verify.set_defaults(handler=_cmd_verify)
    add_format(p_verify)

    p_sweep = sub.add_parser("sweep", help="exhaustive checks over finite type grids")
    p_sweep.add_argument("--cube", action="store_true", required=True,
                         help="the two-inequality sweep behind the fiber argument")
    p_sweep.add_argument("--n", type=int, required=True, help="ambient dimension, at least 4")
    p_sweep.add_argument("--bound", type=int, required=True,
                         help=f"largest base enumerated, at most {MAX_BOUND}")
    p_sweep.set_defaults(handler=_cmd_sweep)
    add_format(p_sweep)

    p_sigma = sub.add_parser("sigma", help="Bockstein basis of a group expression")
    p_sigma.add_argument("group")
    p_sigma.set_defaults(handler=_cmd_sigma)
    add_format(p_sigma)

    return parser


def _echo(text: str) -> str:
    return repr(text) if len(text) <= _ECHO else f"{text[:_ECHO]!r}..."


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    bounds = (lo, hi) if sep else (lo, lo)
    if not all(_BOUND.fullmatch(bound) for bound in bounds):
        raise ValidityError(f"--n expects an integer or a range A..B, got {_echo(text)}")
    if any(len(bound.lstrip("-")) > MAX_DIGITS for bound in bounds):
        raise ValidityError(f"--n bound longer than {MAX_DIGITS} digits")
    first, last = map(int, bounds)
    if last < first:
        raise ValidityError(f"empty range {_echo(text)}")
    if last - first >= MAX_N_RUNS:
        raise ValidityError(f"--n range longer than {MAX_N_RUNS} values")
    return range(first, last + 1)


def _at_most(cap: int, option: str, value: int) -> int:
    if value > cap:
        raise ValidityError(f"{option} is at most {cap}, got {value}")
    return value


def _cmd_eval(args) -> tuple[str, object]:
    value = evaluate_expr(parse(args.expression))
    return render(value, args.format), value


def _resolve_scenario(name: str) -> Scenario:
    if name in builtin_scenario_names():
        return builtin_scenario(name)
    try:
        if Path(name).exists():
            return Scenario.from_path(name)
    except OSError as err:  # str(err) would quote the whole path
        raise OSError(f"[Errno {err.errno}] {err.strerror}: {_echo(err.filename)}") from None
    raise ValidityError(f"no builtin scenario or file named {_echo(name)} "
                        f"(builtins: {', '.join(_TARGETS)})")


def _cmd_verify(args) -> tuple[str, bool]:
    if args.scenario == "laws":
        report = check_algebra_laws(
            seed=args.seed, samples=_at_most(MAX_SAMPLES, "--samples", args.samples))
        return report.render(args.format), report.passed
    scenario = _resolve_scenario(args.scenario)
    if args.n_range is not None:
        runs = [{"n": value} for value in _parse_n_range(args.n_range)]
    else:
        runs = [{}]
    reports = [run_scenario(scenario, bindings) for bindings in runs]
    text = formatted(args.format, lambda: "\n\n".join(r.render("pretty") for r in reports),
                     lambda: [r.tree() for r in reports])
    return text, all(r.passed for r in reports)


def _cmd_sweep(args) -> tuple[str, bool]:
    report = cube_theorem_sweep(args.n, _at_most(MAX_BOUND, "--bound", args.bound))
    return report.render(args.format), report.passed


def _cmd_sigma(args) -> tuple[str, None]:
    expr = parse(args.group)
    _need(expr, "group", "sigma needs a group expression, found {}", expr.line, expr.column)
    return render(bockstein_basis(evaluate_expr(expr)), args.format), None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse usage errors already print; keep code 2
        return 2 if exit_.code else 0
    try:
        text, verdict = args.handler(args)
        print(text)
    except (ParseError, TypeMismatchError, ValidityError, EvaluationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if verdict is not False else 1  # False: a false comparison or failed report


if __name__ == "__main__":
    sys.exit(main())
