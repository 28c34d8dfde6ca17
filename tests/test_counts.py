"""Work counts of the calculus, the language and groups, held under pinned ceilings.

Wall time on a shared host swings too much to gate a change that adds
work; call counts do not.  ``bench/tracing.py``'s ``instrument`` (loaded
by path, read-only) records one span per call of each function it lists,
and five fixed runs are counted with the decorated-number memo cleared
first: a 200-sample law suite, the n = 6 cube sweep, a narrow n = 20
sweep, a language batch and a groups batch.  A ceiling may be lowered
when a change removes work, and is never raised.

The batches call every span target as ``dimcalc.<module>.<name>`` at
call time: a name imported here before ``instrument`` runs would bypass
its span.
"""

from collections import Counter

import pytest

import dimcalc.cli  # noqa: F401  (instrument patches every module it lists)
from dimcalc import check_algebra_laws, cube_theorem_sweep
from dimcalc.decorated import Decoration, decorated_number
from test_tracing import load_bench

# the texts of the README's eval and sigma examples
README_EVALS = ("dim(B(4) boxplus B(4))", "(DT{q=2; *=3-} oplus DT{q=2; *=1+}) + 1 == B(6)",
                "-1+2")
README_SIGMAS = ("Z/2 + Z/12",)


def language_batch():
    exprs, harness = dimcalc.exprs, dimcalc.harness
    reports = [harness.run_scenario(harness.builtin_scenario("section4"), {"n": n})
               for n in range(6, 9)]
    values = [exprs.evaluate_expr(exprs.parse(text)) for text in README_EVALS]
    values += [dimcalc.groups.bockstein_basis(exprs.evaluate_expr(exprs.parse(text)))
               for text in README_SIGMAS]
    for format in exprs.FORMATS:
        for report in reports:
            report.render(format)
        for value in values:
            exprs.render(value, format)


def groups_batch():
    decorated, groups = dimcalc.decorated, dimcalc.groups
    # DT{q=2; *=3-; 5=1+} with Z/12 + Zpinf(5) + Zloc(7) + Z
    d = decorated.DimensionType(2, decorated.DecoratedNumber(3, Decoration.MINUS),
                                {5: decorated.DecoratedNumber(1, Decoration.PLUS)})
    groups.dim_with_coefficients(
        d, groups.Cyclic(12) + groups.PadicCircle(5) + groups.LocalizedIntegers(7)
        + groups.Free(1))
    # the five bases of acceptance criterion 3
    for group in (groups.Free(1), groups.Rationals(), groups.PadicCircle(7),
                  groups.Cyclic(2) + groups.Cyclic(12), groups.PadicCircle(3) + groups.Cyclic(3)):
        groups.bockstein_basis(group)


RUNS = {
    "laws": lambda: check_algebra_laws(seed=1, samples=200),
    "sweep": lambda: cube_theorem_sweep(6, 8),
    # bound 24 at n = 20: a sweep that built the whole grid from 0 and
    # filtered it by the floor would make 2169 types and 1258 comparisons
    # here; the grid from the floor needs no filter, so the only
    # comparisons left are part (a)'s 8
    "narrow-sweep": lambda: cube_theorem_sweep(20, 24),
    "language": language_batch,
    "groups": groups_batch,
}

CEILINGS = {
    "laws": {"decorated.construct": 9001, "decorated.is_prime": 18608,
             "decorated.dim": 0, "decorated.le": 600, "decorated.decnum": 97},
    "sweep": {"decorated.construct": 536, "decorated.is_prime": 0,
              "decorated.dim": 477, "decorated.le": 8, "decorated.decnum": 30},
    "narrow-sweep": {"decorated.construct": 1016, "decorated.le": 8},
    "language": {"exprs.parse": 10, "exprs.evaluate": 134, "decorated.construct": 35,
                 "decorated.is_prime": 5, "groups.predicate": 1, "decorated.decnum": 12},
    # the dim_with_coefficients example reads sigma(G) from the set-based
    # profile: it builds no predicate and no basis, and reads its marked
    # entries from one dict, with no entry() scan, no prime test and no
    # BocksteinGroup; the 5 bases and 3 predicates are the five bases' own
    "groups": {"exprs.parse": 0, "exprs.evaluate": 0, "decorated.construct": 1,
               "decorated.is_prime": 15, "groups.predicate": 3, "groups.sigma": 5,
               "decorated.decnum": 2, "decorated.entry": 0, "decorated.basis_group": 0,
               "decorated.value_at": 0},
}


def span_counts(run) -> Counter:
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    decorated_number.cache_clear()
    with tracing.instrument(tracer):
        run()
    return Counter(tracer.names[i] for i in tracer.name)


@pytest.mark.parametrize("run", RUNS)
def test_calls_stay_under_their_ceilings(run):
    counts = span_counts(RUNS[run])
    over = {span: counts[span] for span, ceiling in CEILINGS[run].items()
            if counts[span] > ceiling}
    assert over == {}


@pytest.mark.parametrize("run", RUNS)
def test_counts_repeat(run):
    assert span_counts(RUNS[run]) == span_counts(RUNS[run])
