"""Work counts of the core calculus, held under pinned ceilings.

Wall time on a shared host swings too much to gate a change that adds
work; call counts do not.  ``bench/tracing.py``'s ``instrument`` (loaded
by path, read-only) records one span per call of each function it lists,
and two seeded runs are counted with the decorated-number memo cleared
first: a 200-sample law suite and the n = 6 cube sweep.  A ceiling may be
lowered when a change removes work, and is never raised.
"""

from collections import Counter

import pytest

import dimcalc.cli  # noqa: F401  (instrument patches every module it lists)
from dimcalc import check_algebra_laws, cube_theorem_sweep
from dimcalc.decorated import decorated_number
from test_tracing import load_tracing

RUNS = {
    "laws": lambda: check_algebra_laws(seed=1, samples=200),
    "sweep": lambda: cube_theorem_sweep(6, 8),
}

CEILINGS = {
    "laws": {"decorated.construct": 9001, "decorated.is_prime": 18608,
             "decorated.dim": 0, "decorated.le": 600},
    "sweep": {"decorated.construct": 649, "decorated.is_prime": 0,
              "decorated.dim": 477, "decorated.le": 170},
}


def span_counts(run) -> Counter:
    tracing = load_tracing()
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
