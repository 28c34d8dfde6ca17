"""The calculus against the topology it encodes, stated from definitions.

Every check here writes its statement from the paper or from Bockstein
theory, not from the code it tests: a rule that the calculus and an
oracle built from the same rows share cannot pass unseen.

- A Boltyanskii compactum is an n-dimensional X with
  dim(X x X) = 2n - 1 (the paper's abstract).  ``is_boltyanskii`` is
  checked against that equation over every uniform type and every type
  with one exception at 2, bases up to 10.
"""

import pytest

from dimcalc import Decoration, DimensionType, ValidityError, uniform_types
from dimcalc.decorated import decorated_number

BOUND = 10


def one_exception_types(bound):
    """Each uniform type up to bound with its entry at 2 replaced by every
    decorated number of base up to bound that keeps it valid."""
    for d in uniform_types(bound):
        for base in range(bound + 1):
            for mark in Decoration:
                try:
                    yield DimensionType(d.rational, d.default, [(2, decorated_number(base, mark))])
                except ValidityError:
                    pass


@pytest.mark.parametrize("universe, size", [
    (uniform_types, 241),
    (one_exception_types, 5323),
], ids=["uniform", "one exception at 2"])
def test_is_boltyanskii_is_the_papers_definition(universe, size):
    # every type of dimension n >= 1 in the universe, and both answers occur
    answers = []
    for d in universe(BOUND):
        n = d.dim()
        if n >= 1:
            answers.append(d.is_boltyanskii(n))
            assert answers[-1] == (d.boxplus(d).dim() == 2 * n - 1), d
    assert len(answers) == size and set(answers) == {True, False}
