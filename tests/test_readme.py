"""The README's examples run as written.

The Library block runs through doctest, and every ``$ dimcalc ...``
example that lists its output runs through ``cli.main`` and must print
exactly that output.  Each cap the README states is its constant's value.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from dimcalc import cli, decorated, exprs
from dimcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def cli_examples():
    """(argv, output) of each ``$ dimcalc`` line followed by output."""
    examples = []
    for _, body in BLOCKS:
        for command, output in re.findall(r"^\$ dimcalc (.*)\n((?:(?!\$ ).*\n)*)", body,
                                          re.MULTILINE):
            if output:
                examples.append((shlex.split(command), output))
    return examples


def test_library_block():
    (block,) = [body for lang, body in BLOCKS if lang == "python"]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    assert test.examples
    assert doctest.DocTestRunner().run(test) == (0, len(test.examples))


EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv, output", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_cli_example(argv, output, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (output, "")


def test_examples_found():
    assert len(EXAMPLES) == 4


# each cap as the README states it, read with its line breaks as spaces
FLAT = " ".join(TEXT.split())
CAPS = {
    "MAX_BOUND": (cli, r"`sweep --bound` is at most (\d+)"),
    "MAX_SAMPLES": (cli, r"--samples` at most (\d+)"),
    "MAX_N_RUNS": (cli, r"range holds at most (\d+) values"),
    "MAX_DIGITS": (exprs, r"(?:at most|longer than) (\d+) digits"),
    "MAX_DEPTH": (exprs, r"nest at most (\d+) levels deep"),
    "PRIME_BOUND": (decorated, r"Primes are decided exactly below (\d+)"),
}


@pytest.mark.parametrize("name", CAPS)
def test_stated_caps_are_their_constants(name):
    module, pattern = CAPS[name]
    stated = {int(value) for value in re.findall(pattern, FLAT)}
    assert stated == {getattr(module, name)}
