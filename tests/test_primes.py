"""Primality: ``is_prime`` against sympy, its memo, prime factors, and
large candidates through the command line.
"""

import random
import re
import time

import pytest
from sympy import factorint, isprime, nextprime

from dimcalc import ValidityError
from dimcalc.cli import main
from dimcalc.decorated import PRIME_BOUND, _is_prime, _prime_factors, is_prime, require_prime

# The least strong pseudoprimes to the first k prime bases, k = 1..12
# (2047 for base 2 alone, ..., 318665857834031151167461 for 2..37).
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)

NOT_INTEGERS = (True, False, 2.0, "7", None, [7])


@pytest.fixture(autouse=True)
def cold_memo():
    _is_prime.cache_clear()


class TestIsPrime:
    def test_small_integers_match_sympy(self):
        assert [n for n in range(-5, 10**5) if is_prime(n) != isprime(n)] == []

    def test_seeded_odd_integers_match_sympy(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            n = rng.randrange(3, PRIME_BOUND, 2)
            assert is_prime(n) == isprime(n), n

    def test_seeded_primes_and_semiprimes(self):
        rng = random.Random(7)
        for digits in range(4, 25):
            p = nextprime(rng.randrange(10 ** (digits - 1), 10**digits))
            assert is_prime(p), p
        for digits in range(3, 13):
            p = nextprime(rng.randrange(10 ** (digits - 1), 10**digits))
            q = nextprime(p + rng.randrange(1, 10**digits))
            assert not is_prime(p * q), (p, q)

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not isprime(n)
        assert not is_prime(n)

    def test_bound_is_exact(self):
        assert is_prime(nextprime(PRIME_BOUND - 10**6))
        assert not is_prime(PRIME_BOUND - 1)
        with pytest.raises(ValidityError, match="cannot decide"):
            is_prime(PRIME_BOUND)
        with pytest.raises(ValidityError, match="cannot decide"):
            require_prime(nextprime(PRIME_BOUND))

    def test_small_divisor_wins_above_the_bound(self):
        assert not is_prime(10**30)
        with pytest.raises(ValidityError, match="must be a prime number"):
            require_prime(10**30)

    def test_large_prime(self):
        assert is_prime(10**18 + 3)
        assert require_prime(10**18 + 3) == 10**18 + 3

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_not_an_integer_is_not_prime(self, value):
        assert is_prime(value) is False
        assert is_prime(1) is False and is_prime(7) is True
        with pytest.raises(ValidityError, match="must be a prime number"):
            require_prime(value)

    def test_memo_is_bounded_and_holds_only_integers(self):
        for value in (*NOT_INTEGERS, 1, 0, -7):
            is_prime(value)
        assert _is_prime.cache_info().currsize == 0
        for n in range(2, 5000):
            is_prime(n)
        info = _is_prime.cache_info()
        assert info.maxsize == 4096 and info.currsize == 4096


class TestPrimeFactors:
    def test_seeded_integers_match_sympy(self):
        rng = random.Random(20261019)
        for _ in range(2000):
            n = rng.randrange(2, 10**7)
            assert _prime_factors(n) == set(factorint(n)), n

    @pytest.mark.parametrize("p, k", [
        (2, 1), (2, 100), (3, 40), (43, 1), (43, 20), (997, 9), (1009, 3),
        (10**18 + 3, 1), (nextprime(10**24), 1),
    ])
    def test_prime_powers(self, p, k):
        # 2**100, 43**20 and 997**9 are above PRIME_BOUND: trial division
        # goes on there instead of asking is_prime
        assert _prime_factors(p**k) == {p}

    def test_smooth_times_large_prime(self):
        rng = random.Random(20261020)
        small = [p for p in range(2, 200) if isprime(p)]
        for _ in range(40):
            q = nextprime(10**18 + rng.randrange(10**6))
            smooth = 1
            for _ in range(rng.randint(0, 12)):
                smooth *= rng.choice(small)
            n = smooth * q
            assert _prime_factors(n) == set(factorint(n)), n


class TestLargeCandidatesThroughCli:
    """Each run decides its primes cold and ends within one second."""

    def run(self, text, capsys):
        start = time.perf_counter()
        code = main(["eval", text])
        assert time.perf_counter() - start < 1.0
        return code, *capsys.readouterr()

    def test_prime_near_1e18(self, capsys):
        code, out, err = self.run("Zpinf(1000000000000000003)", capsys)
        assert (code, out, err) == (0, "Zpinf(1000000000000000003)\n", "")

    def test_prime_exception_key(self, capsys):
        code, out, err = self.run("DT{q=1; *=1; 1000000000000000003=2+}", capsys)
        assert (code, err) == (0, "")
        assert out == "{q=1; *=1; 1000000000000000003=2+}\n"

    @pytest.mark.parametrize("text", [
        "Zpinf(1000000000000000005)",
        "Zloc(10000000000000000000000007)",
        "Zpinf(3317044064679887385961981)",
    ])
    def test_invalid_candidate_exits_two(self, text, capsys):
        code, out, err = self.run(text, capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert re.search(r"\(line 1, column 1\)$", err.strip())

    @pytest.mark.parametrize("group, basis", [
        ("Z/1000000000000000003", "{Z_1000000000000000003}"),
        ("Z/43000000000000000129", "{Z_43, Z_1000000000000000003}"),
        ("pres[[2000000000000000006]]", "{Z_2, Z_1000000000000000003}"),
        ("Z/" + str(43**20), "{Z_43}"),
    ])
    def test_sigma_of_large_moduli(self, group, basis, capsys):
        start = time.perf_counter()
        code = main(["sigma", group])
        assert time.perf_counter() - start < 1.0
        assert (code, *capsys.readouterr()) == (0, basis + "\n", "")
