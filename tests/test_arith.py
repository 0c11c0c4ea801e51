import math
import random
from fractions import Fraction

import pytest

from coopbasis import (GExpansion, Poly, SymbolicPoly, alpha_p, base_p_digits,
                       is_prime, legendre_valuation_factorial, nu_p)


def test_nu_p_examples():
    assert nu_p(2, 24) == 3
    assert nu_p(2, 0) is None
    assert nu_p(3, Fraction(28, 9)) == -2


@pytest.mark.parametrize("inexact", [0.5, 0.1, True])
@pytest.mark.parametrize("use", [
    lambda x: Poly((1, x)),
    lambda x: Poly.one() * x,
    lambda x: SymbolicPoly.constant(x),
    lambda x: SymbolicPoly({(("u1", 1),): x}),
    lambda x: SymbolicPoly.variable("v1") * x,
    lambda x: nu_p(2, x),
    lambda x: GExpansion({1: x}),
    lambda x: Poly.from_json(["1", x]),
    lambda x: Poly.one() + x,
    lambda x: x - Poly.one(),
    lambda x: Poly.monomial(x, 2),
])
def test_inexact_scalars_are_rejected(use, inexact):
    with pytest.raises(TypeError):
        use(inexact)


def test_nu_p_rejects_non_primes():
    for bad in (0, 1, 4, 6, -3):
        with pytest.raises(ValueError):
            nu_p(bad, 8)


def test_alpha_p_examples():
    assert alpha_p(2, 4) == 1
    assert alpha_p(2, 7) == 3
    assert alpha_p(3, 10) == 2
    assert alpha_p(5, 0) == 0


def test_base_p_digits():
    assert base_p_digits(2, 5) == (1, 0, 1)
    assert base_p_digits(3, 10) == (1, 0, 1)
    assert base_p_digits(2, 0) == ()
    with pytest.raises(ValueError):
        base_p_digits(2, -1)


def test_legendre_examples():
    assert legendre_valuation_factorial(2, 4) == 3
    assert legendre_valuation_factorial(2, 0) == 0
    assert legendre_valuation_factorial(3, 10) == 4


def test_legendre_matches_factored_factorials():
    for p in (2, 3, 5):
        for n in range(200):
            assert legendre_valuation_factorial(p, n) == nu_p(p, math.factorial(n))


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _random_rational(rng):
    return Fraction(rng.randint(-400, 400), rng.randint(1, 400))


def test_valuation_is_additive_on_products():
    rng = random.Random(7)
    for _ in range(300):
        for p in (2, 3, 5):
            x, y = _random_rational(rng), _random_rational(rng)
            if x == 0 or y == 0:
                continue
            assert nu_p(p, x * y) == nu_p(p, x) + nu_p(p, y)


def test_valuation_ultrametric_inequality():
    rng = random.Random(11)
    for _ in range(300):
        for p in (2, 3, 5):
            x, y = _random_rational(rng), _random_rational(rng)
            vx, vy, vsum = nu_p(p, x), nu_p(p, y), nu_p(p, x + y)
            if x + y == 0:
                assert vsum is None
                continue
            low = min(v for v in (vx, vy) if v is not None)  # None is +infinity
            assert vsum >= low
            if vx != vy:
                assert vsum == low
