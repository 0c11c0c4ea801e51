import math
import random
from fractions import Fraction

import pytest

from coopbasis import Poly, PolyParseError, poly as poly_module
from references import evaluate, substitute_affine


def poly(*coeffs):
    return Poly(coeffs)


def test_construction_trims_and_normalizes():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly(()).is_zero()
    assert Poly((0,)).is_zero()
    assert Poly((Fraction(1, 2),)).coefficient(0) == Fraction(1, 2)


def test_degree_of_zero_is_minus_one():
    assert Poly.zero().degree == -1
    assert Poly.one().degree == 0
    assert Poly.monomial(3, 5).degree == 5


def test_mul_example():
    assert poly(-1, 1) * poly(-3, 1) == poly(3, -4, 1)


def test_pow_examples():
    f = poly(5, -2, 7)
    assert f ** 0 == Poly.one()
    half = poly(Fraction(-1, 2), Fraction(1, 2))
    assert half ** 2 == poly(Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        f ** -1


def test_ring_operations_build_no_fraction(monkeypatch):
    f = poly(Fraction(-3, 8), 0, Fraction(5, 6), 2)
    g = poly(Fraction(1, 4), Fraction(-7, 9))
    scalar = Fraction(-2, 3)
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(poly_module, "Fraction", CountingFraction)
    results = [f + g, g + f, f - g, g - f, -f, f * g, f * scalar, g * 3, f ** 3, g ** 0]
    assert built == []
    for result in results:
        nums, den = result.as_integer_ratio()
        assert type(den) is int and all(type(n) is int for n in nums)
    assert results[5] == poly(Fraction(-3, 32), Fraction(7, 24), Fraction(5, 24),
                              Fraction(-4, 27), Fraction(-14, 9))


def test_evaluate_examples():
    assert evaluate(poly(Fraction(-1, 2), Fraction(1, 2)), 3) == 1
    phi2 = poly(Fraction(-3, 8), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))
    assert evaluate(phi2, 3) == 6
    assert evaluate(poly(3, -4, 1), 1) == 0


def test_substitute_affine_examples():
    x = Poly.variable()
    p2 = (x * x - x) * Fraction(1, 2)  # x(x-1)/2
    g2 = poly(Fraction(3, 8), Fraction(-1, 2), Fraction(1, 8))
    assert substitute_affine(p2, Fraction(1, 2), Fraction(-1, 2)) == g2
    f = poly(4, -1, 2, 9)
    assert substitute_affine(f, 1, 0) == f
    assert substitute_affine(Poly.variable(), 2, 1) == poly(1, 2)


def test_substitute_affine_inverts():
    rng = random.Random(3)
    for _ in range(40):
        f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)])
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert substitute_affine(substitute_affine(f, a, b), 1 / a, -b / a) == f


def test_ring_axioms_on_random_inputs():
    rng = random.Random(17)

    def rand_poly():
        return Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 5))])

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert evaluate(f * g, x) == evaluate(f, x) * evaluate(g, x)


def test_json_round_trip():
    f = poly(Fraction(-3, 8), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))
    assert Poly.from_json(f.to_json()) == f
    assert f.to_json() == ["-3/8", "1/4", "-1/8", "1/4"]
    assert Poly.from_json([]) == Poly.zero()


def test_str_rendering():
    assert str(Poly.zero()) == "0"
    assert str(poly(Fraction(-1, 2), Fraction(1, 2))) == "(w - 1)/2"
    assert str(poly(3, -4, 1)) == "w^2 - 4*w + 3"
    assert str(poly(Fraction(-3, 8), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))) \
        == "(2*w^3 - w^2 + 2*w - 3)/8"


@pytest.mark.parametrize("text,expected", [
    ("w^2", Poly((0, 0, 1))),
    ("(w-1)/2", Poly((Fraction(-1, 2), Fraction(1, 2)))),
    ("((w-1)/2)^2", Poly((Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4)))),
    ("3/8*w^2 - w + 1", Poly((1, -1, Fraction(3, 8)))),
    ("-w + 2", Poly((2, -1))),
    ("0", Poly.zero()),
    ("2*w^3/8", Poly((0, 0, 0, Fraction(1, 4)))),
    (" w ^ 2 ", Poly((0, 0, 1))),
])
def test_parse(text, expected):
    assert Poly.parse(text) == expected


def test_parse_round_trips_rendering():
    rng = random.Random(23)
    for _ in range(40):
        f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                  for _ in range(rng.randint(0, 6))])
        assert Poly.parse(str(f)) == f


@pytest.mark.parametrize("bad", ["", "w +", "x^2", "w^-1", "(w", "w/(w+1)", "1/0", "2..3",
                                 "w^2000000", "w^1000*w^1000000"])
def test_parse_errors(bad):
    with pytest.raises(PolyParseError):
        Poly.parse(bad)


def test_parse_refuses_nesting_beyond_the_bound_before_recursing():
    # four frames per level, so 3000 levels would otherwise end in RecursionError
    bound = poly_module.MAX_NESTING
    assert Poly.parse("(" * bound + "w" + ")" * bound) == Poly.variable()
    for depth in (bound + 1, 3000):
        with pytest.raises(PolyParseError, match=f"nested deeper than {bound} levels"):
            Poly.parse("(" * depth + "w" + ")" * depth)


def test_parse_rejects_a_right_factor_before_expanding_it(monkeypatch):
    exponents = []
    power = Poly.__pow__

    def spy(self, exponent):
        exponents.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(Poly, "__pow__", spy)
    with pytest.raises(PolyParseError, match="degree cap"):
        Poly.parse("w^1000*w^1000000")
    assert exponents == [1000]


def test_the_parse_cap_bounds_the_degree_before_a_power_is_built(monkeypatch):
    assert Poly.parse("(w+1)^2*w", max_degree=3).degree == 3
    assert Poly.parse("2^2000", max_degree=1) == Poly.constant(2 ** 2000)  # constants are free
    for text in ("(w+1)^2*w", "w*w*w", "(w^2+1)^2", "w^3 - 1"):
        with pytest.raises(PolyParseError, match="over the degree cap 2$"):
            Poly.parse(text, max_degree=2)

    def never(self, exponent):
        raise AssertionError(f"a power ^{exponent} was built over the cap")

    monkeypatch.setattr(Poly, "__pow__", never)
    with pytest.raises(PolyParseError, match=r"power \^8000 .* over the degree cap 1000$"):
        Poly.parse("(w+1)^8000", max_degree=1000)



@pytest.mark.parametrize("text, what, unbuilt", [
    ("4^999999*w^3", "product", ("*", 0, 3)),
    ("w^3/(1/4^999999)", "quotient", ("*", 3, 0)),
    ("(w+1)^2048", r"power \^2048", ("^", 1, 2048)),
])
def test_parse_refuses_a_product_or_power_over_the_size_cap_before_building_it(
        monkeypatch, text, what, unbuilt):
    built = []
    multiply, power = Poly.__mul__, Poly.__pow__

    def spy_mul(self, other):
        built.append(("*", self.degree, other.degree if isinstance(other, Poly) else None))
        return multiply(self, other)

    def spy_pow(self, exponent):
        built.append(("^", self.degree, exponent))
        return power(self, exponent)

    monkeypatch.setattr(Poly, "__mul__", spy_mul)
    monkeypatch.setattr(Poly, "__pow__", spy_pow)
    with pytest.raises(PolyParseError, match=f"^{what} in .* over the size cap of {2 ** 22} bits$"):
        Poly.parse(text)
    assert built and unbuilt not in built


def test_the_size_cap_admits_the_documented_inputs():
    assert Poly.parse("(w+1)^1000").coefficient(500) == math.comb(1000, 500)
    assert Poly.parse("w^999999").degree == 999999
    assert Poly.parse("2^2000", max_degree=0) == Poly.constant(2 ** 2000)
    # the denominator is shared, so dividing by a large constant costs its bits once
    assert Poly.parse("w^3/4^999999") == Poly.monomial(Fraction(1, 4 ** 999999), 3)
