"""Property tests: ring laws, serialization round trips, tester agreement."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coopbasis import (GExpansion, Poly, Valuation, base_p_digits, digit_products, expand_in_g,
                       is_semistable_2local, is_semistable_plocal_residues, nu_p)

PROPERTY = settings(database=None, derandomize=True, deadline=None)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
polys = st.lists(rationals, max_size=6).map(Poly)
integer_polys = st.lists(st.integers(-9, 9), max_size=4).map(Poly)
PHI1 = Poly((Fraction(-1, 2), Fraction(1, 2)))


@st.composite
def two_power_polys(draw):
    """a + b * phi_1^k, semistable, perturbed half the time by c * w^i / 2^m."""
    f = draw(integer_polys) + draw(integer_polys) * PHI1 ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        c = Fraction(draw(st.integers(-9, 9)), 2 ** draw(st.integers(1, 4)))
        f = f + Poly.monomial(c, draw(st.integers(0, 3)))
    return f


@PROPERTY
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero() == f
    assert f * Poly.one() == f
    assert (f - f).is_zero()
    assert (f * g).degree == (-1 if f.is_zero() or g.is_zero() else f.degree + g.degree)


def _trimmed(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _schoolbook_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    summed = list(a)
    for i, c in enumerate(b):
        summed[i] += c
    return _trimmed(summed)


def _schoolbook_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


@PROPERTY
@given(polys, polys, polys, rationals, st.integers(0, 4))
def test_ring_operations_match_the_fraction_schoolbook(f, g, h, c, e):
    # reference: per-coefficient Fraction arithmetic, which shares nothing with Poly's integer pairs
    a, b = f.coefficients, g.coefficients
    negated_b = tuple(-y for y in b)
    power = (Fraction(1),)
    for _ in range(e):
        power = _schoolbook_mul(power, a)
    expected = {
        "+": (f + g, _schoolbook_add(a, b)),
        "-": (f - g, _schoolbook_add(a, negated_b)),
        "neg": (-g, negated_b),
        "*": (f * g, _schoolbook_mul(a, b)),
        "scalar": (f * c, _trimmed([x * c for x in a])),
        "**": (f ** e, power),
    }
    for op, (result, reference) in expected.items():
        assert result.coefficients == reference, op
        nums, den = result.as_integer_ratio()
        assert den >= 1 and (not nums or nums[-1] != 0) and math.gcd(den, *nums) == 1, op
        assert Poly(reference) == result and hash(Poly(reference)) == hash(result), op
    assert hash(f * (g + h)) == hash(f * g + f * h)
    for p in (2, 3, 5):
        assert f.min_coeff_valuation(p) == min((nu_p(p, x) for x in a), default=Valuation.infinite())


@PROPERTY
@given(polys)
def test_round_trips(f):
    assert Poly.parse(str(f)) == f
    assert Poly.from_json(f.to_json()) == f
    expansion = expand_in_g(f)
    assert GExpansion.from_json(expansion.to_json()) == expansion
    assert expansion.to_poly() == f


@PROPERTY
@given(two_power_polys())
def test_testers_agree_at_2(f):
    assert is_semistable_2local(f) == is_semistable_plocal_residues(2, f)


@PROPERTY
@given(st.sampled_from((2, 3, 5)), st.lists(integer_polys, min_size=1, max_size=3))
def test_digit_products_match_the_digit_definition(p, factors):
    products = digit_products(p, factors, p ** len(factors))
    assert len(products) == p ** len(factors)
    for k, product in enumerate(products):
        expected = Poly.one()
        for factor, digit in zip(factors, base_p_digits(p, k)):
            expected = expected * factor ** digit
        assert product == expected
