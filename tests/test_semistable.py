import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopbasis import (DEFAULT_MAX_DEGREE, DEFAULT_RESIDUE_BUDGET, GExpansion, Poly,
                       ResourceLimitError, expand_in_g, g_poly, integrality_verdicts,
                       is_semistable_2local, is_semistable_plocal_residues, nu_p, phi_family,
                       phi_monomials)
from references import (binomial_poly, evaluate, gexpansion_from_json, substitute_affine,
                        to_poly)
from test_properties import PROPERTY


def test_binomial_poly_examples():
    assert binomial_poly(0) == Poly.one()
    assert binomial_poly(2) == Poly((0, Fraction(-1, 2), Fraction(1, 2)))
    assert binomial_poly(3) == Poly((0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)))


def test_g_poly_examples():
    assert g_poly(1) == Poly((Fraction(-1, 2), Fraction(1, 2)))
    assert g_poly(2) == Poly((Fraction(3, 8), Fraction(-1, 2), Fraction(1, 8)))
    assert evaluate(g_poly(2), 5) == 1


def test_g_is_binomial_after_coordinate_change():
    for n in range(32):
        assert substitute_affine(binomial_poly(n), Fraction(1, 2), Fraction(-1, 2)) == g_poly(n)


def test_expand_in_g_examples():
    assert expand_in_g(Poly((0, 0, 1))) == GExpansion({2: 8, 1: 8, 0: 1})
    assert expand_in_g(g_poly(3)) == GExpansion({3: 1})
    phi2 = phi_family(2, 2).phi(2)
    assert dict(expand_in_g(phi2).items()) == {3: 12, 2: 17, 1: 6}
    assert expand_in_g(Poly.zero()) == GExpansion()
    for n in range(65):
        assert expand_in_g(g_poly(n)) == GExpansion({n: 1})


def test_expansion_recombines_exactly():
    rng = random.Random(5)
    for _ in range(25):
        f = Poly([Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                  for _ in range(rng.randint(0, 41))])
        expansion = expand_in_g(f)
        assert to_poly(expansion) == f
        assert all(j <= max(f.degree, 0) for j, _ in expansion.items())
    for _ in range(25):
        f = Poly([Fraction(rng.randint(-10 ** 6, 10 ** 6),
                           2 ** rng.randint(0, 12) * rng.choice((1, 3, 5, 7, 45)))
                  for _ in range(rng.randint(0, 61))])
        assert to_poly(expand_in_g(f)) == f
    phi7 = phi_family(2, 7, verify_integrality=False).phi(7)
    expansion = expand_in_g(phi7)
    assert to_poly(expansion) == phi7
    assert max(dict(expansion.items())) == 127
    assert all(nu_p(2, b) >= 0 for _, b in expansion.items())


def test_gexpansion_json_round_trip():
    expansion = expand_in_g(Poly((Fraction(1, 3), 0, 7)))
    assert gexpansion_from_json(expansion.to_json()) == expansion


def test_gexpansion_rejects_indices_it_cannot_store():
    # coordinates are stored densely, so an index must be natural and within the degree cap
    with pytest.raises(ValueError, match="g-indices"):
        GExpansion({-1: 1})
    with pytest.raises(ValueError, match="g-indices"):
        GExpansion([(-1, 1), (2, Fraction(1, 3))])
    with pytest.raises(ValueError, match="g-indices"):
        GExpansion({DEFAULT_MAX_DEGREE + 1: 1})
    # an index that is not an int is refused, not rounded or converted to one
    for index in (1.9, True, 1.0, "1", Fraction(1)):
        with pytest.raises(TypeError, match="g-indices"):
            GExpansion({index: 1})
    assert GExpansion({3: 0, 1: Fraction(1, 2)}).items() == ((1, Fraction(1, 2)),)


def test_gexpansion_is_never_equal_to_a_dict():
    # equality with a mapping is not defined, so it neither matches nor raises
    expansion = GExpansion({1: 1})
    assert expansion != {1: 1}
    assert expansion != {"x": 0}
    assert expansion in [{"x": 0}, expansion]


def test_is_semistable_2local_examples():
    assert is_semistable_2local(g_poly(1))
    assert not is_semistable_2local(Poly((0, Fraction(1, 2))))  # w/2 is 1/2 at w=1
    assert is_semistable_2local(Poly((Fraction(-3, 8), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))))


def test_semistable_ring_closure():
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        assert is_semistable_2local(g_poly(m) * g_poly(n))


def test_degree_zero_cases():
    assert is_semistable_2local(Poly.constant(Fraction(3, 5)))
    assert not is_semistable_2local(Poly.constant(Fraction(1, 2)))
    assert is_semistable_plocal_residues(3, Poly.constant(Fraction(2, 5)))
    assert not is_semistable_plocal_residues(3, Poly.constant(Fraction(1, 3)))


def test_residue_test_examples():
    assert is_semistable_plocal_residues(3, Poly((Fraction(-1, 3), 0, Fraction(1, 3))))
    assert not is_semistable_plocal_residues(3, Poly((0, Fraction(1, 3))))
    phi2_p3 = phi_family(3, 2).phi(2)
    assert is_semistable_plocal_residues(3, phi2_p3)


def test_residue_budget_error_names_required_exponent():
    phi2_p3 = phi_family(3, 2).phi(2)  # needs e = 4
    with pytest.raises(ResourceLimitError) as excinfo:
        is_semistable_plocal_residues(3, phi2_p3, budget=100)
    assert excinfo.value.required == 4
    assert excinfo.value.budget == 100


def test_integrality_verdicts_name_each_outcome():
    w = Poly.variable()
    assert integrality_verdicts(2, [g_poly(3), w * Fraction(1, 2)], 10) == [True, False]
    fam = phi_family(3, 3, verify_integrality=False)
    odd = [fam.phi(1), (w * w - 1) * Fraction(1, 9), fam.phi(3)]
    assert integrality_verdicts(3, odd, DEFAULT_RESIDUE_BUDGET) == [True, False, None]
    assert integrality_verdicts(3, odd, 10) == [True, None, None]


def test_both_testers_agree_at_p2():
    rng = random.Random(29)
    for _ in range(60):
        f = Poly([Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4, 8)))
                  for _ in range(rng.randint(0, 13))])
        assert is_semistable_2local(f) == is_semistable_plocal_residues(2, f)


def _exhausted_residues(p, f):
    """The earlier tester, kept as the reference: Horner at every unit mod p^e, no budget."""
    nums, den = f.as_integer_ratio()
    e = nu_p(p, den)
    if e == 0:
        return True
    modulus = p ** e
    unit_inverse = pow(den // modulus, -1, modulus)
    scaled = [c * unit_inverse % modulus for c in nums]
    for k in range(1, modulus):
        if k % p == 0:
            continue
        acc = 0
        for c in reversed(scaled):
            acc = (acc * k + c) % modulus
        if acc:
            return False
    return True


@st.composite
def residue_cases(draw):
    """(p, f): an integer numerator over p^e times a unit, plus an integral-valued c * phi_1^m."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, max(e for e in range(1, 8) if p ** e <= 3 ** 7)))
    unit = draw(st.integers(1, 30).filter(lambda u: u % p))
    scale = p ** draw(st.integers(0, e))
    numerator = Poly([scale * c for c in draw(st.lists(st.integers(-50, 50), max_size=8))])
    phi1 = (Poly.monomial(1, p - 1) - 1) * Fraction(1, p)
    f = (numerator * Fraction(1, p ** e * unit)
         + phi1 ** draw(st.integers(0, e)) * draw(st.integers(-9, 9)))
    return p, f


@PROPERTY
@given(residue_cases())
def test_residue_test_matches_the_exhaustive_reference(case):
    p, f = case
    assert is_semistable_plocal_residues(p, f) == _exhausted_residues(p, f)


def _euler(p, exponent, e):
    """(w^exponent - 1)/p^e, integral-valued iff every unit's order mod p^e divides exponent."""
    return (Poly.monomial(1, exponent) - 1) * Fraction(1, p ** e)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_test_decides_euler_congruences(p):
    # the units mod p^e are cyclic of order (p-1)p^(e-1)
    for e in range(1, 5):
        assert is_semistable_plocal_residues(p, _euler(p, (p - 1) * p ** (e - 1), e))
    for e in range(2, 5):
        assert not is_semistable_plocal_residues(p, _euler(p, (p - 1) * p ** (e - 2), e))


def test_residue_test_decides_euler_congruences_at_2():
    # the units mod 2^e (e >= 3) have exponent 2^(e-2)
    for e in range(3, 8):
        assert is_semistable_plocal_residues(2, _euler(2, 2 ** (e - 2), e))
        assert not is_semistable_plocal_residues(2, _euler(2, 2 ** (e - 3), e))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_test_matches_the_reference_on_the_phi_monomials(p):
    decided = 0
    for monomial in phi_monomials(p, p * p, phi_family(p, 2, verify_integrality=False)):
        f = monomial.poly
        if p ** nu_p(p, f.as_integer_ratio()[1]) * (f.degree + 1) > DEFAULT_RESIDUE_BUDGET:
            with pytest.raises(ResourceLimitError):
                is_semistable_plocal_residues(p, f)
        else:
            assert is_semistable_plocal_residues(p, f) == _exhausted_residues(p, f)
            decided += 1
    assert decided >= p  # phi_1^j for j < p at least


def test_residue_budget_gate_charges_every_unit_mod_p_to_the_e():
    with pytest.raises(ResourceLimitError, match=r"^residue test needs e=20: p\^e\*\(deg\+1\) = "
                                                 r"142958160441 exceeds budget 10000000$"):
        is_semistable_plocal_residues(3, Poly.parse("((w^2-1)/3)^20"))
