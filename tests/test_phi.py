from fractions import Fraction

import pytest

from coopbasis import (InternalConsistencyError, PhiMonomial, Poly, ResourceLimitError,
                       SymbolicPoly, alpha_p, hazewinkel_t_solutions,
                       is_semistable_2local, is_semistable_plocal_residues,
                       phi_family, phi_family_oracle, phi_monomial, phi_monomials)
from references import evaluate, monomial_af


def test_phi_family_first_members():
    fam = phi_family(2, 3)
    assert fam.phi(1) == Poly((Fraction(-1, 2), Fraction(1, 2)))
    assert fam.phi(2) == Poly((Fraction(-3, 8), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4)))
    assert evaluate(fam.phi(2), 3) == 6
    assert evaluate(fam.phi(3), 3) == 255
    assert fam.af == (-1, -3, -7)


def test_phi_family_odd_prime_values():
    fam = phi_family(3, 2)
    assert fam.phi(1) == Poly((Fraction(-1, 3), 0, Fraction(1, 3)))
    assert evaluate(fam.phi(2), 2) == 28
    assert fam.af == (-1, -4)
    assert fam.over_budget == ()
    assert phi_family(3, 3, residue_budget=10).over_budget == (2, 3)


def test_phi_degrees_and_exponent_support():
    for p, count in ((2, 5), (3, 3), (5, 2)):
        fam = phi_family(p, count)
        for n in range(1, count + 1):
            f = fam.phi(n)
            assert f.degree == p ** n - 1
            support = [e for e in range(int(f.degree) + 1) if f.coefficient(e) != 0]
            assert all(e % (p - 1) == 0 for e in support)


def test_phi_family_members_are_integral():
    fam = phi_family(2, 5)
    for n in range(1, 6):
        assert is_semistable_2local(fam.phi(n))
    fam3 = phi_family(3, 2)
    for n in (1, 2):
        assert is_semistable_plocal_residues(3, fam3.phi(n))


def test_phi_monomials_are_integral():
    fam = phi_family(2, 6)
    for k in range(33):
        assert is_semistable_2local(phi_monomial(2, k, fam).poly)
    fam3 = phi_family(3, 2)
    for k in range(9):  # digit products on phi_1, phi_2; all fit the budget
        assert is_semistable_plocal_residues(3, phi_monomial(3, k, fam3).poly)


def test_phi_family_degree_budget():
    with pytest.raises(ResourceLimitError):
        phi_family(7, 9)
    with pytest.raises(ResourceLimitError):
        phi_family_oracle(7, 9)
    with pytest.raises(ResourceLimitError):
        hazewinkel_t_solutions(7, 9)


@pytest.mark.parametrize("p,count", [(2, 5), (3, 3), (5, 2)])
def test_oracle_equivalence(p, count):
    fam = phi_family(p, count)
    oracle = phi_family_oracle(p, count)
    assert fam.polys == oracle.polys
    assert fam.af == oracle.af


@pytest.mark.parametrize("p", [2, 3, 5])
def test_worked_generator_identities(p):
    u = SymbolicPoly.variable("u1")
    v = SymbolicPoly.variable("v1")
    t1, t2 = hazewinkel_t_solutions(p, 2)
    assert t1 == (u - v) * Fraction(1, p)
    assert t2 == (u ** (p + 1) - v ** (p + 1)) * Fraction(1, p ** 2) - v * t1 ** p * Fraction(1, p)


def test_oracle_t1_gives_phi1():
    oracle = phi_family_oracle(2, 1)
    assert oracle.phi(1) == Poly((Fraction(-1, 2), Fraction(1, 2)))


def test_phi_monomial_examples():
    fam = phi_family(2, 3)
    assert phi_monomial(2, 0, fam).poly == Poly.one()
    m3 = phi_monomial(2, 3, fam)
    assert m3.poly == fam.phi(1) * fam.phi(2)
    assert m3.degree == 4
    m5 = phi_monomial(2, 5, fam)
    assert m5.poly == fam.phi(1) * fam.phi(3)
    assert m5.degree == 8
    assert m5.digits == (1, 0, 1)


def test_phi_monomial_needs_family_members():
    fam = phi_family(2, 2)
    with pytest.raises(ValueError):
        phi_monomial(2, 4, fam)  # needs phi_3
    with pytest.raises(ValueError):
        phi_monomial(3, 1, fam)  # prime mismatch


@pytest.mark.parametrize("p,count", [(2, 5), (3, 3), (5, 2)])
def test_phi_monomials_match_phi_monomial(p, count):
    fam = phi_family(p, count)
    monomials = phi_monomials(p, p ** count, fam)
    assert monomials == [phi_monomial(p, k, fam) for k in range(p ** count)]
    with pytest.raises(ValueError):
        phi_monomials(p, p ** count + 1, fam)  # index p^count needs one more phi


@pytest.mark.parametrize("p, k, count",
                         [(2, 0, 1), (2, 127, 7), (2, 100, 7), (3, 80, 4), (5, 124, 3)])
def test_phi_monomial_walks_only_its_digits(monkeypatch, p, k, count):
    fam = phi_family(p, count, verify_integrality=False)
    expected = phi_monomials(p, k + 1, fam)[k]
    calls = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert phi_monomial(p, k, fam) == expected
    assert len(calls) == alpha_p(p, k)


def test_monomial_degree_law():
    for p, count in ((2, 5), (3, 3)):
        fam = phi_family(p, count)
        previous = -1
        for k in range(p ** count):
            m = phi_monomial(p, k, fam)
            doubled = p * k - alpha_p(p, k)
            assert doubled % (p - 1) == 0
            scaled = doubled // (p - 1)
            assert (m.poly.degree == doubled) or (k == 0 and m.poly.degree == 0)
            assert scaled > previous
            previous = scaled


def test_monomial_af_examples():
    assert monomial_af(2, 1) == -1
    assert monomial_af(2, 3) == -4
    assert monomial_af(2, 0) == 0
    for k in range(64):
        assert monomial_af(2, k) == alpha_p(2, k) - 2 * k
    assert monomial_af(3, 3) == -4  # digit (0,1): AF(phi_2) = -(3^2-1)/2


def test_symbolic_poly_basics():
    u = SymbolicPoly.variable("u1")
    v = SymbolicPoly.variable("v1")
    assert (u + v) * (u - v) == u ** 2 - v ** 2


@pytest.mark.parametrize("terms", [{(("t1", 1),): 1}, {(("u1", 1), ("u2", 1)): 3},
                                   {(("w", 0),): 1}])
def test_symbolic_poly_takes_only_u1_and_v1(terms):
    with pytest.raises(ValueError, match="u1 and v1"):
        SymbolicPoly(terms)
    with pytest.raises(ValueError, match="u1 and v1"):
        SymbolicPoly.variable(next(iter(terms))[-1][0])


def test_oracle_normalization_rejects_inhomogeneous_terms():
    from coopbasis.phi import _normalized_t_to_poly

    u = SymbolicPoly.variable("u1")
    with pytest.raises(InternalConsistencyError):
        _normalized_t_to_poly(2, 1, u * u)  # degree 2 term, span is 1


def test_phi_monomial_checks_its_degree(monkeypatch):
    fam = phi_family(2, 2)
    monkeypatch.setattr(PhiMonomial, "degree", property(lambda self: -1))
    with pytest.raises(InternalConsistencyError):
        phi_monomial(2, 3, fam)
