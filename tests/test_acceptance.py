"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

All arithmetic is exact; every equality below is exact equality of
rationals, polynomials, or F_p data.  Runtime bounds are asserted where
stated.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction

from coopbasis import (Poly, SymbolicPoly, alpha_p,
                       cover_rank, cycle_to_string, enumerate_m1, expand_in_g,
                       expand_in_phi, g_poly, hazewinkel_t_solutions,
                       is_semistable_2local, is_semistable_plocal_residues,
                       legendre_valuation_factorial, margolis_homology,
                       phi_family, phi_family_oracle, phi_monomial,
                       q_square_is_zero, verify_congruences, weight)
from references import binomial_poly, evaluate, monomial_af, substitute_affine

FAM6 = phi_family(2, 6)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _monomial(k: int) -> Poly:
    return phi_monomial(2, k, FAM6).poly


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for p, count in ((2, 5), (3, 3), (5, 2)):
        family = phi_family(p, count)
        oracle = phi_family_oracle(p, count)
        ok = ok and family.polys == oracle.polys and family.af == oracle.af
        u, v = SymbolicPoly.variable("u1"), SymbolicPoly.variable("v1")
        t1, t2 = hazewinkel_t_solutions(p, 2)
        ok = ok and t1 == (u - v) * Fraction(1, p)
        ok = ok and t2 == (u ** (p + 1) - v ** (p + 1)) * Fraction(1, p ** 2) \
            - v * t1 ** p * Fraction(1, p)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _report(1, ok, f"recursion = Hazewinkel oracle at (2,5),(3,3),(5,2); "
                   f"t1, t2 identities; {elapsed:.2f}s < 10s")


def test_criterion_02_concrete_values():
    fam2 = phi_family(2, 3)
    fam3 = phi_family(3, 2)
    ok = fam2.phi(1) == Poly((Fraction(-1, 2), Fraction(1, 2)))
    ok = ok and fam2.phi(2) == Poly((Fraction(-3, 8), Fraction(1, 4),
                                     Fraction(-1, 8), Fraction(1, 4)))
    ok = ok and evaluate(fam2.phi(2), 3) == 6
    ok = ok and evaluate(fam2.phi(3), 3) == 255
    ok = ok and evaluate(fam3.phi(2), 2) == 28
    _report(2, ok, "phi_1, phi_2, phi_2(3)=6, phi_3(3)=255, phi_2(2)=28 at p=3")


def test_criterion_03_integrality():
    start = time.monotonic()
    ok = all(is_semistable_2local(_monomial(k)) for k in range(33))
    fam3 = phi_family(3, 2)
    ok = ok and is_semistable_plocal_residues(3, fam3.phi(1), budget=10_000_000)
    ok = ok and is_semistable_plocal_residues(3, fam3.phi(2), budget=10_000_000)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(3, ok, f"m_k 2-local for k <= 32; phi_1, phi_2 residue-integral at p=3; "
                   f"{elapsed:.2f}s < 60s")


def test_criterion_04_congruence_suite():
    start = time.monotonic()
    checks = verify_congruences(16, FAM6)
    ok = all(c.passed for c in checks)
    witness = next(c for c in checks if c.claim == "g_vs_phi_monomial" and c.n == 2)
    ok = ok and witness.weight_lhs == -3 and witness.weight_rhs == -3
    ok = ok and witness.weight_diff == -2
    diff = g_poly(2) - FAM6.phi(2)
    ok = ok and dict(expand_in_g(diff).items()) == {3: -12, 2: -16, 1: -6}
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _report(4, ok, f"all 6 claims for n <= 16 ({len(checks)} checks); witness n=2: "
                   f"-3/-3 diff -2, expansion (-12,-16,-6); {elapsed:.2f}s < 30s")


def test_criterion_05_filtration_values():
    ok = all(weight(FAM6.phi(n)).weight == -(2 ** n - 1) for n in range(1, 6))
    ok = ok and all(weight(_monomial(k)).weight == alpha_p(2, k) - 2 * k
                    for k in range(33))
    ok = ok and all(monomial_af(2, k) == alpha_p(2, k) - 2 * k for k in range(33))
    ok = ok and dict(expand_in_g(FAM6.phi(2)).items()) == {3: 12, 2: 17, 1: 6}
    _report(5, ok, "W(phi_n) = -(2^n - 1) for n <= 5; W(m_k) = alpha(k) - 2k "
                   "for k <= 32; phi_2 expansion {12, 17, 6}")


def test_criterion_06_legendre_identity():
    def trial_valuation(p: int, m: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        direct = 0  # running nu_p(n!) by factoring each n
        for n in range(10_001):
            if n:
                direct += trial_valuation(p, n)
            if legendre_valuation_factorial(p, n) != direct:
                ok = False
                break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _report(6, ok, f"(n - alpha_p(n))/(p-1) = nu_p(n!) for n <= 10^4, p in 2,3,5; "
                   f"{elapsed:.2f}s < 10s")


def test_criterion_07_margolis_suite():
    start = time.monotonic()
    ok = True
    for p, top in ((2, 12), (3, 9)):
        for k in range(top + 1):
            complex_ = enumerate_m1(p, k)
            for i in (0, 1):
                ok = ok and q_square_is_zero(complex_, i)
                entries = margolis_homology(complex_, i)
                ok = ok and sum(e.dimension for e in entries) == 1
                if p == 2:
                    generator = cycle_to_string(entries[0].generators[0])
                    if i == 0:
                        expected = f"z1^{2 * k}" if k > 1 else ("z1^2" if k else "1")
                    else:
                        digits = []
                        kk, pos = k, 1
                        while kk:
                            if kk & 1:
                                digits.append(f"z{pos}^2")
                            kk >>= 1
                            pos += 1
                        expected = " ".join(digits) if digits else "1"
                    ok = ok and generator == expected

    complex4 = enumerate_m1(2, 4)
    ok = ok and len(complex4.basis) == 7
    ok = ok and cycle_to_string(margolis_homology(complex4, 0)[0].generators[0]) == "z1^8"
    ok = ok and cycle_to_string(margolis_homology(complex4, 1)[0].generators[0]) == "z3^2"
    ok = ok and cover_rank(2, 4) == 3
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _report(7, ok, f"q_i^2 = 0, 1-dim homology, p=2 generator formulas "
                   f"(k <= 12 at p=2, k <= 9 at p=3); M1(4): 7 monomials, z1^8/z3^2, "
                   f"cover rank 3; {elapsed:.2f}s < 30s")


def test_criterion_08_expansion_convergence():
    f = FAM6.phi(1) ** 2
    expansion = expand_in_phi(f, 10)
    weights = [step.weight for step in expansion.trace]
    ok = weights == sorted(set(weights))
    first = expansion.trace[0]
    ok = ok and first.indices == (2,) and first.coefficients == ((2, Fraction(2)),)
    ok = ok and weight(f - _monomial(2) * 2).weight == -1
    recombined = expansion.residual
    for k, c in expansion.exact_coeffs.items():
        recombined = recombined + _monomial(k) * c
    ok = ok and recombined == f
    ok = ok and expansion.residual_weight >= 10
    _report(8, ok, "expand_in_phi(phi_1^2, M=10): monotone trace, first step "
                   "subtracts 2*m_2 leaving weight -1, exact reconstruction, "
                   "residual weight >= 10")


def test_criterion_09_coordinate_change():
    ok = all(
        substitute_affine(binomial_poly(n), Fraction(1, 2), Fraction(-1, 2)) == g_poly(n)
        for n in range(65))
    _report(9, ok, "binomial_poly(n)((w-1)/2) = g_n exactly for n <= 64")


def test_criterion_10_integrality_testers_agree():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        f = Poly([Fraction(rng.randint(-32, 32), rng.choice((1, 2, 4, 8)))
                  for _ in range(rng.randint(0, 7))])
        if is_semistable_2local(f) != is_semistable_plocal_residues(2, f):
            ok = False
            break
    _report(10, ok, "g-expansion and residue testers agree on 100 random "
                    "degree <= 6 polynomials with denominators in {1,2,4,8}")
