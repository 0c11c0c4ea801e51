import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import coopbasis
from coopbasis import arith, filtration, phi, semistable
from coopbasis import (InternalConsistencyError, NotSemistableError, PhiFamily, Poly, alpha_p,
                       base_p_digits, congruent_mod_higher_af, expand_in_g, expand_in_phi,
                       g_poly, is_semistable_2local, nu_p, phi_family,
                       phi_monomial, verify_congruences, weight)
from references import monomial_af

DATA = Path(__file__).parent / "data"

FAM = phi_family(2, 6)


def monomial(k):
    return phi_monomial(2, k, FAM).poly


def test_weight_examples():
    report = weight(g_poly(2))
    assert report.weight == -3
    assert report.argmin == (2,)

    report = weight(FAM.phi(2))
    assert dict(report.expansion.items()) == {3: 12, 2: 17, 1: 6}
    assert report.weight == -3

    assert weight(Poly.zero()).weight is None
    assert weight(Poly.zero()).argmin == ()


def test_weight_scales_with_powers_of_two():
    rng = random.Random(41)
    for _ in range(20):
        f = sum((g_poly(j) * rng.randint(-8, 8) for j in range(6)), Poly.zero())
        if f.is_zero():
            continue
        assert weight(f * 2).weight == weight(f).weight + 1
        c = Fraction(rng.randint(1, 64), rng.choice((1, 3, 5)))
        assert weight(f * c).weight == weight(f).weight + nu_p(2, c)


def test_weight_sub_additivity():
    rng = random.Random(43)
    for _ in range(25):
        f = sum((g_poly(j) * rng.randint(-6, 6) for j in range(5)), Poly.zero())
        g = sum((g_poly(j) * rng.randint(-6, 6) for j in range(5)), Poly.zero())
        if f.is_zero() or g.is_zero():
            continue
        assert weight(f * g).weight >= weight(f).weight + weight(g).weight
        assert weight(f + g).weight >= min(weight(f).weight, weight(g).weight)


def test_weight_of_phi_and_monomials():
    for n in range(1, 6):
        assert weight(FAM.phi(n)).weight == -(2 ** n - 1)
    for k in range(33):
        assert weight(monomial(k)).weight == alpha_p(2, k) - 2 * k == monomial_af(2, k)


def test_congruence_examples():
    assert congruent_mod_higher_af(g_poly(2), FAM.phi(2))
    assert weight(g_poly(2) - FAM.phi(2)).weight == -2
    assert dict(expand_in_g(g_poly(2) - FAM.phi(2)).items()) == {3: -12, 2: -16, 1: -6}

    assert congruent_mod_higher_af(g_poly(1), FAM.phi(1))  # identical
    assert not congruent_mod_higher_af(FAM.phi(1), FAM.phi(1) * 2)


def test_verify_congruences_trivial_and_witnessed():
    assert all(c.passed for c in verify_congruences(1, FAM))

    checks = verify_congruences(2, FAM)
    witness = next(c for c in checks if c.claim == "g_vs_phi_monomial" and c.n == 2)
    assert witness.passed
    assert witness.weight_lhs == witness.weight_rhs == -3
    assert witness.weight_diff == -2


def test_verify_congruences_all_claims_to_16():
    checks = verify_congruences(16, FAM)
    assert len(checks) == 74
    assert all(c.passed for c in checks)
    claims = {c.claim for c in checks}
    assert claims == {"phi_vs_phi1_power", "g_vs_phi1_over_factorial",
                      "g_vs_phi1_over_power2", "g_power2_vs_phi",
                      "g_vs_g_digit_product", "g_vs_phi_monomial"}


def _digit_product(factor, n):
    """prod_i factor(i)^(n_i) over the binary digits n_i of n."""
    product = Poly.one()
    for i, digit in enumerate(base_p_digits(2, n)):
        product = product * factor(i) ** digit
    return product


def test_verify_congruences_weights_match_the_polynomial_path():
    max_n = 20
    phi1 = FAM.phi(1)
    pairs = {}
    for n in range(1, max_n.bit_length() + 1):
        half = 2 ** (n - 1)
        pairs["phi_vs_phi1_power", n] = (FAM.phi(n), phi1 ** half * Fraction(1, 2 ** (half - 1)))
    for j in range(max_n.bit_length()):
        pairs["g_power2_vs_phi", 2 ** j] = (g_poly(2 ** j), FAM.phi(j + 1))
    for n in range(1, max_n + 1):
        power = phi1 ** n
        pairs["g_vs_phi1_over_factorial", n] = (g_poly(n), power * Fraction(1, math.factorial(n)))
        pairs["g_vs_phi1_over_power2", n] = (g_poly(n),
                                             power * Fraction(1, 2 ** (n - alpha_p(2, n))))
        pairs["g_vs_g_digit_product", n] = (g_poly(n), _digit_product(lambda i: g_poly(2 ** i), n))
        pairs["g_vs_phi_monomial", n] = (g_poly(n), _digit_product(lambda i: FAM.phi(i + 1), n))

    checks = verify_congruences(max_n, FAM)
    assert sorted((c.claim, c.n) for c in checks) == sorted(pairs)
    for check in checks:
        lhs, rhs = pairs[check.claim, check.n]
        w_lhs, w_rhs, w_diff = (weight(f).weight for f in (lhs, rhs, lhs - rhs))
        assert check.weight_lhs == w_lhs
        assert check.weight_rhs == w_rhs
        assert check.weight_diff == w_diff
        assert check.passed == (lhs == rhs or (w_lhs == w_rhs and w_diff > w_lhs))


def test_suite_and_2local_test_read_integer_coordinates(monkeypatch):
    # the suite and the 2-local test build no Fraction per coordinate and call no nu_p:
    # with g_poly warm, their Fraction count does not grow with n
    counts = {"nu_p": 0, "Fraction": 0}
    original_nu_p, original_new = arith.nu_p, Fraction.__new__

    def counted_nu_p(*args):
        counts["nu_p"] += 1
        return original_nu_p(*args)

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return original_new(cls, *args, **kwargs)

    for module in (coopbasis, arith, semistable, filtration):  # every binding of the name
        monkeypatch.setattr(module, "nu_p", counted_nu_p)
    inputs = {n: [g_poly(j) for j in range(n + 1)] + [FAM.phi(2), Poly((0, Fraction(1, 2)))]
              for n in (8, 20)}
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    built = {}
    for n, polys in inputs.items():
        counts.update(nu_p=0, Fraction=0)
        verify_congruences(n, FAM)
        assert [is_semistable_2local(f) for f in polys][-2:] == [True, False]
        built[n] = dict(counts)
    assert built[8]["nu_p"] == built[20]["nu_p"] == 0
    assert built[8]["Fraction"] == built[20]["Fraction"]


def test_expand_in_phi_builds_only_the_monomials_it_subtracts(monkeypatch):
    built = []

    def counted(p, k, family):
        built.append(k)
        return phi_monomial(p, k, family)

    def no_list(*args):
        raise AssertionError("expand_in_phi built a monomial list")

    monkeypatch.setattr(filtration, "phi_monomial", counted)
    monkeypatch.setattr(phi, "phi_monomials", no_list)  # filtration no longer imports the name
    expansion = expand_in_phi(FAM.phi(1) ** 2, 10)
    assert expansion.to_json() == json.loads((DATA / "expand_phi1_sq_m10.json").read_text())
    assert built == list(dict.fromkeys(j for step in expansion.trace for j in step.indices))


def test_verify_congruences_bounds():
    assert verify_congruences(0, FAM) == []
    with pytest.raises(ValueError):
        verify_congruences(-1, FAM)
    with pytest.raises(ValueError):
        verify_congruences(4, phi_family(3, 3))


def test_suite_phi1_power_rows_match_the_g_expansion():
    # T(n, j) = j! S(n, j) from the Stirling recurrence, against the difference table
    rows = filtration._stirling_rows(65)
    assert rows[:4] == [((1,), 1), ((0, 1), 1), ((0, 1, 2), 1), ((0, 1, 6, 6), 1)]
    for n, row in enumerate(rows):
        assert row == expand_in_g(FAM.phi(1) ** n).as_integer_ratio()


def test_verify_congruences_refuses_a_family_it_cannot_read():
    phi1 = FAM.phi(1)
    with pytest.raises(InternalConsistencyError, match=r"not \(w-1\)/2"):
        verify_congruences(2, PhiFamily(2, (phi1 * 3, FAM.phi(2))))
    with pytest.raises(InternalConsistencyError,
                       match="phi-monomial 2 at p=2 has degree 2, expected 3"):
        verify_congruences(3, PhiFamily(2, (phi1, phi1 ** 2)))
    assert verify_congruences(0, PhiFamily(2, ())) == []


def test_verify_congruences_checks_the_family_before_any_work(monkeypatch):
    odd, short = phi_family(3, 3), phi_family(2, 2)
    counts = {"expand_in_g": 0, "mul": 0}
    original_expand, original_mul = semistable.expand_in_g, Poly.__mul__

    def counted_expand(f):
        counts["expand_in_g"] += 1
        return original_expand(f)

    def counted_mul(self, other):
        counts["mul"] += 1
        return original_mul(self, other)

    for module in (coopbasis, semistable, filtration):  # every binding of the name
        monkeypatch.setattr(module, "expand_in_g", counted_expand)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__rmul__", counted_mul)
    for family, message in ((odd, "p=3, not p=2"), (short, "needs phi_3")):
        with pytest.raises(ValueError, match=message):
            verify_congruences(4, family)
        assert counts == {"expand_in_g": 0, "mul": 0}


def test_expand_in_phi_basis_element():
    for precision in (1, 4, 6):
        expansion = expand_in_phi(FAM.phi(2), precision)
        assert expansion.coeffs == {2: 1}
        assert expansion.residual_weight >= precision


def test_expand_in_phi_worked_example():
    f = FAM.phi(1) ** 2
    expansion = expand_in_phi(f, 4)
    first = expansion.trace[0]
    assert first.weight == -2
    assert first.indices == (2,)
    assert first.coefficients == ((2, Fraction(2)),)
    # after subtracting 2*m_2 the residual is -24g_3 - 32g_2 - 11g_1
    residual_1 = f - monomial(2) * 2
    assert dict(expand_in_g(residual_1).items()) == {3: -24, 2: -32, 1: -11}
    assert weight(residual_1).weight == -1
    assert expansion.residual_weight >= 4


def test_expand_in_phi_reconstruction_and_trace():
    rng = random.Random(59)
    for _ in range(8):
        f = sum((g_poly(j) * rng.randint(-5, 5) for j in range(5)), Poly.zero())
        expansion = expand_in_phi(f, 6)
        recombined = expansion.residual
        for k, c in expansion.exact_coeffs.items():
            recombined = recombined + monomial(k) * c
        assert recombined == f
        weights = [step.weight for step in expansion.trace]
        assert weights == sorted(set(weights))
        assert all(0 <= v < 2 ** 6 for v in expansion.coeffs.values())


def test_expand_in_phi_golden_file():
    expansion = expand_in_phi(FAM.phi(1) ** 2, 10)
    golden = json.loads((DATA / "expand_phi1_sq_m10.json").read_text())
    assert expansion.to_json() == golden


def test_expand_in_phi_g2_low_precision():
    expansion = expand_in_phi(g_poly(2), 1)
    assert expansion.coeffs == {2: 1}
    assert expansion.residual_weight >= 1


def test_expand_in_phi_stores_the_residual_weight(monkeypatch):
    calls = []
    expand = filtration.expand_in_g

    def spy(f):
        calls.append(f)
        return expand(f)

    monkeypatch.setattr(filtration, "expand_in_g", spy)
    expansion = expand_in_phi(Poly.parse("((w-1)/2)^2"), 8)
    calls.clear()
    first, second = expansion.residual_weight, expansion.residual_weight
    assert calls == []
    assert first == second == weight(expansion.residual).weight


def test_expand_in_phi_rejects_bad_input():
    with pytest.raises(NotSemistableError) as excinfo:
        expand_in_phi(Poly((0, Fraction(1, 2))), 4)
    assert excinfo.value.coordinates
    with pytest.raises(ValueError):
        expand_in_phi(g_poly(1), 0)


def test_expand_in_phi_zero_input():
    expansion = expand_in_phi(Poly.zero(), 5)
    assert expansion.coeffs == {}
    assert expansion.residual.is_zero()
    assert expansion.trace == ()
