"""Adams-filtration weight calculus on the g-basis at p = 2.

For f = sum_j b_j g_j the computable weight is

    W(f) = min_j ( nu_2(b_j) + alpha(j) - 2j ),

built from AF(g_j) = alpha(j) - 2j.  W is a filtration lower bound and every
congruence check below is a statement about W: two polynomials agree modulo
higher filtration when their weights agree and their difference is strictly
heavier.  The same calculus drives the finite-precision expansion of a
semistable polynomial in the phi-monomial family.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple

from .arith import _int_valuation, alpha_p, nu_p
from .errors import InternalConsistencyError, NotSemistableError, WeightMonotonicityError
from .phi import (PhiFamily, _checked_monomial, _digit_chain, _require_members, phi_family,
                  phi_monomial)
from .poly import Poly
from .semistable import GExpansion, _mahler, _odd_values, expand_in_g


class WeightReport(NamedTuple):
    """g-expansion of a polynomial with its weight and minimizing indices."""

    expansion: GExpansion
    weight: int | None  # None for f = 0, whose weight is +infinity
    argmin: tuple[int, ...]


def _weigh(nums: tuple[int, ...], den: int) -> tuple[int | None, tuple[int, ...]]:
    """W of the g-coordinates b_j = nums[j] / den, None (+infinity) if all are 0, and its
    minimizing indices, from the integers."""
    shift = _int_valuation(2, den)
    terms = {j: _int_valuation(2, b) - shift + j.bit_count() - 2 * j for j, b in enumerate(nums) if b}
    best = min(terms.values(), default=None)
    return best, tuple(j for j, t in terms.items() if t == best)


def weight(f: Poly) -> WeightReport:
    """Weight of f via its exact g-expansion; None (+infinity) only for f = 0."""
    expansion = expand_in_g(f)
    return WeightReport(expansion, *_weigh(*expansion.as_integer_ratio()))


def congruent_mod_higher_af(a: Poly, b: Poly) -> bool:
    """True iff a and b agree modulo higher filtration (in the W sense)."""
    return _check_pair("", 0, _coordinates(a), _coordinates(b)).passed


class CongruenceCheck(NamedTuple):
    """Outcome of one congruence-mod-higher-filtration comparison."""

    claim: str
    n: int
    weight_lhs: int | None
    weight_rhs: int | None
    weight_diff: int | None
    passed: bool


def _coordinates(f: Poly) -> tuple[tuple[int, ...], int]:
    """The g-coordinates of f as ``(nums, den)``."""
    return expand_in_g(f).as_integer_ratio()


def _check_pair(claim: str, n: int, lhs: tuple[tuple[int, ...], int],
                rhs: tuple[tuple[int, ...], int], divisor: int = 1) -> CongruenceCheck:
    """Compare g-coordinates ``(nums, den)`` lhs with rhs / divisor; a divisor scales the
    denominator, and lhs - rhs / divisor has integer numerators over the product of the two."""
    (a, a_den), (b, b_den) = lhs, rhs
    b_den *= divisor
    w_lhs = _weigh(a, a_den)[0]
    w_rhs = _weigh(b, b_den)[0]
    difference = tuple(x * b_den - y * a_den for x, y in itertools.zip_longest(a, b, fillvalue=0))
    diff = _weigh(difference, a_den * b_den)[0]
    passed = diff is None or (w_lhs == w_rhs and diff > w_lhs)
    return CongruenceCheck(claim, n, w_lhs, w_rhs, diff, passed)


def _stirling_rows(count: int) -> list[tuple[tuple[int, ...], int]]:
    """The g-coordinates ``(nums, 1)`` of phi_1^n = ((w - 1)/2)^n for n < count.

    phi_1(2x + 1) = x, so they are the Mahler coefficients of x^n:
    T(n, j) = j! * S(n, j), with S the Stirling numbers of the second kind,
    from the row before by T(n, j) = j * (T(n-1, j) + T(n-1, j-1)).
    """
    rows, row = [], [1]
    for _ in range(count):
        rows.append((tuple(row), 1))
        row = [j * (a + b) for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return rows


def _digit_product_coordinates(factors: list[tuple[list[int], int, int]], count: int
                               ) -> Iterator[tuple[int, tuple[tuple[int, ...], int]]]:
    """``(k, (nums, den))``, the g-coordinates of prod_i f_i^(k_i) over the binary digits k_i
    of k, for 0 < k < count in order.

    ``factors[i]`` is ``(values, den_i, deg f_i)`` with values[x] = den_i * f_i(2x + 1)
    for x up to at least the degree of every product.  The products' values are
    built pointwise along ``_digit_chain``: entry k is entry k - 2^j times f_j.
    Entry k keeps only the points that the entries k + m (m < 2^j) extending it
    need, and is dropped once the last of them is built; ``_mahler`` reads its
    first deg + 1 values.
    """
    chain = list(_digit_chain(2, count))
    degree = [0] * count
    for k, parent, j in chain:
        degree[k] = degree[parent] + factors[j][2]
    need = [d + 1 for d in degree]  # points of entry k: deg + 1 for it and everything extending it
    last = [0] * count  # the last entry that extends entry k; 0 for none
    for k, parent, _ in reversed(chain):
        need[parent] = max(need[parent], need[k])
        last[parent] = last[parent] or k
    kept = {0: ([1] * need[0], 1)}
    for k, parent, j in chain:
        values, den = kept[parent]
        factor, factor_den, _ = factors[j]
        product = list(map(operator.mul, itertools.islice(values, need[k]), factor))
        if last[parent] == k:
            del kept[parent]
        if last[k]:
            kept[k] = (product, den * factor_den)
            product = product[:degree[k] + 1]
        yield k, _mahler(product, den * factor_den).as_integer_ratio()


def verify_congruences(max_n: int, family: PhiFamily) -> list[CongruenceCheck]:
    """Check the six weight congruences relating the g- and phi-families.

    For each applicable n <= max_n, compares (modulo higher weight):

      phi_vs_phi1_power       phi_n            vs  phi_1^(2^(n-1)) / 2^(2^(n-1)-1)
      g_vs_phi1_over_factorial g_n             vs  phi_1^n / n!
      g_vs_phi1_over_power2   g_n              vs  phi_1^n / 2^(n-alpha(n))
      g_power2_vs_phi         g_(2^j)          vs  phi_(j+1)
      g_vs_g_digit_product    g_n              vs  prod_i g_(2^i)^(n_i)
      g_vs_phi_monomial       g_n              vs  prod_i phi_(i+1)^(n_i)

    where n = sum n_i 2^i is the binary expansion; max_n = 0 gives no checks.
    ``family`` must hold phi_1..phi_(max_n.bit_length()) at p = 2, and the
    caller tests its integrality.  Every side is read as g-coordinates, and
    W(lhs - rhs) from their difference, since the coordinates are linear.
    No product is built as a polynomial.  g_n has the coordinates e_n, and
    phi_1^n, since phi_1(2x + 1) = x, the rows of ``_stirling_rows``.  The
    phi_i are evaluated once, at w = 2x + 1 = 1, 3, ..., 4 max_n + 1, and the
    g_(2^i) there are C(x, 2^i); the digit products are multiplied from these
    values pointwise, and ``_mahler`` reads the coordinates of each phi_i and
    each product.  Failures are reported, not raised.
    """
    if max_n < 0:
        raise ValueError(f"expected max_n >= 0, got {max_n}")
    _require_members(2, max_n, family)
    if max_n == 0:
        return []
    if family.phi(1).as_integer_ratio() != ((-1, 1), 2):
        raise InternalConsistencyError(f"phi_1 is {family.phi(1)}, not (w-1)/2")
    top = max_n.bit_length()
    points = 2 * max_n + 1  # over the degree 2n - alpha(n) of every phi-monomial n <= max_n
    phi_factors = []
    for i in range(top):  # phi_(i+1) is phi-monomial 2^i: check its degree as phi_monomials does
        nums, den = _checked_monomial(2, 1 << i, family.polys[i]).poly.as_integer_ratio()
        phi_factors.append((_odd_values(nums, points), den, len(nums) - 1))
    phi = [_mahler(values[:degree + 1], den).as_integer_ratio()
           for values, den, degree in phi_factors]
    g_factors = [([math.comb(x, 1 << i) for x in range(max_n + 1)], 1, 1 << i)
                 for i in range(top)]  # a g digit product n has degree n
    g = [((0,) * n + (1,), 1) for n in range(max_n + 1)]
    phi1_powers = _stirling_rows(max_n + 1)  # 2^(top-1) <= max_n
    checks: list[CongruenceCheck] = []

    for n in range(1, top + 1):
        half = 1 << (n - 1)
        checks.append(_check_pair("phi_vs_phi1_power", n, phi[n - 1], phi1_powers[half],
                                  1 << (half - 1)))

    for n in range(1, max_n + 1):
        checks.append(_check_pair("g_vs_phi1_over_factorial", n, g[n], phi1_powers[n],
                                  math.factorial(n)))

    for n in range(1, max_n + 1):
        checks.append(_check_pair("g_vs_phi1_over_power2", n, g[n], phi1_powers[n],
                                  1 << (n - alpha_p(2, n))))

    for j in range(top):
        checks.append(_check_pair("g_power2_vs_phi", 1 << j, g[1 << j], phi[j]))

    for n, coordinates in _digit_product_coordinates(g_factors, max_n + 1):
        checks.append(_check_pair("g_vs_g_digit_product", n, g[n], coordinates))

    for n, coordinates in _digit_product_coordinates(phi_factors, max_n + 1):
        checks.append(_check_pair("g_vs_phi_monomial", n, g[n], coordinates))

    return checks


def checks_to_json(checks: list[CongruenceCheck]) -> list[dict]:
    return [c._asdict() for c in checks]


class TraceStep(NamedTuple):
    """One greedy reduction step: the weight found and what was subtracted."""

    weight: int
    indices: tuple[int, ...]
    coefficients: tuple[tuple[int, Fraction], ...]


class PhiExpansion(NamedTuple):
    """Finite-precision coordinates of a semistable polynomial in the phi-monomials.

    ``coeffs`` holds canonical representatives in [0, 2^precision); the exact
    accumulated rationals are kept in ``exact_coeffs`` together with the exact
    ``residual`` so that f = sum exact_coeffs[k]*m_k + residual holds on the
    nose and callers can resume at higher precision.  ``residual_weight`` is
    W(residual), from the weighing that ended the expansion.
    """

    precision: int
    coeffs: dict[int, int]
    exact_coeffs: dict[int, Fraction]
    residual: Poly
    residual_weight: int | None
    trace: tuple[TraceStep, ...]

    def to_json(self) -> dict:
        return {
            "M": self.precision,
            "coeffs": {str(k): v for k, v in sorted(self.coeffs.items())},
            "residual_weight": self.residual_weight,
            "residual": self.residual.to_json(),
            "trace": [
                {
                    "weight": step.weight,
                    "indices": list(step.indices),
                    "coefficients": {str(j): str(b) for j, b in step.coefficients},
                }
                for step in self.trace
            ],
        }


def expand_in_phi(f: Poly, precision: int) -> PhiExpansion:
    """Greedy filtration-graded expansion of f in the phi-monomial family.

    Each pass expands the residual in the g-basis, subtracts b_j * m_j over
    the minimal-weight indices j, and repeats until the residual weight
    reaches ``precision``.  The weight must strictly increase every pass
    (each subtraction trades g_j for the congruent m_j); a failure to do so
    raises WeightMonotonicityError and is a genuine mathematical finding.
    """
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    report = weight(f)
    offending = tuple((j, b, v) for j, b in report.expansion.items() if (v := nu_p(2, b)) < 0)
    if offending:
        raise NotSemistableError(
            f"input is not 2-locally semistable at g-indices {[j for j, _, _ in offending]}",
            coordinates=offending)

    family = PhiFamily(2, ())
    monomials: dict[int, Poly] = {}  # m_j, built the first time j is subtracted
    residual = f
    exact: dict[int, Fraction] = {}
    trace: list[TraceStep] = []
    previous: int | None = None
    while True:
        if report.weight is None or report.weight >= precision:
            break  # every earlier weight was below precision, so this one has not stalled
        if previous is not None and report.weight <= previous:
            raise WeightMonotonicityError(
                f"weight stalled at {report.weight} (previous {previous}) after "
                f"{len(trace)} steps")
        previous = report.weight
        step_coeffs = []
        for j in report.argmin:
            if j.bit_length() > len(family):
                family = phi_family(2, j.bit_length())
            if j not in monomials:
                monomials[j] = phi_monomial(2, j, family).poly
            b = report.expansion[j]
            residual = residual - monomials[j] * b
            exact[j] = exact.get(j, Fraction(0)) + b
            step_coeffs.append((j, b))
        trace.append(TraceStep(report.weight, report.argmin, tuple(step_coeffs)))
        report = weight(residual)

    modulus = 2 ** precision
    reduced: dict[int, int] = {}
    for k, c in exact.items():
        representative = c.numerator * pow(c.denominator, -1, modulus) % modulus
        if representative:
            reduced[k] = representative
    exact_nonzero = {k: c for k, c in exact.items() if c != 0}
    return PhiExpansion(precision, reduced, exact_nonzero, residual, report.weight, tuple(trace))
