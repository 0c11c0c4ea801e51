"""Independent references the tests check the package against.

Each one is built from other parts of the package than the code it checks,
so an agreement between the two is evidence for both.  pytest does not
collect this module, and no package module imports it.
"""

import math
from fractions import Fraction

from coopbasis import GExpansion, Poly, g_poly


def binomial_poly(n):
    """The binomial coefficient polynomial x(x-1)...(x-n+1)/n!, as a product of linear factors."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    product = Poly.one()
    for i in range(n):
        product = product * Poly((-i, 1))
    return product * Fraction(1, math.factorial(n))


def substitute_affine(f, a, b):
    """f(a*w + b), by Horner's rule over the polynomial ring."""
    inner = Poly((b, a))
    acc = Poly.zero()
    for c in reversed(f.coefficients):
        acc = acc * inner + c
    return acc


def evaluate(f, x):
    """f(x) by Horner's rule on the Fraction coefficients."""
    acc = Fraction(0)
    for c in reversed(f.coefficients):
        acc = acc * x + c
    return acc


def to_poly(expansion):
    """Recombine the g-coordinates: sum b_j * g_j."""
    acc = Poly.zero()
    for j, b in expansion.items():
        acc = acc + g_poly(j) * b
    return acc


def gexpansion_from_json(data):
    """The GExpansion whose ``to_json`` is data: integer indices, exact "num/den" values."""
    return GExpansion({int(j): Fraction(c) for j, c in data.items()})


def monomial_af(p, k):
    """Adams filtration of the k-th phi-monomial: sum k_i * AF(phi_{i+1}) over the base-p
    digits k_i of k, with AF(phi_n) = -(p^n - 1)/(p - 1)."""
    total, n = 0, 1
    while k:
        k, digit = divmod(k, p)
        total -= digit * (p ** n - 1) // (p - 1)
        n += 1
    return total


def bit_rows(columns):
    """F_2 columns {position: 1} as int bit rows: bit t is set for each position t a column has."""
    rows = []
    for column in columns:
        row = 0
        for position in column:
            row |= 1 << position
        rows.append(row)
    return rows


def monomial_sort_key(m):
    """The order of a weight piece's basis: by degree, then zeta, then tau."""
    return (m.degree(), m.zeta, m.tau)
