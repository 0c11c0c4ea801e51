"""Semistable numerical polynomials: the g-basis and p-local integrality tests.

A rational polynomial f in Q[w] is 2-locally semistable when f(k) lies in
Z_(2) for every 2-adic unit k.  The polynomials

    g_n(w) = (w - 1)(w - 3) ... (w - (2n - 1)) / (2^n n!)

are a Z_(2)-basis of the semistable polynomials, obtained from the binomial
coefficient polynomials under the coordinate change k -> 2k + 1:
g_j(2x + 1) = C(x, j).  So the g-coordinates of f are the Mahler
coefficients of x -> f(2x + 1), its forward differences at 0, and 2-local
integrality is decided by those coordinates.  At odd primes there is no
such basis here: the test checks the numerator and its derivative at the
units below p^ceil(e/2), which decides its value at every unit mod p^e.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .arith import nu_p, require_prime
from .errors import DEFAULT_RESIDUE_BUDGET, ResourceLimitError
from .poly import DEFAULT_MAX_DEGREE, Poly, _reduced


@functools.lru_cache(maxsize=None)
def g_poly(n: int) -> Poly:
    """The semistable basis polynomial (w-1)(w-3)...(w-(2n-1))/(2^n n!)."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    nums = [1]
    for i in range(1, n + 1):
        nums = [a - (2 * i - 1) * b for a, b in zip([0] + nums, nums + [0])]
    den = 2 ** n * math.factorial(n)
    return Poly(nums) * Fraction(1, den)


class GExpansion:
    """Exact g-basis coordinates, finite support: b_j is the w^j coefficient of one stored ``Poly``."""

    __slots__ = ("_vector",)

    def __init__(self, coefficients: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]] = ()) -> None:
        items = dict(coefficients)
        for j in items:
            if type(j) is not int:  # a plain type test refuses bool too
                raise TypeError(f"g-indices must be ints, got {j!r}")
        if min(items, default=0) < 0 or max(items, default=0) > DEFAULT_MAX_DEGREE:  # stored densely
            raise ValueError(f"g-indices must be in 0..{DEFAULT_MAX_DEGREE}, got {min(items)}..{max(items)}")
        self._vector = Poly(items.get(j, 0) for j in range(max(items, default=-1) + 1))

    def __getitem__(self, index: int) -> Fraction:
        return self._vector.coefficient(index)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        nums, den = self._vector.as_integer_ratio()
        return tuple((j, Fraction(b, den)) for j, b in enumerate(nums) if b)

    def as_integer_ratio(self) -> tuple[tuple[int, ...], int]:
        """``(nums, den)`` with b_j = nums[j] / den, as ``Poly.as_integer_ratio`` returns them."""
        return self._vector.as_integer_ratio()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GExpansion):
            return self._vector == other._vector
        return NotImplemented

    def __repr__(self) -> str:
        return f"GExpansion({dict(self.items())!r})"

    def to_json(self) -> dict[str, str]:
        return {str(j): str(c) for j, c in self.items()}


def _odd_values(nums: tuple[int, ...], count: int) -> list[int]:
    """F(1), F(3), ..., F(2 * count - 1) for F = sum(nums[i] * w^i), by integer Horner."""
    values = []
    for x in range(1, 2 * count, 2):
        acc = 0
        for c in reversed(nums):
            acc = acc * x + c
        values.append(acc)
    return values


def _mahler(values: list[int], den: int) -> GExpansion:
    """The g-coordinates of the f of degree < len(values) with den * f(2x + 1) = values[x].

    The j-th leading forward difference of the values, over den, is the Mahler
    coefficient b_j of x -> f(2x + 1), which is the g-coordinate b_j of f.  More
    values than deg f + 1 give only zero differences beyond the degree.  The
    difference table is built in ``values``, which is overwritten.
    """
    for j in range(len(values)):  # afterwards values[j] is the j-th leading difference
        for i in range(len(values) - 1, j, -1):
            values[i] -= values[i - 1]
    expansion = object.__new__(GExpansion)
    expansion._vector = _reduced(values, den)
    return expansion


def expand_in_g(f: Poly) -> GExpansion:
    """Unique exact coordinates of f in the g-basis.

    Since g_j(2x + 1) = C(x, j), f = sum_j b_j g_j gives
    f(2x + 1) = sum_j b_j C(x, j), so b_j is the j-th forward difference of
    x -> f(2x + 1) at 0 (Mahler's theorem).  With f = F/den for an integer
    polynomial F, the differences are taken over the integers F(1), F(3),
    ..., F(2d + 1), and b_j is the j-th leading difference over den.
    """
    nums, den = f.as_integer_ratio()
    return _mahler(_odd_values(nums, len(nums)), den)


def is_semistable_2local(f: Poly) -> bool:
    """True iff every g-coordinate of f is 2-locally integral: their reduced denominator is odd."""
    return expand_in_g(f).as_integer_ratio()[1] % 2 == 1


def is_semistable_plocal_residues(p: int, f: Poly,
                                  budget: int = DEFAULT_RESIDUE_BUDGET) -> bool:
    """True iff nu_p(f(k)) >= 0 for every p-adic unit k, by exhausting unit residues.

    With f = N/den in lowest terms (gcd(den, *N) = 1), e = nu_p(den)
    is max(0, -min coefficient valuation), and f is p-integral at k iff
    p^e divides N(k), which depends only on k mod p^e.  With s = ceil(e/2),
    write k = a + p^s*t for a unit a < p^s.  Taylor expansion gives
    N(k) = N(a) + p^s*t*N'(a) + (terms carrying p^(2s) times an integer
    Hasse derivative), and p^(2s) is 0 mod p^e, so p^e divides N(k) for
    every t iff p^e divides N(a) and p^(e-s) divides N'(a).  Checking both
    at the units a < p^s takes 2 * p^(s-1)*(p-1) * (deg f + 1) steps; the
    ``budget`` gate still charges p^e * (deg f + 1), the cost of evaluating
    at every unit mod p^e.
    """
    require_prime(p)
    nums, den = f.as_integer_ratio()
    e = nu_p(p, den)
    if e == 0:
        return True
    cost = p ** e * (f.degree + 1)
    if cost > budget:
        raise ResourceLimitError(
            f"residue test needs e={e}: p^e*(deg+1) = {cost} exceeds budget {budget}",
            required=e, budget=budget)
    s = (e + 1) // 2
    modulus, slope_modulus = p ** e, p ** (e - s)
    reduced = [c % modulus for c in reversed(nums)]
    for a in range(1, p ** s):
        if a % p == 0:
            continue
        value = slope = 0  # N(a) mod p^e and N'(a) mod p^(e-s), both by Horner's rule
        for c in reduced:
            slope = (slope * a + value) % slope_modulus
            value = (value * a + c) % modulus
        if value or slope:
            return False
    return True


def integrality_verdicts(p: int, polys: Iterable[Poly], budget: int) -> list[bool | None]:
    """Semistability of each polynomial at p; None where the residue test is over budget."""
    verdicts: list[bool | None] = []
    for f in polys:
        try:  # through this module's names, so a wrapper bound to them sees every call
            verdicts.append(is_semistable_2local(f) if p == 2
                            else is_semistable_plocal_residues(p, f, budget=budget))
        except ResourceLimitError:
            verdicts.append(None)
    return verdicts
