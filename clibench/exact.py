"""The benchmark's own exact polynomial arithmetic, for checking CLI outputs.

It shares no code with coopbasis, so a defect there cannot hide itself in
the checks.  Only what the identities need is here: ring operations, the
g-basis and the p = 2 phi-monomials.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable


class Poly:
    """Dense polynomial in w over Fraction; trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, values: Iterable[Fraction | int | str]) -> "Poly":
        coeffs = [Fraction(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.from_coeffs(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other * -1

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            return Poly.from_coeffs(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_coeffs(out)

    def __pow__(self, exponent: int) -> "Poly":
        result = Poly((Fraction(1),))
        for _ in range(exponent):
            result = result * self
        return result


ZERO = Poly(())
ONE = Poly((Fraction(1),))


@functools.lru_cache(maxsize=None)
def g(j: int) -> Poly:
    """(w-1)(w-3)...(w-(2j-1)) / (2^j j!)."""
    acc = ONE
    for i in range(1, j + 1):
        acc = acc * Poly.from_coeffs([-(2 * i - 1), 1])
    return acc * Fraction(1, 2 ** j * math.factorial(j))


def g_combination(coeffs: dict[int, Fraction | int]) -> Poly:
    acc = ZERO
    for j, c in coeffs.items():
        acc = acc + g(j) * Fraction(c)
    return acc


@functools.lru_cache(maxsize=None)
def phi2(n: int) -> Poly:
    """phi_n at p = 2: (w^(2^n - 1) - sum_{i<n} 2^i phi_i^(2^(n-i)) - 1) / 2^n."""
    numerator = Poly.from_coeffs([-1] + [0] * (2 ** n - 2) + [1])
    for i in range(1, n):
        numerator = numerator - phi2(i) ** (2 ** (n - i)) * 2 ** i
    return numerator * Fraction(1, 2 ** n)


@functools.lru_cache(maxsize=None)
def phi2_monomial(k: int) -> Poly:
    """m_k = prod phi_(i+1) over the set bits i of k."""
    acc = ONE
    for i in range(k.bit_length()):
        if k >> i & 1:
            acc = acc * phi2(i + 1)
    return acc
