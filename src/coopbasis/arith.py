"""Exact rational arithmetic: p-adic valuations, digit sums, p-local membership.

Rational values are plain ``fractions.Fraction`` everywhere: always reduced,
positive denominator, zero normalized to 0/1.  Structural equality is then
arithmetic equality and valuations can be read off the reduced parts.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def exact_rational(value: object) -> Fraction:
    """value as a Fraction; TypeError unless it is a Fraction or an int other than bool."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    """ValueError unless p is a prime below 2^32; the bound is checked before trial division."""
    if isinstance(p, int) and p >= 1 << 32:
        raise ValueError(f"expected a prime below 2^32, got {p}")
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")


@functools.total_ordering
class Valuation:
    """An integer extended by +infinity, ordered and additive.

    Infinity is reserved for the valuation of zero.  Comparison and
    addition accept plain ints, so ``nu_p(p, x) >= 0`` reads naturally.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None) -> None:
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise TypeError(f"valuation must be an int or None, got {value!r}")
        self._value = value

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinite valuation has no integer value")
        return self._value

    @staticmethod
    def _raw(other: "Valuation | int") -> "int | None":
        if isinstance(other, Valuation):
            return other._value
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        raw = self._raw(other)  # type: ignore[arg-type]
        if raw is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return self._value == raw

    def __lt__(self, other: "Valuation | int") -> bool:
        raw = self._raw(other)
        if raw is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        if self._value is None:
            return False
        if raw is None:
            return True
        return self._value < raw

    def __add__(self, other: "Valuation | int") -> "Valuation":
        raw = self._raw(other)
        if raw is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        if self._value is None or raw is None:
            return Valuation.infinite()
        return Valuation(self._value + raw)

    __radd__ = __add__

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return "Valuation(infinite)" if self._value is None else f"Valuation({self._value})"

    def __str__(self) -> str:
        return "+inf" if self._value is None else str(self._value)


INFINITE = Valuation.infinite()


def _int_valuation(p: int, n: int) -> int:
    """Exponent of p in a nonzero integer: its lowest set bit at p = 2, else by repeated division."""
    if p == 2:
        return (n & -n).bit_length() - 1
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu_p(p: int, x: RationalLike) -> Valuation:
    """p-adic valuation of a rational; infinite exactly for x = 0."""
    require_prime(p)
    x = exact_rational(x)
    if x == 0:
        return Valuation.infinite()
    return Valuation(_int_valuation(p, x.numerator) - _int_valuation(p, x.denominator))


def base_p_digits(p: int, n: int) -> tuple[int, ...]:
    """Base-p digits of n, least significant first; () for n = 0."""
    if p < 2:
        raise ValueError(f"digit base must be >= 2, got {p}")
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def alpha_p(p: int, n: int) -> int:
    """Sum of the base-p digits of n."""
    return sum(base_p_digits(p, n))


def legendre_valuation_factorial(p: int, n: int) -> int:
    """nu_p(n!) via the digit-sum identity (n - alpha_p(n)) / (p - 1)."""
    require_prime(p)
    diff = n - alpha_p(p, n)
    quotient, remainder = divmod(diff, p - 1)
    if remainder:
        raise ArithmeticError(f"(n - alpha_p(n)) not divisible by p-1 for n={n}, p={p}")
    return quotient


def is_p_local_integer(p: int, x: RationalLike) -> bool:
    """True iff x lies in Z_(p), i.e. nu_p(x) >= 0."""
    return nu_p(p, x) >= 0
