"""Exact rational arithmetic: p-adic valuations, digit sums, primality.

Rational values are plain ``fractions.Fraction`` everywhere: always reduced,
positive denominator, zero normalized to 0/1.  Structural equality is then
arithmetic equality and valuations can be read off the reduced parts.
"""

from __future__ import annotations

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


def nu_p(p: int, x: RationalLike) -> int | None:
    """p-adic valuation of a rational; None, standing for +infinity, exactly for x = 0."""
    require_prime(p)
    x = exact_rational(x)
    if x == 0:
        return None
    return _int_valuation(p, x.numerator) - _int_valuation(p, x.denominator)


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
