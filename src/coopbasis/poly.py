"""Exact dense univariate rational polynomials in the coordinate w."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .arith import exact_rational
from .errors import PolyParseError

DEFAULT_MAX_DEGREE = 1_000_000


class Poly:
    """Immutable dense polynomial sum(nums[i] * w^i) / den in the coordinate w.

    Integer numerators over one denominator, in canonical form: trailing zeros
    trimmed, den >= 1 and gcd(den, *nums) == 1, so equal polynomials store
    equal pairs.  The zero polynomial is ((), 1) and has degree -1.  Ring
    operations work on the integers; ``Fraction`` coefficients are built only
    when they are read.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[Fraction | int] = ()) -> None:
        coeffs = [exact_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1
        self._den = math.lcm(*(c.denominator for c in coeffs))
        self._nums = tuple(c.numerator * (self._den // c.denominator) for c in coeffs)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, value: Fraction | int) -> "Poly":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coefficient: Fraction | int, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * exponent + (coefficient,))

    # ---- basic structure ----------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree in w; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self._nums):
            return Fraction(self._nums[exponent], self._den)
        return Fraction(0)

    def as_integer_ratio(self) -> tuple[tuple[int, ...], int]:
        """The stored integer numerators over their least common denominator.

        Returns ``(nums, den)`` with ``self == sum(nums[i] * w^i) / den``
        and ``den >= 1`` minimal; ``((), 1)`` for the zero polynomial.
        """
        return self._nums, self._den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        den = math.lcm(self._den, other._den)
        a = [n * (den // self._den) for n in self._nums]
        b = [n * (den // other._den) for n in other._nums]
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return _reduced(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _reduced([-n for n in self._nums], self._den)

    def __sub__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other: "Fraction | int") -> "Poly":
        return Poly.constant(other) - self

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            factor = exact_rational(other)
            return _reduced([n * factor.numerator for n in self._nums],
                            self._den * factor.denominator)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self._nums) + len(other._nums) - 1)
        terms = [(j, b) for j, b in enumerate(other._nums) if b]
        for i, a in enumerate(self._nums):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a natural number, got {exponent!r}")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ---- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient list as exact "num/den" strings, index = degree."""
        return [str(c) for c in self.coefficients]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "Poly":
        """Inverse of ``to_json``; a value that is not a string must be an exact rational."""
        return cls(Fraction(s) if isinstance(s, str) else s for s in data)

    def __repr__(self) -> str:
        return f"Poly({list(self.coefficients)!r})"

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        body = _render_integer_poly(self._nums)
        return body if self._den == 1 else f"({body})/{self._den}"

    # ---- parsing --------------------------------------------------------

    @classmethod
    def parse(cls, text: str, *, max_degree: int = DEFAULT_MAX_DEGREE) -> "Poly":
        """Parse ``3/8*w^2 - w + 1`` style expressions (also parenthesized); a power or
        product that would take the degree over ``max_degree`` is refused before it is built."""
        return _Parser(text, max_degree).parse()


def _reduced(nums: list[int], den: int) -> Poly:
    """The canonical Poly sum(nums[i] * w^i) / den, for den >= 1."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    poly = object.__new__(Poly)
    poly._nums, poly._den = tuple(nums) if g == 1 else tuple(n // g for n in nums), den // g
    return poly


def _render_integer_poly(coeffs: tuple[int, ...]) -> str:
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == 0:
            continue
        mag_int = abs(c)
        if exp == 0:
            text = str(mag_int)
        else:
            head = "w" if exp == 1 else f"w^{exp}"
            text = head if mag_int == 1 else f"{mag_int}*{head}"
        if not terms:
            terms.append(text if c > 0 else f"-{text}")
        else:
            terms.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(terms)


_TOKEN = re.compile(r"\s*(\d+|[wW]|\*\*|[-+*/^()])")
MAX_NESTING = 100  # each level of parentheses costs four Python frames
MAX_PARSE_BITS = 2 ** 22  # estimated size of a parsed power or product; (w+1)^2047 is under it
MAX_QUOTED = 80  # a parse error quotes at most this many characters of the input or a token


def _excerpt(text: str) -> str:
    """``text`` itself up to MAX_QUOTED characters, else its first MAX_QUOTED and ``...``."""
    return text if len(text) <= MAX_QUOTED else text[:MAX_QUOTED] + "..."


def _over_digit_limit(digits: int, quoted: str) -> str:
    """The refusal of an integer of ``digits`` digits, over the interpreter's str-to-int limit."""
    return (f"integer of {digits} digits in {quoted} is over the limit of "
            f"{sys.get_int_max_str_digits()} digits")


def _log_sizes(f: Poly) -> tuple[int, int]:
    """ceil(log2 |N|_1) and ceil(log2 den) for f = N/den.  Every numerator of f^e is below
    |N|_1^e and its denominator divides den^e; for f * g the bounds multiply."""
    nums, den = f.as_integer_ratio()
    return (sum(map(abs, nums)) - 1).bit_length(), (den - 1).bit_length()


class _Parser:
    """Recursive-descent parser for the small polynomial grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' natural)*
    atom   := natural | 'w' | '(' expr ')'

    Division requires a nonzero constant divisor.  Each rule is passed the
    degree its result may have, and raises before its input would exceed it.
    A power or product is then refused before it is built if its estimated
    size, (degree + 1) * (numerator bits + 1) + denominator bits, is over
    MAX_PARSE_BITS.
    Parentheses nested deeper than MAX_NESTING are refused before any rule
    runs, well inside the interpreter's recursion limit.
    """

    def __init__(self, text: str, max_degree: int) -> None:
        self._quoted = repr(_excerpt(text))  # the input as an error message quotes it
        self._max_degree = max_degree
        self._tokens = self._tokenize(text)
        self._pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None:
                if text[pos:].strip():
                    raise PolyParseError(f"unexpected character {text[pos:].strip()[0]!r} "
                                         f"in {_excerpt(text)!r}")
                break
            token = match.group(1)
            tokens.append("^" if token == "**" else token.lower())
            pos = match.end()
        return tokens

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PolyParseError(f"unexpected end of expression in {self._quoted}")
        self._pos += 1
        return token

    def parse(self) -> Poly:
        if not self._tokens:
            raise PolyParseError("empty polynomial expression")
        depth = 0
        for token in self._tokens:
            depth += (token == "(") - (token == ")")
            if depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING} levels")
        result = self._expr(self._max_degree)
        if self._peek() is not None:
            raise PolyParseError(f"trailing input {_excerpt(self._peek())!r} in {self._quoted}")
        return result

    def _expr(self, cap: int) -> Poly:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next() == "-" else 1
        acc = self._term(cap) * sign
        while self._peek() in ("+", "-"):
            op = self._next()
            term = self._term(cap)
            acc = acc + term if op == "+" else acc - term
        return acc

    def _term(self, cap: int) -> Poly:
        acc = self._factor(cap)
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._factor(cap - max(acc.degree, 0) if op == "*" else cap)
            if op == "/":
                if rhs.degree > 0:
                    raise PolyParseError("division by a non-constant polynomial")
                if rhs.is_zero():
                    raise PolyParseError("division by zero")
                rhs = Poly.constant(1 / rhs.coefficient(0))
            (num_a, den_a), (num_b, den_b) = _log_sizes(acc), _log_sizes(rhs)
            self._check_size("product" if op == "*" else "quotient",
                             max(acc.degree, 0) + max(rhs.degree, 0), num_a + num_b, den_a + den_b)
            acc = acc * rhs
        return acc

    def _factor(self, cap: int) -> Poly:
        acc = self._atom(cap)
        while self._peek() == "^":
            self._next()
            token = self._next()
            if not token.isdigit():
                raise PolyParseError(f"exponent must be a natural number, got {_excerpt(token)!r}")
            e = self._natural(token)
            if e > DEFAULT_MAX_DEGREE or e * max(acc.degree, 0) > cap:
                raise PolyParseError(f"power ^{_excerpt(str(e))} in {self._quoted} is over the "
                                     f"degree cap {self._max_degree}")
            num_bits, den_bits = _log_sizes(acc)
            self._check_size(f"power ^{e}", e * max(acc.degree, 0), e * num_bits, e * den_bits)
            acc = acc ** e
        return acc

    def _check_size(self, what: str, degree: int, num_bits: int, den_bits: int) -> None:
        if (degree + 1) * (num_bits + 1) + den_bits > MAX_PARSE_BITS:  # numerators over one den
            raise PolyParseError(f"{what} in {self._quoted} is over the size cap "
                                 f"of {MAX_PARSE_BITS} bits")

    def _natural(self, token: str) -> int:
        try:
            return int(token)
        except ValueError:  # over the interpreter's limit on the digits of an int
            raise PolyParseError(_over_digit_limit(len(token), self._quoted)) from None

    def _atom(self, cap: int) -> Poly:
        token = self._next()
        if token.isdigit():
            return Poly.constant(self._natural(token))
        if token == "w":
            if cap < 1:
                raise PolyParseError(f"{self._quoted} is over the degree cap "
                                     f"{self._max_degree}")
            return Poly.variable()
        if token == "(":
            inner = self._expr(cap)
            if self._next() != ")":
                raise PolyParseError(f"unbalanced parentheses in {self._quoted}")
            return inner
        raise PolyParseError(f"unexpected token {_excerpt(token)!r} in {self._quoted}")
