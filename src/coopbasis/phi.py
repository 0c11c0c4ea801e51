"""The phi-family of semistable polynomials and its formal-group-law oracle.

The family is built by the recursion

    phi_1 = (w^(p-1) - 1) / p
    phi_n = (w^(p^n - 1) - sum_{i=1}^{n-1} p^i * phi_i^(p^(n-i)) - 1) / p^n

and cross-checked against an independent derivation from the Hazewinkel
generators: starting from

    p*lam_n      = sum_{0 <= i < n}  lam_i * v_{n-i}^(p^i)
    eta_R(lam_n) = sum_{0 <= i <= n} lam_i * t_{n-i}^(p^i)      (t_0 = 1)

one kills u_k = eta_R(v_k) and v_k for k >= 2, which leaves the closed forms
lam_n = v_1^((p^n-1)/(p-1)) / p^n and eta_R(lam_n) = u_1^((p^n-1)/(p-1)) / p^n.
So t_n = eta_R(lam_n) - sum_{1 <= i <= n} lam_i * t_{n-i}^(p^i) is a polynomial
in u_1 and v_1 once t_1..t_(n-1) are; it is normalized by v_1^(-(p^n-1)/(p-1))
and rewritten in w via u_1/v_1 = w^(p-1).  Both routes must agree exactly.

Products phi_1^{k_0} * phi_2^{k_1} * ... over the base-p digits k_i of k
are the monomial generating set of the p-local cooperations module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .arith import alpha_p, base_p_digits, exact_rational, require_prime
from .errors import InternalConsistencyError, ResourceLimitError
from .poly import DEFAULT_MAX_DEGREE, Poly
from .semistable import DEFAULT_RESIDUE_BUDGET, integrality_verdicts

Monomial = tuple[tuple[str, int], ...]
_NAMES = ("u1", "v1")


def _exponents(mono: Monomial) -> tuple[int, int]:
    """The exponent pair (a, b) of the named monomial u1^a * v1^b."""
    if any(name not in _NAMES for name, _ in mono):
        raise ValueError(f"SymbolicPoly is a polynomial in u1 and v1, got the monomial {mono!r}")
    return sum(e for name, e in mono if name == "u1"), sum(e for name, e in mono if name == "v1")


class SymbolicPoly:
    """Exact polynomial in u1 and v1: integer numerators over one denominator.

    Just enough ring structure for the Hazewinkel formulas.  Numerators are
    keyed by the exponent pair (a, b) of u1^a * v1^b, so multiplying two
    terms adds their pairs.  The form is canonical (no zero numerators,
    den >= 1, gcd(den, *nums) == 1), so equal polynomials store equal pairs;
    named monomials and ``Fraction``s are built only when read.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None) -> None:
        coeffs = [(_exponents(mono), exact_rational(c)) for mono, c in (terms or {}).items()]
        den = math.lcm(*(c.denominator for _, c in coeffs))
        nums: dict[tuple[int, int], int] = {}
        for key, c in coeffs:
            nums[key] = nums.get(key, 0) + c.numerator * (den // c.denominator)
        canonical = self._canonical(nums, den)
        self._nums, self._den = canonical._nums, canonical._den

    @classmethod
    def _canonical(cls, nums: dict[tuple[int, int], int], den: int) -> "SymbolicPoly":
        """The canonical sum(nums[a, b] * u1^a * v1^b) / den, for den >= 1."""
        g = math.gcd(den, *nums.values())
        poly = object.__new__(cls)
        poly._nums = {key: n // g for key, n in nums.items() if n}
        poly._den = den // g
        return poly

    @classmethod
    def constant(cls, value: Fraction | int) -> "SymbolicPoly":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "SymbolicPoly":
        return cls({((name, 1),): 1})

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        return [(tuple((name, e) for name, e in zip(_NAMES, key) if e), Fraction(n, self._den))
                for key, n in self._nums.items()]

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymbolicPoly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == SymbolicPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((frozenset(self._nums.items()), self._den))

    def __add__(self, other: "SymbolicPoly | Fraction | int") -> "SymbolicPoly":
        if not isinstance(other, SymbolicPoly):
            other = SymbolicPoly.constant(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        merged = {mono: n * a for mono, n in self._nums.items()}
        for mono, n in other._nums.items():
            merged[mono] = merged.get(mono, 0) + n * b
        return SymbolicPoly._canonical(merged, den)

    __radd__ = __add__

    def __neg__(self) -> "SymbolicPoly":
        return SymbolicPoly._canonical({m: -n for m, n in self._nums.items()}, self._den)

    def __sub__(self, other: "SymbolicPoly | Fraction | int") -> "SymbolicPoly":
        if not isinstance(other, SymbolicPoly):
            other = SymbolicPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: "Fraction | int") -> "SymbolicPoly":
        return SymbolicPoly.constant(other) - self

    def __mul__(self, other: "SymbolicPoly | Fraction | int") -> "SymbolicPoly":
        if not isinstance(other, SymbolicPoly):
            factor = exact_rational(other)
            return SymbolicPoly._canonical(
                {m: n * factor.numerator for m, n in self._nums.items()},
                self._den * factor.denominator)
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), x in self._nums.items():
            for (a2, b2), y in other._nums.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + x * y
        return SymbolicPoly._canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SymbolicPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a natural number, got {exponent!r}")
        result = SymbolicPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self) -> str:
        if not self._nums:
            return "SymbolicPoly(0)"
        parts = []
        for mono, coeff in sorted(self.terms()):
            factors = [str(coeff)] + [f"{n}^{e}" if e > 1 else n for n, e in mono]
            parts.append("*".join(factors))
        return "SymbolicPoly(" + " + ".join(parts) + ")"


class PhiFamily(NamedTuple):
    """Memoized phi_1..phi_N for a fixed prime, with Adams filtrations.

    ``polys[i]`` is phi_{i+1}; ``af[i]`` its filtration -(p^(i+1)-1)/(p-1).
    ``over_budget`` lists the n whose integrality test was over the residue budget.
    """

    prime: int
    polys: tuple[Poly, ...]
    over_budget: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def af(self) -> tuple[int, ...]:
        return tuple(_af_value(self.prime, n) for n in range(1, len(self.polys) + 1))

    def phi(self, n: int) -> Poly:
        if not 1 <= n <= len(self.polys):
            raise ValueError(f"phi_{n} not in family of size {len(self.polys)}")
        return self.polys[n - 1]


def _af_value(p: int, n: int) -> int:
    return -((p ** n - 1) // (p - 1))


def _check_family_size(p: int, count: int) -> None:
    require_prime(p)
    if count < 1:
        raise ValueError(f"family size must be >= 1, got {count}")
    top_degree = p ** count - 1
    if top_degree > DEFAULT_MAX_DEGREE:
        raise ResourceLimitError(
            f"phi_{count} at p={p} has degree {top_degree}, over the cap {DEFAULT_MAX_DEGREE}",
            required=top_degree, budget=DEFAULT_MAX_DEGREE)


def phi_family(p: int, count: int, *, residue_budget: int = DEFAULT_RESIDUE_BUDGET,
               verify_integrality: bool = True) -> PhiFamily:
    """Construct phi_1..phi_count at the prime p by the defining recursion."""
    _check_family_size(p, count)
    polys: list[Poly] = []
    powers: list[Poly] = []  # phi_i^(p^(n-1-i)) for i = 1..n-1, from the level before
    for n in range(1, count + 1):
        powers = [f ** p for f in powers]
        numerator = Poly.monomial(1, p ** n - 1) - 1
        for i, power in enumerate(powers, start=1):
            numerator = numerator - power * p ** i
        polys.append(numerator * Fraction(1, p ** n))
        powers.append(polys[-1])
    verdicts = integrality_verdicts(p, polys, residue_budget) if verify_integrality else []
    if False in verdicts:
        raise InternalConsistencyError(
            f"phi_{verdicts.index(False) + 1} failed the p={p} integrality test")
    over_budget = tuple(n for n, v in enumerate(verdicts, start=1) if v is None)
    return PhiFamily(p, tuple(polys), over_budget)


def hazewinkel_t_solutions(p: int, count: int) -> list[SymbolicPoly]:
    """t_1..t_count as exact polynomials in u1 and v1, from the Hazewinkel formulas.

    lam_n = lam_(n-1) * v1^(p^(n-1)) / p, and eta_R(lam_n) follows the same
    recursion in u1; both are checked against their closed forms.  Then
    t_n = eta_R(lam_n) - sum_{1 <= j <= n} lam_j * t_(n-j)^(p^j), with t_0 = 1.
    """
    _check_family_size(p, count)
    lam, eta = [SymbolicPoly.constant(1)], [SymbolicPoly.constant(1)]
    for n in range(1, count + 1):
        span = (p ** n - 1) // (p - 1)
        for series, name in ((lam, "v1"), (eta, "u1")):
            series.append(series[n - 1] * SymbolicPoly({((name, p ** (n - 1)),): Fraction(1, p)}))
            if series[n] != SymbolicPoly({((name, span),): Fraction(1, p ** n)}):
                raise InternalConsistencyError(f"lam_{n} or eta_R(lam_{n}) is not its closed form")

    solutions: list[SymbolicPoly] = []
    powers: list[SymbolicPoly] = []  # t_i^(p^(n-1-i)) for i = 1..n-1, from the level before
    for n in range(1, count + 1):
        powers = [t ** p for t in powers]
        # the sum over 1 <= j <= n of lam_j * t_(n-j)^(p^j), with t_0 = 1
        rest = sum((lam[n - i] * t for i, t in enumerate(powers, start=1)), lam[n])
        solutions.append(eta[n] - rest)
        powers.append(solutions[-1])
    return solutions


def _normalized_t_to_poly(p: int, n: int, t_expr: SymbolicPoly) -> Poly:
    """Rewrite v1^(-(p^n-1)/(p-1)) * t_n in w, using u1/v1 = w^(p-1)."""
    span = (p ** n - 1) // (p - 1)
    coeffs = [Fraction(0)] * (p ** n - 1 + 1)
    for (a, b), num in t_expr._nums.items():
        if a + b != span:
            raise InternalConsistencyError(
                f"t{n} term u1^{a}*v1^{b} is not homogeneous of degree {span} in u1, v1")
        coeffs[a * (p - 1)] = Fraction(num, t_expr._den)
    return Poly(coeffs)


def phi_family_oracle(p: int, count: int) -> PhiFamily:
    """Independent construction of the family from the Hazewinkel formulas."""
    solutions = hazewinkel_t_solutions(p, count)
    return PhiFamily(p, tuple(_normalized_t_to_poly(p, n, t)
                              for n, t in enumerate(solutions, start=1)))


class PhiMonomial(NamedTuple):
    """Product of phi's over the base-p digits of the index k."""

    prime: int
    index: int
    digits: tuple[int, ...]
    poly: Poly

    @property
    def degree(self) -> int:
        """Degree in w: p*k - alpha_p(k), i.e. (p-1) times the w^(p-1) degree."""
        return self.prime * self.index - alpha_p(self.prime, self.index)


def _digit_chain(p: int, count: int) -> Iterator[tuple[int, int, int]]:
    """``(k, k - p^j, j)`` for 0 < k < count in order, p^j the lowest nonzero digit place of k.

    Entry k of a digit product over the base-p digits of k is entry k - p^j
    times factor j, and k - p^j < k comes earlier in the chain.
    """
    for k in range(1, count):
        j, place = 0, 1
        while k % (place * p) == 0:
            j, place = j + 1, place * p
        yield k, k - place, j


def digit_products(p: int, factors: Sequence[Poly], count: int) -> list[Poly]:
    """prod_i factors[i]^(k_i) over the base-p digits k_i of k, for k < count.

    One multiplication per entry, along ``_digit_chain``.
    """
    products = [Poly.one()] if count > 0 else []
    for _, parent, j in _digit_chain(p, count):
        products.append(products[parent] * factors[j])
    return products


def _require_members(p: int, top: int, family: PhiFamily) -> None:
    """Check that ``family`` is at p and holds every phi that index ``top`` needs."""
    require_prime(p)
    if family.prime != p:
        raise ValueError(f"family was built at p={family.prime}, not p={p}")
    needed = len(base_p_digits(p, top))
    if needed > len(family):
        raise ValueError(f"index {top} needs phi_{needed}, beyond family of size {len(family)}")


def _checked_monomial(p: int, k: int, product: Poly) -> PhiMonomial:
    monomial = PhiMonomial(p, k, base_p_digits(p, k), product)
    if k and product.degree != monomial.degree:
        raise InternalConsistencyError(
            f"phi-monomial {k} at p={p} has degree {product.degree}, "
            f"expected {monomial.degree}")
    return monomial


def phi_monomials(p: int, count: int, family: PhiFamily) -> list[PhiMonomial]:
    """The monomials prod_i phi_{i+1}^{k_i} for k < count, from ``digit_products``."""
    _require_members(p, max(count - 1, 0), family)
    return [_checked_monomial(p, k, product)
            for k, product in enumerate(digit_products(p, family.polys, count))]


def phi_monomial(p: int, k: int, family: PhiFamily) -> PhiMonomial:
    """The monomial prod_i phi_{i+1}^{k_i} for the base-p digits k_i of k.

    One multiplication per unit of each digit, alpha_p(k) in all, along the
    chain k -> k - p^j -> ... -> 0.
    """
    if k < 0:
        raise ValueError(f"expected a natural index, got {k}")
    _require_members(p, k, family)
    product = Poly.one()
    for factor, digit in zip(family.polys, base_p_digits(p, k)):
        for _ in range(digit):
            product = product * factor
    return _checked_monomial(p, k, product)
