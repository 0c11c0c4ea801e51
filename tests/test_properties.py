"""Property tests: ring laws, serialization round trips, tester agreement."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbasis import (GExpansion, HomologyEntry, Poly, SymbolicPoly, base_p_digits,
                       digit_products, enumerate_m1, expand_in_g, hazewinkel_t_solutions,
                       is_semistable_2local, is_semistable_plocal_residues, margolis_homology,
                       weight)
from coopbasis import margolis
from coopbasis.margolis import M1Complex, SteenrodMonomial, _echelon, q_degree_drop
from coopbasis.semistable import _mahler
from references import bit_rows, evaluate, gexpansion_from_json, monomial_sort_key, to_poly

PROPERTY = settings(database=None, derandomize=True, deadline=None)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
polys = st.lists(rationals, max_size=6).map(Poly)
integer_polys = st.lists(st.integers(-9, 9), max_size=4).map(Poly)
PHI1 = Poly((Fraction(-1, 2), Fraction(1, 2)))


@st.composite
def two_power_polys(draw):
    """a + b * phi_1^k, semistable, perturbed half the time by c * w^i / 2^m."""
    f = draw(integer_polys) + draw(integer_polys) * PHI1 ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        c = Fraction(draw(st.integers(-9, 9)), 2 ** draw(st.integers(1, 4)))
        f = f + Poly.monomial(c, draw(st.integers(0, 3)))
    return f


@PROPERTY
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero() == f
    assert f * Poly.one() == f
    assert (f - f).is_zero()
    assert (f * g).degree == (-1 if f.is_zero() or g.is_zero() else f.degree + g.degree)


def _trimmed(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _schoolbook_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    summed = list(a)
    for i, c in enumerate(b):
        summed[i] += c
    return _trimmed(summed)


def _schoolbook_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


@PROPERTY
@given(polys, polys, polys, rationals, st.integers(0, 4))
def test_ring_operations_match_the_fraction_schoolbook(f, g, h, c, e):
    # reference: per-coefficient Fraction arithmetic, which shares nothing with Poly's integer pairs
    a, b = f.coefficients, g.coefficients
    negated_b = tuple(-y for y in b)
    power = (Fraction(1),)
    for _ in range(e):
        power = _schoolbook_mul(power, a)
    expected = {
        "+": (f + g, _schoolbook_add(a, b)),
        "-": (f - g, _schoolbook_add(a, negated_b)),
        "neg": (-g, negated_b),
        "*": (f * g, _schoolbook_mul(a, b)),
        "scalar": (f * c, _trimmed([x * c for x in a])),
        "**": (f ** e, power),
    }
    for op, (result, reference) in expected.items():
        assert result.coefficients == reference, op
        nums, den = result.as_integer_ratio()
        assert den >= 1 and (not nums or nums[-1] != 0) and math.gcd(den, *nums) == 1, op
        assert Poly(reference) == result and hash(Poly(reference)) == hash(result), op
    assert hash(f * (g + h)) == hash(f * g + f * h)


@PROPERTY
@given(polys)
def test_round_trips(f):
    assert Poly.parse(str(f)) == f
    assert Poly.from_json(f.to_json()) == f
    expansion = expand_in_g(f)
    assert gexpansion_from_json(expansion.to_json()) == expansion
    assert to_poly(expansion) == f


@PROPERTY
@given(two_power_polys())
def test_testers_agree_at_2(f):
    assert is_semistable_2local(f) == is_semistable_plocal_residues(2, f)


def _nu2(x):
    """nu_2 of a nonzero Fraction, by repeated division of its numerator and denominator."""
    v, num, den = 0, x.numerator, x.denominator
    while num % 2 == 0:
        num, v = num // 2, v + 1
    while den % 2 == 0:
        den, v = den // 2, v - 1
    return v


def _fraction_g_coordinates(f):
    """b_j as Fractions: forward differences of x -> f(2x + 1) at 0, in Fraction arithmetic."""
    values = [sum((c * (2 * x + 1) ** i for i, c in enumerate(f.coefficients)), Fraction(0))
              for x in range(f.degree + 1)]
    coords = {}
    for j in range(len(values)):
        coords[j] = values[j]
        values = values[:j + 1] + [b - a for a, b in zip(values[j:], values[j + 1:])]
    return {j: b for j, b in coords.items() if b}


def _fraction_weigh(coords):
    """The Fraction-path weighing: W = min_j nu_2(b_j) + alpha(j) - 2j and its minimizing indices."""
    terms = {j: _nu2(b) + bin(j).count("1") - 2 * j for j, b in coords.items()}
    best = min(terms.values(), default=None)
    return best, tuple(sorted(j for j, t in terms.items() if t == best))


@PROPERTY
@given(polys | two_power_polys())
def test_integer_g_coordinates_match_the_fraction_path(f):
    coords = _fraction_g_coordinates(f)
    expansion = expand_in_g(f)
    report = weight(f)
    assert dict(expansion.items()) == coords
    assert (report.weight, report.argmin) == _fraction_weigh(coords)
    assert is_semistable_2local(f) == all(_nu2(b) >= 0 for b in coords.values())
    nums, den = expansion.as_integer_ratio()
    assert den >= 1 and math.gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)
    assert {j: Fraction(b, den) for j, b in enumerate(nums) if b} == coords
    assert GExpansion(dict(expansion.items())) == expansion
    assert gexpansion_from_json(expansion.to_json()) == expansion


def _odd_point_values(f, count):
    """den * f(2x + 1) for x < count, with den the denominator of f, by Fraction evaluation."""
    den = f.as_integer_ratio()[1]
    return [int(evaluate(f, 2 * x + 1) * den) for x in range(count)], den


@PROPERTY
@given(polys, polys, polys, st.integers(1, 4))
def test_mahler_of_pointwise_products_matches_the_product_expansion(f, g, h, extra):
    for factors in ((f, g), (f, g, h)):
        product = Poly.one()
        for factor in factors:
            product = product * factor
        degree = max(product.degree, 0)
        values, den = [1] * (degree + 1 + extra), 1
        for factor in factors:  # pointwise, at more points than the product needs
            factor_values, factor_den = _odd_point_values(factor, len(values))
            values, den = [a * b for a, b in zip(values, factor_values)], den * factor_den
        expected = expand_in_g(product).as_integer_ratio()
        assert _mahler(values[:degree + 1], den).as_integer_ratio() == expected
        assert _mahler(values, den).as_integer_ratio() == expected


@PROPERTY
@given(st.sampled_from((2, 3, 5)), st.lists(integer_polys, min_size=1, max_size=3))
def test_digit_products_match_the_digit_definition(p, factors):
    products = digit_products(p, factors, p ** len(factors))
    assert len(products) == p ** len(factors)
    for k, product in enumerate(products):
        expected = Poly.one()
        for factor, digit in zip(factors, base_p_digits(p, k)):
            expected = expected * factor ** digit
        assert product == expected


def _rref(rows, p):
    """Dense reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(x % p for x in r)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [x * inv % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return [r for r in mat if any(r)], pivots


def _nullspace(rows, ncols, p):
    """Dense basis of the kernel of the map whose matrix rows are given."""
    rref, pivots = _rref(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for r, pivot_col in zip(rref, pivots):
            vec[pivot_col] = (-r[f]) % p
        basis.append(vec)
    return basis


@st.composite
def fp_matrices(draw):
    """(p, column count, rows of a matrix over F_p, a set of columns to constrain to zero)."""
    p = draw(st.sampled_from((2, 3, 5)))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entries = st.integers(0, p - 1) | st.just(0)  # sparse half the time
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    return p, ncols, rows, draw(st.sets(st.integers(0, ncols - 1)))


def _dense(rows, ncols, shift=0):
    return [[row.get(shift + c, 0) for c in range(ncols)] for _, row in sorted(rows.items())]


@PROPERTY
@given(fp_matrices())
def test_sparse_echelon_matches_the_dense_reference(matrix):
    # the parent's dense Margolis elimination is kept here as the reference
    p, ncols, rows, constrained = matrix
    nrows = len(rows)
    echelon = _echelon(({c: x for c, x in enumerate(r) if x} for r in rows), p)
    reference, pivots = _rref(rows, p)
    assert sorted(echelon) == pivots
    assert _dense(echelon, ncols) == reference

    # the kernel vectors that vanish on ``constrained``, as margolis_homology builds them
    units = [[int(c == u) for c in range(ncols)] for u in sorted(constrained)]
    kernel, _ = _rref(_nullspace([*rows, *units], ncols, p), p)
    source = nrows + ncols
    augmented = _echelon(({**{r: row[c] for r, row in enumerate(rows) if row[c]},
                           **({nrows + c: 1} if c in constrained else {}), source + c: 1}
                          for c in range(ncols)), p)
    leading = {pivot: row for pivot, row in augmented.items() if pivot >= source}
    assert _dense(leading, ncols, source) == kernel
    assert len(leading) == ncols - len(_rref([*rows, *units], p)[1])
    # its rows that lead in the image give the pivots of a plain elimination of the image
    columns = ({r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols))
    assert {pivot for pivot in augmented if pivot < nrows} == set(_echelon(columns, p))


@st.composite
def f2_matrices(draw):
    """(rows of a 0/1 matrix, a column at which to cut the reduced form)."""
    ncols = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(0, 2 ** ncols - 1), max_size=8))
    return [[row >> c & 1 for c in range(ncols)] for row in rows], draw(st.integers(0, ncols))


def _bits(row):
    return sum(x << c for c, x in enumerate(row))


@PROPERTY
@given(f2_matrices())
def test_xor_echelon_matches_the_sparse_and_dense_references(matrix):
    rows, cut = matrix
    echelon = margolis._f2_echelon(_bits(row) for row in rows)
    sparse = _echelon(({c: 1 for c, x in enumerate(row) if x} for row in rows), 2)
    dense, pivots = _rref(rows, 2)
    assert sorted(pivot.bit_length() - 1 for pivot in echelon) == sorted(sparse) == pivots
    # each echelon row leads at its pivot
    assert all(row & -row == pivot for pivot, row in echelon.items())
    reduced = margolis._f2_reduced(echelon)
    assert [reduced[pivot] for pivot in sorted(reduced)] == [_bits(row) for row in dense]
    assert [reduced[pivot] for pivot in sorted(reduced)] == [
        sum(1 << c for c in row) for _, row in sorted(sparse.items())]
    # margolis_homology reduces only the rows that lead at or above a cut
    above = margolis._f2_reduced({pivot: row for pivot, row in echelon.items() if pivot >> cut})
    assert [above[pivot] for pivot in sorted(above)] == [
        _bits(row) for row, pivot in zip(dense, pivots) if pivot >= cut]


@pytest.mark.parametrize("i", [0, 1])
def test_xor_image_pivots_match_the_sparse_echelon(i):
    for k in range(49):
        complex_ = enumerate_m1(2, k)
        for degree in complex_.degrees():
            columns = complex_.differential(i, degree)
            pivots = margolis._f2_echelon(bit_rows(columns))
            assert {pivot.bit_length() - 1 for pivot in pivots} == set(_echelon(columns, 2))


def _two_elimination_homology(complex_, i):
    """margolis_homology with the image pivots taken from a separate elimination per degree."""
    p = complex_.prime
    drop = q_degree_drop(p, i)
    entries = []
    for degree in complex_.degrees():
        slice_ = complex_.degree_slice(degree)
        image_pivots = _echelon(complex_.differential(i, degree + drop), p)
        width = len(complex_.degree_slice(degree - drop))
        source = width + len(slice_)
        rows = _echelon(({**column, **({width + c: 1} if c in image_pivots else {}), source + c: 1}
                         for c, column in enumerate(complex_.differential(i, degree))), p)
        generators = tuple(tuple((slice_[key - source], x) for key, x in sorted(row.items()))
                           for pivot, row in sorted(rows.items()) if pivot >= source)
        if generators:
            entries.append(HomologyEntry(degree, len(generators), generators))
    return tuple(entries)


@pytest.mark.parametrize("p, max_k", [(2, 48), (3, 60), (5, 30), (7, 14)])
def test_homology_matches_the_two_elimination_reference(p, max_k):
    for k in range(max_k + 1):
        complex_ = enumerate_m1(p, k)
        for i in (0, 1):
            assert margolis_homology(complex_, i) == _two_elimination_homology(complex_, i)


def _tuple_m1(p, k):
    """enumerate_m1 before packed keys: checked monomials, columns from _q_image."""
    target = (2 if p == 2 else p) * k
    gens = margolis._generators(p, target)
    partial = [(target, (), ())]
    for exterior, index, step, weight, _ in reversed(gens[1:]):
        if exterior:
            partial += [(rest - weight, zeta, (index, *tau))
                        for rest, zeta, tau in partial if rest >= weight]
        else:
            partial = [(rest - used * weight, ((index, used * step), *zeta) if used else zeta, tau)
                       for rest, zeta, tau in partial for used in range(rest // weight + 1)]
    _, index, step, weight, _ = gens[0]
    basis = tuple(sorted((SteenrodMonomial(p, ((index, rest // weight * step), *zeta)
                                           if rest else zeta, tau)
                          for rest, zeta, tau in partial), key=monomial_sort_key))
    slices = {degree: tuple(ms)
              for degree, ms in itertools.groupby(basis, SteenrodMonomial.degree)}
    position = {(m.zeta, m.tau): c for slice_ in slices.values() for c, m in enumerate(slice_)}

    def build(i):
        return {degree: tuple({position[key]: coeff
                               for key, coeff in margolis._q_image(p, i, m.zeta, m.tau).items()}
                              for m in source)
                for degree, source in slices.items()}

    return M1Complex(p, k, basis, build(0), build(1), slices)


@pytest.mark.parametrize("p, max_k", [(2, 48), (3, 60), (5, 40), (7, 14)])
def test_packed_enumeration_matches_the_tuple_reference(p, max_k):
    # at p = 2 the key's field width grows at k = 32 (target 64 needs 7 bits)
    for k in range(max_k + 1):
        assert enumerate_m1(p, k) == _tuple_m1(p, k), (p, k)


class _FractionSymbolicPoly:
    """The Fraction-per-term SymbolicPoly with substitution, kept as the reference."""

    def __init__(self, terms=None):
        self._terms = {mono: coeff for mono, coeff in (terms or {}).items() if coeff}

    @classmethod
    def constant(cls, value):
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): Fraction(1)})

    def variables(self):
        return {name for mono in self._terms for name, _ in mono}

    def __eq__(self, other):
        if not isinstance(other, _FractionSymbolicPoly):
            other = _FractionSymbolicPoly.constant(other)
        return self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, _FractionSymbolicPoly):
            other = _FractionSymbolicPoly.constant(other)
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        return _FractionSymbolicPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return _FractionSymbolicPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + -(other if isinstance(other, _FractionSymbolicPoly)
                        else _FractionSymbolicPoly.constant(other))

    def __rsub__(self, other):
        return _FractionSymbolicPoly.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, _FractionSymbolicPoly):
            return _FractionSymbolicPoly({m: c * other for m, c in self._terms.items()})
        out = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                exps = dict(ma)
                for name, e in mb:
                    exps[name] = exps.get(name, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return _FractionSymbolicPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        result = _FractionSymbolicPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(self, name, replacement):
        acc = _FractionSymbolicPoly()
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.pop(name, 0)
            acc = acc + _FractionSymbolicPoly({tuple(sorted(exps.items())): coeff}) * replacement ** e
        return acc

    def split_linear(self, name):
        head, tail = {}, {}
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.pop(name, 0)
            if e > 1:
                raise ValueError(f"{name} appears with exponent {e}")
            if e == 0:
                tail[mono] = coeff
            else:
                head_mono = tuple(sorted(exps.items()))
                head[head_mono] = head.get(head_mono, Fraction(0)) + coeff
        return _FractionSymbolicPoly(head), _FractionSymbolicPoly(tail)


def _substitution_t_solutions(p, count):
    """t_1..t_count by substituting every solved t_i into each full relation."""
    u, v = _FractionSymbolicPoly.variable("u1"), _FractionSymbolicPoly.variable("v1")
    lam = [_FractionSymbolicPoly.constant(1)]
    for n in range(1, count + 1):
        lam.append(lam[n - 1] * v ** (p ** (n - 1)) * Fraction(1, p))

    def eta_lambda(n):
        acc = _FractionSymbolicPoly()
        for j in range(n + 1):
            t = _FractionSymbolicPoly.variable(f"t{n - j}") if j < n else 1
            acc = acc + lam[j] * t ** (p ** j)
        return acc

    solutions = []
    for n in range(1, count + 1):
        relation = eta_lambda(n) * p - eta_lambda(n - 1) * u ** (p ** (n - 1))
        for i, solved in enumerate(solutions, start=1):
            relation = relation.substitute(f"t{i}", solved)
        head, tail = relation.split_linear(f"t{n}")
        assert head == p and tail.variables() <= {"u1", "v1"}
        solutions.append(tail * Fraction(-1, p))
    return solutions


monomials = st.lists(st.tuples(st.sampled_from(("u1", "v1")), st.integers(1, 2)),
                     max_size=3).map(lambda factors: tuple(sorted(dict(factors).items())))
symbolic_terms = st.dictionaries(monomials, rationals, max_size=4)


def _pair(terms):
    return SymbolicPoly(terms), _FractionSymbolicPoly(terms)


def _assert_matches(poly, reference):
    assert dict(poly.terms()) == reference._terms
    assert all(type(c) is Fraction for _, c in poly.terms())
    # the canonical pair: no zero numerator, den >= 1 and gcd(den, *nums) == 1
    nums, den = poly._nums, poly._den
    assert den >= 1 and math.gcd(den, *nums.values()) == 1 and 0 not in nums.values()


@PROPERTY
@given(symbolic_terms, symbolic_terms, symbolic_terms, rationals, st.integers(0, 3))
def test_symbolic_ring_operations_match_the_fraction_reference(f, g, h, c, e):
    (F, RF), (G, RG), (H, RH) = _pair(f), _pair(g), _pair(h)
    _assert_matches(F, RF)
    for result, reference in ((F + G, RF + RG), (F - G, RF - RG), (-F, -RF), (F * G, RF * RG),
                              (F * c, RF * c), (c * F, RF * c), (F + c, RF + c),
                              (3 - F, 3 - RF), (F ** e, RF ** e), (F * (G + H), RF * (RG + RH))):
        _assert_matches(result, reference)
    assert (F * G) * H == F * (G * H) and F * G == G * F and (F + G) + H == F + (G + H)
    assert F * (G + H) == F * G + F * H
    assert hash(F * (G + H)) == hash(F * G + F * H)
    assert (F == G) == (RF == RG) and (F == c) == (RF == c)
    assert F == SymbolicPoly(dict(F.terms())) and hash(F) == hash(SymbolicPoly(dict(F.terms())))
    assert (F - F).is_zero()


@pytest.mark.parametrize("p, count", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_hazewinkel_solutions_match_the_substitution_reference(p, count):
    reference = [t._terms for t in _substitution_t_solutions(p, count)]
    for n in range(1, count + 1):
        assert [dict(t.terms()) for t in hazewinkel_t_solutions(p, n)] == reference[:n]


def test_hazewinkel_solutions_build_few_fractions(monkeypatch):
    built = []
    make = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    solutions = hazewinkel_t_solutions(2, 6)
    monkeypatch.undo()
    assert len(built) <= 100  # one per term per operation made 27,768
    assert solutions[0] == (SymbolicPoly.variable("u1") - SymbolicPoly.variable("v1")) * Fraction(1, 2)
