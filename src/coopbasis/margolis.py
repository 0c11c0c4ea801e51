"""Weight-graded monomial complexes under the Milnor primitives Q0 and Q1.

At p = 2 the underlying algebra is P(z1^2, z2^2, z3, z4, ...) with
wt(z_m) = 2^(m-1); at odd p it is P(z1, z2, ...) (x) E(tau_2, tau_3, ...)
with wt(z_m) = wt(tau_m) = p^m.  The span of the monomials of weight
exactly 2k (resp. pk) is a finite complex under each Q_i, and its Margolis
homology ker Q_i / im Q_i is computed degreewise by exact elimination
over F_p: on sparse {position: coefficient} vectors at odd p, and at p = 2
on int bit rows (bit t is position t), where each row operation is one XOR.
At p = 2 the enumeration stores each column as its bit row, and every
computation here reads those rows; a column is decoded into a dict only
when it is read as a sequence item.

Action conventions (derivations in all cases):

    p = 2:   Q0(z_m) = z_{m-1}^2 and Q1(z_m) = z_{m-2}^4 for m >= 3,
             both vanishing on z1^2 and z2^2.
    odd p:   Q_i(tau_m) = z_{m-i}^(p^i), Q_i(z_m) = 0, with Koszul signs.

Internal degrees: deg z_m = 2^m - 1 at p = 2; deg z_m = 2(p^m - 1) and
deg tau_m = 2p^m - 1 at odd p.

Packed keys: ``enumerate_m1`` packs a monomial of weight t into one int.
With w = t.bit_length() + 1, the exponent of z_m (at most t) fills bits
w*m .. w*m + w - 1, and tau_m is bit w*(n+1) + m, above all n zeta
fields.  So a Q_i term is the key plus a fixed offset: no carry, no borrow.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .arith import base_p_digits, legendre_valuation_factorial, require_prime
from .errors import DEFAULT_RESIDUE_BUDGET, InternalConsistencyError, ResourceLimitError

Cycle = tuple[tuple["SteenrodMonomial", int], ...]
Zeta = tuple[tuple[int, int], ...]
Key = tuple[Zeta, tuple[int, ...]]  # the (zeta, tau) of a SteenrodMonomial
Generator = tuple[bool, int, int, int, int]  # (exterior, index, step, weight and degree per step)


class SteenrodMonomial(tuple):
    """A monomial in the conjugate Milnor generators: the normalized tuple (prime, zeta, tau)."""

    __slots__ = ()
    prime = property(itemgetter(0))
    zeta = property(itemgetter(1))
    tau = property(itemgetter(2))

    def __new__(cls, prime: int,
                zeta: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                tau: Iterable[int] = ()) -> SteenrodMonomial:
        require_prime(prime)
        exps = {}
        pairs = tuple(zeta.items() if hasattr(zeta, "keys") else zeta)  # as dict() reads it
        for index, e in pairs:
            if type(index) is not int or type(e) is not int:  # a plain type test refuses bool too
                raise TypeError(f"zeta index and exponent must be ints, got z{index!r}^{e!r}")
            if e < 0 or index < 1:
                raise ValueError(f"bad zeta power z{index}^{e}")
            if e:
                exps[index] = e
        if len(dict(pairs)) != len(pairs):
            raise ValueError(f"zeta indices must be distinct, got {pairs!r}")
        taus = tuple(sorted(tau))
        if taus and any(type(index) is not int for index in taus):
            raise TypeError(f"tau indices must be ints, got {taus!r}")
        if prime == 2:
            if taus:
                raise ValueError("tau generators only exist at odd primes")
            for index in (1, 2):
                if exps.get(index, 0) % 2:
                    raise ValueError(f"z{index} must occur with even exponent at p = 2")
        else:
            if len(set(taus)) != len(taus):
                raise ValueError("tau generators are exterior (multiplicity one)")
            if taus and taus[0] < 2:
                raise ValueError("tau indices start at 2 in this quotient")
        return tuple.__new__(cls, (prime, tuple(sorted(exps.items())), taus))

    def __reduce__(self) -> tuple[type, tuple[int, Zeta, tuple[int, ...]]]:
        return SteenrodMonomial, tuple(self)  # copy and pickle rebuild through the checks

    def weight(self) -> int:
        p, zeta, tau = self
        if p == 2:
            return sum(e << m - 1 for m, e in zeta)
        return sum(e * p ** m for m, e in zeta) + sum(p ** m for m in tau)

    def degree(self) -> int:
        p, zeta, tau = self
        if p == 2:
            return sum(e * (2 ** m - 1) for m, e in zeta)
        return sum(e * 2 * (p ** m - 1) for m, e in zeta) + sum(2 * p ** m - 1 for m in tau)

    def __str__(self) -> str:
        _, zeta, tau = self
        parts = [f"z{m}^{e}" if e > 1 else f"z{m}" for m, e in zeta]
        parts += [f"tau{m}" for m in tau]
        return " ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"SteenrodMonomial(p={self.prime}, {self})"


def _q_image(p: int, i: int, zeta: Zeta, tau: tuple[int, ...]) -> dict[Key, int]:
    """Q_i of the monomial stored as (zeta, tau), keyed by the (zeta, tau) of each term.

    Each odd generator gives one term, and no two of them give the same one.
    """
    image: dict[Key, int] = {}
    if p == 2:
        for index, e in zeta:
            if index >= 3 and e % 2:  # z_m -> z_{m-1}^2 (Q0) or z_{m-2}^4 (Q1)
                exps = dict(zeta)
                exps[index] = e - 1
                exps[index - 1 - i] = exps.get(index - 1 - i, 0) + 2 ** (i + 1)
                image[tuple(sorted((m, x) for m, x in exps.items() if x)), tau] = 1
    else:
        for position, index in enumerate(tau):
            exps = dict(zeta)
            exps[index - i] = exps.get(index - i, 0) + p ** i
            sign = 1 if position % 2 == 0 else p - 1  # odd generators passed over
            image[tuple(sorted(exps.items())), tau[:position] + tau[position + 1:]] = sign
    return image


def _require_q(i: int) -> None:
    if i not in (0, 1):
        raise ValueError(f"only Q0 and Q1 act here, got Q{i}")


def apply_q(i: int, m: SteenrodMonomial) -> dict[SteenrodMonomial, int]:
    """Q_i applied to a monomial, as an F_p combination of monomials."""
    _require_q(i)
    return {SteenrodMonomial(m.prime, zeta, tau): coeff
            for (zeta, tau), coeff in _q_image(m.prime, i, m.zeta, m.tau).items()}


def apply_q_linear(i: int, cycle: Cycle) -> dict[SteenrodMonomial, int]:
    """Extend apply_q linearly over an F_p combination."""
    acc: dict[SteenrodMonomial, int] = {}
    for monomial, coeff in cycle:
        for target, c in apply_q(i, monomial).items():
            acc[target] = (acc.get(target, 0) + coeff * c) % monomial.prime
    return {target: c for target, c in acc.items() if c}


def _decoded(row: int) -> dict[int, int]:
    """A bit row as the F_2 column {position: 1} of its set bits, lowest first."""
    column = {}
    while row:
        low = row & -row
        column[low.bit_length() - 1] = 1
        row ^= low
    return column


class _BitColumns(Sequence):
    """F_2 columns stored as int bit rows, read as a tuple of {position: 1} dicts.

    ``rows[c]`` has bit t set for each position t that column c holds.  An
    item is decoded when it is read, and the whole compares equal to the
    tuple of its decoded columns.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("stored columns are read-only")

    def __reduce__(self) -> tuple[type, tuple[tuple[int, ...]]]:
        return _BitColumns, (self.rows,)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> dict[int, int]:
        return _decoded(self.rows[index])

    def __iter__(self) -> Iterator[dict[int, int]]:
        return map(_decoded, self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _BitColumns):
            return self.rows == other.rows
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented


class M1Complex(NamedTuple):
    """The weight-2k (p = 2) or weight-pk (odd p) monomial piece with both differentials.

    ``slices[d]`` is the degree-d part of the basis, in basis order.
    ``q0[d]`` and ``q1[d]`` map the degree-d slice to the slice in degree
    d-1 resp. d-(2p-1): one sparse column per source monomial, in slice
    order, as {position in the target slice: nonzero coefficient}.  At
    p = 2 they are ``_BitColumns``, which hold each column as a bit row and
    decode it when it is read.
    """

    prime: int
    k: int
    basis: tuple[SteenrodMonomial, ...]
    q0: dict[int, Sequence[dict[int, int]]]
    q1: dict[int, Sequence[dict[int, int]]]
    slices: dict[int, tuple[SteenrodMonomial, ...]]

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.slices))

    def degree_slice(self, degree: int) -> tuple[SteenrodMonomial, ...]:
        return self.slices.get(degree, ())

    def differential(self, i: int, degree: int) -> Sequence[dict[int, int]]:
        _require_q(i)
        return (self.q0 if i == 0 else self.q1).get(degree, ())


def _rows(complex_: M1Complex, i: int, degree: int) -> tuple[int, ...]:
    """The Q_i columns out of ``degree`` as the bit rows a p = 2 complex stores."""
    columns = (complex_.q0 if i == 0 else complex_.q1).get(degree)
    return () if columns is None else columns.rows


def q_degree_drop(p: int, i: int) -> int:
    return 1 if i == 0 else 2 * p - 1


def _generators(p: int, max_weight: int) -> list[Generator]:
    """Generators up to ``max_weight``, lightest first; each weight is a multiple of the first."""
    gens = [(False, 1, 2, 2, 2), (False, 2, 2, 4, 6)] if p == 2 else [(False, 1, 1, p, 2 * p - 2)]
    m = 3 if p == 2 else 2
    while (weight := 2 ** (m - 1) if p == 2 else p ** m) <= max_weight:
        gens.append((False, m, 1, weight, 2 * weight - (1 if p == 2 else 2)))
        if p != 2:
            gens.append((True, m, 1, weight, 2 * weight - 1))
        m += 1
    return gens


def _piece_size(gens: list[Generator], target: int, budget: int) -> int:
    """Number of monomials of weight ``target``, or budget + 1 if there are more.

    Heaviest first, choices are grouped by the weight they leave.  The lightest
    generator takes what is left, so no level has more choices than the piece.
    """
    left = {target: 1}
    for exterior, _, _, weight, _ in reversed(gens[1:]):
        most = {rest: min(rest // weight, 1) if exterior else rest // weight for rest in left}
        if sum(ways * (most[rest] + 1) for rest, ways in left.items()) > budget:
            return budget + 1
        counted: dict[int, int] = {}
        for rest, ways in left.items():
            for used in range(most[rest] + 1):
                counted[rest - used * weight] = counted.get(rest - used * weight, 0) + ways
        left = counted
    return sum(left.values())


def _monomials(p: int, gens: list[Generator], target: int, width: int,
               taus: int) -> list[tuple[int, Zeta, tuple[int, ...], int]]:
    """Every monomial of weight ``target`` as (degree, zeta, tau, key), heaviest generator first."""
    partial: list[tuple[int, Zeta, tuple[int, ...], int, int]] = [(target, (), (), 0, 0)]
    for exterior, index, step, weight, degree in reversed(gens[1:]):
        if exterior:
            bit = 1 << taus + index
            partial += [(rest - weight, zeta, (index, *tau), deg + degree, key + bit)
                        for rest, zeta, tau, deg, key in partial if rest >= weight]
        else:
            partial = [(rest - used * weight, ((index, used * step), *zeta) if used else zeta,
                        tau, deg + used * degree, key + (used * step << width * index))
                       for rest, zeta, tau, deg, key in partial
                       for used in range(rest // weight + 1)]
    _, index, step, weight, degree = gens[0]
    return [(deg + rest // weight * degree, ((index, rest // weight * step), *zeta) if rest else zeta,
             tau, key + (rest // weight * step << width * index))
            for rest, zeta, tau, deg, key in partial]


def enumerate_m1(p: int, k: int, budget: int = DEFAULT_RESIDUE_BUDGET) -> M1Complex:
    """Enumerate the complete monomial basis of the weight piece and its differentials.

    A piece of more than ``budget`` monomials raises before any is built.
    """
    require_prime(p)
    if type(k) is not int:  # a plain type test refuses bool too
        raise TypeError(f"the weight index k must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"expected a natural weight index, got {k}")
    target = p * k
    gens = _generators(p, target)
    size = _piece_size(gens, target, budget)
    if size > budget:
        raise ResourceLimitError(
            f"weight piece at p={p}, k={k} exceeds enumeration budget {budget}",
            required=size, budget=budget)
    width, top = target.bit_length() + 1, gens[-1][1]
    taus = width * (top + 1)
    found = sorted(_monomials(p, gens, target, width, taus))  # by (degree, zeta, tau)
    if len(found) != size:
        raise InternalConsistencyError(
            f"enumeration at weight {target} found {len(found)} monomials, not its count {size}")

    # Q_i takes the unit of an odd generator m to 2^(i+1) in z_(m-1-i) (p^i in z_(m-i))
    shift0, shift1 = ({m: (2 ** (i + 1) << width * (m - 1 - i)) - (1 << width * m) if p == 2
                       else (p ** i << width * (m - i)) - (1 << taus + m)
                       for m in range(2, top + 1)} for i in (0, 1))
    slices: dict[int, list[SteenrodMonomial]] = {}
    q0: dict[int, list] = {}
    q1: dict[int, list] = {}
    position: dict[int, int] = {}
    for degree, zeta, tau, key in found:  # each Q_i term is lower in degree, so already placed
        m = tuple.__new__(SteenrodMonomial, (p, zeta, tau))
        if m.weight() != target:
            raise InternalConsistencyError(f"enumeration at weight {target} found {m}")
        if degree not in slices:  # found is sorted, so each degree's records come together
            members, columns0, columns1 = slices[degree], q0[degree], q1[degree] = [], [], []
        position[key] = len(members)
        members.append(m)
        if p == 2:  # z1 and z2 have even exponents, so each odd one is some z_m with m >= 3
            row0 = row1 = 0
            for index, e in zeta:
                if e & 1:
                    row0 |= 1 << position[key + shift0[index]]
                    row1 |= 1 << position[key + shift1[index]]
            columns0.append(row0)
            columns1.append(row1)
        else:  # the sign counts the odd generators passed over
            columns0.append({position[key + shift0[index]]: p - 1 if c % 2 else 1
                             for c, index in enumerate(tau)})
            columns1.append({position[key + shift1[index]]: p - 1 if c % 2 else 1
                             for c, index in enumerate(tau)})
    stored = _BitColumns if p == 2 else tuple
    return M1Complex(p, k, tuple(chain.from_iterable(slices.values())),
                     {d: stored(tuple(cs)) for d, cs in q0.items()},
                     {d: stored(tuple(cs)) for d, cs in q1.items()},
                     {d: tuple(ms) for d, ms in slices.items()})


# ---- exact linear algebra over F_p -------------------------------------


def _echelon(vectors: Iterable[dict[int, int]], p: int,
             rows: dict[int, dict[int, int]] | None = None) -> dict[int, dict[int, int]]:
    """Reduced row echelon basis over F_p of sparse vectors {position: coefficient}.

    The rows are keyed by pivot, a row's least position.  Each row is 1 at
    its own pivot and 0 at every other pivot, so a vector reduces in one
    pass over the pivots it holds.  ``rows``, if given, is extended in place.
    """
    rows = {} if rows is None else rows

    def subtract(target: dict[int, int], c: int, row: dict[int, int]) -> None:
        for key, x in row.items():
            if y := (target.get(key, 0) - c * x) % p:
                target[key] = y
            else:
                del target[key]

    for vector in vectors:
        vector = {key: x % p for key, x in vector.items() if x % p}
        for pivot, c in [(key, vector[key]) for key in vector if key in rows]:
            subtract(vector, c, rows[pivot])
        if vector:
            pivot = min(vector)
            inverse = pow(vector[pivot], -1, p)
            vector = {key: x * inverse % p for key, x in vector.items()}
            for row in rows.values():
                if pivot in row:
                    subtract(row, row[pivot], vector)
            rows[pivot] = vector
    return rows


def _f2_echelon(rows: Iterable[int]) -> dict[int, int]:
    """Row echelon basis over F_2 of bit rows, keyed by pivot, a row's lowest set bit.

    Each XOR clears the lowest bit of the row being reduced, so the pivots
    are those of the reduced form, but a row may still hold another pivot.
    """
    echelon: dict[int, int] = {}
    for row in rows:
        while row:
            pivot = row & -row
            if (other := echelon.get(pivot)) is None:
                echelon[pivot] = row
                break
            row ^= other
    return echelon


def _f2_reduced(echelon: dict[int, int]) -> dict[int, int]:
    """The reduced row echelon form of an echelon basis: each row 0 at every other pivot.

    Highest pivot first, a row is cleared at the pivots above its own by
    the rows already reduced, which are 0 at every pivot but their own.
    """
    reduced: dict[int, int] = {}
    above = 0
    for pivot in sorted(echelon, reverse=True):
        row = echelon[pivot]
        hits = row & above
        while hits:
            bit = hits & -hits
            row ^= reduced[bit]
            hits ^= bit
        reduced[pivot] = row
        above |= pivot
    return reduced


class HomologyEntry(NamedTuple):
    """Nonzero Margolis homology in one internal degree, with representatives."""

    degree: int
    dimension: int
    generators: tuple[Cycle, ...]


def margolis_homology(complex_: M1Complex, i: int) -> tuple[HomologyEntry, ...]:
    """ker Q_i / im Q_i per internal degree, with canonical representative cycles.

    A plain elimination of the Q_i columns out of each degree gives the pivots
    P of im Q_i one |Q_i| below.  As Q_i Q_i = 0, dim H_d = n_d - rank out of
    d - rank into d.  Only where that is not zero does each source position c
    give the vector (Q_i e_c, e_c at P, e_c), source positions ordered last.
    The echelon rows that lead there are the unique reduced row echelon basis
    of the kernel vectors that vanish at P, a complement of the image (leading
    coefficient 1, columns in the basis order of the slice); for
    one-dimensional homology this is the least representative in that ordering.

    At p = 2 the vectors are the stored bit rows and each row operation is
    one XOR: the plain elimination only finds pivots, and only the augmented
    rows that lead at a source position are brought to reduced form.
    """
    _require_q(i)
    p = complex_.prime
    drop = q_degree_drop(p, i)
    image_pivots = {degree - drop: set(_f2_echelon(_rows(complex_, i, degree))
                                       if p == 2 else _echelon(complex_.differential(i, degree), p))
                    for degree in complex_.degrees()}
    entries = []
    for degree in complex_.degrees():
        slice_ = complex_.degree_slice(degree)
        pivots = image_pivots.get(degree, set())
        dimension = len(slice_) - len(image_pivots[degree - drop]) - len(pivots)
        if not dimension:
            continue
        width = len(complex_.degree_slice(degree - drop))  # unit keys at P start here
        source = width + len(slice_)  # source keys start here
        if p == 2:
            at_pivots = sum(pivots)  # the pivots are distinct bits
            echelon = _f2_echelon(row | (1 << c & at_pivots) << width | 1 << source + c
                                  for c, row in enumerate(_rows(complex_, i, degree)))
            kernel = _f2_reduced({pivot: row for pivot, row in echelon.items() if pivot >> source})
            generators = tuple(tuple((m, 1) for c, m in enumerate(slice_) if row >> source + c & 1)
                               for _, row in sorted(kernel.items()))
        else:
            rows = _echelon(({**column, **({width + c: 1} if c in pivots else {}), source + c: 1}
                             for c, column in enumerate(complex_.differential(i, degree))), p)
            generators = tuple(tuple((slice_[key - source], x) for key, x in sorted(row.items()))
                               for pivot, row in sorted(rows.items()) if pivot >= source)
        if len(generators) != dimension:
            raise InternalConsistencyError(f"Q{i} at degree {degree}: {len(generators)} "
                                           f"generators, but the ranks give {dimension}")
        entries.append(HomologyEntry(degree, dimension, generators))
    return tuple(entries)


def is_cycle(i: int, cycle: Cycle) -> bool:
    return not apply_q_linear(i, cycle)


def homologous(complex_: M1Complex, i: int, a: Cycle, b: Cycle) -> bool:
    """True iff two cycles of the same degree differ by an image element.

    a - b lies in im Q_i exactly when it reduces to zero against the
    echelon rows of the image columns.
    """
    _require_q(i)
    p = complex_.prime
    terms = [*a, *((monomial, -coeff) for monomial, coeff in b)]
    position = {m: c for degree in {monomial.degree() for monomial, _ in terms}
                for c, m in enumerate(complex_.degree_slice(degree))}
    for monomial, _ in terms:
        if monomial not in position:
            raise ValueError(f"{monomial} is not in the weight piece of k={complex_.k} at p={p}")
    terms = [(monomial, coeff) for monomial, coeff in terms if coeff % p]
    degrees = {monomial.degree() for monomial, _ in terms}
    if len(degrees) != 1:
        return not degrees  # True when every term is 0 mod p: a - b is the zero cycle
    degree = degrees.pop()
    above = degree + q_degree_drop(p, i)
    if p == 2:  # every coefficient left is odd
        bits = 0
        for monomial, _ in terms:
            bits ^= 1 << position[monomial]
        echelon = _f2_echelon(_rows(complex_, i, above))
        while bits and (row := echelon.get(bits & -bits)):
            bits ^= row
        return not bits
    difference: dict[int, int] = {}
    for monomial, coeff in terms:
        difference[position[monomial]] = difference.get(position[monomial], 0) + coeff
    rows = _echelon(complex_.differential(i, above), p)
    rank = len(rows)
    return len(_echelon([difference], p, rows)) == rank


def q_square_is_zero(complex_: M1Complex, i: int) -> bool:
    """Blockwise check that Q_i composed with itself vanishes.

    Each composite column sums the second map's columns at the first
    column's positions, weighted by its coefficients; at p = 2 it is the
    XOR of the second map's bit rows at the set bits of the first's.
    """
    _require_q(i)
    p = complex_.prime
    drop = q_degree_drop(p, i)
    for degree in complex_.degrees():
        if p == 2:
            second = _rows(complex_, i, degree - drop)
            for row in _rows(complex_, i, degree):
                bits = 0
                while row:
                    low = row & -row
                    bits ^= second[low.bit_length() - 1]
                    row ^= low
                if bits:
                    return False
            continue
        second = complex_.differential(i, degree - drop)
        for column in complex_.differential(i, degree):
            composite: dict[int, int] = {}
            for position, coeff in column.items():
                for key, x in second[position].items():
                    composite[key] = composite.get(key, 0) + coeff * x
            if any(x % p for x in composite.values()):
                return False
    return True


def cover_rank(p: int, k: int) -> int:
    """Number of Adams covers attached to the weight piece: nu_p(k!) = (k - alpha_p(k))/(p-1)."""
    return legendre_valuation_factorial(p, k)


def expected_q0_generator(k: int) -> SteenrodMonomial:
    """The 2-primary formula z1^(2k) for the Q0 homology generator."""
    return SteenrodMonomial(2, {1: 2 * k} if k else {})


def expected_q1_generator(k: int) -> SteenrodMonomial:
    """The 2-primary digit formula z1^(2k_0) z2^(2k_1) ... for the Q1 generator."""
    return SteenrodMonomial(2, {i + 1: 2 * d for i, d in enumerate(base_p_digits(2, k)) if d})


def cycle_to_string(cycle: Cycle) -> str:
    parts = []
    for monomial, coeff in cycle:
        parts.append(str(monomial) if coeff == 1 else f"{coeff}*{monomial}")
    return " + ".join(parts) if parts else "0"


def homology_to_json(entries: tuple[HomologyEntry, ...]) -> dict:
    return {
        "dimension": sum(e.dimension for e in entries),
        "classes": [
            {
                "degree": e.degree,
                "dimension": e.dimension,
                "generators": [cycle_to_string(c) for c in e.generators],
            }
            for e in entries
        ],
    }


def complex_to_json(complex_: M1Complex) -> dict:
    return {
        "p": complex_.prime,
        "k": complex_.k,
        "basis": [str(m) for m in complex_.basis],
        "homology": {
            "Q0": homology_to_json(margolis_homology(complex_, 0)),
            "Q1": homology_to_json(margolis_homology(complex_, 1)),
        },
        "cover_rank": cover_rank(complex_.prime, complex_.k),
    }
