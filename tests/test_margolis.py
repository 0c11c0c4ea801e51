import copy
import gc
import inspect
import json
import pathlib
import pickle
from fractions import Fraction

import pytest

from coopbasis import cli, margolis
from coopbasis import (DEFAULT_RESIDUE_BUDGET, InternalConsistencyError,
                       ResourceLimitError, SteenrodMonomial, apply_q,
                       apply_q_linear, complex_to_json, cover_rank, cycle_to_string,
                       enumerate_m1, expected_q0_generator, expected_q1_generator,
                       homologous, is_cycle, margolis_homology, q_square_is_zero)
from references import bit_rows

DATA = pathlib.Path(__file__).parent / "data"


def zeta(p, exps, tau=()):
    return SteenrodMonomial(p, exps, tau)


REFUSED_MONOMIALS = [
    ((2, {1: 3}), ValueError),  # z1 must have even exponent at p=2
    ((2, {}, (2,)), ValueError),  # no tau at p=2
    ((3, {}, (1,)), ValueError),  # tau indices start at 2
    *(((3, zeta_exps, taus), TypeError)
      for zeta_exps, taus in (({1: 1.5}, ()), ({1: True}, ()), ({True: 2}, ()), ({2.0: 2}, ()),
                              ({}, (2.0,)), ({}, (True, 2)), ({1: Fraction(2)}, ()))),
]


def test_monomial_validation():
    for args, error in REFUSED_MONOMIALS:
        with pytest.raises(error):
            SteenrodMonomial(*args)
    m = SteenrodMonomial(3, {1: 2}, (2, 3))
    assert m.weight() == 2 * 3 + 9 + 27
    assert m.degree() == 2 * (2 * (3 - 1)) + (2 * 9 - 1) + (2 * 27 - 1)
    assert str(m) == "z1^2 tau2 tau3"
    assert str(SteenrodMonomial(2)) == "1"


def test_monomial_is_a_checked_read_only_tuple_record():
    m = SteenrodMonomial(3, {2: 1, 1: 2}, (3, 2))
    pairs = SteenrodMonomial(3, [(1, 2), (2, 1)], [2, 3])
    assert m == pairs and hash(m) == hash(pairs)
    assert m == (3, ((1, 2), (2, 1)), (2, 3)) and hash(m) == hash(tuple(m))
    assert (m.prime, m.zeta, m.tau) == tuple(m) == (m[0], m[1], m[2])
    for name in ("prime", "zeta", "tau", "undeclared"):
        with pytest.raises(AttributeError):
            setattr(m, name, 5)
    assert not hasattr(m, "__dict__")
    assert not hasattr(SteenrodMonomial, "_make") and not hasattr(SteenrodMonomial, "_replace")
    for args, error in REFUSED_MONOMIALS:  # type(m)(...) is the checked constructor too
        with pytest.raises(error):
            type(m)(*args)
    unchecked = tuple.__new__(SteenrodMonomial, (2, ((1, 3),), ()))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):  # a copy is rebuilt through the checks
        with pytest.raises(ValueError, match="even exponent"):
            pickle.loads(pickle.dumps(unchecked, protocol))
    with pytest.raises(ValueError, match="even exponent"):
        copy.deepcopy(unchecked)


def test_monomial_refuses_a_repeated_zeta_index():
    # as with a repeated tau, a factor given twice is refused, not dropped or merged
    for repeated in ([(3, 1), (3, 1)], [(3, 1), (3, 0)], ((2, 2), (1, 2), (2, 4))):
        with pytest.raises(ValueError, match="distinct"):
            SteenrodMonomial(2, repeated)
    assert SteenrodMonomial(2, [(3, 1), (2, 2)]) == SteenrodMonomial(2, {2: 2, 3: 1})


def test_enumerate_m1_examples():
    basis2 = {str(m) for m in enumerate_m1(2, 2).basis}
    assert basis2 == {"z1^4", "z2^2", "z3"}

    complex4 = enumerate_m1(2, 4)
    assert len(complex4.basis) == 7
    assert {str(m) for m in complex4.basis} == {
        "z1^8", "z1^4 z2^2", "z2^4", "z1^4 z3", "z2^2 z3", "z3^2", "z4"}

    complex0 = enumerate_m1(2, 0)
    assert [str(m) for m in complex0.basis] == ["1"]


@pytest.mark.parametrize("k", [True, 2.0, Fraction(2), "2", None])
def test_enumeration_refuses_a_weight_index_that_is_not_an_int(monkeypatch, k):
    calls = []
    _count_calls(monkeypatch, calls, margolis, "_generators")
    with pytest.raises(TypeError, match=r"weight index k must be an int, got "):
        enumerate_m1(2, k)
    assert calls == []


def test_enumeration_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_m1(2, 12, budget=3)


@pytest.mark.parametrize("p, k", [(2, 12), (3, 12), (5, 10)])
def test_enumeration_budget_is_exact(p, k):
    size = len(enumerate_m1(p, k).basis)
    assert len(enumerate_m1(p, k, budget=size).basis) == size
    with pytest.raises(ResourceLimitError) as info:
        enumerate_m1(p, k, budget=size - 1)
    assert info.value.required == size


def _count_calls(monkeypatch, calls, owner, name, wrap=lambda f: f):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))


def test_enumeration_budget_is_checked_before_any_monomial_is_built(monkeypatch):
    built = []
    _count_calls(monkeypatch, built, SteenrodMonomial, "__new__", staticmethod)
    _count_calls(monkeypatch, built, margolis, "_monomials")
    with pytest.raises(ResourceLimitError) as info:
        enumerate_m1(2, 40, budget=100)
    assert built == []
    assert info.value.required == 101


def test_enumeration_builds_no_validated_monomial_and_no_sparse_image(monkeypatch):
    calls = []
    _count_calls(monkeypatch, calls, SteenrodMonomial, "__new__", staticmethod)
    _count_calls(monkeypatch, calls, margolis, "_q_image")
    complexes = [enumerate_m1(2, 20), enumerate_m1(3, 30)]
    assert calls == []
    monkeypatch.undo()
    # the trusted monomials are the ones the checked constructor makes
    for complex_ in complexes:
        for m in complex_.basis:
            assert type(m) is SteenrodMonomial
            assert m == SteenrodMonomial(m.prime, dict(m.zeta), m.tau)


def test_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_m1(2, 20)
        enumerate_m1(3, 30)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_budget_default_matches_cli():
    budget = inspect.signature(enumerate_m1).parameters["budget"]
    assert budget.default == DEFAULT_RESIDUE_BUDGET


def test_enumeration_checks_weights(monkeypatch):
    monkeypatch.setattr(SteenrodMonomial, "weight", lambda self: -1)
    with pytest.raises(InternalConsistencyError):
        enumerate_m1(2, 2)


def test_enumeration_checks_its_count(monkeypatch):
    monkeypatch.setattr(margolis, "_piece_size", lambda gens, target, budget: 2)
    with pytest.raises(InternalConsistencyError):
        enumerate_m1(2, 2)  # three monomials: z1^4, z2^2, z3


def test_apply_q_examples():
    assert apply_q(0, zeta(3, {}, (2,))) == {zeta(3, {2: 1}): 1}
    assert apply_q(1, zeta(2, {3: 1})) == {zeta(2, {1: 4}): 1}
    assert apply_q(1, zeta(2, {1: 4, 3: 1})) == {zeta(2, {1: 8}): 1}
    assert apply_q(0, zeta(2, {})) == {}
    assert apply_q(1, zeta(5, {})) == {}


def test_apply_q_preserves_weight_and_drops_degree():
    for p, k in ((2, 6), (3, 4)):
        complex_ = enumerate_m1(p, k)
        for m in complex_.basis:
            for i in (0, 1):
                drop = 1 if i == 0 else 2 * p - 1
                for target, coeff in apply_q(i, m).items():
                    assert 0 < coeff < p
                    assert target.weight() == m.weight()
                    assert target.degree() == m.degree() - drop


@pytest.mark.parametrize("p, top", [(2, 16), (3, 20), (5, 20)])
def test_stored_differentials_are_apply_q(p, top):
    # the columns are built from exponent tuples, apply_q from monomials
    for k in range(top + 1):
        complex_ = enumerate_m1(p, k)
        for i in (0, 1):
            drop = 1 if i == 0 else 2 * p - 1
            for degree in complex_.degrees():
                source = complex_.degree_slice(degree)
                target = complex_.degree_slice(degree - drop)
                columns = complex_.differential(i, degree)
                assert len(columns) == len(source)
                assert all(0 <= t < len(target) and 0 < c < p
                           for column in columns for t, c in column.items())
                for column, m in zip(columns, source):
                    image = {target[t]: c for t, c in column.items()}
                    assert image == apply_q(i, m), (p, k, i, m)


@pytest.mark.parametrize("k", range(13))
def test_p2_columns_are_stored_as_bit_rows_and_read_as_dicts(k):
    complex_ = enumerate_m1(2, k)
    for table in (complex_.q0, complex_.q1):
        for columns in table.values():
            decoded = tuple(columns)
            assert all(x == 1 for column in decoded for x in column.values())
            assert columns.rows == tuple(bit_rows(decoded))
            assert len(columns) == len(decoded) and bool(columns)
            assert [columns[c] for c in range(-len(decoded), len(decoded))] == [*decoded, *decoded]
            assert columns == decoded and decoded == columns
            assert columns == margolis._BitColumns(columns.rows)
            assert columns != list(decoded)
            with pytest.raises(AttributeError):
                columns.rows = ()
            with pytest.raises(TypeError):
                columns[0] = {}


def test_verify_at_p2_reads_the_stored_rows_and_decodes_no_column(monkeypatch):
    calls = []
    _count_calls(monkeypatch, calls, margolis.M1Complex, "differential")
    _count_calls(monkeypatch, calls, margolis, "_decoded")
    assert cli._verify_margolis(2, 24, 10 ** 7) == (True, {"max_k": 24, "failures": []})
    assert calls == []


def test_q_squares_to_zero():
    for p, top in ((2, 12), (3, 9)):
        for k in range(top + 1):
            complex_ = enumerate_m1(p, k)
            assert q_square_is_zero(complex_, 0)
            assert q_square_is_zero(complex_, 1)


def _with_nonzero_q_square(complex_, i):
    """The complex with one Q_i column sent to a monomial whose own Q_i image is nonzero.

    At p = 2 the column is replaced in its stored form, a bit row with that one bit set.
    """
    drop = margolis.q_degree_drop(complex_.prime, i)
    for degree in complex_.degrees():
        lower = complex_.differential(i, degree - drop)
        target = next((t for t, column in enumerate(lower) if column), None)
        if target is not None:
            table = dict(complex_.q0 if i == 0 else complex_.q1)
            if complex_.prime == 2:
                table[degree] = margolis._BitColumns((1 << target, *table[degree].rows[1:]))
            else:
                table[degree] = ({target: 1}, *table[degree][1:])
            return complex_._replace(**{f"q{i}": table})
    raise AssertionError("no degree has a nonzero Q_i below it")


@pytest.mark.parametrize("p, k", [(2, 8), (3, 12)])
@pytest.mark.parametrize("i", [0, 1])
def test_q_square_is_zero_detects_a_broken_column(p, k, i):
    broken = _with_nonzero_q_square(enumerate_m1(p, k), i)
    assert not q_square_is_zero(broken, i)
    assert q_square_is_zero(broken, 1 - i)


@pytest.mark.parametrize("p, k", [(2, 8), (3, 12)])
@pytest.mark.parametrize("i", [0, 1])
def test_verify_reports_a_nonzero_q_square(monkeypatch, p, k, i):
    enumerate_ = margolis.enumerate_m1
    broken = _with_nonzero_q_square(enumerate_(p, k), i)
    monkeypatch.setattr(margolis, "enumerate_m1", lambda p, j, budget: (
        broken if j == k else enumerate_(p, j, budget=budget)))
    ok, detail = cli._verify_margolis(p, k, DEFAULT_RESIDUE_BUDGET)
    assert not ok
    assert detail["failures"] == [f"Q{i}^2 != 0 at k={k}"]


def test_homology_is_one_dimensional():
    for p, top in ((2, 12), (3, 9)):
        for k in range(top + 1):
            complex_ = enumerate_m1(p, k)
            for i in (0, 1):
                entries = margolis_homology(complex_, i)
                assert sum(e.dimension for e in entries) == 1


def test_p2_generators_match_closed_formulas():
    for k in range(13):
        complex_ = enumerate_m1(2, k)
        q0_entries = margolis_homology(complex_, 0)
        assert q0_entries[0].generators[0] == ((expected_q0_generator(k), 1),)
        q1_entries = margolis_homology(complex_, 1)
        assert q1_entries[0].generators[0] == ((expected_q1_generator(k), 1),)


def test_m1_4_homology_generators():
    complex_ = enumerate_m1(2, 4)
    q0 = margolis_homology(complex_, 0)[0]
    assert (q0.degree, q0.dimension, cycle_to_string(q0.generators[0])) == (8, 1, "z1^8")
    q1 = margolis_homology(complex_, 1)[0]
    assert (q1.degree, q1.dimension, cycle_to_string(q1.generators[0])) == (14, 1, "z3^2")


def test_m1_0_homology_is_unit():
    complex_ = enumerate_m1(3, 0)
    for i in (0, 1):
        entry = margolis_homology(complex_, i)[0]
        assert cycle_to_string(entry.generators[0]) == "1"


def test_homologous_and_cycles():
    complex_ = enumerate_m1(2, 4)
    gen = margolis_homology(complex_, 0)[0].generators[0]
    assert is_cycle(0, gen)
    assert homologous(complex_, 0, gen, gen)
    other = ((zeta(2, {1: 4, 2: 2}), 1),)  # lives in degree 10, not 8
    assert not homologous(complex_, 0, gen, other)


def test_zero_cycles_are_homologous():
    complex_ = enumerate_m1(2, 4)
    gen = margolis_homology(complex_, 0)[0].generators[0]
    assert homologous(complex_, 0, (), ())
    # a term that is 0 mod p names another degree but adds nothing to the cycle
    assert homologous(complex_, 0, gen, gen + ((zeta(2, {1: 4, 2: 2}), 0),))
    assert homologous(complex_, 0, gen, gen + ((zeta(2, {1: 4, 2: 2}), 2),))
    assert not homologous(complex_, 0, gen, gen + ((zeta(2, {1: 4, 2: 2}), 1),))


@pytest.mark.parametrize("call", [
    lambda c, i: c.differential(i, 8),
    lambda c, i: margolis_homology(c, i),
    lambda c, i: q_square_is_zero(c, i),
    lambda c, i: homologous(c, i, ((zeta(2, {1: 8}), 1),), ((zeta(2, {1: 4, 2: 2}), 1),)),
], ids=["differential", "margolis_homology", "q_square_is_zero", "homologous"])
@pytest.mark.parametrize("i", [-1, 2, 7])
def test_only_q0_and_q1_act(call, i):
    with pytest.raises(ValueError, match=f"only Q0 and Q1 act here, got Q{i}"):
        call(enumerate_m1(2, 4), i)


def _elimination(p):
    """The name of the routine that eliminates at p: bit rows by XOR at p = 2, sparse dicts else."""
    return "_f2_echelon" if p == 2 else "_echelon"


@pytest.mark.parametrize("p, k", [(2, 20), (3, 30)])
@pytest.mark.parametrize("i", [0, 1])
def test_margolis_homology_augments_only_where_homology_lives(monkeypatch, p, k, i):
    complex_ = enumerate_m1(p, k)
    columns = [list(complex_.differential(i, degree)) for degree in complex_.degrees()]
    if p == 2:
        columns = [bit_rows(vectors) for vectors in columns]
    calls = []
    echelon = getattr(margolis, _elimination(p))

    def counted(vectors, *args, **kwargs):
        calls.append(list(vectors))
        return echelon(calls[-1], *args, **kwargs)

    monkeypatch.setattr(margolis, _elimination(p), counted)
    entries = margolis_homology(complex_, i)
    plain = [vectors for vectors in calls if vectors in columns]
    augmented = [vectors for vectors in calls if vectors not in columns]
    # one plain elimination of the Q_i columns per degree
    assert len(plain) == len(complex_.degrees())
    # and one augmented elimination per degree that holds homology, over its slice
    assert [len(vectors) for vectors in augmented] == [
        len(complex_.degree_slice(entry.degree)) for entry in entries]
    assert len(entries) < len(complex_.degrees())


def _check_generators_against_the_ranks(monkeypatch, p, k):
    complex_ = enumerate_m1(p, k)
    echelon = getattr(margolis, _elimination(p))
    plain = len(complex_.degrees())

    def rankless(vectors, *args, **kwargs):  # the plain eliminations come first
        nonlocal plain
        plain -= 1
        return {} if plain >= 0 else echelon(vectors, *args, **kwargs)

    monkeypatch.setattr(margolis, _elimination(p), rankless)
    with pytest.raises(InternalConsistencyError, match="but the ranks give"):
        margolis_homology(complex_, 0)


def test_margolis_homology_checks_its_generators_against_the_ranks(monkeypatch):
    _check_generators_against_the_ranks(monkeypatch, 2, 8)


def test_margolis_homology_checks_its_generators_against_the_ranks_at_odd_p(monkeypatch):
    _check_generators_against_the_ranks(monkeypatch, 3, 12)


def test_homologous_rejects_foreign_monomials():
    complex_ = enumerate_m1(2, 4)
    z18 = ((zeta(2, {1: 8}), 1),)
    foreign = zeta(2, {1: 2, 2: 2})  # degree 8 like z1^8, but weight 6
    assert foreign.degree() == 8
    for a, b in ((z18, ((foreign, 1),)), (((foreign, 1),), z18)):
        with pytest.raises(ValueError, match=r"z1\^2 z2\^2"):
            homologous(complex_, 0, a, b)
    with pytest.raises(ValueError, match=r"z1\^4"):
        homologous(complex_, 0, z18, ((zeta(3, {1: 4}), 1),))  # another prime


def _slice_cycle(slice_, vec, p):
    return tuple((m, x % p) for m, x in zip(slice_, vec) if x % p)


def _first_image_column(complex_, i, degree):
    drop = 1 if i == 0 else 2 * complex_.prime - 1
    sparse = complex_.differential(i, degree + drop)[0]
    column = [sparse.get(c, 0) for c in range(len(complex_.degree_slice(degree)))]
    assert any(column)
    return column


@pytest.mark.parametrize("p, k, i, degree",
                         [(2, 4, 0, 10), (3, 9, 1, 40), (2, 6, 0, 21), (3, 12, 0, 69)])
def test_homologous_accepts_image_members(p, k, i, degree):
    complex_ = enumerate_m1(p, k)
    slice_ = complex_.degree_slice(degree)
    column = _first_image_column(complex_, i, degree)
    a = _slice_cycle(slice_, column, p)  # a boundary, hence a cycle
    assert is_cycle(i, a)
    b = _slice_cycle(slice_, [2 * x for x in column], p)  # a + one image column
    assert homologous(complex_, i, a, b)


@pytest.mark.parametrize("p, k, i, degree", [(2, 6, 0, 21), (3, 12, 0, 69)])
def test_homologous_rejects_differences_outside_the_image(p, k, i, degree):
    # here the slice is two-dimensional and the image one-dimensional, and
    # the unit vector at the first basis monomial is not in the image
    complex_ = enumerate_m1(p, k)
    slice_ = complex_.degree_slice(degree)
    column = _first_image_column(complex_, i, degree)
    a = _slice_cycle(slice_, column, p)
    b = [2 * x for x in column]
    b[0] += 1
    assert not homologous(complex_, i, a, _slice_cycle(slice_, b, p))


def test_odd_prime_generators_match_pinned_values():
    pinned = json.loads((DATA / "margolis_homology_odd.json").read_text())
    for entry in pinned:
        payload = complex_to_json(enumerate_m1(entry["p"], entry["k"]))
        assert payload["homology"] == entry["homology"], (entry["p"], entry["k"])


def test_cover_rank_examples():
    assert cover_rank(2, 4) == 3
    assert cover_rank(2, 1) == 0
    assert cover_rank(3, 9) == 4


def _algebra_dimension(p, degree):
    """Monomial count of the full quotient algebra in one internal degree."""
    if p == 2:
        steps = [2, 6]  # z1^2, z2^2
        m = 3
        while 2 ** m - 1 <= degree:
            steps.append(2 ** m - 1)
            m += 1
        limits = [None] * len(steps)
    else:
        steps, limits = [], []
        m = 1
        while 2 * (p ** m - 1) <= degree:
            steps.append(2 * (p ** m - 1))
            limits.append(None)
            m += 1
        m = 2
        while 2 * p ** m - 1 <= degree:
            steps.append(2 * p ** m - 1)
            limits.append(1)
            m += 1

    def count(pos, remaining):
        if pos == len(steps):
            return 1 if remaining == 0 else 0
        total = 0
        c = 0
        while c * steps[pos] <= remaining and (limits[pos] is None or c <= limits[pos]):
            total += count(pos + 1, remaining - c * steps[pos])
            c += 1
        return total

    return count(0, degree)


def test_weight_pieces_partition_the_algebra():
    # every monomial of internal degree <= D has weight <= D, so the pieces
    # with 2k <= D (resp. pk <= D) exhaust those degrees
    for p, max_degree in ((2, 16), (3, 20)):
        pieces = [enumerate_m1(p, k) for k in range(max_degree // p + 1)]
        for d in range(max_degree + 1):
            from_pieces = sum(
                sum(1 for m in piece.basis if m.degree() == d) for piece in pieces)
            assert from_pieces == _algebra_dimension(p, d), (p, d)


def test_apply_q_linear_cancels_over_f2():
    complex_ = enumerate_m1(2, 4)
    z14z3 = zeta(2, {1: 4, 3: 1})
    image = apply_q_linear(1, ((z14z3, 1), (z14z3, 1)))
    assert image == {}
