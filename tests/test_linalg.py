import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix, kronecker_product
from sympy import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from posetprod import linalg
from posetprod.errors import MixedFields, MixedTruncation, PreconditionFailed
from posetprod.fixtures import random_pointed_poset
from posetprod.limits import PosetDiagram, cochain_complex
from posetprod.linalg import (
    F2,
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    _echelon,
    _integral,
    _is_prime,
    _tensor_basis,
    find_section,
    kernel_basis,
    rank,
    tensor_collection,
    tensor_maps,
    truncated_polynomial,
)


def test_fieldspec_parse_and_arith():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("2") == F2
    assert str(FieldSpec.parse("101")) == "101"
    with pytest.raises(ValueError):
        FieldSpec.Fp(6)
    f5 = FieldSpec.Fp(5)
    assert f5.conv(Fraction(1, 2)) == 3
    assert QQ.conv("2/3") == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        f5.conv(Fraction(1, 5))


def test_primality_equals_trial_division_below_20000():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if trial(n)]


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_refused(n):
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec.Fp(n)


def test_primes_past_the_deterministic_range_are_refused():
    # 10**30 + 57 is prime, but above the range where the bases decide
    with pytest.raises(PreconditionFailed, match="supported for p below"):
        FieldSpec.parse(str(10**30 + 57))
    assert FieldSpec.parse(str(2**61 - 1)).p == 2**61 - 1


def test_conv_returns_canonical_elements():
    f5 = FieldSpec.Fp(5)
    for x in (-7, -1, 0, 3, 5, 12, Fraction(-3, 2), Fraction(10), "4/3"):
        y = f5.conv(x)
        assert type(y) is int and 0 <= y < 5
        assert f5.conv(y) is y
    assert [f5.conv(x) for x in (-7, -1, 12, 5)] == [3, 4, 2, 0]
    assert f5.conv(Fraction(-3, 2)) == 1
    # over Q an integral value is an int and any other a Fraction
    for x in (-7, 0, 3, 10**30, Fraction(12, 4), Fraction(0), "-6/2", "0/5", 2.0):
        y = QQ.conv(x)
        assert type(y) is int and y == Fraction(x)
        assert QQ.conv(y) is y
    for x in (Fraction(2, 3), "-5/4", 0.5):
        y = QQ.conv(x)
        assert type(y) is Fraction and y.denominator != 1 and y == Fraction(x)
        assert QQ.conv(y) is y
    # bool is an int subclass but not a canonical element
    assert type(f5.conv(True)) is int and f5.conv(True) == 1
    assert type(QQ.conv(True)) is int and QQ.conv(True) == 1


def test_rref_and_rank_known_matrix():
    # difference matrix of the commuting square; one relation among the rows
    m = [[-1, 0, 1, 0], [-1, 0, 0, 1], [0, -1, 1, 0], [0, -1, 0, 1]]
    assert rank(_pair_rows(m), 4, QQ) == 3
    kb = kernel_basis(_pair_rows(m), 4, QQ)
    assert len(kb) == 1
    v = kb[0]
    scale = next(x for x in v if x != 0)
    assert [x / scale for x in v] == [1, 1, 1, 1]


def test_kernel_of_empty_and_zero():
    assert kernel_basis([], 3, QQ) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(_pair_rows([[0, 0]]), 2, QQ) == 0
    assert len(kernel_basis(_pair_rows([[0, 0]]), 2, QQ)) == 2


def test_find_section_on_square_singular_and_wide_maps():
    def section(A):
        src, tgt = GradedVectorSpace(QQ, (len(A[0]),)), GradedVectorSpace(QQ, (len(A),))
        return find_section(_from_dense(src, tgt, [A]))

    A = [[1, 2], [3, 4]]
    assert _sympy_product(A, section(A).mats[0], QQ) == [[1, 0], [0, 1]]
    # rank 1 onto a 2-dimensional target
    assert section([[1, 1], [1, 1]]) is None
    # more columns than rows: any right inverse is acceptable
    assert _sympy_product([[1, 1]], section([[1, 1]]).mats[0], QQ) == [[1]]


def _pair_rows(rows):
    """A dense matrix in the row format the library reads: (column, value)
    pairs, zeros included, since the reader must drop what is zero in the
    field."""
    return [list(enumerate(row)) for row in rows]


def _from_dense(src, tgt, mats):
    """The graded map with the dense matrices ``mats``, one per degree."""
    return GradedLinearMap(src, tgt, [_pair_rows(m) for m in mats])


def _sympy_matrix(rows, ncols: int, field: FieldSpec) -> DomainMatrix:
    """The same matrix as a sympy DomainMatrix over QQ or GF(p)."""
    if field.kind == "Q":
        dom = SYMPY_QQ
        rows = [[dom(x.numerator, x.denominator) for x in map(field.conv, row)] for row in rows]
    else:
        dom = GF(field.p)
        rows = [[dom(x) for x in map(field.conv, row)] for row in rows]
    return DomainMatrix(rows, (len(rows), ncols), dom)


def _conv(rows, field: FieldSpec):
    return [[field.conv(x) for x in row] for row in rows]


def _canonical(rows, field: FieldSpec) -> bool:
    # conv returns exactly the canonical elements unchanged
    return all(field.conv(x) is x for row in rows for x in row)


def _from_sympy(x, field: FieldSpec):
    if field.kind == "Q":
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x)


def _field_rows(M: DomainMatrix, field: FieldSpec):
    return [[_from_sympy(x, field) for x in row] for row in M.to_list()]


def _sympy_product(A, B, field: FieldSpec):
    """A B by sympy, as rows of canonical field elements."""
    AB = _sympy_matrix(A, len(B), field) * _sympy_matrix(B, len(B[0]) if B else 0, field)
    return _field_rows(AB, field)


def _sympy_kernel_basis(rows, ncols: int, field: FieldSpec):
    """Kernel basis read off sympy's reduced row echelon form: one vector per
    free column, with the negated entries of that column at the pivots."""
    R, pivots = _sympy_matrix(rows, ncols, field).rref()
    R = R.to_list()
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = field.conv(-_from_sympy(R[i][free], field))
        basis.append(v)
    return basis


def test_rank_agrees_with_sympy_over_q_f2_and_f1009():
    rng = random.Random(7)
    f1009 = FieldSpec.Fp(1009)
    for _ in range(40):
        nr = rng.randrange(1, 8)
        nc = rng.randrange(1, 8)
        m = [[rng.randrange(-2, 3) for _ in range(nc)] for _ in range(nr)]
        r_q = rank(_pair_rows(m), nc, QQ)
        assert r_q == _sympy_matrix(m, nc, QQ).rank()
        # entries are tiny so no minor can vanish mod a large prime
        assert rank(_pair_rows(m), nc, f1009) == _sympy_matrix(m, nc, f1009).rank() == r_q
        r2 = rank(_pair_rows(m), nc, F2)
        assert r2 == _sympy_matrix(m, nc, F2).rank()
        assert r2 <= r_q


@st.composite
def _linear_systems(draw):
    field = draw(st.sampled_from([QQ, F2, FieldSpec.Fp(101), FieldSpec.Fp(4294967311)]))
    nr, nc, k = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-2, 2), st.integers(-10**12, 10**12))
    if field == QQ:
        # rank scales Q rows to integers: Fractions, 'a/b' strings (zero
        # ones included) and the extremes of the large ints mixed in a row
        entry = st.one_of(
            entry,
            st.sampled_from([10**12, -10**12]),
            st.fractions(-10**6, 10**6, max_denominator=10**6),
            st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
        )
    A = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    if nr >= 2 and draw(st.booleans()):
        A.append([field.conv(a) - 2 * field.conv(b) for a, b in zip(A[0], A[1])])
    if draw(st.booleans()):
        # B = A X0 has a solution whatever the rank of A
        X0 = [[draw(entry) for _ in range(k)] for _ in range(nc)]
        B = _sympy_product(A, X0, field)
    else:
        B = [[draw(entry) for _ in range(k)] for _ in A]
    return field, A, nc, B, k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_linear_systems())
def test_rank_kernel_and_solve_match_sympy(system):
    field, A, nc, B, k = system
    M = _sympy_matrix(A, nc, field)
    pivots = set()
    assert rank(_pair_rows(A), nc, field, pivots) == M.rank()
    assert pivots == set(M.rref()[1])
    kb = kernel_basis(_pair_rows(A), nc, field)
    assert kb == _sympy_kernel_basis(A, nc, field)
    assert _canonical(kb, field)
    if not A:
        return
    # the map with A in degree 0 and B in degree 1 has a section exactly
    # when both have full row rank
    nr = len(A)
    a = _from_dense(GradedVectorSpace(field, (nc, k)), GradedVectorSpace(field, (nr, nr)), [A, B])
    s = find_section(a)
    assert (s is not None) == (M.rank() == nr == _sympy_matrix(B, k, field).rank())
    if s is not None:
        assert a.compose(s).is_identity()
        assert all(_stored_rows_are_canonical(m, field) for m in s.nonzero_rows)
        identity = [[int(i == j) for j in range(nr)] for i in range(nr)]
        assert _sympy_product(A, s.mats[0], field) == _sympy_product(B, s.mats[1], field) == identity


def test_forward_pivot_rows_over_q_stay_within_the_hadamard_bound():
    # every forward pivot row over Q is a primitive integer row; its entries
    # are maximal minors of the input divided by a common factor, so none
    # exceeds the product of the Euclidean norms of the input rows
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randrange(1, 12), rng.randrange(1, 12)
        bound = rng.choice([1, 3, 50, 10**6])
        m = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
        if nr >= 3:
            m.append([3 * a - 2 * b + c for a, b, c in zip(*m[:3])])
        hadamard_sq = prod(sum(x * x for x in row) for row in m if any(row))
        R = _echelon(_pair_rows(m), nc, QQ)
        assert set(R) == set(_sympy_matrix(m, nc, QQ).rref()[1])
        for c, row in R.items():
            assert min(row) == c
            assert all(type(v) is int and v * v <= hadamard_sq for v in row.values())
            assert gcd(*row.values()) == 1


def test_forward_rows_over_q_are_integers_for_fraction_and_string_input():
    m = [[Fraction(1, 2), "2/3", 0], ["0/5", Fraction(0), "-1/4"], [Fraction(3, 4), 1, "-1/4"]]
    R = _echelon(_pair_rows(m), 3, QQ)
    # 6 (1/2, 2/3, 0) and 4 (0, 0, -1/4); the third row is 3/2 of the first
    # plus the second
    assert R == {0: {0: 3, 1: 4}, 2: {2: -1}}
    assert rank(_pair_rows(m), 3, QQ) == 2


def test_integral_fraction_rows_skip_the_denominators(monkeypatch):
    # a GradedLinearMap over Q stores integral values as ints, so a map
    # built from integral Fractions hands _echelon rows of ints, read in
    # one pass with no lcm of denominators taken
    def slow(*args):
        raise AssertionError("the denominators were read")

    a = GradedVectorSpace(QQ, (3,))
    f = GradedLinearMap(a, a, [[[(0, Fraction(2))], [(1, Fraction(-3)), (2, Fraction(12, 2))], [(0, "4/1")]]])
    assert f.nonzero_rows == [[[(0, 2)], [(1, -3), (2, 6)], [(0, 4)]]]
    assert all(type(v) is int for row in f.nonzero_rows[0] for _, v in row)
    monkeypatch.setattr(linalg, "lcm", slow)
    assert [_integral(row) for row in f.nonzero_rows[0]] == [{0: 1}, {1: -1, 2: 2}, {0: 1}]
    assert rank(f.nonzero_rows[0], 3, QQ) == 2
    assert _echelon(f.nonzero_rows[0], 3, QQ) == {0: {0: 1}, 1: {1: -1, 2: 2}}
    monkeypatch.undo()
    # a proper fraction anywhere in the row scales the whole row
    assert _integral([(0, Fraction(3)), (1, Fraction(1, 2)), (2, "0"), (3, "-2/3")]) == {0: 18, 1: 3, 3: -4}


def test_non_canonical_entries_are_converted_first():
    f5 = FieldSpec.Fp(5)
    # 5 is zero in F_5, whatever the size of the matrix
    assert rank(_pair_rows([[5]]), 1, f5) == 0
    assert rank(_pair_rows([[5] * 100 for _ in range(100)]), 100, f5) == 0
    assert kernel_basis(_pair_rows([[5, 10]]), 2, f5) == [[1, 0], [0, 1]]

    def section(a, field):
        line = GradedVectorSpace(field, (1,))
        return find_section(GradedLinearMap(line, line, [[[(0, a)]]]))

    assert section(5, f5) is None
    # -1 is 4 in F_5
    assert rank(_pair_rows([[-1, 2]]), 2, f5) == 1
    assert kernel_basis(_pair_rows([[-1, 2]]), 2, f5) == [[2, 1]]
    assert section(-1, f5).mats == [[[4]]]
    # 1/2 is 3 in F_5
    assert rank(_pair_rows([[Fraction(1, 2), 1]]), 2, f5) == 1
    assert kernel_basis(_pair_rows([[Fraction(1, 2), 1]]), 2, f5) == [[3, 1]]
    assert section(Fraction(1, 2), f5).mats == [[[2]]]
    assert _canonical(
        kernel_basis(_pair_rows([[-1, 2]]), 2, f5) + kernel_basis(_pair_rows([[Fraction(1, 2), 1]]), 2, f5), f5
    )
    assert _canonical(section(-1, f5).mats[0] + section(Fraction(1, 2), f5).mats[0], f5)
    # over Q integral values come back as ints and the others as Fractions
    assert rank(_pair_rows([[2, 4], [1, 2]]), 2, QQ) == 1
    kb = kernel_basis(_pair_rows([[2, 4]]), 2, QQ)
    assert kb == [[-2, 1]] and _canonical(kb, QQ)
    X = section(2, QQ).mats[0]
    assert X == [[Fraction(1, 2)]] and _canonical(X, QQ)


@st.composite
def _graded_maps(draw):
    """Maps f: U -> V, h: W -> U, g: X -> Y and k: Z -> Z of random graded
    spaces over one field."""
    field = draw(st.sampled_from([QQ, F2, FieldSpec.Fp(101)]))
    D = draw(st.integers(0, 2))
    entry = st.integers(-5, 5)

    def space():
        return GradedVectorSpace(field, draw(st.lists(st.integers(0, 3), min_size=D + 1, max_size=D + 1)))

    def gmap(src, tgt):
        mats = [[[draw(entry) for _ in range(n)] for _ in range(m)] for n, m in zip(src.dims, tgt.dims)]
        return _from_dense(src, tgt, mats)

    U, V, W, X, Y, Z = (space() for _ in range(6))
    return field, gmap(U, V), gmap(W, U), gmap(X, Y), gmap(Z, Z)


def _sympy_kron_blocks(f, g, d: int, field: FieldSpec):
    """The block diagonal over i of kronecker_product(f.mats[i],
    g.mats[d - i]), by sympy, as rows of canonical field elements."""
    blocks = []
    for i in range(d + 1):
        nr = f.target.dims[i] * g.target.dims[d - i]
        nc = f.source.dims[i] * g.source.dims[d - i]
        # sympy's kronecker_product refuses empty factors
        if nr and nc:
            K = kronecker_product(Matrix(f.mats[i]), Matrix(g.mats[d - i])).tolist()
        else:
            K = [[0] * nc] * nr
        blocks.append((K, nc))
    width = sum(nc for _, nc in blocks)
    rows, left = [], 0
    for K, nc in blocks:
        rows += [[0] * left + row + [0] * (width - left - nc) for row in K]
        left += nc
    return [[field.conv(str(x)) for x in row] for row in rows]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graded_maps())
def test_compose_and_tensor_maps_match_sympy(maps):
    field, f, h, g, k = maps
    fh = f.compose(h)
    t = tensor_maps([f, g])
    for d in range(f.source.truncation + 1):
        F = _sympy_matrix(f.mats[d], f.source.dims[d], field)
        H = _sympy_matrix(h.mats[d], h.source.dims[d], field)
        assert fh.mats[d] == _field_rows(F * H, field)
        assert t.mats[d] == _sympy_kron_blocks(f, g, d, field)
    assert _canonical(sum(fh.mats + t.mats, []), field)
    # three factors: the basis order is that of the left fold
    assert tensor_maps([f, g, k]) == tensor_maps([t, k])


@st.composite
def _dense_maps(draw):
    """A graded map as dense matrices with non-canonical entries: ints out
    of range, multiples of p (zero in F_p) and fractions."""
    field = draw(st.sampled_from([QQ, F2, FieldSpec.Fp(101)]))
    D = draw(st.integers(0, 2))
    p = field.p or 7
    special = [p, 2 * p, -p, Fraction(1, 3), Fraction(-5, 3)] + ([] if field == F2 else [Fraction(1, 2)])
    entry = st.one_of(st.integers(-5, 5), st.sampled_from(special))
    src, tgt = (
        GradedVectorSpace(field, draw(st.lists(st.integers(0, 3), min_size=D + 1, max_size=D + 1)))
        for _ in range(2)
    )
    mats = [[[draw(entry) for _ in range(n)] for _ in range(m)] for n, m in zip(src.dims, tgt.dims)]
    return field, src, tgt, mats, draw(st.integers(0, 10**6))


def _stored_rows_are_canonical(rows, field: FieldSpec) -> bool:
    """Every row sorted by distinct columns, every value canonical and
    non-zero."""
    return all(
        [j for j, _ in row] == sorted({j for j, _ in row}) and all(v and field.conv(v) is v for _, v in row)
        for row in rows
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_dense_maps())
def test_sparse_storage_matches_dense_construction(case):
    field, src, tgt, mats, seed = case
    dense = _from_dense(src, tgt, mats)
    # all pairs, zeros included, in reverse column order
    reverse = GradedLinearMap(src, tgt, [[list(enumerate(row))[::-1] for row in m] for m in mats])
    assert reverse == dense
    assert reverse.mats == dense.mats == [_conv(m, field) for m in mats]
    assert reverse.nonzero_rows == dense.nonzero_rows
    assert all(_stored_rows_are_canonical(m, field) for m in reverse.nonzero_rows)
    # the faces (x, y) of a weak chain (x, x, y) coincide with opposite
    # signs, so that entry cancels and must not be stored
    P = random_pointed_poset(random.Random(seed), max_objects=4)
    cx = cochain_complex(PosetDiagram.constant(P, GradedVectorSpace.unit(field, 0)), weak=True, max_n=2)
    column = {c: j for j, c in enumerate(cx.chains[1])}
    rows = cx.deltas[1].nonzero_rows[0]
    assert _stored_rows_are_canonical(rows, field)
    for c, row in zip(cx.chains[2], rows):
        if c[0] == c[1] != c[2]:
            assert column[(c[0], c[2])] not in dict(row)


def _is_canonical(x, field: FieldSpec) -> bool:
    """Over Q an int when integral and a Fraction otherwise, over F_p an int
    in 0..p-1; either way conv gives it back as the same object."""
    if field.p is None:
        stored = type(x) is int or type(x) is Fraction and x.denominator != 1
    else:
        stored = type(x) is int and 0 <= x < field.p
    return stored and field.conv(x) is x


@st.composite
def _mixed_maps(draw):
    """A map f: U -> V over one field from ints, Fractions (integral ones
    included) and 'a/b' strings, the map [f | c] onto V with a unit c_i
    added at a new column per row, and maps h: W -> U and g: X -> Y."""
    field = draw(st.sampled_from([QQ, F2, FieldSpec.Fp(7), FieldSpec.Fp(101)]))
    D = draw(st.integers(0, 2))
    # no denominator may vanish in the field
    den = st.sampled_from([d for d in (1, 2, 3, 4, 6) if field.p is None or d % field.p])
    num = st.integers(-8, 8)
    entry = st.one_of(num, st.builds(Fraction, num, den), st.builds("{}/{}".format, num, den))
    unit = st.sampled_from([1, -1, Fraction(1, 3), Fraction(6, 2), "-5/1"])

    def space():
        return GradedVectorSpace(field, draw(st.lists(st.integers(0, 3), min_size=D + 1, max_size=D + 1)))

    def dense(src, tgt):
        return [[[draw(entry) for _ in range(n)] for _ in range(m)] for n, m in zip(src.dims, tgt.dims)]

    U, V, W, X, Y = (space() for _ in range(5))
    mats = dense(U, V)
    f = _from_dense(U, V, mats)
    wide = GradedVectorSpace(field, [m + n for m, n in zip(U.dims, V.dims)])
    onto = GradedLinearMap(wide, V, [
        [list(enumerate(row)) + [(m + i, draw(unit))] for i, row in enumerate(A)]
        for m, A in zip(U.dims, mats)
    ])
    return field, mats, f, onto, _from_dense(W, U, dense(W, U)), _from_dense(X, Y, dense(X, Y))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mixed_maps())
def test_every_value_the_library_makes_is_canonical(maps):
    field, mats, f, onto, h, g = maps
    # the stored value is the input's value in the field
    for A, B in zip(mats, f.mats):
        for row, out in zip(A, B):
            assert out == [field.conv(Fraction(x)) if field.p else Fraction(x) for x in row]
    s = find_section(onto)
    assert s is not None and onto.compose(s).is_identity()
    made = [f, onto, h, g, f.compose(h), tensor_maps([f, g]), tensor_maps([g, onto]), s]
    if (s_f := find_section(f)) is not None:
        made.append(s_f)
    for m in made:
        assert all(_is_canonical(v, field) for rows in m.nonzero_rows for row in rows for _, v in row)
        assert all(_is_canonical(v, field) for mat in m.mats for row in mat for v in row)
    for m in (f, onto):
        for rows, n in zip(m.nonzero_rows, m.source.dims):
            assert all(_is_canonical(v, field) for vec in kernel_basis(rows, n, field) for v in vec)


def test_constructor_checks_row_shapes():
    a, b = GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (1,))
    assert GradedLinearMap(a, b, [[[(1, 3), (0, 0)]]]).mats == [[[0, 3]]]
    for rows in ([[]], [[[(0, 1)], [(0, 1)]]], [[[(2, 1)]]], [[[(-1, 1)]]], [[[(0, 1), (0, 2)]]]):
        with pytest.raises(ValueError):
            GradedLinearMap(a, b, rows)
    with pytest.raises(MixedFields):
        GradedLinearMap(a, GradedVectorSpace(F2, (1,)), [[[]]])


def test_graded_space_and_mixing_errors():
    a = GradedVectorSpace(QQ, (1, 2, 0))
    b = GradedVectorSpace(F2, (1, 2, 0))
    c = GradedVectorSpace(QQ, (1, 2))
    with pytest.raises(MixedFields):
        tensor_collection([a, b])
    with pytest.raises(MixedTruncation):
        tensor_collection([a, c])
    assert a.truncation == 2


def test_unit_and_truncated_polynomial():
    u = GradedVectorSpace.unit(QQ, 5)
    assert u.dims == (1, 0, 0, 0, 0, 0)
    m, aug = truncated_polynomial(2, 5)
    assert m.dims == (1, 0, 1, 0, 1, 0)
    assert aug.source is m and aug.target.dims == u.dims
    s = find_section(aug)
    assert s is not None
    assert aug.compose(s).is_identity()
    m1, _ = truncated_polynomial(1, 3)
    assert m1.dims == (1, 1, 1, 1)


def test_tensor_dims_are_convolutions():
    a = GradedVectorSpace(QQ, (1, 2, 1))
    b = GradedVectorSpace(QQ, (1, 0, 3))
    t = tensor_collection([a, b])
    assert t.dims == (1, 2, 1 + 3)
    # triple product dims match iterated convolution in any order
    c = GradedVectorSpace(QQ, (2, 1, 0))
    t1 = tensor_collection([a, b, c])
    t2 = tensor_collection([c, b, a])
    assert t1.dims == t2.dims
    u = GradedVectorSpace.unit(QQ, 2)
    assert tensor_collection([u, a]).dims == a.dims
    # the unit factor contributes its one degree-0 element to every tuple
    assert _tensor_basis([u, a])[1] == [[((0, 0), (d, i)) for i in range(n)] for d, n in enumerate(a.dims)]


def test_tensor_basis_follows_the_left_fold():
    # degree 1 of A B lists A's degree 0 times B's degree 1, then A's
    # degree 1 times B's degree 0; a third factor extends each tuple
    a = GradedVectorSpace(QQ, (1, 1))
    b = GradedVectorSpace(QQ, (1, 2))
    t, basis = _tensor_basis([a, b])
    assert t.dims == (1, 3)
    assert basis[1] == [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (0, 0))]
    _, basis3 = _tensor_basis([a, b, a])
    assert basis3[1] == [((0, 0), (0, 0), (1, 0))] + [x + ((0, 0),) for x in basis[1]]


def test_tensor_maps_match_basis_order():
    a = GradedVectorSpace(QQ, (1, 1))
    b = GradedVectorSpace(QQ, (1, 2))
    f = GradedLinearMap.identity(a)
    g = _from_dense(b, b, [[[1]], [[0, 1], [1, 0]]])  # swap y1,y2
    t = tensor_maps([f, g])
    assert t.source.dims == (1, 3)
    # degree 1 basis is (x0y1, x0y2, x1y0); swap exchanges the first two
    assert t.mats[1] == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    # functoriality: (f.f') tensor (g.g') == (f tensor g).(f' tensor g')
    g2 = _from_dense(b, b, [[[2]], [[1, 1], [0, 1]]])
    lhs = tensor_maps([f.compose(f), g.compose(g2)])
    rhs = tensor_maps([f, g]).compose(tensor_maps([f, g2]))
    assert lhs == rhs


def test_tensor_of_maps_random_functoriality():
    rng = random.Random(21)
    for _ in range(10):
        D = 2
        dims1 = [rng.randrange(0, 3) for _ in range(D + 1)]
        dims2 = [rng.randrange(0, 3) for _ in range(D + 1)]
        s1 = GradedVectorSpace(QQ, dims1)
        s2 = GradedVectorSpace(QQ, dims2)

        def rmap(sp):
            return _from_dense(
                sp, sp,
                [[[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)] for n in sp.dims],
            )

        f1, f2 = rmap(s1), rmap(s1)
        g1, g2 = rmap(s2), rmap(s2)
        lhs = tensor_maps([f1.compose(f2), g1.compose(g2)])
        rhs = tensor_maps([f1, g1]).compose(tensor_maps([f2, g2]))
        assert lhs == rhs


def test_graded_map_shapes_and_ops():
    a = GradedVectorSpace(QQ, (2, 1))
    idm = GradedLinearMap.identity(a)
    z = GradedLinearMap.zero(a, a)
    assert idm.is_identity() and not z.is_identity()
    with pytest.raises(ValueError):
        _from_dense(a, a, [[[1]], [[1]]])
    assert [rank(m, n, QQ) for m, n in zip(idm.nonzero_rows, a.dims)] == [2, 1]
    assert [kernel_basis(m, n, QQ) for m, n in zip(idm.nonzero_rows, a.dims)] == [[], []]
    assert [len(kernel_basis(m, n, QQ)) for m, n in zip(z.nonzero_rows, a.dims)] == [2, 1]


def test_find_section_absent_for_non_surjection():
    a = GradedVectorSpace(QQ, (1, 0))
    b = GradedVectorSpace(QQ, (1, 1))
    f = _from_dense(a, b, [[[1]], [[]]])  # degree 1: 1x0 matrix
    assert find_section(f) is None
    g = _from_dense(b, a, [[[1]], []])  # degree 1: 0x1 matrix
    s = find_section(g)
    assert s is not None and g.compose(s).is_identity()


def test_rank_agrees_over_q_and_large_prime():
    rng = random.Random(5)
    fp = FieldSpec.Fp(1009)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-2, 3) for _ in range(nc)] for _ in range(nr)]
        assert rank(_pair_rows(m), nc, QQ) == rank(_pair_rows(m), nc, fp)


def test_rank_at_a_prime_beyond_int64_products():
    # (p - 1)**2 overflows int64, the width of a machine-integer elimination
    p = 4294967311
    fp = FieldSpec.Fp(p)
    rng = random.Random(3)
    m = [[rng.randrange(p) for _ in range(90)] for _ in range(89)]
    m.append([(a + 2 * b) % p for a, b in zip(m[0], m[1])])
    assert _sympy_matrix(m, 90, fp).rank() == 89
    assert rank(_pair_rows(m), 90, fp) == 89


def test_kron_block_convention():
    # in degree 0 the tensor of two maps is the Kronecker product, rows and
    # columns ordered (row of the first, row of the second) lexicographically
    f = _from_dense(GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (1,)), [[[1, 2]]])
    g = _from_dense(GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (2,)), [[[0, 1], [1, 0]]])
    assert tensor_maps([f, g]).mats[0] == [[0, 1, 0, 2], [1, 0, 2, 0]]
