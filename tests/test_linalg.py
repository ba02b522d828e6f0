import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix, kronecker_product
from sympy import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from posetprod.errors import MixedFields, MixedTruncation
from posetprod.fixtures import random_pointed_poset
from posetprod.limits import PosetDiagram, cochain_complex
from posetprod.linalg import (
    F2,
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    _echelon,
    find_section,
    kernel_basis,
    rank,
    solve_matrix,
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


def test_conv_returns_canonical_elements():
    f5 = FieldSpec.Fp(5)
    for x in (-7, -1, 0, 3, 5, 12, Fraction(-3, 2), Fraction(10), "4/3"):
        y = f5.conv(x)
        assert type(y) is int and 0 <= y < 5
        assert f5.conv(y) is y
    assert [f5.conv(x) for x in (-7, -1, 12, 5)] == [3, 4, 2, 0]
    assert f5.conv(Fraction(-3, 2)) == 1
    for x in (-7, 3, Fraction(2, 3), "-5/4"):
        y = QQ.conv(x)
        assert type(y) is Fraction
        assert QQ.conv(y) is y
    # bool is an int subclass but not a canonical element
    assert type(f5.conv(True)) is int and f5.conv(True) == 1
    assert type(QQ.conv(True)) is Fraction and QQ.conv(True) == 1


def test_rref_and_rank_known_matrix():
    # difference matrix of the commuting square; one relation among the rows
    m = [[-1, 0, 1, 0], [-1, 0, 0, 1], [0, -1, 1, 0], [0, -1, 0, 1]]
    assert rank(_pair_rows(m), 4, QQ) == 3
    kb = kernel_basis(m, 4, QQ)
    assert len(kb) == 1
    v = kb[0]
    scale = next(x for x in v if x != 0)
    assert [x / scale for x in v] == [1, 1, 1, 1]


def test_kernel_of_empty_and_zero():
    assert kernel_basis([], 3, QQ) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(_pair_rows([[0, 0]]), 2, QQ) == 0
    assert len(kernel_basis([[0, 0]], 2, QQ)) == 2


def test_solve_matrix():
    A, I = [[1, 2], [3, 4]], [[1, 0], [0, 1]]
    X = solve_matrix(A, I, QQ)
    assert _sympy_product(A, X, QQ) == I
    # inconsistent system
    assert solve_matrix([[1, 1], [1, 1]], [[1], [0]], QQ) is None
    # underdetermined: any solution acceptable
    X = solve_matrix([[1, 1]], [[5]], QQ)
    assert _sympy_product([[1, 1]], X, QQ) == [[5]]


def _pair_rows(rows):
    """A dense matrix in the row format rank reads: (column, value) pairs,
    zeros included, since rank must drop what is zero in the field."""
    return [list(enumerate(row)) for row in rows]


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
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, p in enumerate(pivots):
            v[p] = field.neg(_from_sympy(R[i][free], field))
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
    kb = kernel_basis(A, nc, field)
    assert kb == _sympy_kernel_basis(A, nc, field)
    assert _canonical(kb, field)
    if not A:
        return
    X = solve_matrix(A, B, field)
    solvable = M.rank() == M.hstack(_sympy_matrix(B, k, field)).rank()
    assert (X is not None) == solvable
    if X is not None:
        assert _canonical(X, field)
        assert _sympy_product(A, X, field) == _conv(B, field)


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


def test_non_canonical_entries_are_converted_first():
    f5 = FieldSpec.Fp(5)
    # 5 is zero in F_5, whatever the size of the matrix
    assert rank(_pair_rows([[5]]), 1, f5) == 0
    assert rank(_pair_rows([[5] * 100 for _ in range(100)]), 100, f5) == 0
    assert kernel_basis([[5, 10]], 2, f5) == [[1, 0], [0, 1]]
    assert solve_matrix([[5]], [[1]], f5) is None
    assert solve_matrix([[5]], [[5]], f5) == [[0]]
    # -1 is 4 in F_5
    assert rank(_pair_rows([[-1, 2]]), 2, f5) == 1
    assert kernel_basis([[-1, 2]], 2, f5) == [[2, 1]]
    assert solve_matrix([[-1]], [[1]], f5) == [[4]]
    # 1/2 is 3 in F_5
    assert rank(_pair_rows([[Fraction(1, 2), 1]]), 2, f5) == 1
    assert kernel_basis([[Fraction(1, 2), 1]], 2, f5) == [[3, 1]]
    assert solve_matrix([[Fraction(1, 2)]], [[1]], f5) == [[2]]
    assert _canonical(kernel_basis([[-1, 2]], 2, f5) + kernel_basis([[Fraction(1, 2), 1]], 2, f5), f5)
    assert _canonical(solve_matrix([[-1]], [[1]], f5) + solve_matrix([[Fraction(1, 2)]], [[1]], f5), f5)
    # plain ints over Q come back as Fractions
    assert rank(_pair_rows([[2, 4], [1, 2]]), 2, QQ) == 1
    kb = kernel_basis([[2, 4]], 2, QQ)
    assert kb == [[-2, 1]] and _canonical(kb, QQ)
    X = solve_matrix([[2]], [[1]], QQ)
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
        return GradedLinearMap(src, tgt, mats)

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
    dense = GradedLinearMap(src, tgt, mats)
    # all pairs, zeros included, in reverse column order
    sparse = GradedLinearMap.from_rows(src, tgt, [[list(enumerate(row))[::-1] for row in m] for m in mats])
    assert sparse == dense
    assert sparse.mats == dense.mats == [_conv(m, field) for m in mats]
    assert sparse.nonzero_rows == dense.nonzero_rows
    assert all(_stored_rows_are_canonical(m, field) for m in sparse.nonzero_rows)
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


def test_from_rows_checks_shapes():
    a, b = GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (1,))
    assert GradedLinearMap.from_rows(a, b, [[[(1, 3), (0, 0)]]]).mats == [[[0, 3]]]
    for rows in ([[]], [[[(0, 1)], [(0, 1)]]], [[[(2, 1)]]], [[[(-1, 1)]]], [[[(0, 1), (0, 2)]]]):
        with pytest.raises(ValueError):
            GradedLinearMap.from_rows(a, b, rows)
    with pytest.raises(MixedFields):
        GradedLinearMap.from_rows(a, GradedVectorSpace(F2, (1,)), [[[]]])


def test_graded_space_and_mixing_errors():
    a = GradedVectorSpace(QQ, (1, 2, 0))
    b = GradedVectorSpace(F2, (1, 2, 0))
    c = GradedVectorSpace(QQ, (1, 2))
    with pytest.raises(MixedFields):
        tensor_collection([a, b])
    with pytest.raises(MixedTruncation):
        tensor_collection([a, c])
    assert a.truncation == 2
    with pytest.raises(ValueError):
        GradedVectorSpace(QQ, (2,), ((("x",),),))


def test_unit_and_truncated_polynomial():
    u = GradedVectorSpace.unit(QQ, 5)
    assert u.dims == (1, 0, 0, 0, 0, 0)
    m, aug = truncated_polynomial("v", 2, 5)
    assert m.dims == (1, 0, 1, 0, 1, 0)
    assert m.labels[2] == (("v^1",),)
    assert m.labels[4] == (("v^2",),)
    assert aug.source is m and aug.target.dims == u.dims
    s = find_section(aug)
    assert s is not None
    assert aug.compose(s).is_identity()
    m1, _ = truncated_polynomial("t", 1, 3)
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
    assert tensor_collection([u, a]).labels == a.labels


def test_tensor_labels_concatenate():
    a = GradedVectorSpace(QQ, (1, 1), ((("x0",),), (("x1",),)))
    b = GradedVectorSpace(QQ, (1, 1), ((("y0",),), (("y1",),)))
    t = tensor_collection([a, b])
    assert t.labels[1] == (("x0", "y1"), ("x1", "y0"))


def test_tensor_maps_match_label_order():
    a = GradedVectorSpace(QQ, (1, 1), ((("x0",),), (("x1",),)))
    b = GradedVectorSpace(QQ, (1, 2), ((("y0",),), (("y1",), ("y2",))))
    f = GradedLinearMap.identity(a)
    g = GradedLinearMap(b, b, [[[1]], [[0, 1], [1, 0]]])  # swap y1,y2
    t = tensor_maps([f, g])
    assert t.source.dims == (1, 3)
    # degree 1 basis is (x0y1, x0y2, x1y0); swap exchanges the first two
    assert t.mats[1] == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    # functoriality: (f.f') tensor (g.g') == (f tensor g).(f' tensor g')
    g2 = GradedLinearMap(b, b, [[[2]], [[1, 1], [0, 1]]])
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
            return GradedLinearMap(
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
        GradedLinearMap(a, a, [[[1]], [[1]]])
    rk = idm.rank_kernel()
    assert [r for r, _, _ in rk] == [2, 1]
    assert [k for _, k, _ in rk] == [0, 0]


def test_find_section_absent_for_non_surjection():
    a = GradedVectorSpace(QQ, (1, 0))
    b = GradedVectorSpace(QQ, (1, 1))
    f = GradedLinearMap(a, b, [[[1]], [[]]])  # degree 1: 1x0 matrix
    assert find_section(f) is None
    g = GradedLinearMap(b, a, [[[1]], []])  # degree 1: 0x1 matrix
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
    f = GradedLinearMap(GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (1,)), [[[1, 2]]])
    g = GradedLinearMap(GradedVectorSpace(QQ, (2,)), GradedVectorSpace(QQ, (2,)), [[[0, 1], [1, 0]]])
    assert tensor_maps([f, g]).mats[0] == [[0, 1, 0, 2], [1, 0, 2, 0]]
