"""Exact graded linear algebra over Q or a prime field.

Vector spaces are graded with a hard truncation degree D; maps are
degree-preserving and stored as sparse rows (rows index the target basis):
per degree, one list per target row of its non-zero (column, value) pairs,
sorted by column (``GradedLinearMap.nonzero_rows``).  All arithmetic is
exact: Fraction entries over Q, canonical representatives 0..p-1 over F_p.
A dense view (``GradedLinearMap.mats``) is built only when asked for.

One sparse product on such rows, ``_product``, serves composition and the
d^2 = 0 check of cochain complexes, and a tensor of maps takes each row as
the product of its factors' rows over one enumeration of the tensor basis
(``_tensor_basis``).

Rank, kernel bases and linear solves all go through one sparse elimination,
``_echelon``.  It reads the same row format: each row a list of (column,
value) pairs with distinct columns.  It pivots on the leading column,
reducing the other rows of a pivot's bucket by the pivot row as it stands,
and makes the pivot rows monic and back-substitutes to the reduced row
echelon form only when a kernel or a solution is asked for.  Its forward
phase is int arithmetic in both fields: mod p over F_p, and over Q on
primitive integer rows, each scaled by the lcm of its denominators, reduced
by cross-multiplication and divided by its content (the gcd of its
entries), so that no Fraction is made.  Only the reduced form is built
from Fractions.
``rank`` takes such rows and can report its pivot columns, which lets a
caller clear rows of the next matrix of a complex; ``kernel_basis`` and
``solve_matrix`` take dense matrices and convert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, product
from math import gcd, lcm, prod

from .errors import MixedFields, MixedTruncation


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Q (kind="Q") or the prime field F_p (kind="Fp")."""

    kind: str
    p: int | None = None

    @classmethod
    def Q(cls) -> "FieldSpec":
        return cls("Q", None)

    @classmethod
    def Fp(cls, p: int) -> "FieldSpec":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls("Fp", p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = str(text).strip().lower()
        if t in ("q", "rational", "rationals"):
            return cls.Q()
        return cls.Fp(int(t))

    def __str__(self):
        return "q" if self.kind == "Q" else str(self.p)

    # -- arithmetic -----------------------------------------------------

    def conv(self, x):
        """Coerce an int, Fraction or 'a/b' string into the field.

        A canonical element (a Fraction over Q, an int in 0..p-1 over F_p)
        comes back unchanged, so re-converting the library's own matrices
        costs one type check per entry.
        """
        if self.kind == "Q":
            if type(x) is Fraction:
                return x
        elif type(x) is int and 0 <= x < self.p:
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p


QQ = FieldSpec.Q()
F2 = FieldSpec.Fp(2)


# -- sparse rows (lists of (column, value) pairs) -------------------------


def _subtract(r: dict, f, piv: dict, p):
    """r -= f * piv in place on dict rows, dropping entries that vanish."""
    for k, v in piv.items():
        nv = r.get(k, 0) - f * v
        if p is not None:
            nv %= p
        if nv:
            r[k] = nv
        else:
            del r[k]


def _product(a_rows, b_rows, field: FieldSpec) -> list[dict]:
    """The rows of A B as {column: value} without zeros, from the rows of A
    and of B given as their non-zero (column, value) pairs."""
    p = field.p
    out = []
    for a_row in a_rows:
        acc: dict = {}
        for t, a in a_row:
            for j, b in b_rows[t]:
                acc[j] = acc.get(j, 0) + a * b
        if p is not None:
            acc = {j: v % p for j, v in acc.items()}
        out.append({j: v for j, v in acc.items() if v})
    return out


def _pairs(rows) -> list:
    """The non-zero (column, value) pairs of each dense row."""
    return [list(zip(compress(count(), row), filter(None, row))) for row in rows]


def _dense(rows, ncols: int, field: FieldSpec) -> list:
    """The dense matrix of sparse rows, each of length ``ncols``."""
    z = field.zero()
    out = []
    for r in rows:
        row = [z] * ncols
        for j, v in r:
            row[j] = v
        out.append(row)
    return out


def _primitive(r: dict) -> dict:
    """The row r of ints divided by its content, the gcd of its entries."""
    g = gcd(*r.values())
    return r if g == 1 else {k: v // g for k, v in r.items()}


def _cross(r: dict, c: int, piv: dict) -> dict:
    """The primitive part of (a/g) r - (b/g) piv over the integers, where a
    and b are the entries of piv and r at c and g = gcd(a, b); with a = 1
    this is r - b piv.  Updates r in place."""
    a, b = piv[c], r[c]
    g = gcd(a, b)
    s, f = a // g, b // g
    if s < 0:
        s, f = -s, -f
    if s != 1:
        for k in r:
            r[k] *= s
    _subtract(r, f, piv, None)
    return _primitive(r)


def _integral(row) -> dict:
    """A row of (column, value) pairs over Q as a primitive integer row
    {column: int} without zeros, spanning the same line: the row times the
    lcm of its denominators, divided by its content.  Values may be ints,
    Fractions or 'a/b' strings; ints are never made Fractions."""
    r = {j: x for j, x in row if x}
    if not all(type(x) is int for x in r.values()):
        q = {j: (x if type(x) is Fraction else QQ.conv(x)).as_integer_ratio() for j, x in r.items()}
        m = lcm(*[d for _, d in q.values()])
        r = {j: n * (m // d) for j, (n, d) in q.items() if n}
    return _primitive(r)


def _echelon(rows, ncols: int, field: FieldSpec, reduced: bool = False) -> dict:
    """The one elimination routine behind rank, kernel_basis and solve_matrix.

    Each row is a list of (column, value) pairs with distinct columns below
    ``ncols``.  Over F_p the values are converted with ``field.conv``; over
    Q each row is scaled to a primitive integer row (``_integral``).  Both
    become dicts {column: value} without zeros.  The rows are eliminated
    column by column: the rows whose leading column is c are reduced by the
    shortest of them, which becomes the pivot row of c as it stands.  Over
    Q a row is reduced by cross-multiplication (``_cross``) and divided by
    its content again, so every row stays a primitive integer vector; such
    a row is a multiple of a vector of maximal minors of the input rows, so
    its entries are bounded by those minors.  Returns {pivot column: pivot row}.  With
    ``reduced`` the pivot rows are made monic (Fractions over Q) and each
    pivot column is also cleared from the other pivot rows, which gives the
    reduced row echelon form; that form is unique, so it does not depend on
    the choice of pivot rows.
    """
    conv = field.conv
    p = field.p
    heads: dict[int, list[dict]] = {}
    for row in rows:
        r = _integral(row) if p is None else {j: v for j, x in row if (v := conv(x))}
        if r:
            heads.setdefault(min(r), []).append(r)
    pivots: dict[int, dict] = {}
    for c in range(ncols):
        bucket = heads.pop(c, None)
        if bucket is None:
            continue
        first = min(bucket, key=len)
        # a copy, since a reduced row keeps the slots of its deleted entries
        pivots[c] = dict(first)
        if len(bucket) == 1:
            continue
        inv = None if p is None else pow(first[c], -1, p)
        for r in bucket:
            if r is first:
                continue
            if p is None:
                r = _cross(r, c, first)
            else:
                _subtract(r, r[c] * inv % p, first, p)
            if r:
                heads.setdefault(min(r), []).append(r)
    if reduced:
        for c, r in pivots.items():
            a = r[c]
            inv = None if p is None else pow(a, -1, p)
            for k, v in r.items():
                r[k] = Fraction(v, a) if p is None else v * inv % p
        for c in sorted(pivots, reverse=True):
            r = pivots[c]
            for k in [k for k in r if k != c and k in pivots]:
                _subtract(r, r[k], pivots[k], p)
    return pivots


def rank(rows, ncols: int, field: FieldSpec, pivots: set | None = None) -> int:
    """Rank of the matrix whose rows are lists of (column, value) pairs, as
    ``_echelon`` reads them.  When ``pivots`` is a set, the pivot columns of
    the row echelon form are added to it: column c is a pivot exactly when
    some vector of the row space has its first non-zero entry at c."""
    R = _echelon(rows, ncols, field)
    if pivots is not None:
        pivots.update(R)
    return len(R)


def kernel_basis(rows, ncols: int, field: FieldSpec):
    """Basis of the right kernel of a dense matrix as a list of length-ncols
    vectors, one per free column of the reduced row echelon form, in column
    order."""
    return _kernel(_pairs(rows), ncols, field)


def _kernel(rows, ncols: int, field: FieldSpec):
    """``kernel_basis`` of the matrix with the given pair rows."""
    R = _echelon(rows, ncols, field, reduced=True)
    basis = {j: [field.zero()] * ncols for j in range(ncols) if j not in R}
    for j, v in basis.items():
        v[j] = field.one()
    for c, r in R.items():
        for j, x in r.items():
            if j != c:
                basis[j][c] = field.neg(x)
    return list(basis.values())


def solve_matrix(A, B, field: FieldSpec):
    """One solution X of A X = B, or None.  A is n x m, B is n x k; the free
    unknowns of the reduced row echelon form are set to zero."""
    m = len(A[0]) if A else 0
    k = len(B[0]) if B else 0
    X = _solve(_pairs(list(A[i]) + list(B[i]) for i in range(len(A))), m, k, field)
    return None if X is None else _dense(X, k, field)


def _solve(aug, m: int, k: int, field: FieldSpec):
    """``solve_matrix`` given the pair rows of [A | B], with A of m and B of
    k columns; the solution comes back as m pair rows, sorted by column."""
    R = _echelon(aug, m + k, field, reduced=True)
    if any(c >= m for c in R):
        return None
    X = [[] for _ in range(m)]
    for c, r in R.items():
        X[c] = sorted((j - m, x) for j, x in r.items() if j >= m)
    return X


# -- graded structures ---------------------------------------------------


class GradedVectorSpace:
    """Finite dimensional graded vector space truncated above degree D.

    ``labels[d]`` names the basis of degree d; labels are tuples so tensor
    factors stay readable.
    """

    def __init__(self, field: FieldSpec, dims, labels=None):
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        if labels is None:
            labels = tuple(
                tuple((f"e{d}.{i}",) for i in range(self.dims[d]))
                for d in range(len(self.dims))
            )
        self.labels = tuple(tuple(tuple(l) for l in ls) for ls in labels)
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims length differ")
        for d, ls in zip(self.dims, self.labels):
            if len(ls) != d:
                raise ValueError("label count does not match dimension")

    @property
    def truncation(self) -> int:
        return len(self.dims) - 1

    @classmethod
    def unit(cls, field: FieldSpec, D: int) -> "GradedVectorSpace":
        return cls(field, (1,) + (0,) * D, (((),),) + ((),) * D)

    @classmethod
    def zero_space(cls, field: FieldSpec, D: int) -> "GradedVectorSpace":
        return cls(field, (0,) * (D + 1), ((),) * (D + 1))

    def __eq__(self, other):
        if not isinstance(other, GradedVectorSpace):
            return NotImplemented
        return self.field == other.field and self.dims == other.dims and self.labels == other.labels

    def __repr__(self):
        return f"GradedVectorSpace(dims={self.dims})"


def _check_pair(a: "GradedVectorSpace", b: "GradedVectorSpace"):
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    if a.truncation != b.truncation:
        raise MixedTruncation(f"D={a.truncation} vs D={b.truncation}")


class GradedLinearMap:
    """Degree-preserving linear map, stored as sparse rows.

    ``nonzero_rows[d]`` holds the rows of the degree-d matrix, of shape
    (target.dims[d], source.dims[d]): per target basis element, the non-zero
    (column, value) pairs of its row, sorted by column, each value a
    canonical field element.  The constructor takes dense matrices;
    ``from_rows`` takes rows.  A map is not mutated after it is built.
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace, mats):
        _check_pair(source, target)
        conv = source.field.conv
        rows = []
        for d in range(len(source.dims)):
            m = [list(map(conv, row)) for row in mats[d]]
            if len(m) != target.dims[d] or any(len(r) != source.dims[d] for r in m):
                raise ValueError(
                    f"degree {d}: matrix shape {len(m)}x? does not match "
                    f"{target.dims[d]}x{source.dims[d]}"
                )
            rows.append(_pairs(m))
        self.field, self.source, self.target, self.nonzero_rows = source.field, source, target, rows

    @classmethod
    def from_rows(cls, source: GradedVectorSpace, target: GradedVectorSpace, rows) -> "GradedLinearMap":
        """The map whose degree-d matrix has the rows ``rows[d]``, one
        iterable of (column, value) pairs per target basis element, with
        distinct columns in range(source.dims[d]).  Values are converted
        with ``field.conv`` and those that are zero in the field dropped."""
        _check_pair(source, target)
        conv = source.field.conv
        out = []
        for d, (nrows, ncols) in enumerate(zip(target.dims, source.dims)):
            m = [sorted((j, v) for j, x in row if (v := conv(x))) for row in rows[d]]
            if len(m) != nrows:
                raise ValueError(f"degree {d}: {len(m)} rows, expected {nrows}")
            for r in m:
                if r and (r[0][0] < 0 or r[-1][0] >= ncols or len({j for j, _ in r}) < len(r)):
                    cols = [j for j, _ in r]
                    raise ValueError(f"degree {d}: columns {cols} are not distinct in range({ncols})")
            out.append(m)
        self = cls.__new__(cls)
        self.field, self.source, self.target, self.nonzero_rows = source.field, source, target, out
        return self

    @classmethod
    def identity(cls, space: GradedVectorSpace) -> "GradedLinearMap":
        one = space.field.one()
        return cls.from_rows(space, space, [[[(i, one)] for i in range(n)] for n in space.dims])

    @classmethod
    def zero(cls, source: GradedVectorSpace, target: GradedVectorSpace) -> "GradedLinearMap":
        return cls.from_rows(source, target, [[()] * n for n in target.dims])

    @property
    def mats(self) -> list:
        """A dense copy of each degree's matrix, built on every access."""
        return [_dense(m, n, self.field) for m, n in zip(self.nonzero_rows, self.source.dims)]

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other."""
        if other.target.dims != self.source.dims:
            raise ValueError("composition shape mismatch")
        _check_pair(self.source, other.source)
        rows = [
            [r.items() for r in _product(a, b, self.field)]
            for a, b in zip(self.nonzero_rows, other.nonzero_rows)
        ]
        return GradedLinearMap.from_rows(other.source, self.target, rows)

    def is_identity(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        return all(r == [(i, 1)] for m in self.nonzero_rows for i, r in enumerate(m))

    def __eq__(self, other):
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        return (
            self.source.dims == other.source.dims
            and self.target.dims == other.target.dims
            and self.nonzero_rows == other.nonzero_rows
        )

    def rank_kernel(self):
        """Per-degree (rank, kernel dimension, kernel basis vectors)."""
        out = []
        for m, nc in zip(self.nonzero_rows, self.source.dims):
            kb = _kernel(m, nc, self.field)
            out.append((nc - len(kb), len(kb), kb))
        return out

    def __repr__(self):
        return f"GradedLinearMap({self.source.dims} -> {self.target.dims})"


def _tensor_basis(spaces: list[GradedVectorSpace]):
    """The tensor product of the spaces in the given order, and its basis:
    per degree, tuples of (factor degree, factor index), one per factor.

    The order is that of the left fold: the degree-d basis of (A B) C lists
    the degree-e basis of A B times the degree-(d-e) basis of C, for e
    ascending.  Labels are the concatenated factor labels.
    """
    if not spaces:
        raise ValueError("tensor of an empty list: pass [GradedVectorSpace.unit(...)]")
    first = spaces[0]
    for s in spaces[1:]:
        _check_pair(first, s)
    D = first.truncation
    # (basis tuple, label) pairs per degree
    acc = [[(((d, i),), l) for i, l in enumerate(ls)] for d, ls in enumerate(first.labels)]
    for s in spaces[1:]:
        acc = [
            [
                (b + ((d - e, j),), l + m)
                for e in range(d + 1)
                for b, l in acc[e]
                for j, m in enumerate(s.labels[d - e])
            ]
            for d in range(D + 1)
        ]
    space = GradedVectorSpace(first.field, [len(bs) for bs in acc], [[l for _, l in bs] for bs in acc])
    return space, [[b for b, _ in bs] for bs in acc]


def tensor_collection(spaces: list[GradedVectorSpace]) -> GradedVectorSpace:
    """Tensor product in the given order, with the basis of ``_tensor_basis``."""
    return _tensor_basis(spaces)[0]


def tensor_maps(maps: list[GradedLinearMap]) -> GradedLinearMap:
    """Tensor product of maps, in the bases of ``tensor_collection``: the row
    of a basis tuple is the product of its factors' rows."""
    if not maps:
        raise ValueError("tensor of an empty list of maps")
    src, src_basis = _tensor_basis([f.source for f in maps])
    tgt, tgt_basis = _tensor_basis([f.target for f in maps])
    out = []
    for rows, cols in zip(tgt_basis, src_basis):
        index = {b: k for k, b in enumerate(cols)}
        m = [[] for _ in rows]
        for row, b in zip(m, rows):
            # most factors are identities, so units are skipped rather than
            # multiplied; from_rows makes each product a field element
            for parts in product(*[f.nonzero_rows[e][i] for f, (e, i) in zip(maps, b)]):
                col = index[tuple((e, j) for (e, _), (j, _) in zip(b, parts))]
                row.append((col, prod(v for _, v in parts if v != 1)))
        out.append(m)
    return GradedLinearMap.from_rows(src, tgt, out)


def truncated_polynomial(name: str, gen_degree: int, D: int, field: FieldSpec = QQ):
    """Truncated polynomial algebra on one generator of the given degree,
    together with its augmentation onto the unit space.

    Returns (space, augmentation).
    """
    if gen_degree < 1:
        raise ValueError("generator degree must be >= 1")
    dims = [1 if d % gen_degree == 0 else 0 for d in range(D + 1)]
    labels = []
    for d in range(D + 1):
        if d % gen_degree == 0:
            k = d // gen_degree
            labels.append(((f"{name}^{k}" if k else "1"),))
        else:
            labels.append(())
    space = GradedVectorSpace(field, dims, [tuple((l,) for l in ls) if ls else () for ls in labels])
    unit = GradedVectorSpace.unit(field, D)
    aug = GradedLinearMap.from_rows(space, unit, [[[(0, 1)]]] + [[] for _ in range(D)])
    return space, aug


def find_section(a: GradedLinearMap) -> GradedLinearMap | None:
    """A right inverse s with a . s = id, degree by degree, or None."""
    rows = []
    for m, n, A in zip(a.source.dims, a.target.dims, a.nonzero_rows):
        X = _solve([r + [(m + i, 1)] for i, r in enumerate(A)], m, n, a.field)
        if X is None:
            return None
        rows.append(X)
    return GradedLinearMap.from_rows(a.target, a.source, rows)
