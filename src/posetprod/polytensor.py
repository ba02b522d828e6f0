"""Tensor-product diagrams attached to vertex collections.

A collection assigns to every vertex v a surjection a_v: M_v -> N_v of
graded vector spaces.  The induced diagram T places at each object x the
tensor product over all vertices, taking the M factor on vertices below x
and the N factor elsewhere; structure maps apply a_v on the vertices that
drop out and identities everywhere else.

Higher limits of T have two routes.  The direct route builds T and the
cochain complex of its chains (``build_T`` then ``higher_limits``).  The
split route uses that every a_v, when surjective in every degree, splits
as M_v = N_v + K_v with K_v = ker a_v.  Then T is a sum over supports S of
W_S = (tensor of K_v, v in S) (x) (tensor of N_v, v not in S) placed on the
up-set U_S = {x : S <= V(x)} with identity maps, so

    lim^n T = sum over S of W_S (x) H^n(Delta(U_S); k),

the poset form of Hochster's formula (Hochster 1977; Bahri, Bendersky,
Cohen and Gitler 2010).  Only graded dimensions enter: Hilbert series of
the W_S times Betti numbers of the order complexes Delta(U_S).  No section
map is needed, only surjectivity, which is checked by rank; when some a_v
is not surjective the split does not hold and the direct route answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexMismatch, MissingSection, PreconditionFailed
from .limits import PosetDiagram, higher_limits
from .linalg import (
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    find_section,
    rank,
    tensor_collection,
    tensor_maps,
    truncated_polynomial,
)
from .poset import PointedPoset, reduce_poset, support_walk


class MorphismCollection:
    """Vertex-indexed surjections a_v: M_v -> N_v over a common field and
    truncation."""

    def __init__(self, maps: dict, field: FieldSpec | None = None, truncation: int | None = None):
        self.maps = dict(maps)
        if self.maps:
            first = next(iter(sorted(self.maps, key=str)))
            self.field = self.maps[first].field
            self.truncation = self.maps[first].source.truncation
            for v, a in self.maps.items():
                if a.field != self.field or a.source.truncation != self.truncation:
                    raise IndexMismatch(f"collection entry {v!r} uses a different field or truncation")
        else:
            if field is None or truncation is None:
                raise PreconditionFailed("empty collection needs explicit field and truncation")
            self.field = field
            self.truncation = truncation

    @classmethod
    def augmentation(cls, vertices, D: int, gen_degree: int = 1, field: FieldSpec = QQ) -> "MorphismCollection":
        """Truncated polynomial algebra on each vertex, mapping onto the unit."""
        maps = {}
        for v in vertices:
            _, aug = truncated_polynomial(str(v), gen_degree, D, field)
            maps[v] = aug
        return cls(maps, field=field, truncation=D)

    @classmethod
    def circle(cls, vertices, D: int, field: FieldSpec = QQ) -> "MorphismCollection":
        """One exterior generator of degree 1 per vertex, mapping onto the
        unit (the cohomology of a circle restricted to a point), truncated
        at degree D; at D = 0 both sides are the unit."""
        maps = {}
        unit = GradedVectorSpace.unit(field, D)
        for v in vertices:
            dims = ((1, 1) + (0,) * D)[: D + 1]
            labels = (((("1",),), ((f"u_{v}",),)) + ((),) * D)[: D + 1]
            M = GradedVectorSpace(field, dims, labels)
            mats = [[[1]]] + [[] for _ in range(D)]
            maps[v] = GradedLinearMap(M, unit, mats)
        return cls(maps, field=field, truncation=D)

    def source(self, v) -> GradedVectorSpace:
        return self.maps[v].source

    def target(self, v) -> GradedVectorSpace:
        return self.maps[v].target

    def section_maps(self, provided: dict | None = None) -> dict:
        """A right inverse for every a_v, found degree by degree unless
        supplied; raises MissingSection when none exists."""
        out = {}
        for v in sorted(self.maps, key=str):
            if provided and v in provided:
                s = provided[v]
                if not self.maps[v].compose(s).is_identity():
                    raise MissingSection(f"supplied section at {v!r} is not a right inverse")
            else:
                s = find_section(self.maps[v])
                if s is None:
                    raise MissingSection(f"no section exists at vertex {v!r}")
            out[v] = s
        return out


def _vertex_order(P: PointedPoset, collection: MorphismCollection, vertex_order=None):
    verts = set(P.vertices)
    if set(collection.maps) != verts:
        raise IndexMismatch(
            f"collection is indexed by {sorted(map(str, collection.maps))}, "
            f"poset vertices are {sorted(map(str, verts))}"
        )
    if vertex_order is None:
        return P.vertices
    order = list(vertex_order)
    if set(order) != verts or len(order) != len(verts):
        raise IndexMismatch("vertex_order must enumerate each vertex exactly once")
    return order


def _cover_tensor(
    P: PointedPoset, collection: MorphismCollection, order, x, y, grown: dict
) -> GradedLinearMap:
    """The tensor over the vertices in ``order`` of the identity on V(x),
    ``grown[v]`` on V(y) minus V(x), and the identity elsewhere."""
    vx, vy = P.vertex_set(x), P.vertex_set(y)
    factors = []
    for v in order:
        if v in vx:
            factors.append(GradedLinearMap.identity(collection.source(v)))
        elif v in vy:
            factors.append(grown[v])
        else:
            factors.append(GradedLinearMap.identity(collection.target(v)))
    if not factors:
        return GradedLinearMap.identity(GradedVectorSpace.unit(collection.field, collection.truncation))
    return tensor_maps(factors)


def build_T(P: PointedPoset, collection: MorphismCollection, vertex_order=None) -> PosetDiagram:
    """The tensor diagram of the collection over the poset."""
    order = _vertex_order(P, collection, vertex_order)
    unit = GradedVectorSpace.unit(collection.field, collection.truncation)
    spaces = {}
    for x in P.objects:
        vx = P.vertex_set(x)
        factors = [collection.source(v) if v in vx else collection.target(v) for v in order]
        spaces[x] = tensor_collection(factors) if factors else unit
    cover_maps = {(x, y): _cover_tensor(P, collection, order, x, y, collection.maps) for x, y in P.covers}
    return PosetDiagram(P, spaces, cover_maps)


def build_section_S(P: PointedPoset, collection: MorphismCollection) -> dict:
    """Upward maps S(x -> y): T(x) -> T(y) on covers, splitting the diagram.

    Built from vertex sections s_v; the composite T(y -> x) . S(x -> y) is
    checked to be the identity on every cover.
    """
    diagram = build_T(P, collection)
    sv = collection.section_maps()
    out = {}
    for x, y in P.covers:
        up = _cover_tensor(P, collection, P.vertices, x, y, sv)
        if not diagram.cover_maps[(x, y)].compose(up).is_identity():
            raise AssertionError(f"section on cover ({x}, {y}) fails to split the structure map")
        out[(x, y)] = up
    return out


@dataclass(frozen=True)
class SplitTerm:
    """One summand W_S (x) H^*(Delta(U_S)) of the split route.

    ``support`` is S in vertex order, ``dims`` the graded dimensions of W_S
    through the truncation and ``betti`` the dimensions of H^n(Delta(U_S))
    per level, trimmed like ``higher_limits``.
    """

    support: tuple
    dims: tuple[int, ...]
    betti: tuple[int, ...]


@dataclass(frozen=True)
class TensorLimits:
    """Higher limits of a tensor diagram with the summands that gave them.

    ``terms`` holds every summand with W_S != 0 when the split route
    answered, and is None when the direct route did.  ``direct`` holds the
    direct route's answer when ``check_route`` asked for it, else None.
    """

    limits: list[tuple[int, ...]]
    terms: tuple[SplitTerm, ...] | None
    direct: list[tuple[int, ...]] | None = None

    @property
    def routes_agree(self) -> bool | None:
        """Whether the direct route gave ``limits``; None when it was not run."""
        return None if self.direct is None else self.direct == self.limits

    def non_acyclic_terms(self) -> list[SplitTerm]:
        """The summands whose Delta(U_S) has reduced cohomology in the levels
        computed; every class of lim^n with n >= 1 comes from one of them."""
        return [t for t in self.terms or () if t.betti != _CONE]


_CONE = (1,)


def _split_terms(P: PointedPoset, collection: MorphismCollection):
    """Every summand of the split with W_S != 0, or None when some a_v is
    not surjective.

    The supports come from ``support_walk`` on the Hilbert series N_v and
    K_v = ker a_v, in vertex order.  Betti numbers are memoized by the
    minimal objects of U_S; a single minimal object makes Delta(U_S) a
    cone.
    """
    order = _vertex_order(P, collection)
    field, D = collection.field, collection.truncation
    N, K = {}, {}
    for v in order:
        a = collection.maps[v]
        if any(rank(a.nonzero_rows[d], a.source.dims[d], field) != a.target.dims[d] for d in range(D + 1)):
            return None
        N[v] = a.target.dims
        K[v] = tuple(m - n for m, n in zip(a.source.dims, a.target.dims))
    betti_of: dict = {}
    terms = []
    for support, dims, up in support_walk(P, order, N, K, D):
        minimal = P.minimal(up)
        if minimal not in betti_of:
            if len(minimal) == 1:
                betti_of[minimal] = _CONE
            else:
                # chains starting in the up-set stay in it; the rest carry zeros
                diagram = PosetDiagram.indicator(P, minimal, field, D=0)
                lims = higher_limits(diagram, objects=up)
                betti_of[minimal] = tuple(b for (b,) in lims)
        terms.append(SplitTerm(support, dims, betti_of[minimal]))
    return tuple(terms)


def tensor_limits(P: PointedPoset, collection: MorphismCollection, check_route: bool = False) -> TensorLimits:
    """Higher limits of the tensor diagram, per level and internal degree,
    with the summands of the split route when it answered.

    The split route sums W_S (x) H^n(Delta(U_S)) over the supports; when
    some a_v is not surjective the direct route builds the diagram and its
    cochain complex instead.  Both answers have the shape and trimming of
    ``higher_limits``.  With ``check_route`` the direct route also runs
    after the split, and ``direct`` and ``routes_agree`` report the
    comparison; when the direct route answered it is not run twice.
    """
    terms = _split_terms(P, collection)
    if terms is None:
        lims = higher_limits(build_T(P, collection))
        return TensorLimits(lims, None, lims if check_route else None)
    # every W_S is non-zero and every Betti list ends non-zero, so the sum
    # needs no trimming
    out = [[0] * (collection.truncation + 1) for _ in range(max([1] + [len(t.betti) for t in terms]))]
    for t in terms:
        for level, b in zip(out, t.betti):
            for d, w in enumerate(t.dims):
                level[d] += w * b
    direct = higher_limits(build_T(P, collection)) if check_route else None
    return TensorLimits([tuple(level) for level in out], terms, direct)


def polyhedral_tensor(P: PointedPoset, collection: MorphismCollection) -> list[tuple[int, ...]]:
    """Higher limits of the tensor diagram, per level and internal degree
    (see ``tensor_limits`` for the routes)."""
    return tensor_limits(P, collection).limits


def reduction_invariance(P: PointedPoset, collection: MorphismCollection, lims: list[tuple[int, ...]]):
    """Compare the higher limits ``lims`` over P, as ``tensor_limits`` gave
    them, with those over its reduction.

    Returns (lims, lims_reduced, equal).  Reduction keeps the vertices, so
    the same collection applies on both sides; when P is already reduced,
    the reduction is P itself and its limits are ``lims``.
    """
    R, _ = reduce_poset(P)
    lims_r = lims if R is P else polyhedral_tensor(R, collection)
    n = max(len(lims), len(lims_r))
    zero = (0,) * (collection.truncation + 1)
    pad = lambda l: l + [zero] * (n - len(l))
    return lims, lims_r, pad(list(lims)) == pad(list(lims_r))


def random_surjective_collection(rng, vertices, D: int, field: FieldSpec = QQ) -> MorphismCollection:
    """Sampler of small surjective collections; each map is an identity block
    next to a random block, so a section always exists."""
    maps = {}
    for v in vertices:
        n_dims = [1] + [rng.randrange(0, 2) for _ in range(D)]
        m_dims = [n + rng.randrange(0, 2) for n in n_dims]
        N = GradedVectorSpace(field, n_dims)
        M = GradedVectorSpace(field, m_dims)
        mats = []
        for n, m in zip(n_dims, m_dims):
            mat = [[0] * m for _ in range(n)]
            for i in range(n):
                mat[i][i] = 1
                for j in range(n, m):
                    mat[i][j] = rng.randrange(-2, 3)
            mats.append(mat)
        maps[v] = GradedLinearMap(M, N, mats)
    return MorphismCollection(maps, field=field, truncation=D)
