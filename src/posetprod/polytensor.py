"""Tensor-product diagrams attached to vertex collections.

A collection assigns to every vertex v a surjection a_v: M_v -> N_v of
graded vector spaces.  The induced diagram places at each object x the
tensor product over all vertices, taking the M factor on vertices below x
and the N factor elsewhere; structure maps apply a_v on the vertices that
drop out and identities everywhere else.
"""

from __future__ import annotations

from .errors import IndexMismatch, MissingSection, PreconditionFailed
from .limits import PosetDiagram, higher_limits
from .linalg import (
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    find_section,
    tensor_collection,
    tensor_maps,
    truncated_polynomial,
)
from .poset import PointedPoset, reduce_poset


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
        unit (the cohomology of a circle restricted to a point)."""
        if D < 1:
            raise PreconditionFailed("circle collections need truncation >= 1")
        maps = {}
        unit = GradedVectorSpace.unit(field, D)
        for v in vertices:
            dims = (1, 1) + (0,) * (D - 1)
            labels = ((("1",),), ((f"u_{v}",),)) + ((),) * (D - 1)
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
    if collection.maps and set(collection.maps) != verts:
        raise IndexMismatch(
            f"collection is indexed by {sorted(map(str, collection.maps))}, "
            f"poset vertices are {sorted(map(str, verts))}"
        )
    if vertex_order is None:
        return sorted(verts, key=str)
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


def build_section_S(
    P: PointedPoset,
    collection: MorphismCollection,
    diagram: PosetDiagram | None = None,
    sections: dict | None = None,
    vertex_order=None,
) -> dict:
    """Upward maps S(x -> y): T(x) -> T(y) on covers, splitting the diagram.

    Built from vertex sections s_v; the composite T(y -> x) . S(x -> y) is
    checked to be the identity on every cover.
    """
    order = _vertex_order(P, collection, vertex_order)
    if diagram is None:
        diagram = build_T(P, collection, vertex_order=vertex_order)
    sv = collection.section_maps(sections)
    out = {}
    for x, y in P.covers:
        up = _cover_tensor(P, collection, order, x, y, sv)
        if not diagram.cover_maps[(x, y)].compose(up).is_identity():
            raise AssertionError(f"section on cover ({x}, {y}) fails to split the structure map")
        out[(x, y)] = up
    return out


def polyhedral_tensor(
    P: PointedPoset,
    collection: MorphismCollection,
    weak: bool = False,
    max_n: int | None = None,
) -> list[tuple[int, ...]]:
    """Higher limits of the tensor diagram, per level and internal degree."""
    return higher_limits(build_T(P, collection), weak=weak, max_n=max_n)


def reduction_invariance(P: PointedPoset, collection: MorphismCollection):
    """Compare the higher limits over P and over its reduction.

    Returns (lims, lims_reduced, equal).  Reduction keeps the vertices, so
    the same collection applies on both sides.
    """
    lims = polyhedral_tensor(P, collection)
    R, _ = reduce_poset(P)
    lims_r = polyhedral_tensor(R, collection)
    n = max(len(lims), len(lims_r))
    zero = (0,) * (collection.truncation + 1)
    pad = lambda l: l + [zero] * (n - len(l))
    return lims, lims_r, pad(list(lims)) == pad(list(lims_r))


def random_surjective_collection(rng, vertices, D: int, field: FieldSpec = QQ, max_extra: int = 1) -> MorphismCollection:
    """Sampler of small surjective collections; each map is an identity block
    next to a random block, so a section always exists."""
    maps = {}
    for v in vertices:
        n_dims = [1] + [rng.randrange(0, 2) for _ in range(D)]
        m_dims = [n + rng.randrange(0, max_extra + 1) for n in n_dims]
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
