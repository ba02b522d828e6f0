"""Tensor-product diagrams attached to vertex collections.

A collection assigns to every vertex v a map a_v: M_v -> N_v of graded
vector spaces.  The induced diagram T places at each object x the tensor
product over all vertices, taking the M factor on vertices below x and the
N factor elsewhere; structure maps apply a_v on the vertices that drop out
and identities everywhere else.

Higher limits of T have two routes.  The direct route builds T and the
cochain complex of its chains (``build_T`` then ``higher_limits``).  The
split route uses that over a field every a_v is the sum of three maps:
K_v -> 0, I_v = I_v and 0 -> C_v, with K_v = ker a_v, I_v its image and
C_v its cokernel.  Expanding the tensor products, T is a sum over pairs of
disjoint vertex sets S (the support) and Q (the cokernel set) of

    W_{S,Q} = (tensor of K_v, v in S) (x) (tensor of C_v, v in Q)
              (x) (tensor of I_v, v in neither),

placed with identity maps on U_S minus B, where U_S = {x : S <= V(x)} and
B = {x in U_S : V(x) meets Q} are up-sets.  The chains of the limit's
cochain complex that carry such a summand are the strict chains of U_S
whose bottom lies outside B, so

    lim^n T = sum over (S, Q) of W_{S,Q} (x) H^n(Delta(U_S), Delta(B); k),

the poset form of Hochster's formula (Hochster 1977; Bahri, Bendersky,
Cohen and Gitler 2010) when every a_v is onto and every Q is empty.  Only
graded dimensions enter: the ranks of the a_v give the Hilbert series of K,
I and C, and the relative Betti numbers come from the chains of the pairs.
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
from .poset import PointedPoset, chains, reduce_poset, support_walk
from .spaces import _betti


class MorphismCollection:
    """Vertex-indexed maps a_v: M_v -> N_v over a common field and
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
        """Truncated polynomial algebra on each vertex, mapping onto the
        unit; every vertex shares one map."""
        _, aug = truncated_polynomial(gen_degree, D, field)
        return cls(dict.fromkeys(vertices, aug), field=field, truncation=D)

    def source(self, v) -> GradedVectorSpace:
        return self.maps[v].source

    def target(self, v) -> GradedVectorSpace:
        return self.maps[v].target

    def section_maps(self) -> dict:
        """A right inverse for every a_v, found degree by degree; raises
        MissingSection when none exists."""
        out = {}
        for v in sorted(self.maps, key=str):
            s = find_section(self.maps[v])
            if s is None:
                raise MissingSection(f"no section exists at vertex {v!r}")
            out[v] = s
        return out


def _check_index(P: PointedPoset, collection: MorphismCollection):
    """Raise ``IndexMismatch`` unless the collection is indexed by the
    vertices of P."""
    if set(collection.maps) != set(P.vertices):
        raise IndexMismatch(
            f"collection is indexed by {sorted(map(str, collection.maps))}, "
            f"poset vertices are {sorted(map(str, P.vertices))}"
        )


def _cover_tensor(P: PointedPoset, collection: MorphismCollection, x, y, grown: dict) -> GradedLinearMap:
    """The tensor over the vertices of the identity on V(x), ``grown[v]`` on
    V(y) minus V(x), and the identity elsewhere."""
    vx, vy = P.vertex_set(x), P.vertex_set(y)
    factors = []
    for v in P.vertices:
        if v in vx:
            factors.append(GradedLinearMap.identity(collection.source(v)))
        elif v in vy:
            factors.append(grown[v])
        else:
            factors.append(GradedLinearMap.identity(collection.target(v)))
    return tensor_maps(factors)


def build_T(P: PointedPoset, collection: MorphismCollection) -> PosetDiagram:
    """The tensor diagram of the collection over the poset, its factors in
    vertex order."""
    _check_index(P, collection)
    unit = GradedVectorSpace.unit(collection.field, collection.truncation)
    spaces = {}
    for x in P.objects:
        vx = P.vertex_set(x)
        factors = [collection.source(v) if v in vx else collection.target(v) for v in P.vertices]
        spaces[x] = tensor_collection(factors) if factors else unit
    cover_maps = {(x, y): _cover_tensor(P, collection, x, y, collection.maps) for x, y in P.covers}
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
        up = _cover_tensor(P, collection, x, y, sv)
        if not diagram.cover_maps[(x, y)].compose(up).is_identity():
            raise AssertionError(f"section on cover ({x}, {y}) fails to split the structure map")
        out[(x, y)] = up
    return out


@dataclass(frozen=True)
class SplitTerm:
    """One summand W_{S,Q} (x) H^*(Delta(U_S), Delta(B)) of the split route.

    ``support`` is S and ``cokernel`` is Q, both in vertex order, ``dims``
    the graded dimensions of W_{S,Q} through the truncation and ``betti``
    the dimensions of H^n(Delta(U_S), Delta(B)) per level, trimmed like
    ``higher_limits``.
    """

    support: tuple
    dims: tuple[int, ...]
    betti: tuple[int, ...]
    cokernel: tuple = ()


@dataclass(frozen=True)
class TensorLimits:
    """Higher limits of a tensor diagram with the summands that gave them.

    ``terms`` holds every summand of the split route with W_{S,Q} != 0 and
    non-zero relative cohomology.  ``direct`` holds the direct route's
    answer when ``check_route`` asked for it, else None.
    """

    limits: list[tuple[int, ...]]
    terms: tuple[SplitTerm, ...]
    direct: list[tuple[int, ...]] | None = None

    @property
    def routes_agree(self) -> bool | None:
        """Whether the direct route gave ``limits``; None when it was not run."""
        return None if self.direct is None else self.direct == self.limits

    def non_acyclic_terms(self) -> list[SplitTerm]:
        """The summands whose pair (Delta(U_S), Delta(B)) does not have the
        cohomology of a point in the levels computed; every class of lim^n
        with n >= 1 comes from one of them."""
        return [t for t in self.terms if t.betti != _CONE]


_CONE = (1,)


def _relative_betti(P: PointedPoset, up, below, field: FieldSpec) -> tuple[int, ...]:
    """The Betti numbers of the pair (Delta(U), Delta(B)) of the objects
    ``up`` and an up-set ``below`` inside them, per level, trimmed like
    ``higher_limits``.  Over a field the cohomology of the pair has the same
    Betti numbers as its homology.

    When U has one minimal object, Delta(U) is a cone, so H^n(U, B) is the
    reduced H^(n-1)(B): those of a point when B is empty, and otherwise
    those of B alone, by this same routine with nothing below.

    Otherwise the pair first loses beat points (``PointedPoset.core``):
    every up beat point of U, and every down beat point x of U unless x is
    in B and its one lower cover c is not.  Each removal keeps the relative
    homology, by the five lemma on the two long exact sequences, because
    x is a beat point of B too whenever it is in B.  An up beat point x in B
    has all of U above x inside B, as B is an up-set, so its one upper
    cover in U is one in B; a down beat point x in B with c in B has the
    objects of B below x all at most c.  Both Delta(U minus x) and
    Delta(B minus x) are thus deformation retracts, and B minus x is still
    an up-set of U minus x.  With nothing below, as for B itself past the
    cone test, U reduces to its core, and a one-point core has the Betti
    numbers of a point with no chain ranked.

    The rest come from the chains of the reduced U whose bottom lies outside
    the reduced B, with the signed deletion faces that stay outside B (only
    deleting the bottom can land in B), ranked by ``spaces._betti``.
    """
    if len(P.minimal(up)) == 1:
        if not below:
            return _CONE
        b = _relative_betti(P, below, frozenset(), field)
        betti = [0, b[0] - 1, *b[1:]]
    else:
        up = P.core(up, below)
        below = below & up
        if len(up) == 1:
            return (0,) if below else _CONE
        levels = chains(P, len(up), objects=up, bottoms=up - below)
        faces = lambda c: [(c[:i] + c[i + 1:], (-1) ** i) for i in range(len(c)) if i or c[1] not in below]
        betti = list(_betti(levels, faces, len(levels) - 1, field)) or [0]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def _split_terms(P: PointedPoset, collection: MorphismCollection) -> tuple[SplitTerm, ...]:
    """Every summand of the split with W_{S,Q} != 0 and non-zero relative
    cohomology.

    The ranks of the a_v give the Hilbert series of I_v, K_v and C_v, and
    ``support_walk`` the pairs (S, Q) in vertex order, with the up-sets
    U_S and B that key the memo of their Betti numbers.  On a miss
    ``_relative_betti`` gives them; a single minimal object of U_S and B
    empty, the common case, give those of a point.
    """
    _check_index(P, collection)
    field, D = collection.field, collection.truncation
    I, K, C = {}, {}, {}
    for v in P.vertices:
        a = collection.maps[v]
        I[v] = tuple(rank(a.nonzero_rows[d], a.source.dims[d], field) for d in range(D + 1))
        K[v] = tuple(m - r for m, r in zip(a.source.dims, I[v]))
        C[v] = tuple(n - r for n, r in zip(a.target.dims, I[v]))
    betti_of: dict = {}
    terms = []
    for support, cokernel, dims, up, below in support_walk(P, I, K, D, C):
        betti = betti_of.get((up, below))
        if betti is None:
            betti = betti_of[up, below] = _relative_betti(P, up, below, field)
        if any(betti):
            terms.append(SplitTerm(support, dims, betti, cokernel))
    return tuple(terms)


def tensor_limits(P: PointedPoset, collection: MorphismCollection, check_route: bool = False) -> TensorLimits:
    """Higher limits of the tensor diagram, per level and internal degree,
    with the summands of the split route that gave them.

    The answer has the shape and trimming of ``higher_limits``.  With
    ``check_route`` the direct route also builds the diagram and its
    cochain complex, and ``direct`` and ``routes_agree`` report the
    comparison.
    """
    terms = _split_terms(P, collection)
    # every W_{S,Q} is non-zero and every Betti list ends non-zero, so the
    # sum needs no trimming
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
        rows = [
            [[(i, 1)] + [(j, rng.randrange(-2, 3)) for j in range(n, m)] for i in range(n)]
            for n, m in zip(n_dims, m_dims)
        ]
        maps[v] = GradedLinearMap(M, N, rows)
    return MorphismCollection(maps, field=field, truncation=D)
