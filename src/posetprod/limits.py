"""Diagrams of graded vector spaces over a pointed poset and their higher
limits.

A diagram assigns a graded vector space to every object and a structure map
F(y) -> F(x) to every cover x < y, so values restrict downward.  Higher
limits are computed from the cochain complex on strictly increasing chains

    C^n = sum over (x_0 < ... < x_n) of F(x_0)

with differential: face 0 pushes along F(x_1) -> F(x_0), face k >= 1 deletes
x_k with sign (-1)^k.  A variant over weakly increasing chains computes the
same cohomology and serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionFailed, UnknownObject
from .linalg import (
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    _product,
    rank,
)
from .poset import PointedPoset, chains


class PosetDiagram:
    """Graded vector spaces indexed by the objects, with downward structure
    maps given on covers and composed along cover paths elsewhere."""

    def __init__(self, poset: PointedPoset, spaces: dict, cover_maps: dict):
        self.poset = poset
        self.spaces = dict(spaces)
        self.cover_maps = {tuple(k): v for k, v in cover_maps.items()}
        missing = set(poset.objects) - set(self.spaces)
        if missing:
            raise PreconditionFailed(f"no space for objects {sorted(missing)}")
        self.field = self.spaces[poset.base].field
        self.truncation = self.spaces[poset.base].truncation

    @classmethod
    def constant(cls, poset: PointedPoset, space: GradedVectorSpace) -> "PosetDiagram":
        spaces = {x: space for x in poset.objects}
        maps = {(x, y): GradedLinearMap.identity(space) for x, y in poset.covers}
        return cls(poset, spaces, maps)

    @classmethod
    def indicator(cls, poset: PointedPoset, generators, field: FieldSpec = QQ, D: int = 0) -> "PosetDiagram":
        """Unit space on the up-set generated by ``generators``, zero below;
        identity maps inside the up-set."""
        up: set = set()
        for g in generators:
            if g not in poset.objects:
                raise UnknownObject(f"up-set generator {g!r} is not an object")
            up |= poset.up_set(g)
        unit = GradedVectorSpace.unit(field, D)
        zero = GradedVectorSpace.zero_space(field, D)
        spaces = {x: (unit if x in up else zero) for x in poset.objects}
        maps = {}
        for x, y in poset.covers:
            if x in up and y in up:
                maps[(x, y)] = GradedLinearMap.identity(unit)
            else:
                maps[(x, y)] = GradedLinearMap.zero(spaces[y], spaces[x])
        return cls(poset, spaces, maps)

    def composite(self, x, y) -> GradedLinearMap:
        """The structure map F(y) -> F(x) for x <= y, composed along a fixed
        cover path (smallest next object first).

        The path starts with the cover map below y and continues with the
        composite of the rest of the path.  The result may be a cover map
        of the diagram itself: do not mutate it.
        """
        return self._composite(x, y, {})

    def _composite(self, x, y, memo: dict) -> GradedLinearMap:
        # memo maps (x, y) to its composite; cochain_complex keeps one per call
        key = (x, y)
        if key in memo:
            return memo[key]
        if not self.poset.leq(x, y):
            raise PreconditionFailed(f"{x!r} is not below {y!r}")
        if x == y:
            acc = GradedLinearMap.identity(self.spaces[y])
        else:
            # the lower covers come in str order
            nxt = next(u for u in self.poset.lower_covers(y) if self.poset.leq(x, u))
            acc = self.cover_maps[(nxt, y)]
            if nxt != x:
                acc = self._composite(x, nxt, memo).compose(acc)
        memo[key] = acc
        return acc


def check_diagram(diagram: PosetDiagram) -> list[str]:
    """Shape, field and commutativity problems, as human-readable strings."""
    problems = []
    P = diagram.poset
    covers = set(P.covers)
    keys = set(diagram.cover_maps)
    for k in sorted(keys - covers, key=str):
        problems.append(f"map on non-cover pair {k}")
    for k in sorted(covers - keys, key=str):
        problems.append(f"missing map on cover {k}")
    for (x, y) in sorted(covers & keys, key=str):
        f = diagram.cover_maps[(x, y)]
        if f.source.dims != diagram.spaces[y].dims or f.target.dims != diagram.spaces[x].dims:
            problems.append(f"map on cover ({x}, {y}) has wrong shape")
        if f.field != diagram.field:
            problems.append(f"map on cover ({x}, {y}) uses field {f.field}")
    if problems:
        return problems

    def all_paths(x, y):
        # every composite along maximal cover chains from y down to x
        if x == y:
            return [GradedLinearMap.identity(diagram.spaces[y])]
        out = []
        for u in P.lower_covers(y):
            if P.leq(x, u):
                for tail in all_paths(x, u):
                    out.append(tail.compose(diagram.cover_maps[(u, y)]))
        return out

    for x in P.objects:
        for y in P.objects:
            if x != y and P.lt(x, y):
                paths = all_paths(x, y)
                if any(p != paths[0] for p in paths[1:]):
                    problems.append(f"composites from {y} to {x} disagree")
    return problems


@dataclass
class CochainComplex:
    """Chain bases, per-level graded spaces, and the differentials
    delta[n]: C^n -> C^(n+1)."""

    chains: list
    spaces: list
    deltas: list


def cochain_complex(
    diagram: PosetDiagram,
    objects=None,
    weak: bool = False,
    max_n: int | None = None,
) -> CochainComplex:
    """Build the chain-indexed cochain complex of the diagram.

    ``objects`` restricts the chains to a subset of the poset (the order is
    inherited); by default all objects are used, and one outside the poset
    raises ``UnknownObject``.  ``max_n`` caps the levels and must be at
    least 0; for strict chains the complex stops by itself at the longest
    chain, and weak chains need it.  The
    chains come from ``poset.chains``, sorted within each level.

    Each structure map F(x_1) -> F(x_0) is composed once per pair and kept
    for the rest of the call.  Every row of a differential is summed in a
    dict from the composite's rows (face 0) and the signed identity
    diagonals of the face deletions, and stored as sparse rows; no dense
    matrix is built.  The sparse product of consecutive differentials must
    vanish.
    """
    P = diagram.poset
    field = diagram.field
    D = diagram.truncation
    if max_n is None and weak:
        raise PreconditionFailed("weak chains need an explicit max_n")
    if max_n is not None and max_n < 0:
        raise PreconditionFailed(f"max_n must be >= 0, got {max_n}")
    # a strict chain has at most len(P.objects) objects, so level len(P.objects) is empty
    top = len(P.objects) if max_n is None else max_n + 1
    levels = [sorted(level) for level in chains(P, top, weak, objects)]

    spaces = []
    offsets = []
    for cs in levels:
        dims = [0] * (D + 1)
        labels = [[] for _ in range(D + 1)]
        offs = {}
        for c in cs:
            F = diagram.spaces[c[0]]
            offs[c] = tuple(dims)
            tag = ">".join(str(x) for x in c)
            for d in range(D + 1):
                dims[d] += F.dims[d]
                labels[d].extend((tag,) + l for l in F.labels[d])
        spaces.append(GradedVectorSpace(field, dims, [tuple(ls) for ls in labels]))
        offsets.append(offs)

    composites: dict = {}
    one = field.one()
    minus_one = field.neg(one)
    deltas = []
    for n in range(len(levels) - 1):
        rows = [[] for _ in range(D + 1)]
        for c in levels[n + 1]:
            # per degree, one {column: value} per row of chain c; distinct
            # faces of a weak chain can coincide, so values add up and
            # from_rows drops those that cancel
            accs = [[{} for _ in range(m)] for m in diagram.spaces[c[0]].dims]
            for k in range(len(c)):
                coffs = offsets[n].get(c[:k] + c[k + 1:])
                if coffs is None:
                    continue
                if k == 0:
                    f = diagram._composite(c[0], c[1], composites)
                    for acc_d, nz_rows, c0 in zip(accs, f.nonzero_rows, coffs):
                        for acc, nz in zip(acc_d, nz_rows):
                            for j, v in nz:
                                acc[c0 + j] = acc.get(c0 + j, 0) + v
                else:
                    sign = one if k % 2 == 0 else minus_one
                    for acc_d, c0 in zip(accs, coffs):
                        for i, acc in enumerate(acc_d, c0):
                            acc[i] = acc.get(i, 0) + sign
            for block, acc_d in zip(rows, accs):
                block.extend(acc.items() for acc in acc_d)
        deltas.append(GradedLinearMap.from_rows(spaces[n], spaces[n + 1], rows))

    for a, b in zip(deltas, deltas[1:]):
        if any(any(_product(bd, ad, field)) for ad, bd in zip(a.nonzero_rows, b.nonzero_rows)):
            raise AssertionError("differential does not square to zero")
    return CochainComplex(levels, spaces, deltas)


def higher_limits(
    diagram: PosetDiagram,
    objects=None,
    weak: bool = False,
    max_n: int | None = None,
) -> list[tuple[int, ...]]:
    """Per-level, per-internal-degree dimensions of the higher limits.

    Entry n is a tuple of length D+1 giving dim lim^n in each internal
    degree; trailing all-zero levels are trimmed (level 0 always kept).
    """
    cx = cochain_complex(diagram, objects=objects, weak=weak, max_n=max_n)
    D = diagram.truncation
    want = len(cx.deltas) if weak else len(cx.spaces)
    if max_n is not None:
        want = min(want, max_n + 1)
    ranks = []
    for dl in cx.deltas:
        ranks.append([rank(dl.nonzero_rows[d], dl.source.dims[d], diagram.field) for d in range(D + 1)])
    out = []
    for n in range(want):
        dims = []
        for d in range(D + 1):
            total = cx.spaces[n].dims[d] if n < len(cx.spaces) else 0
            r_out = ranks[n][d] if n < len(ranks) else 0
            r_in = ranks[n - 1][d] if n >= 1 else 0
            dims.append(total - r_out - r_in)
        out.append(tuple(dims))
    while len(out) > 1 and all(v == 0 for v in out[-1]):
        out.pop()
    return out


def lim0_basis(diagram: PosetDiagram):
    """Kernel of the first differential with labeled coordinates.

    Returns a list over internal degrees of (labels, basis vectors).
    """
    cx = cochain_complex(diagram)
    out = []
    if not cx.deltas:
        for d in range(diagram.truncation + 1):
            n = cx.spaces[0].dims[d]
            vecs = [[diagram.field.one() if j == i else diagram.field.zero() for j in range(n)] for i in range(n)]
            out.append((cx.spaces[0].labels[d], vecs))
        return out
    rk = cx.deltas[0].rank_kernel()
    for d, (_, _, kb) in enumerate(rk):
        out.append((cx.spaces[0].labels[d], kb))
    return out
