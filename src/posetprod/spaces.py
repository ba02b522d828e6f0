"""Finite simplicial sets, products, (homotopy) colimits and homology.

Simplices are pairs (core, word): a nondegenerate core plus a strictly
decreasing tuple of degeneracy indices applied to it, so every simplex has
one canonical name.  Faces and degeneracies push through the word with the
usual index shuffles.  Spaces hold their nondegenerate simplices (the cores)
only.  A simplex of a product is a tuple of factor simplices, and it is
degenerate exactly at the indices that all their words share
(Eilenberg-Zilber; May 1967), so products, colimits and homotopy colimits
list their cores directly and never enumerate a degenerate simplex.  Spaces
are truncated: cores live in dimensions up to n_max, and homology above
n_max - 1 is refused unless the space is marked complete (no cores could
exist higher up).  Homology ranks sparse coboundary rows, one per core,
level by level from low degree to high; a core that was a pivot column one
level down has its row cleared (never built), which leaves the rank as it
is (see ``homology``).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import combinations, product

from .errors import InsufficientTruncation, PreconditionFailed
from .linalg import QQ, FieldSpec, rank
from .poset import PointedPoset, chains


class FiniteSimplicialSet:
    """Cores with face tables; all other simplices are degeneracy words."""

    def __init__(self, cores: dict, faces: dict, n_max: int, complete: bool = False):
        self.cores = dict(cores)
        self.core_faces = {c: tuple(map(tuple, fs)) for c, fs in faces.items()}
        self.n_max = n_max
        self.complete = complete
        for c, d in self.cores.items():
            if d < 0 or d > n_max:
                raise PreconditionFailed(f"core {c!r} has dimension {d} outside 0..{n_max}")
            fs = self.core_faces.get(c, ())
            if d == 0:
                if fs:
                    raise PreconditionFailed(f"vertex {c!r} must not list faces")
            elif len(fs) != d + 1:
                raise PreconditionFailed(f"core {c!r} needs {d + 1} faces")
        self._check_identities()

    # -- basic simplex calculus -----------------------------------------

    def dim(self, simp) -> int:
        core, word = simp
        return self.cores[core] + len(word)

    def face(self, simp, i: int):
        core, word = simp
        n = self.dim(simp)
        if n == 0 or not 0 <= i <= n:
            raise IndexError(f"face {i} of a {n}-simplex")
        if not word:
            return self.core_faces[core][i]
        j, rest = word[0], (core, word[1:])
        if i < j:
            return self.degenerate(self.face(rest, i), j - 1)
        if i in (j, j + 1):
            return rest
        return self.degenerate(self.face(rest, i - 1), j)

    def degenerate(self, simp, i: int):
        core, word = simp
        n = self.dim(simp)
        if not 0 <= i <= n:
            raise IndexError(f"degeneracy {i} on a {n}-simplex")
        if not word or i > word[0]:
            return (core, (i,) + word)
        j, rest = word[0], (core, word[1:])
        # s_i s_j = s_(j+1) s_i for i <= j
        inner = self.degenerate(rest, i)
        return (inner[0], (j + 1,) + inner[1])

    @cached_property
    def _str_order(self) -> list:
        return sorted(self.cores, key=str)

    def simplices(self, n: int):
        """All simplices of dimension n, degenerate ones included."""
        out = []
        for c in self._str_order:
            k = n - self.cores[c]
            if k < 0:
                continue
            for idx in combinations(range(n - 1, -1, -1), k):
                out.append((c, idx))
        return out

    def nondegenerate(self, n: int):
        return [c for c in self._str_order if self.cores[c] == n]

    def _check_identities(self):
        for c, d in self.cores.items():
            if d < 2:
                continue
            # twice[j][i] = d_i d_j c; a face that is a core lists its faces already
            twice = [self.core_faces[f] if not w else [self.face((f, w), i) for i in range(d)]
                     for f, w in self.core_faces[c]]
            for j in range(d + 1):
                for i in range(j):
                    if twice[j][i] != twice[i][j - 1]:
                        raise PreconditionFailed(
                            f"face identity fails on core {c!r}: d_{i} d_{j} != d_{j-1} d_{i}"
                        )

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "complete": self.complete,
            "cores": {str(c): d for c, d in sorted(self.cores.items(), key=lambda kv: str(kv[0]))},
            "faces": {
                str(c): [[str(f[0]), list(f[1])] for f in fs]
                for c, fs in sorted(self.core_faces.items(), key=lambda kv: str(kv[0]))
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteSimplicialSet":
        cores = {c: int(d) for c, d in data["cores"].items()}
        faces = {
            c: tuple((f[0], tuple(int(j) for j in f[1])) for f in fs)
            for c, fs in data.get("faces", {}).items()
        }
        return cls(cores, faces, int(data["n_max"]), complete=bool(data.get("complete", False)))


class SimplicialMap:
    """Map determined by core images; degeneracy words transport along."""

    def __init__(self, source: FiniteSimplicialSet, target: FiniteSimplicialSet, on_cores: dict, check: bool = True):
        self.source = source
        self.target = target
        self.on_cores = dict(on_cores)
        if check:
            missing = set(source.cores) - set(self.on_cores)
            if missing:
                raise PreconditionFailed(f"no image for cores {sorted(map(str, missing))}")
            for c, d in source.cores.items():
                img = self.on_cores[c]
                if target.dim(img) != d:
                    raise PreconditionFailed(f"image of {c!r} has the wrong dimension")
                for i in range(d + 1):
                    if d > 0 and self.apply(source.face((c, ()), i)) != target.face(img, i):
                        raise PreconditionFailed(f"map does not commute with face {i} of {c!r}")

    def apply(self, simp):
        core, word = simp
        img = self.on_cores[core]
        for j in reversed(word):
            img = self.target.degenerate(img, j)
        return img


# -- canonical names: pure index shuffling, no face data needed -------------


def _peel(word, common):
    """What is left of ``word`` after d_j for every j in ``common`` (all
    letters of it), largest first."""
    return tuple(j - sum(c < j for c in common) for j in word if j not in common)


def _canonical(parts):
    """Canonical simplex of a product named by one same-dimensional simplex
    per factor: the indices in every factor's word are peeled off into the
    product's word, and what is left is a core."""
    common = set(parts[0][1]).intersection(*[w for _, w in parts[1:]])
    if not common:
        return (parts, ())
    return tuple((c, _peel(w, common)) for c, w in parts), tuple(sorted(common, reverse=True))


def _canonical_chain(chain, simp):
    """Canonical simplex of a homotopy colimit named by (chain, simplex): it
    is degenerate at i when the chain repeats there and i is in the word."""
    core, word = simp
    common = {j for j in word if chain[j] == chain[j + 1]}
    if not common:
        return ((chain, simp), ())
    kept = tuple(x for j, x in enumerate(chain) if j not in common)
    return (kept, (core, _peel(word, common))), tuple(sorted(common, reverse=True))


class _Express(Mapping):
    """Read-only map from every simplex that ``keys()`` lists to its
    canonical name ``value(key)``, computed on demand."""

    def __init__(self, keys, value):
        self._keys = keys
        self._value = value

    @cached_property
    def _keyset(self):
        return frozenset(self._keys())

    def __getitem__(self, key):
        if key not in self._keyset:
            raise KeyError(key)
        return self._value(key)

    def __iter__(self):
        return self._keys()

    def __len__(self):
        return len(self._keyset)


# -- products, colimits and homotopy colimits -------------------------------


def _product(factors, n_max: int) -> FiniteSimplicialSet:
    """X1 x ... x Xk on its cores: the tuples of same-dimensional factor
    simplices whose words have no index in common."""
    cores, faces = {}, {}
    for n in range(n_max + 1):
        # each n-simplex of each factor, with its word as a bit mask and its faces
        tables = {
            F: {s: (sum(1 << j for j in s[1]), tuple(F.face(s, i) for i in range(n + 1)) if n else ())
                for s in F.simplices(n)}
            for F in set(factors)
        }
        rows = [tables[F] for F in factors]
        # room[i]: how many indices factors i, i+1, ... can still keep out of the common word
        room = [0] * (len(factors) + 1)
        for i in range(len(factors) - 1, -1, -1):
            room[i] = room[i + 1] + max((n - len(s[1]) for s in rows[i]), default=0)
        partial = [((), (1 << n) - 1)]
        for i, row in enumerate(rows):
            partial = [
                (parts + (s,), common & mask)
                for parts, common in partial
                for s, (mask, _) in row.items()
                if (common & mask).bit_count() <= room[i + 1]
            ]
        for parts, common in partial:
            if common:
                continue
            cores[parts] = n
            if n:
                # zip turns the factors' face lists into the product's faces
                faces[parts] = tuple(map(_canonical, zip(*(row[s][1] for row, s in zip(rows, parts)))))
    return FiniteSimplicialSet(cores, faces, n_max)


def product_space(X: FiniteSimplicialSet, Y: FiniteSimplicialSet, n_max: int | None = None):
    """Dimension-wise pairs; returns (space, express) with express keyed by
    (dim, (simplex of X, simplex of Y))."""
    if n_max is None:
        n_max = min(X.n_max, Y.n_max)
    if n_max > min(X.n_max, Y.n_max):
        raise PreconditionFailed("product truncation exceeds a factor truncation")

    def keys():
        for n in range(n_max + 1):
            for pair in product(X.simplices(n), Y.simplices(n)):
                yield (n, pair)

    return _product((X, Y), n_max), _Express(keys, lambda key: _canonical(key[1]))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        parent = self.parent
        root = parent.setdefault(a, a)
        while parent[root] != root:
            root = parent[root]
        while a != root:
            nxt = parent[a]
            parent[a] = root
            a = nxt
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if str(rb) < str(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra


def colimit_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Coequalize the spaces along the cover maps.

    ``maps`` sends each cover (x, y) to a SimplicialMap spaces[x] ->
    spaces[y].  Each must send cores to pairwise distinct cores, which makes
    it injective; otherwise PreconditionFailed.  Along injective maps a
    class of simplices is nondegenerate exactly when its members are, so
    the union-find runs over the cores (x, (c, ())) only, and each class is
    named by its str-least member.  Returns (space, lookup) with lookup
    keyed by (dim, (object, simplex)).
    """
    for (x, y), f in maps.items():
        images = [f.on_cores[c] for c in spaces[x].cores]
        if any(word or img not in spaces[y].cores for img, word in images) or len(set(images)) != len(images):
            raise PreconditionFailed(f"the map over {x!r} < {y!r} does not send cores to distinct cores")
    uf = _UnionFind()
    for (x, y), f in maps.items():
        for c in spaces[x].cores:
            uf.union((x, (c, ())), (y, f.on_cores[c]))
    rep = {(x, c): uf.find((x, (c, ()))) for x in P.objects for c in spaces[x].cores}
    cores, faces = {}, {}
    for (x, c), r in rep.items():
        d = spaces[x].cores[c]
        if r == (x, (c, ())) and d <= n_max:
            cores[r] = d
            if d:
                faces[r] = tuple((rep[(x, f)], w) for f, w in spaces[x].core_faces[c])

    def keys():
        for n in range(n_max + 1):
            for x in P.objects:
                for s in spaces[x].simplices(n):
                    yield (n, (x, s))

    def value(key):
        _, (x, (c, word)) = key
        return (rep[(x, c)], word)

    return FiniteSimplicialSet(cores, faces, n_max), _Express(keys, value)


def hocolim_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Diagonal of the simplicial replacement: an n-simplex is a weakly
    increasing chain of n+1 objects plus an n-simplex of the space at the
    chain's first object; the zeroth face pushes along the first hop.  It
    is degenerate at i exactly when the chain repeats there and i is in the
    simplex's word, so each chain pairs with the simplices whose words
    avoid its repeats.  Returns (space, express) with express keyed by
    (dim, (chain, simplex))."""
    objs = sorted(P.objects, key=str)
    up = {}
    for a, b in P.covers:
        up.setdefault(a, []).append(b)
    # the path from x up to y takes the str-least cover still below y
    hop = {(x, y): min((b for b in up[x] if P.leq(b, y)), key=str)
           for x in objs for y in P.up_set(x) if y != x}

    def face(c, simp, i):
        if i:
            return _canonical_chain(c[:i] + c[i + 1:], spaces[c[0]].face(simp, i))
        x, y = c[0], c[1]
        while x != y:
            nxt = hop[(x, y)]
            simp = maps[(x, nxt)].apply(simp)
            x = nxt
        return _canonical_chain(c[1:], spaces[y].face(simp, 0))

    levels = chains(P, n_max, weak=True)
    cores, faces = {}, {}
    for n, level in enumerate(levels):
        for c in level:
            free = [i for i in range(n - 1, -1, -1) if c[i] != c[i + 1]]
            for core, m in spaces[c[0]].cores.items():
                if m > n:
                    continue
                for word in combinations(free, n - m):
                    simp = (c, (core, word))
                    cores[simp] = n
                    if n:
                        faces[simp] = tuple(face(c, simp[1], i) for i in range(n + 1))

    def keys():
        for n, level in enumerate(levels):
            for c in level:
                for s in spaces[c[0]].simplices(n):
                    yield (n, (c, s))

    return FiniteSimplicialSet(cores, faces, n_max), _Express(keys, lambda key: _canonical_chain(*key[1]))


# -- homology -------------------------------------------------------------


def homology(X: FiniteSimplicialSet, upto: int, field: FieldSpec = QQ):
    """Betti numbers (dimensions over the field) in degrees 0..upto.

    The boundary of the normalized chain complex on the cores is taken one
    row per (n-1)-core: the signed n-cores it is a face of, its coboundary.
    The levels are eliminated from low degree to high, and the row of each
    (n-1)-core that was a pivot column one level down is cleared: never
    built.  The pivot row r of such a column c combines rows one level
    down, so its coboundary sum_j r_j row_j vanishes, and every other j in
    it comes after c; from the last pivot back, each cleared row is thus a
    combination of kept rows, and the rank is unchanged (the "twist" of
    Chen and Kerber 2011, "Persistent homology computation with a twist").
    """
    if not X.complete and upto > X.n_max - 1:
        raise InsufficientTruncation(
            f"degree {upto} needs cores up to dimension {upto + 1}, truncation is {X.n_max}"
        )
    bases = [X.nondegenerate(n) for n in range(min(upto + 1, X.n_max) + 1)]
    # ranks[n] is the rank of the boundary C_n -> C_(n-1), zero past the top
    ranks = [0] * (upto + 2)
    pivots: set = set()
    for n in range(1, len(bases)):
        index = {c: k for k, c in enumerate(bases[n - 1])}
        rows = {k: {} for k in range(len(bases[n - 1])) if k not in pivots}
        for col, c in enumerate(bases[n]):
            for i, (f, word) in enumerate(X.core_faces[c]):
                if not word and (row := rows.get(index[f])) is not None:
                    row[col] = row.get(col, 0) + (-1 if i % 2 else 1)
        pivots = set()
        pairs = [[(j, v) for j, v in row.items() if v] for row in rows.values()]
        ranks[n] = rank(pairs, len(bases[n]), field, pivots)
    return tuple(
        (len(bases[n]) if n < len(bases) else 0) - ranks[n] - ranks[n + 1]
        for n in range(upto + 1)
    )


# -- model spaces and pairs ------------------------------------------------


def _model_space(cores: dict, faces: dict, n_max: int) -> FiniteSimplicialSet:
    """The cores of dimension at most n_max, marked complete only when none
    was dropped."""
    kept = {c: d for c, d in cores.items() if d <= n_max}
    return FiniteSimplicialSet(
        kept, {c: fs for c, fs in faces.items() if c in kept}, n_max, complete=len(kept) == len(cores)
    )


def point_space(n_max: int) -> FiniteSimplicialSet:
    return _model_space({"v": 0}, {}, n_max)


def circle_space(n_max: int) -> FiniteSimplicialSet:
    return _model_space({"v": 0, "e": 1}, {"e": (("v", ()), ("v", ()))}, n_max)


def two_point_space(n_max: int) -> FiniteSimplicialSet:
    return _model_space({"a0": 0, "a1": 0}, {}, n_max)


def interval_space(n_max: int) -> FiniteSimplicialSet:
    return _model_space({"v0": 0, "v1": 0, "e01": 1}, {"e01": (("v1", ()), ("v0", ()))}, n_max)


def disk_space(n_max: int) -> FiniteSimplicialSet:
    """Cone on the one-core circle: contractible with the circle inside."""
    return _model_space(
        {"v": 0, "c": 0, "e": 1, "f": 1, "T": 2},
        {
            "e": (("v", ()), ("v", ())),
            "f": (("c", ()), ("v", ())),
            "T": (("f", ()), ("f", ()), ("e", ())),
        },
        n_max,
    )


def pair_spaces(name: str, n_max: int):
    """A cofibration pair (X, A, inclusion) from the built-in library."""
    if name == "circle-point":
        X = circle_space(n_max)
        A = point_space(n_max)
        inc = SimplicialMap(A, X, {"v": ("v", ())})
    elif name == "disk2-circle":
        X = disk_space(n_max)
        A = circle_space(n_max)
        inc = SimplicialMap(A, X, {"v": ("v", ()), "e": ("e", ())})
    elif name == "interval-endpoints":
        X = interval_space(n_max)
        A = two_point_space(n_max)
        inc = SimplicialMap(A, X, {"a0": ("v0", ()), "a1": ("v1", ())})
    elif name == "point-point":
        X = point_space(n_max)
        A = point_space(n_max)
        inc = SimplicialMap(A, X, {"v": ("v", ())})
    else:
        raise PreconditionFailed(f"unknown pair {name!r}")
    return X, A, inc


PAIR_NAMES = ("circle-point", "disk2-circle", "interval-endpoints", "point-point")


def polyhedral_product_space(
    P: PointedPoset,
    pair: str | tuple,
    n_max: int,
    via: str = "colim",
    vertex_order=None,
):
    """The colimit (or homotopy colimit) of the block diagram of a pair.

    Each object x carries the product over all vertices, with the big space
    on the vertices below x and the small one elsewhere; cover maps include
    the small factor into the big one.  ``vertex_order`` fixes the factor
    order; any permutation gives an isomorphic space.  The colimit needs an
    injective inclusion (see ``colimit_space``).
    """
    if via not in ("colim", "hocolim"):
        raise PreconditionFailed(f"via must be colim or hocolim, not {via!r}")
    if isinstance(pair, str):
        X, A, inc = pair_spaces(pair, n_max)
    else:
        X, A, inc = pair
    if vertex_order is None:
        verts = sorted(P.vertices, key=str)
    else:
        verts = list(vertex_order)
        if set(verts) != set(P.vertices) or len(verts) != len(P.vertices):
            raise PreconditionFailed("vertex_order must permute the vertices")
    spaces = {}
    for x in sorted(P.objects, key=str):
        vx = P.vertex_set(x)
        spaces[x] = _product([X if v in vx else A for v in verts], n_max)
    maps = {}
    for x, y in P.covers:
        vx, vy = P.vertex_set(x), P.vertex_set(y)
        # factors whose vertex joins V(y) go through the inclusion; the rest stay put
        grown = [k for k, v in enumerate(verts) if v in vy and v not in vx]
        on_cores = {}
        for parts in spaces[x].cores:
            img = list(parts)
            for k in grown:
                img[k] = inc.apply(parts[k])
            on_cores[parts] = _canonical(tuple(img))
        maps[(x, y)] = SimplicialMap(spaces[x], spaces[y], on_cores, check=False)
    if via == "colim":
        return colimit_space(P, spaces, maps, n_max)
    return hocolim_space(P, spaces, maps, n_max)


# -- comparison with the cochain side --------------------------------------


def induced_collection(P: PointedPoset, pair: str, D: int, field: FieldSpec = QQ):
    """Cohomology of the pair's spaces as a morphism collection: for each
    vertex, the restriction map from the big space's cohomology to the small
    one's."""
    from .linalg import GradedLinearMap, GradedVectorSpace
    from .polytensor import MorphismCollection

    verts = sorted(P.vertices, key=str)
    if pair == "circle-point":
        return MorphismCollection.circle(verts, D, field=field)

    def space(dims, names):
        full = list(dims) + [0] * (D + 1 - len(dims))
        full = full[: D + 1]
        lab = [tuple((n,) for n in ns) for ns in names] + [()] * (D + 1 - len(names))
        return GradedVectorSpace(field, tuple(full), tuple(lab[: D + 1]))

    def glm(M, N, deg0_rows):
        mats = [deg0_rows]
        for d in range(1, D + 1):
            mats.append([[field.zero()] * M.dims[d] for _ in range(N.dims[d])])
        return GradedLinearMap(M, N, mats)

    maps = {}
    for v in verts:
        if pair == "disk2-circle":
            M = space((1,), [("1",)])
            N = space((1, 1), [("1",), (f"u_{v}",)])
            maps[v] = glm(M, N, [[field.one()]])
        elif pair == "interval-endpoints":
            M = space((1,), [("1",)])
            N = space((2,), [(f"p0_{v}", f"p1_{v}")])
            maps[v] = glm(M, N, [[field.one()], [field.one()]])
        elif pair == "point-point":
            M = space((1,), [("1",)])
            N = space((1,), [("1",)])
            maps[v] = glm(M, N, [[field.one()]])
        else:
            raise PreconditionFailed(f"unknown pair {pair!r}")
    return MorphismCollection(maps, field=field, truncation=D)


def polyprod_homology(
    P: PointedPoset,
    pair: str,
    n_max: int,
    via: str = "colim",
    field: FieldSpec = QQ,
    compare: bool = True,
) -> dict:
    """Homology of the polyhedral-product space, optionally compared against
    the higher limits of the induced cohomology collection: the predicted
    k-th dimension sums lim^n in internal degree k - n."""
    space, _ = polyhedral_product_space(P, pair, n_max, via=via)
    upto = n_max - 1
    h = homology(space, upto, field)
    out = {"homology": h, "n_max": n_max, "via": via}
    if compare:
        from .polytensor import polyhedral_tensor

        coll = induced_collection(P, pair, upto, field=field)
        lims = polyhedral_tensor(P, coll)
        predicted = []
        for k in range(upto + 1):
            total = 0
            for n, level in enumerate(lims):
                d = k - n
                if 0 <= d < len(level):
                    total += level[d]
            predicted.append(total)
        out["limits"] = [tuple(l) for l in lims]
        out["predicted"] = tuple(predicted)
        out["agree"] = tuple(predicted) == h
    return out
