"""Finite simplicial sets, products, (homotopy) colimits and homology.

Simplices are pairs (core, word): a nondegenerate core plus a strictly
decreasing tuple of degeneracy indices applied to it, so every simplex has
one canonical name.  Faces and degeneracies push through the word with the
usual index shuffles.  Spaces are truncated: cores live in dimensions up to
n_max, and homology above n_max - 1 is refused unless the space is marked
complete (no cores could exist higher up).
"""

from __future__ import annotations

from itertools import combinations

from .errors import InsufficientTruncation, PreconditionFailed
from .linalg import QQ, FieldSpec, rank
from .poset import PointedPoset


class FiniteSimplicialSet:
    """Cores with face tables; all other simplices are degeneracy words."""

    def __init__(self, cores: dict, faces: dict, n_max: int, complete: bool = False, check: bool = True):
        self.cores = dict(cores)
        self.core_faces = {c: tuple(tuple(s) if not isinstance(s, tuple) else s for s in fs) for c, fs in faces.items()}
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
        if check:
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

    def simplices(self, n: int):
        """All simplices of dimension n, degenerate ones included."""
        out = []
        for c, m in sorted(self.cores.items(), key=lambda kv: str(kv[0])):
            k = n - m
            if k < 0:
                continue
            for idx in combinations(range(n - 1, -1, -1), k):
                out.append((c, idx))
        return out

    def nondegenerate(self, n: int):
        return sorted((c for c, m in self.cores.items() if m == n), key=str)

    def as_simplex(self, core):
        return (core, ())

    def _check_identities(self):
        for c, d in self.cores.items():
            if d < 2:
                continue
            s = (c, ())
            for j in range(d + 1):
                for i in range(j):
                    left = self.face(self.face(s, j), i)
                    right = self.face(self.face(s, i), j - 1)
                    if left != right:
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

    @classmethod
    def identity(cls, space: FiniteSimplicialSet) -> "SimplicialMap":
        return cls(space, space, {c: (c, ()) for c in space.cores}, check=False)


# -- building spaces from abstract element universes ---------------------


def _from_operators(elems_by_dim, face_fn, deg_fn, n_max: int, name=lambda e: e):
    """Assemble a simplicial set out of per-dimension element lists with
    face/degeneracy callbacks.

    Returns (space, express) where express maps every element to its
    canonical (core, word) simplex.
    """
    express: dict = {}
    cores: dict = {}
    faces: dict = {}

    for n in range(n_max + 1):
        for e in elems_by_dim[n]:
            if n == 0:
                express[(0, e)] = (name(e), ())
                cores[name(e)] = 0
                continue
            top = None
            for i in range(n - 1, -1, -1):
                if deg_fn(n - 1, face_fn(n, e, i), i) == e:
                    top = i
                    break
            if top is None:
                cores[name(e)] = n
                express[(n, e)] = (name(e), ())
            else:
                c, w = express[(n - 1, face_fn(n, e, top))]
                if w and top <= w[0]:
                    raise AssertionError("degeneracy word is not decreasing")
                express[(n, e)] = (c, (top,) + w)
    for n in range(1, n_max + 1):
        for e in elems_by_dim[n]:
            if express[(n, e)][1]:
                continue
            c = name(e)
            faces[c] = tuple(express[(n - 1, face_fn(n, e, i))] for i in range(n + 1))
    space = FiniteSimplicialSet(cores, faces, n_max)
    return space, express


def product_space(X: FiniteSimplicialSet, Y: FiniteSimplicialSet, n_max: int | None = None):
    """Dimension-wise pairs; returns (space, express) with express keyed by
    (dim, (simplex of X, simplex of Y))."""
    if n_max is None:
        n_max = min(X.n_max, Y.n_max)
    if n_max > min(X.n_max, Y.n_max):
        raise PreconditionFailed("product truncation exceeds a factor truncation")
    elems = [
        [(s, t) for s in X.simplices(n) for t in Y.simplices(n)]
        for n in range(n_max + 1)
    ]

    def face_fn(n, e, i):
        return (X.face(e[0], i), Y.face(e[1], i))

    def deg_fn(n, e, i):
        return (X.degenerate(e[0], i), Y.degenerate(e[1], i))

    return _from_operators(elems, face_fn, deg_fn, n_max)


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
    """Coequalize the spaces along the cover maps, dimension by dimension.

    ``maps`` sends each cover (x, y) to a SimplicialMap spaces[x] ->
    spaces[y].  Returns (space, express) with express keyed by
    (dim, (object, simplex)).
    """
    uf = _UnionFind()
    for n in range(n_max + 1):
        for x in sorted(P.objects, key=str):
            for s in spaces[x].simplices(n):
                uf.find((x, s))
    for (x, y), f in maps.items():
        for n in range(n_max + 1):
            for s in spaces[x].simplices(n):
                uf.union((x, s), (y, f.apply(s)))

    classes_by_dim = []
    for n in range(n_max + 1):
        reps = set()
        for x in P.objects:
            for s in spaces[x].simplices(n):
                reps.add(uf.find((x, s)))
        classes_by_dim.append(sorted(reps, key=str))

    def face_fn(n, rep, i):
        x, s = rep
        return uf.find((x, spaces[x].face(s, i)))

    def deg_fn(n, rep, i):
        x, s = rep
        return uf.find((x, spaces[x].degenerate(s, i)))

    space, express = _from_operators(classes_by_dim, face_fn, deg_fn, n_max)
    lookup = {
        (n, (x, s)): express[(n, uf.find((x, s)))]
        for n in range(n_max + 1)
        for x in P.objects
        for s in spaces[x].simplices(n)
    }
    return space, lookup


def _transport(P: PointedPoset, maps: dict, x, y, simp):
    """Push a simplex of spaces[x] up to spaces[y] along a fixed cover path."""
    if x == y:
        return simp
    up = {}
    for a, b in P.covers:
        up.setdefault(a, []).append(b)
    cur, s = x, simp
    while cur != y:
        nxt = min((b for b in up.get(cur, ()) if P.leq(b, y)), key=str)
        s = maps[(cur, nxt)].apply(s)
        cur = nxt
    return s


def hocolim_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Diagonal of the simplicial replacement: an n-simplex is a weakly
    increasing chain of n+1 objects plus an n-simplex of the space at the
    chain's first object; the zeroth face pushes along the first hop."""
    objs = sorted(P.objects, key=str)
    chains = [[(x,) for x in objs]]
    for n in range(1, n_max + 1):
        longer = []
        for c in chains[-1]:
            for x in objs:
                if P.leq(c[-1], x):
                    longer.append(c + (x,))
        chains.append(longer)
    elems = [
        [(c, s) for c in chains[n] for s in spaces[c[0]].simplices(n)]
        for n in range(n_max + 1)
    ]

    def face_fn(n, e, i):
        c, s = e
        cc = c[:i] + c[i + 1:]
        if i == 0:
            moved = _transport(P, maps, c[0], c[1], s)
            return (cc, spaces[c[1]].face(moved, 0))
        return (cc, spaces[c[0]].face(s, i))

    def deg_fn(n, e, i):
        c, s = e
        cc = c[:i + 1] + c[i:]
        return (cc, spaces[c[0]].degenerate(s, i))

    return _from_operators(elems, face_fn, deg_fn, n_max)


# -- homology -------------------------------------------------------------


def boundary_matrices(X: FiniteSimplicialSet, upto: int, field: FieldSpec = QQ):
    """Boundary matrices of the normalized chain complex on the cores,
    degrees 1..upto+1 (clipped at the truncation)."""
    bases = [X.nondegenerate(n) for n in range(min(upto + 1, X.n_max) + 1)]
    mats = []
    for n in range(1, len(bases)):
        idx = {c: k for k, c in enumerate(bases[n - 1])}
        rows = [[field.zero()] * len(bases[n]) for _ in range(len(bases[n - 1]))]
        for col, c in enumerate(bases[n]):
            for i in range(n + 1):
                f_core, f_word = X.face((c, ()), i)
                if f_word:
                    continue
                r = idx[f_core]
                rows[r][col] = field.add(rows[r][col], field.conv(-1 if i % 2 else 1))
        mats.append(rows)
    return bases, mats


def homology(X: FiniteSimplicialSet, upto: int, field: FieldSpec = QQ):
    """Betti numbers (dimensions over the field) in degrees 0..upto."""
    if not X.complete and upto > X.n_max - 1:
        raise InsufficientTruncation(
            f"degree {upto} needs cores up to dimension {upto + 1}, truncation is {X.n_max}"
        )
    bases, mats = boundary_matrices(X, upto, field)
    ranks = [rank(m, len(bases[n + 1]), field) if m else 0 for n, m in enumerate(mats)]
    out = []
    for n in range(upto + 1):
        dim_c = len(bases[n]) if n < len(bases) else 0
        r_in = ranks[n] if n < len(ranks) else 0
        r_out = ranks[n - 1] if 1 <= n <= len(ranks) else 0
        out.append(dim_c - r_in - r_out)
    return tuple(out)


# -- model spaces and pairs ------------------------------------------------


def point_space(n_max: int) -> FiniteSimplicialSet:
    return FiniteSimplicialSet({"v": 0}, {}, n_max, complete=True)


def circle_space(n_max: int) -> FiniteSimplicialSet:
    return FiniteSimplicialSet(
        {"v": 0, "e": 1},
        {"e": (("v", ()), ("v", ()))},
        n_max,
        complete=True,
    )


def two_point_space(n_max: int) -> FiniteSimplicialSet:
    return FiniteSimplicialSet({"a0": 0, "a1": 0}, {}, n_max, complete=True)


def interval_space(n_max: int) -> FiniteSimplicialSet:
    return FiniteSimplicialSet(
        {"v0": 0, "v1": 0, "e01": 1},
        {"e01": (("v1", ()), ("v0", ()))},
        n_max,
        complete=True,
    )


def disk_space(n_max: int) -> FiniteSimplicialSet:
    """Cone on the one-core circle: contractible with the circle inside."""
    return FiniteSimplicialSet(
        {"v": 0, "c": 0, "e": 1, "f": 1, "T": 2},
        {
            "e": (("v", ()), ("v", ())),
            "f": (("c", ()), ("v", ())),
            "T": (("f", ()), ("f", ()), ("e", ())),
        },
        n_max,
        complete=True,
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


def _fold_products(factors, n_max: int):
    """Left fold of product_space over a list of spaces.

    Returns (space, locate) where locate maps a tuple of factor simplices
    and a dimension to the folded simplex.
    """
    if not factors:
        space = point_space(n_max)
        return space, lambda n, parts: ("v", tuple(range(n - 1, -1, -1)))
    if len(factors) == 1:
        X = factors[0]
        return X, lambda n, parts: parts[0]
    acc, acc_express = product_space(factors[0], factors[1], n_max)
    folds = [acc_express]
    for nxt in factors[2:]:
        acc, ex = product_space(acc, nxt, n_max)
        folds.append(ex)

    def locate(n, parts):
        cur = folds[0][(n, (parts[0], parts[1]))]
        for ex, part in zip(folds[1:], parts[2:]):
            cur = ex[(n, (cur, part))]
        return cur

    return acc, locate


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
    order; any permutation gives an isomorphic space.
    """
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
    locates = {}
    for x in sorted(P.objects, key=str):
        vx = P.vertex_set(x)
        factors = [X if v in vx else A for v in verts]
        spaces[x], locates[x] = _fold_products(factors, n_max)
    maps = {}
    idX = SimplicialMap.identity(X)
    idA = SimplicialMap.identity(A)
    for x, y in P.covers:
        vx, vy = P.vertex_set(x), P.vertex_set(y)
        fs = [idX if v in vx else (inc if v in vy else idA) for v in verts]
        src, tgt = spaces[x], spaces[y]
        loc = locates[y]
        on_cores = {}
        for c, d in src.cores.items():
            parts = _unfold_simplex((c, ()), len(verts))
            imgs = [f.apply(p) for f, p in zip(fs, parts)]
            on_cores[c] = loc(d, imgs)
        maps[(x, y)] = SimplicialMap(src, tgt, on_cores, check=False)
    if via == "colim":
        return colimit_space(P, spaces, maps, n_max)
    if via == "hocolim":
        return hocolim_space(P, spaces, maps, n_max)
    raise PreconditionFailed(f"via must be colim or hocolim, not {via!r}")


def _unfold_simplex(simp, n_factors: int):
    """Invert the left fold: a simplex of ((X1 x X2) x ...) x Xk splits into
    the list of factor simplices.  Degeneracy words act componentwise."""
    if n_factors <= 1:
        return [simp]
    core, word = simp
    sx, sy = core
    left = _apply_word(sx, word)
    right = _apply_word(sy, word)
    return _unfold_simplex(left, n_factors - 1) + [right]


def _apply_word(simp, word):
    """Apply a degeneracy word to a canonical simplex, re-canonicalizing.
    Pure index shuffling; needs no face data."""
    core, w = simp
    for j in reversed(word):
        w = _insert_degeneracy(w, j)
    return (core, w)


def _insert_degeneracy(word, i):
    if not word or i > word[0]:
        return (i,) + word
    j = word[0]
    return (j + 1,) + _insert_degeneracy(word[1:], i)


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
