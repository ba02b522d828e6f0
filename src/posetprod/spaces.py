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
exist higher up).  Homology ranks sparse coboundary rows, one per cell,
level by level from low degree to high; a cell that was a pivot column one
level down has its row cleared (never built), which leaves the rank as it
is (see ``_betti``).  Each core's boundary is merged once: equal faces
have their signs summed, and faces whose signs cancel drop out
(``_core_boundary``).

Homology of a polyhedral product has two routes.  The simplicial route
builds the colimit or homotopy colimit of the blocks as a simplicial set
and takes ``homology``.  The cellular route answers either gluing of a
pair A <= X without building it, and the same elimination ranks the
boundaries of its cells.  Both gluings read the pair once as numbered
cells (``_pair_cells``) and share one support walk and one Koszul-signed
tensor boundary (``_cell_walk``): a tuple of cells, one per vertex, is one
int whose digit k in radix m (the count of cells) is the cell of vertex k,
so each boundary entry is one addition to the code.  The homotopy colimit
depends only on the homotopy type of the pair, so it reads an inclusion
that is not injective on cores through its mapping cylinder; the colimit
refuses one.  The colimit's cells are such tuples, one per component of
the up-set of their support (``colimit_cells``).  The homotopy colimit's
complex has a cell per strict chain of objects and tuple of factor cells
of the block at its bottom (the Bousfield-Kan double complex), and
``hocolim_cells`` lists only the critical cells of a cone matching on it,
with their Morse boundary: one cell per tuple where the up-set of its
support is a cone.  ``polyprod_homology`` takes the cellular route for
both gluings, and with ``check_route`` compares it with the simplicial
one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import InsufficientTruncation, PreconditionFailed
from .linalg import QQ, FieldSpec, GradedLinearMap, GradedVectorSpace, rank
from .poset import PointedPoset, chains, component_reps, support_walk


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

    @cached_property
    def _by_dim(self) -> list:
        by_dim = [[] for _ in range(self.n_max + 1)]
        for c in self._str_order:
            by_dim[self.cores[c]].append(c)
        return by_dim

    def nondegenerate(self, n: int):
        """The n-cores in str order."""
        return list(self._by_dim[n]) if 0 <= n <= self.n_max else []

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
    """Dimension-wise pairs; returns (space, name).  ``name((n, (s, t)))``
    takes an n-simplex s of X and an n-simplex t of Y, degenerate or not,
    and returns the canonical (core, word) simplex of the product they
    name."""
    if n_max is None:
        n_max = min(X.n_max, Y.n_max)
    if n_max > min(X.n_max, Y.n_max):
        raise PreconditionFailed("product truncation exceeds a factor truncation")
    return _product((X, Y), n_max), lambda key: _canonical(key[1])


def _injective_on_cores(f: SimplicialMap) -> bool:
    """Whether f sends the cores of its source to pairwise distinct cores."""
    images = [f.on_cores[c] for c in f.source.cores]
    return all(not word and img in f.target.cores for img, word in images) and len(set(images)) == len(images)


def colimit_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Coequalize the spaces along the cover maps.

    ``maps`` sends each cover (x, y) to a SimplicialMap spaces[x] ->
    spaces[y].  Each must send cores to pairwise distinct cores, which makes
    it injective; otherwise PreconditionFailed.  Along injective maps a
    class of simplices is nondegenerate exactly when its members are, so
    the classes are the components (``component_reps``) of the graph the
    maps draw on the cores (x, (c, ())), each named by its str-least
    member.  Returns (space, name):
    ``name((n, (x, s)))`` takes an object x and an n-simplex s of
    spaces[x], degenerate or not, and returns the canonical (core, word)
    simplex of the colimit that s lands on.
    """
    for (x, y), f in maps.items():
        if not _injective_on_cores(f):
            raise PreconditionFailed(f"the map over {x!r} < {y!r} does not send cores to distinct cores")
    joined: dict = {}
    for (x, y), f in maps.items():
        for c in spaces[x].cores:
            a, b = (x, (c, ())), (y, f.on_cores[c])
            joined.setdefault(a, []).append(b)
            joined.setdefault(b, []).append(a)
    reps = component_reps([(x, (c, ())) for x in P.objects for c in spaces[x].cores], joined)
    rep = {(x, c): reps[(x, (c, ()))] for x in P.objects for c in spaces[x].cores}
    cores, faces = {}, {}
    for (x, c), r in rep.items():
        d = spaces[x].cores[c]
        if r == (x, (c, ())) and d <= n_max:
            cores[r] = d
            if d:
                faces[r] = tuple((rep[(x, f)], w) for f, w in spaces[x].core_faces[c])

    def name(key):
        _, (x, (c, word)) = key
        return (rep[(x, c)], word)

    return FiniteSimplicialSet(cores, faces, n_max), name


def hocolim_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Diagonal of the simplicial replacement: an n-simplex is a weakly
    increasing chain of n+1 objects plus an n-simplex of the space at the
    chain's first object; the zeroth face pushes along the first hop.  It
    is degenerate at i exactly when the chain repeats there and i is in the
    simplex's word, so each chain pairs with the simplices whose words
    avoid its repeats.  Returns (space, name): ``name((n, (c, s)))`` takes
    a weakly increasing chain c of n+1 objects and an n-simplex s of the
    space at c[0], degenerate or not, and returns the canonical (core,
    word) simplex of the homotopy colimit they name."""
    # the path from x up to y takes the str-least cover still below y
    hop = {(x, y): next(b for b in P.upper_covers(x) if P.leq(b, y))
           for x in P.objects for y in P.up_set(x) if y != x}

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
    return FiniteSimplicialSet(cores, faces, n_max), lambda key: _canonical_chain(*key[1])


# -- homology -------------------------------------------------------------


def _betti(bases, faces, upto: int, field: FieldSpec):
    """Betti numbers in degrees 0..upto of a chain complex given by its
    bases, one list per degree from 0 through at most upto + 1, and
    ``faces(c)``: the (face, coefficient) pairs of the boundary of c, each
    face once and with a non-zero coefficient, so that a row is a list of
    distinct columns as ``rank`` reads it (the cellular routes and
    ``_core_boundary`` give merged boundaries).

    The boundary is taken one row per (n-1)-cell: the signed n-cells it is
    a face of, its coboundary.  The levels are eliminated from low degree
    to high, and the row of each (n-1)-cell that was a pivot column one
    level down is cleared: never built.  The pivot row r of such a column c
    combines rows one level down, so its coboundary sum_j r_j row_j
    vanishes, and every other j in it comes after c; from the last pivot
    back, each cleared row is thus a combination of kept rows, and the rank
    is unchanged (the "twist" of Chen and Kerber 2011, "Persistent homology
    computation with a twist").
    """
    # ranks[n] is the rank of the boundary C_n -> C_(n-1), zero past the top
    ranks = [0] * (upto + 2)
    pivots: set = set()
    for n in range(1, len(bases)):
        index = {c: k for k, c in enumerate(bases[n - 1])}
        rows = {k: [] for k in range(len(bases[n - 1])) if k not in pivots}
        for col, c in enumerate(bases[n]):
            for f, v in faces(c):
                if (row := rows.get(index[f])) is not None:
                    row.append((col, v))
        pivots = set()
        ranks[n] = rank(list(rows.values()), len(bases[n]), field, pivots)
    return tuple(
        (len(bases[n]) if n < len(bases) else 0) - ranks[n] - ranks[n + 1]
        for n in range(upto + 1)
    )


def homology(X: FiniteSimplicialSet, upto: int, field: FieldSpec = QQ):
    """Betti numbers (dimensions over the field) in degrees 0..upto of the
    normalized chain complex on the cores: the faces of a core that are
    degenerate drop out (see ``_betti`` for the elimination)."""
    if not X.complete and upto > X.n_max - 1:
        raise InsufficientTruncation(
            f"degree {upto} needs cores up to dimension {upto + 1}, truncation is {X.n_max}"
        )
    bases = [X.nondegenerate(n) for n in range(min(upto + 1, X.n_max) + 1)]
    return _betti(bases, lambda c: _core_boundary(X, c), upto, field)


def _core_boundary(X: FiniteSimplicialSet, c) -> list:
    """The boundary of the core c, merged: each nondegenerate face once,
    with the sum of its signs (-1)^i, and none whose signs cancel (the
    circle's edge has boundary v - v = 0)."""
    merged: dict = {}
    for i, (f, word) in enumerate(X.core_faces.get(c, ())):
        if not word:
            merged[f] = merged.get(f, 0) + (-1 if i % 2 else 1)
    return [(f, e) for f, e in merged.items() if e]


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
    """The one-core circle with one 2-core T filling it: d_0 T = e and d_1 T
    = d_2 T = s_0 v.  Like the cone on the circle it realizes to the pair
    (D^2, S^1), so the two are homotopy equivalent rel the circle, and a
    polyhedral product, a (homotopy) colimit, depends only on the homotopy
    type of its pair (Bahri, Bendersky, Cohen and Gitler 2010).  T is the
    only core outside the circle, where the cone has three, so a vertex of
    a cell's support has one core to choose from."""
    return _model_space(
        {"v": 0, "e": 1, "T": 2},
        {"e": (("v", ()), ("v", ())), "T": (("e", ()), ("v", (0,)), ("v", (0,)))},
        n_max,
    )


# name: (X, A, the inclusion on A's cores, the degree-0 rows of the
# restriction H^*(X) -> H^*(A), the dims of H^*(X), the dims of H^*(A)).
# Each row is a component of A, with a 1 in the column of the component of
# X that contains it.  For all four pairs the restriction is zero above
# degree 0, where X or A has no cohomology.
_PAIRS = {
    "circle-point": (circle_space, point_space, {"v": "v"}, [[1]], (1, 1), (1,)),
    "disk2-circle": (disk_space, circle_space, {"v": "v", "e": "e"}, [[1]], (1,), (1, 1)),
    "interval-endpoints": (interval_space, two_point_space, {"a0": "v0", "a1": "v1"}, [[1], [1]], (1,), (2,)),
    "point-point": (point_space, point_space, {"v": "v"}, [[1]], (1,), (1,)),
}

PAIR_NAMES = tuple(_PAIRS)


def _pair(name: str):
    if name not in _PAIRS:
        raise PreconditionFailed(f"unknown pair {name!r}")
    return _PAIRS[name]


def pair_spaces(name: str, n_max: int):
    """A cofibration pair (X, A, inclusion) from the built-in library."""
    big, small, on_cores = _pair(name)[:3]
    X, A = big(n_max), small(n_max)
    return X, A, SimplicialMap(A, X, {a: (x, ()) for a, x in on_cores.items()})


def _read_pair(pair: str | tuple, n_max: int):
    """The pair (X, A, inclusion): a built-in pair by name, built at n_max,
    or one given as spaces.  A given space truncated below n_max that is
    not complete is refused (InsufficientTruncation), since the cores it
    lacks would change the answer."""
    if isinstance(pair, str):
        return pair_spaces(pair, n_max)
    for F in pair[:2]:
        if F.n_max < n_max and not F.complete:
            raise InsufficientTruncation(f"a space of the pair is truncated at {F.n_max}, below {n_max}")
    return pair


def polyhedral_product_space(P: PointedPoset, pair: str | tuple, n_max: int, via: str = "colim"):
    """The colimit (or homotopy colimit) of the block diagram of a pair.

    Each object x carries the product over all vertices, with the big space
    on the vertices below x and the small one elsewhere; cover maps include
    the small factor into the big one.  The colimit needs an injective
    inclusion (see ``colimit_space``).  Returns (space, name) as
    ``colimit_space`` or ``hocolim_space`` does: ``name`` takes (n, (x, s))
    with s an n-simplex of the block at object x (for the colimit) or
    (n, (c, s)) with s one of the block at c[0] (for the homotopy colimit),
    and returns the canonical (core, word) simplex of the space.
    """
    if via not in ("colim", "hocolim"):
        raise PreconditionFailed(f"via must be colim or hocolim, not {via!r}")
    X, A, inc = _read_pair(pair, n_max)
    verts = P.vertices
    spaces = {}
    for x in P.objects:
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


def _pair_cells(X: FiniteSimplicialSet, A: FiniteSimplicialSet, inc: SimplicialMap) -> tuple:
    """The pair as numbered cells: (cells, inside), where cells[c] is the
    dimension of cell c and its boundary, faces by number, and inside holds
    the numbers of A's cells.

    The cores of X are numbered in str order, each with its merged
    ``_core_boundary``.  When the inclusion f sends A's cores to distinct
    cores of X, A's cells are their images.  Otherwise X becomes the mapping
    cylinder of f, in which A sits injectively and onto which X deforms:
    A's cores follow X's, in str order, and then, in the same order, a cell
    a x I for each d-core a of A, with boundary (d a) x I + (-1)^d (f(a) - a),
    f(a) left out when it is degenerate.
    """
    number = {c: k for k, c in enumerate(X._str_order)}
    cells = [(X.cores[c], [(number[f], e) for f, e in _core_boundary(X, c)]) for c in X._str_order]
    if _injective_on_cores(inc):
        return cells, {number[inc.on_cores[a][0]] for a in A.cores}
    own = {a: len(cells) + k for k, a in enumerate(A._str_order)}
    boundary = {a: [(own[b], e) for b, e in _core_boundary(A, a)] for a in A._str_order}
    cells += [(A.cores[a], boundary[a]) for a in A._str_order]
    for a in A._str_order:
        d, (x, word) = A.cores[a], inc.on_cores[a]
        e = -1 if d % 2 else 1
        # (d a) x I, then f(a) unless it is degenerate, then a
        cylinder = [(b + len(own), s) for b, s in boundary[a]] + ([] if word else [(number[x], e)])
        cells.append((d + 1, cylinder + [(own[a], -e)]))
    return cells, set(own.values())


def _cell_walk(P: PointedPoset, pair: tuple, n_max: int):
    """What both cellular routes read of a pair (X, A, inclusion) over P,
    as (walk, tensor), its cells numbered by ``_pair_cells``.

    A tuple of cells, one per vertex in str order, is coded as one int in
    radix m, the number of cells, with vertex k's cell as digit k.  Its
    support S is the set of vertices whose cell lies outside A, and its
    mask has bit k set for each vertex k in S.  ``walk`` yields (mask, U_S,
    tuples) for each support from ``support_walk`` on the cell counts of A
    and of X outside A, with tuples the (code, dimension) pairs of the
    tuples of that support of dimension at most n_max; the first digit
    varies slowest.  ``tensor(code)`` is the Koszul-signed tensor boundary
    of the merged cell boundaries, (shift, sign, cleared) per face:
    replacing the cell c of vertex k by its face f adds the shift
    (f - c) m^k to the code, and cleared is 1 << k when c lies outside A
    and f inside it, else 0.
    """
    cells, inside = _pair_cells(*pair)
    verts = P.vertices
    n, m = len(verts), len(cells)
    digit = {v: k for k, v in enumerate(verts)}
    # sides[j]: the (number, dimension) pairs of the cells in A (j = 0) or outside it, lowest dimension first
    sides = [sorted(((c, d) for c, (d, _) in enumerate(cells) if d <= n_max and (c in inside) != out),
                    key=lambda cd: cd[1]) for out in (False, True)]
    N, K = (dict.fromkeys(verts, tuple(sum(d == e for _, d in side) for e in range(n_max + 1))) for side in sides)
    shifted = [[[(c * m**k, d) for c, d in side] for k in range(n)] for side in sides]
    # with one cell in A, a support changes only its own digits of the all-A tuple
    fixed = len(sides[0]) == 1
    base = (sum(shifted[0][k][0][0] for k in range(n)), sides[0][0][1] * n) if fixed else (0, 0)

    def walk():
        for support, _, _, up, _ in support_walk(P, N, K, n_max):
            ks = [digit[v] for v in support]
            mask = sum(1 << k for k in ks)
            code, d = base
            factors = []
            for k in ks if fixed else range(n):
                if fixed:
                    c, e = shifted[0][k][0]
                    code, d = code - c, d - e
                options = shifted[mask >> k & 1][k]
                if len(options) == 1:
                    c, e = options[0]
                    code, d = code + c, d + e
                else:
                    factors.append(options)
            tuples = [(code, d)] if d <= n_max else []
            for options in factors:
                tuples = [(x + c, y + e) for x, y in tuples for c, e in options if y + e <= n_max]
            yield mask, up, tuples

    # faces[k][c]: the parity of the dimension of cell c, and its faces as digit k, signed + and -
    faces = []
    for k in range(n):
        row = []
        for c, (d, boundary) in enumerate(cells):
            plus = [((f - c) * m**k, e, 1 << k if c not in inside and f in inside else 0) for f, e in boundary]
            row.append((d % 2, (plus, [(shift, -e, cleared) for shift, e, cleared in plus])))
        faces.append(row)
    bounded = any(boundary for _, boundary in cells)

    def tensor(code: int) -> list:
        out = []
        if bounded:
            odd = 0
            for row in faces:
                code, c = divmod(code, m)
                flips, signed = row[c]
                out.extend(signed[odd])
                odd ^= flips
        return out

    return walk(), tensor


def colimit_cells(P: PointedPoset, pair: str | tuple, n_max: int):
    """The cellular chain complex of the colimit of the block diagram, in
    dimensions 0..n_max; returns (bases, faces) as ``_betti`` reads them.

    The pair's A must sit in X as a sub-complex, with its cores sent to
    distinct cores: the colimit, unlike the homotopy colimit, changes when
    X is replaced by a mapping cylinder.  By Eilenberg-Zilber (May 1967) a
    block's chains are the tensor product of its factors' chains, so a cell
    of the colimit is a tuple s of cores of X, one per vertex in str order,
    taken once per connected component of U_S = {x : S <= V(x)}, where the
    support S is the set of vertices whose core lies outside A (the
    cellular chains of Bahri, Bendersky, Cohen and Gitler 2010, over a
    poset).  The supports and tuples come from ``_cell_walk``.

    A cell is (code, mask, r), with s coded and masked as ``_cell_walk``
    does, and r the str-least object of the component, so the order of the
    cells does not depend on the hash seed.  Its boundary is the tensor
    boundary of s, each face in the component of U_S(f), an up-set
    containing U_S, that holds r.  A cone U_S = up(a)
    (``PointedPoset.apex``) is one component, named with no search.
    """
    pair = _read_pair(pair, n_max)
    if not _injective_on_cores(pair[2]):
        raise PreconditionFailed("the inclusion of A does not send cores to distinct cores of X")
    walk, tensor = _cell_walk(P, pair, n_max)

    # rep_of[mask][x]: the str-least object of the component of U_S holding
    # x; a cone is one component, found with no search
    rep_of: dict = {}
    bases = [[] for _ in range(n_max + 1)]
    for mask, up, tuples in walk:
        if P.apex(up) is not None:
            reps = [min(up, key=str)]
            rep_of[mask] = dict.fromkeys(up, reps[0])
        else:
            rep = rep_of[mask] = P.components(up)
            reps = sorted(set(rep.values()), key=str)
        for code, d in tuples:
            bases[d].extend((code, mask, r) for r in reps)

    def faces(cell):
        code, mask, r = cell
        return [((code + shift, mask ^ cleared, rep_of[mask ^ cleared][r]), e) for shift, e, cleared in tensor(code)]

    return bases, faces


def hocolim_cells(P: PointedPoset, pair: str | tuple, n_max: int):
    """The critical cells of the cellular chain complex of the homotopy
    colimit of the block diagram under the cone matching, in dimensions
    0..n_max, with their Morse boundary; returns (bases, faces) as
    ``_betti`` reads them.

    The pair is read as cells by ``_cell_walk``: an inclusion that is not
    injective on cores is replaced by its mapping cylinder, which leaves
    the homotopy colimit's homotopy type as it is, so A's cells are always
    cells of X, under their own numbers.  The complex is the total complex
    of the normalized double complex of the simplicial replacement
    (Bousfield and Kan 1972, LNM 304, ch. XII), whose diagonal
    ``hocolim_space`` builds, with each block's chains replaced by the
    tensor product of its factors' chains (Eilenberg-Zilber again, natural
    in the blocks).  A cell is a strict
    chain c = (x_0 < ... < x_p) and a tuple s of cells of the block at x_0,
    one per vertex in str order: a cell of X on V(x_0), of A elsewhere; its
    dimension is p plus those of s.  Its boundary is sum_(i>=1) (-1)^i
    (c minus x_i, s), plus the hop (c minus x_0, s pushed into the block at
    x_1), plus (-1)^p times the tensor boundary of s.

    The matching.  s pushed into X is a tuple t of cells of X, and the
    cells with one t form its fibre: the strict chains of U_S =
    {x : S <= V(x)}, S the vertices whose cell of t lies outside A, each
    with t pulled back to its bottom.  Inside a fibre the boundary is that
    of the order complex Delta(U_S), the hop being its zeroth face with
    coefficient +1.  Where U_S is a cone up(a) (``PointedPoset.apex``),
    Delta(U_S) is the cone on a: each (c, t) with x_0 != a is matched with
    ((a) + c, t), whose hop it is.  Inside a fibre this is the cone's
    matching, which is acyclic: the faces of (a) + c other than c all start
    at a.  The tensor boundary sends t to faces of t, so it never raises
    the fibre, and a matching that is acyclic on each fibre of such an
    order-preserving map is acyclic on the whole complex (the patchwork
    theorem; Kozlov 2008, Combinatorial Algebraic Topology, ch. 11).  By algebraic discrete Morse
    theory (Skoldberg 2006, "Morse theory from an algebraic viewpoint",
    Trans. AMS 358; Jollenbeck and Welker 2009, Mem. AMS 923) the critical
    cells, with the Morse boundary, span a complex with the same homology
    over any field, since every matched coefficient is +1.  They are (a, t)
    for each t of a cone fibre, and every cell of a fibre whose U_S is not
    a cone.

    The cells are listed per support, with the tuples of ``_cell_walk``.  A
    cell is (c, code, mask), s coded and masked as ``_cell_walk`` does, so
    the hop keeps the code.  ``faces`` gives the Morse boundary: the
    boundary, with each cell matched upward replaced by minus the rest of
    the boundary of its partner, until only critical cells are left (a
    cell matched downward drops out); faces are merged and zeros dropped.
    """
    walk, tensor = _cell_walk(P, _read_pair(pair, n_max), n_max)

    # apex[mask]: the a with U_S = up(a), else None
    apex: dict = {}
    bases = [[] for _ in range(n_max + 1)]
    for mask, up, tuples in walk:
        a = apex[mask] = P.apex(up)
        levels = [[(a,)]] if a is not None else chains(P, n_max - min(d for _, d in tuples), objects=up)
        for p, level in enumerate(levels):
            for c in level:
                for code, d in tuples:
                    if p + d <= n_max:
                        bases[p + d].append((c, code, mask))

    def boundary(cell):
        c, code, mask = cell
        p = len(c) - 1
        out = [((c[:j] + c[j + 1:], code, mask), -1 if j % 2 else 1) for j in range(1, p + 1)]
        if p:
            out.append(((c[1:], code, mask), 1))
        sign = -1 if p % 2 else 1
        out.extend(((c, code + shift, mask ^ cleared), sign * e) for shift, e, cleared in tensor(code))
        return out

    # reduced[cell], for a cell matched upward: minus the rest of its partner's
    # boundary, itself reduced to critical cells (a cell matched downward adds nothing)
    reduced: dict = {}

    def collect(cell, coefficient, out):
        c, code, mask = cell
        a = apex[mask]
        if a is None or c == (a,):
            out[cell] = out.get(cell, 0) + coefficient
        elif c[0] != a:
            if (rest := reduced.get(cell)) is None:
                rest = reduced[cell] = {}
                for f, e in boundary(((a,) + c, code, mask)):
                    if f != cell:
                        collect(f, -e, rest)
            for f, e in rest.items():
                out[f] = out.get(f, 0) + coefficient * e

    def faces(cell):
        out: dict = {}
        for f, e in boundary(cell):
            collect(f, e, out)
        return [(f, e) for f, e in out.items() if e]

    return bases, faces


_CELLS = {"colim": colimit_cells, "hocolim": hocolim_cells}


# -- comparison with the cochain side --------------------------------------


def induced_collection(P: PointedPoset, pair: str, D: int, field: FieldSpec = QQ):
    """Cohomology of the pair's spaces as a morphism collection: at every
    vertex, the restriction H^*(X) -> H^*(A) of the pair table, truncated
    at degree D."""
    from .polytensor import MorphismCollection

    rows, x_dims, a_dims = _pair(pair)[3:]
    M, N = (GradedVectorSpace(field, (dims + (0,) * D)[: D + 1]) for dims in (x_dims, a_dims))
    degree0 = [list(enumerate(row)) for row in rows]
    restriction = GradedLinearMap(M, N, [degree0] + [[()] * n for n in N.dims[1:]])
    return MorphismCollection(dict.fromkeys(P.vertices, restriction), field=field, truncation=D)


def polyprod_homology(
    P: PointedPoset,
    pair: str,
    n_max: int,
    via: str = "colim",
    field: FieldSpec = QQ,
    compare: bool = True,
    check_route: bool = False,
) -> dict:
    """Homology of the polyhedral-product space in degrees below n_max,
    optionally compared against the higher limits of the induced cohomology
    collection: the predicted k-th dimension sums lim^n in internal degree
    k - n.  The comparison reads the restriction H^*(X) -> H^*(A) from the
    table of built-in pairs, so it needs ``pair`` to be one of their names;
    a pair given as (X, A, inclusion) needs ``compare=False``.

    Both gluings are answered by their cellular chains (``colimit_cells``,
    ``hocolim_cells``); ``route`` names the route and ``cells`` counts its
    cells per dimension.  With ``check_route`` the space is also built as a
    simplicial set, and ``simplicial_homology`` and ``routes_agree`` report
    the comparison.
    """
    if via not in _CELLS:
        raise PreconditionFailed(f"via must be colim or hocolim, not {via!r}")
    if compare and not isinstance(pair, str):
        raise PreconditionFailed("the limit comparison needs a built-in pair name; pass compare=False for a pair of spaces")
    upto = n_max - 1
    bases, faces = _CELLS[via](P, pair, n_max)
    h = _betti(bases, faces, upto, field)
    out = {"homology": h, "n_max": n_max, "via": via, "route": "cellular", "cells": tuple(map(len, bases))}
    if check_route:
        space, _ = polyhedral_product_space(P, pair, n_max, via=via)
        out["simplicial_homology"] = homology(space, upto, field)
        out["routes_agree"] = out["simplicial_homology"] == h
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
