"""Independent constructions kept as oracles for ``posetprod.spaces``.

The all-simplices construction of products, colimits and homotopy colimits
lists every simplex of every dimension, degenerate ones included, and finds
the nondegenerate ones by searching for an index i with s_i d_i e == e.
Blocks of a polyhedral product are left folds of 2-factor products.  This
is slow ((n+1)^k simplices of dimension n in a product of k circles), so
the tests use it on small inputs only.

The tuple-named cellular chains (``colimit_cells``, ``hocolim_cells``) name
each cell by nested tuples of core names and list each core's boundary face
by face, unmerged: the library's cellular routes must give the same cells,
in the same order, and the same boundary rows.
"""

from posetprod.errors import PreconditionFailed
from posetprod.poset import PointedPoset, chains, component_reps, support_walk
from posetprod.spaces import (
    FiniteSimplicialSet,
    SimplicialMap,
    _injective_on_cores,
    pair_spaces,
    point_space,
)


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


def colimit_space(P: PointedPoset, spaces: dict, maps: dict, n_max: int):
    """Coequalize the spaces along the cover maps, dimension by dimension.

    ``maps`` sends each cover (x, y) to a SimplicialMap spaces[x] ->
    spaces[y].  Returns (space, express) with express keyed by
    (dim, (object, simplex)).
    """
    joined: dict = {}
    for (x, y), f in maps.items():
        for n in range(n_max + 1):
            for s in spaces[x].simplices(n):
                a, b = (x, s), (y, f.apply(s))
                joined.setdefault(a, []).append(b)
                joined.setdefault(b, []).append(a)
    nodes = [(x, s) for n in range(n_max + 1) for x in P.objects for s in spaces[x].simplices(n)]
    rep = component_reps(nodes, joined)

    classes_by_dim = []
    for n in range(n_max + 1):
        reps = set()
        for x in P.objects:
            for s in spaces[x].simplices(n):
                reps.add(rep[(x, s)])
        classes_by_dim.append(sorted(reps, key=str))

    def face_fn(n, r, i):
        x, s = r
        return rep[(x, spaces[x].face(s, i))]

    def deg_fn(n, r, i):
        x, s = r
        return rep[(x, spaces[x].degenerate(s, i))]

    space, express = _from_operators(classes_by_dim, face_fn, deg_fn, n_max)
    lookup = {
        (n, (x, s)): express[(n, rep[(x, s)])]
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
    idX = SimplicialMap(X, X, {c: (c, ()) for c in X.cores}, check=False)
    idA = SimplicialMap(A, A, {c: (c, ()) for c in A.cores}, check=False)
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


# -- tuple-named cellular chains ------------------------------------------


def _core_boundary(X: FiniteSimplicialSet, c) -> list:
    """The nondegenerate faces of the core c, each with its sign (-1)^i."""
    return [(f, -1 if i % 2 else 1) for i, (f, word) in enumerate(X.core_faces.get(c, ())) if not word]


def _core_tuples(factors, top: int) -> list:
    """The tuples of one core per factor, with their dimensions d <= top
    summed: (s, d).  ``factors[k][e]`` lists the e-cores of factor k, for
    e = 0..top."""
    cells = [((), 0)]
    for by_dim in factors:
        cells = [(s + (c,), d + e) for s, d in cells for e in range(top + 1 - d) for c in by_dim[e]]
    return cells


def _tensor_faces(s, tables) -> list:
    """The Koszul-signed boundary of the tensor s of cores, degenerate faces
    dropped: (k, f, sign) replaces s[k] by its face f.  ``tables[k]`` sends
    each core of factor k to its dimension and ``_core_boundary``."""
    out = []
    sign = 1
    for k, (c, table) in enumerate(zip(s, tables)):
        d, boundary = table[c]
        out.extend((k, f, sign * e) for f, e in boundary)
        if d % 2:
            sign = -sign
    return out


def _boundary_table(F: FiniteSimplicialSet) -> dict:
    """Each core of F with its dimension and ``_core_boundary``."""
    return {c: (d, _core_boundary(F, c)) for c, d in F.cores.items()}


def colimit_cells(P: PointedPoset, pair, n_max: int):
    """The cellular chains of the colimit of the block diagram, cells named
    (s, r): a tuple s of cores of X, one per vertex in str order, and the
    str-least object r of a component of U_S, S the vertices whose core
    lies outside A.  Returns (bases, faces) as ``spaces._betti`` reads
    them."""
    X, A, inc = pair_spaces(pair, n_max) if isinstance(pair, str) else pair
    if not _injective_on_cores(inc):
        raise PreconditionFailed("the inclusion of A does not send cores to distinct cores of X")
    verts = P.vertices
    inside = {inc.on_cores[a][0] for a in A.cores}
    by_dim = {out: [[c for c in X.nondegenerate(d) if (c not in inside) == out] for d in range(n_max + 1)]
              for out in (False, True)}
    N, K = (dict.fromkeys(verts, tuple(map(len, by_dim[out]))) for out in (False, True))

    rep_of: dict = {}
    bases = [[] for _ in range(n_max + 1)]
    for support, _, _, up, _ in support_walk(P, N, K, n_max):
        rep = rep_of[support] = P.components(up)
        reps = sorted(set(rep.values()), key=str)
        for s, d in _core_tuples([by_dim[v in support] for v in verts], n_max):
            bases[d].extend((s, r) for r in reps)

    tables = [_boundary_table(X)] * len(verts)

    def faces(cell):
        s, r = cell
        support = tuple(v for v, c in zip(verts, s) if c not in inside)
        out = []
        for k, f, e in _tensor_faces(s, tables):
            leaves = s[k] not in inside and f in inside
            face_support = tuple(v for v in support if v != verts[k]) if leaves else support
            out.append(((s[:k] + (f,) + s[k + 1:], rep_of[face_support][r]), e))
        return out

    return bases, faces


def hocolim_cells(P: PointedPoset, pair, n_max: int):
    """The cellular chains of the homotopy colimit of the block diagram,
    cells named (c, s): a strict chain c of objects and a tuple s of cores
    of the block at c[0], one per vertex in str order.  Returns (bases,
    faces) as ``spaces._betti`` reads them."""
    X, A, inc = pair_spaces(pair, n_max) if isinstance(pair, str) else pair
    verts = P.vertices
    by_dim = {F: [F.nondegenerate(d) for d in range(n_max + 1)] for F in (X, A)}
    table = {F: _boundary_table(F) for F in (X, A)}
    factors = {x: [X if v in P.vertex_set(x) else A for v in verts] for x in P.objects}
    tables = {x: [table[F] for F in fs] for x, fs in factors.items()}
    block = {x: sorted(_core_tuples([by_dim[F] for F in fs], n_max), key=lambda sd: sd[1])
             for x, fs in factors.items()}
    bases = [[] for _ in range(n_max + 1)]
    for p, level in enumerate(chains(P, n_max)):
        for c in level:
            for s, d in block[c[0]]:
                if p + d > n_max:
                    break
                bases[p + d].append((c, s))

    grown = {(x, y): [k for k, v in enumerate(verts) if v in P.vertex_set(y) and v not in P.vertex_set(x)]
             for x in P.objects for y in P.up_set(x) if y != x}

    def pushed(hop, s):
        img = list(s)
        for k in grown[hop]:
            img[k], word = inc.on_cores[s[k]]
            if word:
                return None
        return tuple(img)

    def faces(cell):
        c, s = cell
        p = len(c) - 1
        out = [((c[:i] + c[i + 1:], s), -1 if i % 2 else 1) for i in range(1, p + 1)]
        if p and (t := pushed(c[:2], s)) is not None:
            out.append(((c[1:], t), 1))
        sign = -1 if p % 2 else 1
        out.extend(((c, s[:k] + (f,) + s[k + 1:]), sign * e) for k, f, e in _tensor_faces(s, tables[c[0]]))
        return out

    return bases, faces
