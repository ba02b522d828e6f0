"""The full Bousfield-Kan complex of the homotopy colimit, kept as the
reference for ``posetprod.spaces.hocolim_cells``.

The library lists and ranks only the critical cells of the cone matching,
with their Morse boundary.  This module lists every cell, one per strict
chain and tuple of factor cores of the block at its bottom, with the plain
boundary, named by integers as the library names its cells: the two must
give the same homology, and ``tests/spaces_oracle.py`` names the same cells
by tuples of cores.
"""

from posetprod.poset import PointedPoset, chains
from posetprod.spaces import FiniteSimplicialSet, _core_boundary, pair_spaces


def _core_codes(factors, m: int, top: int) -> list:
    """The codes of the tuples of one core per factor, with their dimensions
    d <= top summed: (code, d).  ``factors[k]`` lists the (number,
    dimension) pairs of the cores of factor k, lowest dimension first;
    factor k is digit k in radix m, and the first factor varies slowest.  A
    factor with a single core adds the same digit and dimension to every
    tuple, so only the others are expanded."""
    offset = fixed = 0
    several = []
    stride = 1
    for cores in factors:
        if len(cores) == 1:
            (c, e), = cores
            offset += c * stride
            fixed += e
        else:
            several.append((cores, stride))
        stride *= m
    cells = [(offset, fixed)] if fixed <= top else []
    for cores, stride in several:
        cells = [(code + c * stride, d + e) for code, d in cells for c, e in cores if d + e <= top]
    return cells


def _numbered(F: FiniteSimplicialSet) -> dict:
    """Each core of F mapped to its number: its place in str order."""
    return {c: k for k, c in enumerate(F._str_order)}


def _digit_tables(F: FiniteSimplicialSet, m: int, n: int) -> list:
    """``tables[k][c]`` for digits k < n in radix m and the cores c of F by
    number: the parity of the dimension of c and its merged
    ``_core_boundary``, each face f as (the code shift (f - c) m^k, its
    sign)."""
    number = _numbered(F)
    boundaries = [(F.cores[c] % 2, [(number[f], e) for f, e in _core_boundary(F, c)]) for c in F._str_order]
    return [[(odd, [((f - c) * m**k, e) for f, e in boundary])
             for c, (odd, boundary) in enumerate(boundaries)]
            for k in range(n)]


def hocolim_cells(P: PointedPoset, pair: str | tuple, n_max: int):
    """The cellular chain complex of the homotopy colimit of the block
    diagram, in dimensions 0..n_max; returns (bases, faces) as
    ``spaces._betti`` reads them.

    It is the total complex of the normalized double complex of the
    simplicial replacement (Bousfield and Kan 1972, LNM 304, ch. XII),
    whose diagonal ``hocolim_space`` builds, with each block's chains
    replaced by the tensor product of its factors' chains (Eilenberg-Zilber
    again, natural in the blocks).  A cell is a strict chain
    c = (x_0 < ... < x_p) and a tuple s of cores of the block at x_0, one
    per vertex in str order: a core of X on V(x_0), of A elsewhere; its
    dimension is p plus those of s.  Its boundary is sum_(i>=1) (-1)^i
    (c minus x_i, s), plus (c minus x_0, s pushed into the block at x_1,
    the inclusion applied on V(x_1) - V(x_0)) unless a pushed core turns
    degenerate, plus (-1)^p times the tensor boundary of s, from the merged
    core boundaries (``_core_boundary``).  No injectivity is needed.

    The chains are numbered in the order ``chains`` lists them, and the
    cores of X and of A each in str order; s is coded as one int in radix
    m, the larger core count, with vertex k's core as digit k.  A cell is
    (chain number, code).  Each chain keeps its deletion faces and its hop
    to c minus x_0, with the digits that the inclusion moves, from A-core
    numbers to X-core numbers.
    """
    X, A, inc = pair_spaces(pair, n_max) if isinstance(pair, str) else pair
    verts = P.vertices
    number = {F: _numbered(F) for F in (X, A)}
    m = max(len(number[X]), len(number[A]))
    # into[a]: the number of the X-core that A-core a goes to, None if degenerate
    into = [None if word else number[X][x] for x, word in (inc.on_cores[a] for a in A._str_order)]
    cores = {F: [(number[F][c], d) for d in range(n_max + 1) for c in F.nondegenerate(d)] for F in (X, A)}
    shifted = {F: _digit_tables(F, m, len(verts)) for F in (X, A)}
    tables, block = {}, {}
    for x in P.objects:
        factors = [X if v in P.vertex_set(x) else A for v in verts]
        tables[x] = [shifted[F][k] for k, F in enumerate(factors)]
        # the core codes of the block at x, lowest dimension first
        block[x] = sorted(_core_codes([cores[F] for F in factors], m, n_max), key=lambda cd: cd[1])

    # moved[(x, y)]: the strides of the digits that go through the inclusion
    # from the block at x to the one at y
    moved = {(x, y): [m**k for k, v in enumerate(verts) if v in P.vertex_set(y) and v not in P.vertex_set(x)]
             for x in P.objects for y in P.up_set(x) if y != x}
    bases = [[] for _ in range(n_max + 1)]
    # chain[i]: (the parity of p, the deletion faces (i >= 1) with their signs,
    # the hop's chain and strides, the factor tables at x_0)
    chain, index = [], {}
    for p, level in enumerate(chains(P, n_max)):
        for c in level:
            i = index[c] = len(chain)
            deleted = [(index[c[:j] + c[j + 1:]], -1 if j % 2 else 1) for j in range(1, p + 1)]
            hop = (index[c[1:]], moved[c[:2]]) if p else None
            chain.append((p % 2, deleted, hop, tables[c[0]]))
            for code, d in block[c[0]]:
                if p + d > n_max:
                    break
                bases[p + d].append((i, code))

    def faces(cell):
        i, code = cell
        odd_p, deleted, hop, table = chain[i]
        out = [((j, code), e) for j, e in deleted]
        if hop is not None:
            j, strides = hop
            pushed = code
            for stride in strides:
                a = pushed // stride % m
                if (x := into[a]) is None:
                    break
                pushed += (x - a) * stride
            else:
                out.append(((j, pushed), 1))
        sign = -1 if odd_p else 1
        rest = code
        for factor in table:
            rest, c = divmod(rest, m)
            odd, boundary = factor[c]
            for shift, e in boundary:
                out.append(((i, code + shift), sign * e))
            if odd:
                sign = -sign
        return out

    return bases, faces
