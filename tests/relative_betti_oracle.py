"""The relative Betti numbers of ``posetprod.polytensor._relative_betti`` as
they were read from chains before any beat point was removed, kept as an
independent oracle.

Where U has one minimal object the cone gives H^n(U, B) as the reduced
H^(n-1)(B), read from every chain of B; otherwise every chain of U whose
bottom lies outside B is ranked.
"""

from posetprod.poset import PointedPoset, chains
from posetprod.spaces import _betti


def relative_betti(P: PointedPoset, up, below, field) -> tuple[int, ...]:
    """The Betti numbers of (Delta(U), Delta(B)) per level, trimmed like
    ``higher_limits``."""
    if len(P.minimal(up)) == 1:
        if not below:
            return (1,)
        b = relative_betti(P, below, frozenset(), field)
        betti = [0, b[0] - 1, *b[1:]]
    else:
        levels = chains(P, len(up), objects=up, bottoms=up - below)
        faces = lambda c: [(c[:i] + c[i + 1:], (-1) ** i) for i in range(len(c)) if i or c[1] not in below]
        betti = list(_betti(levels, faces, len(levels) - 1, field))
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)
