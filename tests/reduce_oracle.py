"""The reduction of ``posetprod.poset.reduce_poset`` as it was built one
collapse at a time, kept as an independent oracle.

Each step collapses one collapsible cover x < y onto x and builds a new
poset; ``lex`` takes the first candidate cover in cover order, ``revlex``
the last.  The projection follows every collapse.
"""

from types import MappingProxyType

from posetprod.poset import PointedPoset, collapsible_covers


def _collapse(P: PointedPoset, x, y) -> PointedPoset:
    """Collapse the cover x < y onto x.

    The new order is the reachability closure of the old strict order on
    Obj minus y together with u <= x for every u < y.  Covers generate it:
    the covers of P away from y, l < u for each cover chain l < y < u, and
    l < x for each other lower cover l of y.  Antisymmetry holds because
    x < y is a cover; the constructor re-checks.
    """
    keep = [o for o in P.objects if o != y]
    rel = [(a, b) for a, b in P.covers if y not in (a, b)]
    rel += [(l, u) for l in P.lower_covers(y) for u in P.upper_covers(y)]
    rel += [(l, x) for l in P.lower_covers(y) if l != x]
    return PointedPoset(keep, P.base, rel)


def reduce_poset(P: PointedPoset, candidate_order: str = "lex"):
    """Collapse covers x < y with x != base and V(x) = V(y) until none is
    left, in ``lex`` or ``revlex`` order of the candidates; returns the
    reduced poset (P itself when nothing collapses) and the read-only
    projection."""
    if candidate_order not in ("lex", "revlex"):
        raise ValueError(f"unknown candidate order {candidate_order!r}")
    pick = 0 if candidate_order == "lex" else -1
    proj = {o: o for o in P.objects}
    cur = P
    while True:
        cands = collapsible_covers(cur)
        if not cands:
            return cur, MappingProxyType(proj)
        x, y = cands[pick]
        cur = _collapse(cur, x, y)
        for k, v in proj.items():
            if v == y:
                proj[k] = x
