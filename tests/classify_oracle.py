"""The pair pass and the regularity test of ``posetprod.poset.classify`` as
they were built from derived posets, kept as an independent oracle.

The pair pass takes the full ``bounds`` of every pair of objects; the
regularity test builds the sub-poset P_{<=x} of every object and compares
it with the str-first one of its vertex-count class by a backtracking
isomorphism between two posets.
"""

import itertools

from posetprod.poset import PointedPoset, _skey


def _meets_and_saturation(P: PointedPoset):
    # one pass over the pairs with an upper bound, taking each pair's bounds
    # once: polyhedral needs a meet, lower saturated a maximal lower bound
    # with vertex set V(a) & V(b); returns the first failing pair of each
    poly = sat = None
    for a, b in itertools.combinations(P.objects, 2):
        bd = P.bounds([a, b])
        if not bd.min_upper:
            continue
        if poly is None and bd.meet is None:
            poly = (a, b)
        if sat is None:
            want = P._vsets[a] & P._vsets[b]
            if not any(P._vsets[w] == want for w in bd.max_lower):
                sat = (a, b)
        if poly is not None and sat is not None:
            break
    return poly, sat


def down_isomorphism(P: PointedPoset, Q: PointedPoset) -> dict | None:
    """Order isomorphism between two pointed posets, or None.

    Backtracking over objects ordered by down-set size; candidates are
    filtered by vertex count and down/up set sizes.
    """
    if len(P.objects) != len(Q.objects):
        return None
    pobj = sorted(P.objects, key=lambda o: (len(P.down_set(o)), _skey(o)))
    qobj = sorted(Q.objects, key=_skey)

    def invariant(R, o):
        return (len(R.down_set(o)), len(R.up_set(o)), len(R.vertex_set(o)))

    qs_by_inv: dict = {}
    for q in qobj:
        qs_by_inv.setdefault(invariant(Q, q), []).append(q)
    for p in pobj:
        if invariant(P, p) not in qs_by_inv:
            return None

    mapping: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(pobj):
            return True
        p = pobj[i]
        for q in qs_by_inv[invariant(P, p)]:
            if q in used:
                continue
            ok = True
            for p2, q2 in mapping.items():
                if P.leq(p2, p) != Q.leq(q2, q) or P.leq(p, p2) != Q.leq(q, q2):
                    ok = False
                    break
            if ok:
                mapping[p] = q
                used.add(q)
                if extend(i + 1):
                    return True
                del mapping[p]
                used.discard(q)
        return False

    if extend(0):
        if mapping[P.base] != Q.base:
            # the minimum is unique, so this cannot happen
            return None
        return dict(mapping)
    return None


def _is_regular(P: PointedPoset):
    groups: dict[int, list] = {}
    for x in P.objects:
        groups.setdefault(len(P.vertex_set(x)), []).append(x)
    for k, xs in sorted(groups.items()):
        xs = sorted(xs, key=_skey)
        ref = P.sub_poset(xs[0], "down")
        for other in xs[1:]:
            if down_isomorphism(ref, P.sub_poset(other, "down")) is None:
                return False, (xs[0], other)
    return True, None
