"""The subset-by-subset construction of the simplicial transform, kept as
an independent oracle for ``posetprod.transform.simplicial_transform``.

It lists the subsets of every V(x), scans all objects for each subset to
find U_S = {x : S <= V(x)}, and names each face (S, C) by S and the
str-least object of the component C of U_S, as the library does.
"""

from itertools import combinations

from posetprod.poset import PointedPoset
from posetprod.transform import TransformResult


def simplicial_transform(P: PointedPoset) -> TransformResult:
    """Glue the subset posets of all objects into one simplicial poset."""
    subsets: set = set()
    for x in P.objects:
        vx = sorted(P.vertex_set(x), key=str)
        for r in range(len(vx) + 1):
            for S in combinations(vx, r):
                subsets.add(frozenset(S))

    comp_of: dict = {}
    for S in subsets:
        members = {x for x in P.objects if S <= P.vertex_set(x)}
        comp_of[S] = P.components(members)

    def class_name(x, S: frozenset) -> str:
        if not S:
            return P.base
        rep = comp_of[S][x]
        return f"{','.join(sorted(S, key=str))}@{rep}"

    to_class = {}
    classes = {}
    for x in P.objects:
        vx = sorted(P.vertex_set(x), key=str)
        for r in range(len(vx) + 1):
            for S in combinations(vx, r):
                fs = frozenset(S)
                name = class_name(x, fs)
                to_class[(x, fs)] = name
                if name not in classes:
                    rep = comp_of[fs].get(x)
                    members = tuple(sorted((m for m, rr in comp_of[fs].items() if rr == rep), key=str)) if fs else tuple(sorted(P.objects, key=str))
                    classes[name] = (fs, members)

    covers = set()
    for (x, fs), name in to_class.items():
        for v in fs:
            covers.add((to_class[(x, fs - {v})], name))
    SP = PointedPoset(sorted(classes, key=str), P.base, sorted(covers))
    embed = {x: to_class[(x, frozenset(P.vertex_set(x)))] for x in P.objects}
    return TransformResult(SP, to_class, embed, classes)
