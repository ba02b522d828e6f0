"""Simplicial transform of a pointed poset, face counts, and the new-face
numbers relating the two.

The transform replaces each object x by the full set of subsets of V(x),
then glues: a subset S names the same face under two objects exactly when
the objects are linked by comparabilities through objects whose vertex set
contains S.  The result always has boolean down-sets, one for each pair
(S, glueing component).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import NoSuchRank, NotRegular, PreconditionFailed
from .poset import PointedPoset, classify, support_walk


def f_vector(P: PointedPoset) -> tuple[int, ...]:
    """Face counts by rank: entry i is the number of objects with i+1
    vertices below them.  Empty for the one-object poset."""
    n = P.norm
    counts = [0] * (n + 1)
    for x in P.objects:
        k = len(P.vertex_set(x))
        if k:
            counts[k - 1] += 1
    return tuple(counts)


@dataclass
class TransformResult:
    poset: PointedPoset
    to_class: dict
    embed: dict
    classes: dict


def _faces(P: PointedPoset):
    """Yield (S, members) for each face (S, C) of the transform: S a support
    with U_S = {x : S <= V(x)} non-empty, read from ``support_walk``, and
    members the objects of a component C of U_S, in str order.  S = {} has
    the one component U_S = P."""
    ones = {v: (1,) for v in P.vertices}
    for support, _, _, up, _ in support_walk(P, ones, ones, 0):
        groups: dict = {}
        for x, rep in P.components(up).items():
            groups.setdefault(rep, []).append(x)
        S = frozenset(support)
        for members in groups.values():
            yield S, tuple(sorted(members, key=str))


def simplicial_transform(P: PointedPoset) -> TransformResult:
    """Glue the subset posets of all objects into one simplicial poset.

    The face (S, C) is named by S and the str-least object of C; S = {} is
    the base point.  Two faces that would get one name, such as {a, b}@0
    and {"a,b"}@0, raise ``PreconditionFailed`` naming both.
    """
    to_class: dict = {}
    classes: dict = {}
    for S, members in _faces(P):
        name = f"{','.join(sorted(map(str, S)))}@{members[0]}" if S else P.base
        if name in classes:
            face = lambda S, C: f"{{{', '.join(map(repr, sorted(S, key=str)))}}}@{C[0]!r}"
            raise PreconditionFailed(f"faces {face(*classes[name])} and {face(S, members)} would both be named {name!r}")
        classes[name] = (S, members)
        for x in members:
            to_class[(x, S)] = name
    # U_S lies in U_{S - v}, so one member of C names every cover below (S, C)
    covers = {(to_class[(members[0], S - {v})], name) for name, (S, members) in classes.items() for v in S}
    SP = PointedPoset(sorted(classes, key=str), P.base, sorted(covers, key=lambda c: tuple(map(str, c))))
    embed = {x: to_class[(x, P.vertex_set(x))] for x in P.objects}
    return TransformResult(SP, to_class, embed, classes)


def transform_f_vector(P: PointedPoset) -> tuple[int, ...]:
    """f(s(P)) counted from the faces (S, C) without building s(P): entry i
    is the number of faces with |S| = i + 1."""
    counts = [0] * (P.norm + 1)
    for S, _ in _faces(P):
        if S:
            counts[len(S) - 1] += 1
    return tuple(counts)


def check_embedding(P: PointedPoset) -> dict:
    """Whether x -> [x, V(x)] is injective and an order embedding.

    Report only; non-reduced posets typically fail injectivity.
    """
    t = simplicial_transform(P)
    out = {"injective": True, "order_embedding": True}
    seen: dict = {}
    for x in P.objects:
        img = t.embed[x]
        if img in seen:
            out["injective"] = False
            out.setdefault("witness_injective", (seen[img], x))
        else:
            seen[img] = x
    SP = t.poset
    for x in P.objects:
        for y in P.objects:
            if P.leq(x, y) != SP.leq(t.embed[x], t.embed[y]):
                out["order_embedding"] = False
                out.setdefault("witness_order", (x, y))
    return out


def _rank_object(P: PointedPoset, n: int):
    ranked = sorted((x for x in P.objects if len(P.vertex_set(x)) == n + 1), key=str)
    if not ranked:
        raise NoSuchRank(f"no object with {n + 1} vertices")
    return ranked[0]


def nu(P: PointedPoset, i: int, n: int, method: str = "direct", _memo=None) -> int:
    """Number of rank-i faces a rank-n object contributes beyond the faces
    its own down-set already provides.

    ``direct`` counts the (i+1)-subsets of V(x) not contained in the vertex
    set of anything strictly below x; ``recursive`` solves for the same
    number from the subset total and the face counts of the open down-set.
    Needs all rank-n objects to look alike, hence the regularity guard.
    """
    if _memo is None:
        if not classify(P).regular:
            raise NotRegular("rank classes are not isomorphic")
        _memo = {}
    if i == 0:
        return 0
    if (i, n) in _memo:
        return _memo[(i, n)]
    x = _rank_object(P, n)
    if method == "direct":
        vx = sorted(P.vertex_set(x), key=str)
        below = [P.vertex_set(w) for w in P.down_set(x) if w != x]
        val = 0
        for S in combinations(vx, i + 1):
            fs = frozenset(S)
            if not any(fs <= vw for vw in below):
                val += 1
    elif method == "recursive":
        # f(P_{<x}) by vertex count: the objects below x keep their vertex sets there
        f = Counter(len(P.vertex_set(w)) for w in P.down_set(x) if w != x)
        val = comb(n + 1, i + 1) - f[i + 1]
        for k in range(i + 1, n):
            if f[k + 1]:
                val -= f[k + 1] * nu(P, i, k, method="recursive", _memo=_memo)
    else:
        raise ValueError(f"unknown method {method!r}")
    _memo[(i, n)] = val
    return val


def f_transform_predict(P: PointedPoset) -> tuple[int, ...]:
    """Face counts of the transform predicted from the face counts of P and
    the new-face numbers."""
    if not classify(P).regular:
        raise NotRegular("rank classes are not isomorphic")
    f = f_vector(P)
    N = len(f)
    memo: dict = {}
    out = []
    for i in range(N):
        total = f[i]
        for k in range(i + 1, N):
            if f[k]:
                total += f[k] * nu(P, i, k, _memo=memo)
        out.append(total)
    return tuple(out)
