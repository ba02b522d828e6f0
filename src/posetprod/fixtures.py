"""Built-in example posets and the seeded random poset generator."""

from __future__ import annotations

import itertools
import random

from .poset import PointedPoset, classify

BASE = "*"


def fix_a() -> PointedPoset:
    """Two vertices 1,2; objects 3,4 above both; 5,6 above 3 and 4.

    Not lower saturated: 3 and 4 have upper bounds but no lower bound with
    vertex set {1,2}.
    """
    covers = [
        ("*", "1"), ("*", "2"),
        ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"),
        ("3", "5"), ("3", "6"), ("4", "5"), ("4", "6"),
    ]
    return PointedPoset(["*", "1", "2", "3", "4", "5", "6"], "*", covers)


def fix_b() -> PointedPoset:
    """Two parallel edges: vertices a,b and edges c,d each above both."""
    covers = [("*", "a"), ("*", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    return PointedPoset(["*", "a", "b", "c", "d"], "*", covers)


def fix_c() -> PointedPoset:
    """Face poset of the square (the 2-cube): polyhedral, not simplicial."""
    return cube(2)


def fix_d() -> PointedPoset:
    """Face poset of the 2-simplex."""
    return simplex(2)


def fix_e() -> PointedPoset:
    """Two isolated vertices."""
    return PointedPoset(["*", "v1", "v2"], "*", [("*", "v1"), ("*", "v2")])


def cube(n: int) -> PointedPoset:
    """Face poset of the n-cube.

    Faces are words over {0,1,u} with u marking free coordinates; a face is
    below another when it is contained in it.  Each face is covered by the
    faces that free one of its fixed coordinates, and the base point by the
    vertices; the constructor closes these covers into the order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return PointedPoset(["*", "v"], "*", [("*", "v")])
    faces = ["".join(w) for w in itertools.product("01u", repeat=n)]
    covers = [(f, f[:i] + "u" + f[i + 1:]) for f in faces for i, a in enumerate(f) if a != "u"]
    covers += [(BASE, f) for f in faces if "u" not in f]
    return PointedPoset([BASE] + faces, BASE, covers)


def simplex(n: int) -> PointedPoset:
    """Face poset of the n-simplex: nonempty subsets of {0..n} named by
    their digits, each covered by the faces with one more point.  From
    n = 10 on a name such as "10" no longer spells one set of points, so
    ``ValueError`` is raised.
    """
    if n > 9:
        raise ValueError("simplex faces are named by digits, so n must be <= 9")
    pts = range(n + 1)
    name = lambda face: "".join(map(str, face))
    faces = [c for k in range(1, n + 2) for c in itertools.combinations(pts, k)]
    rel = [(BASE, str(p)) for p in pts]
    rel += [(name(f), name(sorted(f + (p,)))) for f in faces for p in pts if p not in f]
    return PointedPoset([BASE] + [name(f) for f in faces], BASE, rel)


FIXTURES = {
    "fix-a": fix_a,
    "fix-b": fix_b,
    "fix-c": fix_c,
    "fix-d": fix_d,
    "fix-e": fix_e,
    "cube-1": lambda: cube(1),
    "cube-2": lambda: cube(2),
    "cube-3": lambda: cube(3),
    "simplex-1": lambda: simplex(1),
    "simplex-2": lambda: simplex(2),
    "simplex-3": lambda: simplex(3),
}


def random_pointed_poset(rng: random.Random, max_objects: int = 8) -> PointedPoset:
    """Random layered DAG with a forced base point.

    Objects are spread over one to three layers; each object is related to a
    random nonempty set of objects in earlier layers (or only to the base).
    """
    n = rng.randint(1, max(1, max_objects - 1))
    layers: list[list[str]] = []
    names = [f"x{i}" for i in range(n)]
    i = 0
    while i < n:
        take = rng.randint(1, min(4, n - i))
        layers.append(names[i:i + take])
        i += take
    rel: list[tuple[str, str]] = [(BASE, x) for x in layers[0]]
    for li in range(1, len(layers)):
        below = [x for l in layers[:li] for x in l]
        for x in layers[li]:
            k = rng.randint(1, min(3, len(below)))
            for b in rng.sample(below, k):
                rel.append((b, x))
            if rng.random() < 0.3:
                rel.append((BASE, x))
    return PointedPoset([BASE] + names, BASE, rel)


def random_poset_with(
    seed: int,
    predicate: str,
    count: int,
    max_objects: int = 8,
    max_tries: int = 100000,
) -> list[PointedPoset]:
    """Seeded stream of random posets rejection-filtered by a classify flag.

    ``predicate`` is one of ``any``, ``reduced``, ``simplicial``,
    ``polyhedral``, ``lower_saturated``, ``regular``.
    """
    rng = random.Random(seed)
    out: list[PointedPoset] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not generate {count} posets with {predicate!r} in {max_tries} tries"
            )
        P = random_pointed_poset(rng, max_objects=max_objects)
        if predicate == "any":
            out.append(P)
            continue
        rep = classify(P)
        if getattr(rep, predicate):
            out.append(P)
    return out
