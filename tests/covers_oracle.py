"""The order and cover data of ``posetprod.poset.PointedPoset`` as it was
derived before the constructor read them off one depth-first pass, kept as
independent oracles.

``cover_data`` derives the covers from the order: x < y is a cover exactly
when x is maximal below y and y minimal above x; the vertices are the
minimal objects other than the base.  ``construction`` closes the generating
relations the earlier way: a topological order with every successor set
sorted by str, then the up-sets in reverse topological order.
"""

from posetprod.errors import CycleError
from posetprod.poset import PointedPoset


def cover_data(P: PointedPoset):
    """(covers, lower covers, upper covers, vertices) of P, each list in str
    order, the covers as the upper covers of the objects in str order."""
    lower = {y: P.maximal(P.down_set(y) - {y}) for y in P.objects}
    upper = {x: P.minimal(P.up_set(x) - {x}) for x in P.objects}
    covers = tuple((x, y) for x in P.objects for y in upper[x])
    vertices = P.minimal(set(P.objects) - {P.base})
    return covers, lower, upper, vertices


def _toposort(objects, succ) -> list:
    """A topological order of ``succ``: depth first from the objects in str
    order along their successors in str order; a cycle raises
    ``CycleError`` through the first object met again on its path."""
    state: dict = {}
    order: list = []
    stack: list = []
    for root in objects:
        if root in state:
            continue
        stack.append((root, iter(sorted(succ[root], key=str))))
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(sorted(succ[nxt], key=str))))
                    advanced = True
                    break
                if state[nxt] == 1:
                    raise CycleError(f"relation contains a cycle through {nxt!r}")
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
    return list(reversed(order))


def construction(objects, base, relations) -> dict:
    """The up-sets, down-sets, covers, lower and upper covers, vertices and
    vertex sets of the poset the relations generate, lists in str order.

    The up-sets close the relations in reverse topological order; a
    generator x < y is a cover unless another generator above x has y above
    it; lower covers invert the upper ones, and the vertices are the upper
    covers of the base.
    """
    objects = sorted(objects, key=str)
    succ: dict = {o: set() for o in objects}
    for a, b in relations:
        if a == b:
            raise CycleError(f"self relation on {a!r}")
        succ[a].add(b)
    up: dict = {}
    for x in reversed(_toposort(objects, succ)):
        s = {x}
        for y in succ[x]:
            s |= up[y]
        up[x] = frozenset(s)
    down = {y: frozenset(x for x in objects if y in up[x]) for y in objects}
    longer = lambda x, y: any(y in up[z] for z in succ[x] if z != y)
    upper = {x: tuple(sorted((y for y in succ[x] if not longer(x, y)), key=str)) for x in objects}
    lower = {y: tuple(x for x in objects if y in upper[x]) for y in objects}
    vertices = frozenset(upper[base])
    return {
        "objects": tuple(objects),
        "up": up,
        "down": down,
        "covers": tuple((x, y) for x in objects for y in upper[x]),
        "lower": lower,
        "upper": upper,
        "vertices": upper[base],
        "vsets": {x: down[x] & vertices for x in objects},
    }
