"""Finite pointed posets.

A pointed poset is a finite poset with a minimum element, the base point.
The order is stored as its reachability closure; covers are kept in
transitively reduced form.  Both are read off the generating relations in
one depth-first pass that follows each object's relations in the order
given.  Objects can be any hashable values; all deterministic orderings
sort by ``str``, so no two objects may share a ``str``.

The reduction of P collapses every cover x < y with x != base and
V(x) = V(y).  It is one quotient, built in one pass: its classes are the
connected components of the cover graph on each set of objects sharing a
vertex set, each surviving as its str-greatest minimal element.  Single
collapses in any order reach the same quotient (``reduce_poset``).

Every class the library forms is a connected component, named by
``component_reps``: those of the reduction, the faces of s(P) and the
cells of the colimit through ``PointedPoset.components``, and those of the
simplicial colimit and of the presentation's identifications.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import lshift
from types import MappingProxyType
from typing import Any, Iterable

from .errors import (
    CycleError,
    DuplicateObject,
    NoBasePoint,
    PreconditionFailed,
    UnknownObject,
)

Obj = Any


_skey = str


def component_reps(nodes: Iterable, neighbours: dict) -> dict:
    """Each node mapped to the str-least node of its connected component in
    the graph induced on ``nodes``.

    ``neighbours`` maps a node to the nodes joined to it, each edge listed
    from both ends; a node it lacks has no edges, and edges to nodes
    outside ``nodes`` are ignored.  The search starts from the nodes in str
    order and grows each component on an explicit stack, so no component
    is too long for it.  Nodes must differ as strings.
    """
    nodes = frozenset(nodes)
    rep: dict = {}
    for r in sorted(nodes, key=_skey):
        if r in rep:
            continue
        rep[r], todo = r, [r]
        while todo:
            for y in neighbours.get(todo.pop(), ()):
                if y in nodes and y not in rep:
                    rep[y] = r
                    todo.append(y)
    return rep


def _name(value) -> str:
    """An object name read from poset data: a string, or a number as its
    string."""
    if type(value) not in (str, int, float):
        raise PreconditionFailed(f"object names must be strings or numbers, not {value!r}")
    return str(value)


class PointedPoset:
    """Finite poset with a designated minimum (the base point).

    Objects must differ as strings; a repeat, or two objects such as 1 and
    "1" with one ``str``, raises ``DuplicateObject`` naming both.
    ``covers`` may be any set of generating strict relations.  The
    constructor closes them and finds the covers among them in one
    depth-first pass, from the objects in str order and along each object's
    relations in the order given.  A cycle raises ``CycleError`` naming the
    first object this pass meets again on its own path.
    """

    def __init__(self, objects: Iterable[Obj], base: Obj, covers: Iterable[tuple[Obj, Obj]]):
        objects = list(objects)
        if len(set(objects)) != len(objects) or len(set(map(_skey, objects))) != len(objects):
            for i, o in enumerate(objects):
                for p in objects[:i]:
                    if p == o or _skey(p) == _skey(o):
                        raise DuplicateObject(f"duplicate objects {p!r} and {o!r}: names must differ as strings")
        self.objects: tuple[Obj, ...] = tuple(sorted(objects, key=_skey))
        self._objset = frozenset(self.objects)
        if base not in self._objset:
            raise NoBasePoint(f"base point {base!r} is not an object")
        self.base = base

        # each object's generators in the order given, repeats dropped
        succ: dict[Obj, dict[Obj, None]] = {o: {} for o in self.objects}
        for pair in covers:
            a, b = pair
            for o in (a, b):
                if o not in self._objset:
                    raise UnknownObject(f"cover {pair!r} references unknown object {o!r}")
            if a == b:
                raise CycleError(f"self relation on {a!r}")
            succ[a][b] = None

        # one depth-first pass from the objects in str order along the
        # generators; an object closes once everything above it has, and
        # then up(x) is x with the up-sets of its generators, and a generator
        # y is a cover unless another generator z has y above it, since a
        # longer path from x to y passes through such a z
        up: dict[Obj, frozenset[Obj]] = {}
        upper: dict[Obj, tuple[Obj, ...]] = {}
        for root in self.objects:
            if root in up:
                continue
            stack, on_path = [(root, iter(succ[root]))], {root}
            while stack:
                x, it = stack[-1]
                for y in it:
                    if y not in up:
                        if y in on_path:
                            raise CycleError(f"relation contains a cycle through {y!r}")
                        on_path.add(y)
                        stack.append((y, iter(succ[y])))
                        break
                else:
                    stack.pop()
                    on_path.discard(x)
                    gens = succ[x]
                    reach = {x}
                    for y in gens:
                        reach |= up[y]
                    up[x] = frozenset(reach)
                    ups = [y for y in gens if not any(y in up[z] for z in gens if z != y)]
                    upper[x] = tuple(sorted(ups, key=_skey))
        self._up, self._upper = up, upper
        down: dict[Obj, set[Obj]] = {o: set() for o in self.objects}
        for x in self.objects:
            for y in up[x]:
                down[y].add(x)
        self._down = {x: frozenset(s) for x, s in down.items()}

        if len(up[self.base]) != len(self.objects):
            missing = sorted(self._objset - up[self.base], key=_skey)
            raise NoBasePoint(f"base point is not below {missing[0]!r}")

        # lower covers invert the upper ones; cover lists and covers come in
        # str order
        lower: dict[Obj, list[Obj]] = {o: [] for o in self.objects}
        for x in self.objects:
            for y in upper[x]:
                lower[y].append(x)
        self._lower = {y: tuple(xs) for y, xs in lower.items()}
        self._adjacent = {x: self._lower[x] + upper[x] for x in self.objects}
        self.covers: tuple[tuple[Obj, Obj], ...] = tuple(
            (x, y) for x in self.objects for y in upper[x]
        )
        # the vertices, the minimal objects above the base, are its upper covers
        self._vertices = upper[self.base]
        vertices = frozenset(self._vertices)
        self._vsets = {x: self._down[x] & vertices for x in self.objects}
        self._report: PosetReport | None = None  # set by the first classify(self)
        self._reduction: tuple | None = None  # reduce_poset(self), when it is not self

    # -- order queries ------------------------------------------------

    def leq(self, x: Obj, y: Obj) -> bool:
        return y in self._up[x]

    def lt(self, x: Obj, y: Obj) -> bool:
        return x != y and y in self._up[x]

    def up_set(self, x: Obj) -> frozenset[Obj]:
        return self._up[x]

    def down_set(self, x: Obj) -> frozenset[Obj]:
        return self._down[x]

    @property
    def vertices(self) -> tuple[Obj, ...]:
        """Minimal objects distinct from the base point, in str order."""
        return self._vertices

    def vertex_set(self, x: Obj) -> frozenset[Obj]:
        """V(x): the vertices lying below x."""
        if x not in self._objset:
            raise UnknownObject(f"{x!r} is not an object")
        return self._vsets[x]

    @property
    def norm(self) -> int:
        """max |V(x)| - 1 over all objects (-1 for the one-point poset)."""
        return max(len(s) for s in self._vsets.values()) - 1

    def maximal_objects(self) -> tuple[Obj, ...]:
        return self.maximal(self._objset)

    def minimal(self, elems: Iterable[Obj]) -> tuple[Obj, ...]:
        """The minimal elements of a set of objects, in str order: u is
        minimal exactly when down(u) meets the set in u alone."""
        elems = frozenset(elems)
        return tuple(sorted((u for u in elems if len(self._down[u] & elems) == 1), key=_skey))

    def maximal(self, elems: Iterable[Obj]) -> tuple[Obj, ...]:
        """The maximal elements of a set of objects, in str order."""
        elems = frozenset(elems)
        return tuple(sorted((u for u in elems if len(self._up[u] & elems) == 1), key=_skey))

    def core(self, elems: Iterable[Obj], below: Iterable[Obj] = ()) -> frozenset:
        """The objects left of a set once its beat points are gone, relative
        to an up-set ``below`` of it.

        A beat point of X has exactly one upper cover (up) or exactly one
        lower cover (down) in the order of X.  Removing one keeps the
        homotopy type of Delta(X): sending x to its one cover c and every
        other object to itself preserves the order and is comparable to the
        identity, so Delta(X minus x) is a deformation retract of Delta(X)
        (Stong 1966; Barmak 2011, ch. 1).  Repeated, this reaches the core,
        unique up to isomorphism, and one point exactly when X is
        contractible as a finite space.  With ``below`` = B, a down beat
        point x is kept when x is in B and its lower cover is not; every
        other beat point goes (see ``polytensor._relative_betti`` for why
        the pair keeps its relative homology).

        The covers of X are those of P between its members, found afresh
        only for an object with a cover of P outside X that has a member of
        X above it.  Removing x makes a cover a < b of the lower covers a
        and upper covers b of x that have nothing else between them, so
        only those objects are queued again; the rest of X is never
        rescanned.  The queue starts in str order.
        """
        keep = set(elems)
        below = frozenset(below)
        order = sorted(keep, key=_skey)
        upper, lower = {}, {x: [] for x in order}
        for x in order:
            ups = [y for y in self._upper[x] if y in keep]
            if len(ups) < len(self._upper[x]) and any(
                not self._up[y].isdisjoint(keep) for y in self._upper[x] if y not in keep
            ):
                ups = list(self.minimal(self._up[x] & keep - {x}))
            upper[x] = ups
            for y in ups:
                lower[y].append(x)
        queue, queued = deque(order), set(order)
        while queue:
            x = queue.popleft()
            queued.discard(x)
            ups, downs = upper[x], lower[x]
            if len(ups) != 1 and (len(downs) != 1 or (x in below and downs[0] not in below)):
                continue
            del upper[x], lower[x]
            for b in ups:
                lower[b].remove(x)
            for a in downs:
                upper[a].remove(x)
            for b in ups:
                others = lower[b][:]
                for a in downs:
                    if not any(w in self._up[a] for w in others):
                        lower[b].append(a)
                        upper[a].append(b)
            for y in downs + ups:
                if y not in queued:
                    queued.add(y)
                    queue.append(y)
        return frozenset(upper)

    def lower_covers(self, x: Obj) -> tuple[Obj, ...]:
        """The objects x covers, in str order."""
        return self._lower[x]

    def upper_covers(self, x: Obj) -> tuple[Obj, ...]:
        """The objects covering x, in str order."""
        return self._upper[x]

    def components(self, members: Iterable[Obj]) -> dict:
        """Each member mapped to the str-least object of its connected
        component in the cover graph induced on ``members``: the cover-graph
        case of ``component_reps``."""
        return component_reps(members, self._adjacent)

    # -- bounds --------------------------------------------------------

    def _common(self, table: dict, elems: Iterable[Obj]) -> frozenset:
        """The intersection of ``table[e]`` over a non-empty set of objects."""
        try:
            sets = [table[e] for e in elems]
        except KeyError as exc:
            raise UnknownObject(f"{exc.args[0]!r} is not an object") from None
        if not sets:
            raise UnknownObject("bounds of the empty set are not defined")
        return frozenset.intersection(*sets)

    def bounds(self, elems: Iterable[Obj]) -> "Bounds":
        """Minimal upper bounds, maximal lower bounds, meet and join of a set."""
        elems = list(elems)
        min_upper = self.minimal(self._common(self._up, elems))
        max_lower = self.maximal(self._common(self._down, elems))
        meet = max_lower[0] if len(max_lower) == 1 else None
        join = min_upper[0] if len(min_upper) == 1 else None
        return Bounds(min_upper=min_upper, max_lower=max_lower, meet=meet, join=join)

    def meet(self, x: Obj, y: Obj) -> Obj | None:
        max_lower = self.maximal(self._common(self._down, (x, y)))
        return max_lower[0] if len(max_lower) == 1 else None

    # -- subposets ------------------------------------------------------

    def sub_poset(self, x: Obj, direction: str = "down") -> "PointedPoset":
        """Induced subposet.

        ``down``: P_{<=x} (base kept), ``down-strict``: P_{<x},
        ``up``: P_{>=x} re-pointed at x, ``delete``: P minus x.
        """
        if x not in self._objset:
            raise UnknownObject(f"{x!r} is not an object")
        if direction == "down":
            keep = self._down[x]
            newbase = self.base
        elif direction == "down-strict":
            if x == self.base:
                raise UnknownObject("down-strict subposet at the base point is empty")
            keep = self._down[x] - {x}
            newbase = self.base
        elif direction == "up":
            keep = self._up[x]
            newbase = x
        elif direction == "delete":
            keep = self._objset - {x}
            newbase = self.base
            if x == self.base:
                raise NoBasePoint("cannot delete the base point")
        else:
            raise ValueError(f"unknown direction {direction!r}")
        # a down- or up-set holds every cover chain between its members; a
        # cover chain through a deleted x has l < x < u in it, for l and u covers of x
        rel = [(a, b) for a, b in self.covers if a in keep and b in keep]
        if direction == "delete":
            rel.extend((a, b) for a in self._lower[x] for b in self._upper[x])
        return PointedPoset(keep, newbase, rel)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "objects": [str(o) for o in self.objects],
            "base": str(self.base),
            "covers": [[str(a), str(b)] for a, b in self.covers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointedPoset":
        """The poset that ``to_dict`` wrote.  Names may be strings or
        numbers and are read as strings; any other shape is refused."""
        if not isinstance(data, dict):
            raise PreconditionFailed("poset data must be an object with objects, base and covers")
        for key in ("objects", "base", "covers"):
            if key not in data:
                raise UnknownObject(f"poset data is missing {key!r}")
        objects, covers = data["objects"], data["covers"]
        if not isinstance(objects, list):
            raise PreconditionFailed("'objects' must be a list of names")
        if not isinstance(covers, list) or not all(isinstance(c, list) and len(c) == 2 for c in covers):
            raise PreconditionFailed("'covers' must be a list of [lower, upper] name pairs")
        return cls(map(_name, objects), _name(data["base"]), [tuple(map(_name, c)) for c in covers])

    def __eq__(self, other):
        if not isinstance(other, PointedPoset):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.base == other.base
            and self._up == other._up
        )

    def __hash__(self):
        # a set, not a sorted tuple: names of mixed types do not compare
        return hash((self.objects, self.base, frozenset(self.covers)))

    def __repr__(self):
        return f"PointedPoset({len(self.objects)} objects, base={self.base!r})"


@dataclass(frozen=True)
class Bounds:
    min_upper: tuple[Obj, ...]
    max_lower: tuple[Obj, ...]
    meet: Obj | None
    join: Obj | None


@dataclass(frozen=True)
class PosetReport:
    """Classification of a pointed poset with failure witnesses.

    Frozen, with read-only witnesses, because ``classify`` hands the same
    report to every caller asking about the same poset.
    """

    norm: int
    reduced: bool
    simplicial: bool
    polyhedral: bool
    lower_saturated: bool
    regular: bool
    witnesses: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def to_dict(self) -> dict:
        return {
            "norm": self.norm,
            "reduced": self.reduced,
            "simplicial": self.simplicial,
            "polyhedral": self.polyhedral,
            "lower_saturated": self.lower_saturated,
            "regular": self.regular,
            "witnesses": {k: str(v) for k, v in sorted(self.witnesses.items())},
        }


def chains(P: PointedPoset, top: int, weak: bool = False, objects=None, bottoms=None) -> list[list[tuple]]:
    """Levels 0..top of the chains x_0 < ... < x_n of the objects (all by
    default; a subset inherits the order), weakly increasing when ``weak``,
    with x_0 in ``bottoms`` when given.

    Each level extends the one before it, chain by chain, by the objects in
    str order.  Strict chains stop at the first empty level; weak chains
    always fill every level.  A negative ``top`` gives no levels.  An
    object outside P raises ``UnknownObject``.
    """
    objs = sorted(P.objects if objects is None else objects, key=_skey)
    unknown = [x for x in objs if x not in P._up]
    if unknown:
        raise UnknownObject(f"objects {unknown!r} are not in the poset")
    after = {x: [y for y in objs if y in P._up[x] and (weak or y != x)] for x in objs}
    levels = [[(x,) for x in objs if bottoms is None or x in bottoms]]
    while len(levels) <= top and (weak or levels[-1]):
        levels.append([c + (y,) for c in levels[-1] for y in after[c[-1]]])
    return [level for level in levels[: top + 1] if weak or level]


def collapsible_covers(P: PointedPoset) -> list[tuple[Obj, Obj]]:
    """The covers x < y with x != base and V(x) = V(y), in cover order."""
    return [(x, y) for x, y in P.covers if x != P.base and P._vsets[x] == P._vsets[y]]


def support_walk(P: PointedPoset, N: dict, K: dict, D: int, C: dict | None = None):
    """Yield (S, Q, series, U_S, B) for the supports S and cokernel sets Q,
    disjoint sub-tuples of ``P.vertices``.

    The series of (S, Q) is the product of K[v] over v in S, C[v] over v in
    Q and N[v] over the other vertices, each a tuple of D + 1 non-negative
    coefficients, truncated at degree D.  U_S = {x : S <= V(x)} and
    B = {x in U_S : V(x) meets Q} are up-sets.  Without ``C``, or where
    C[v] vanishes, v is never put in Q.  The walk is depth first in vertex
    order, leaving a vertex out before putting it in S, and in S before Q;
    a branch is pruned as soon as U_S minus B is empty or the series so far
    vanishes, since adding vertices only shrinks both.

    The walk carries each series as one int, with coefficient d in bits
    [d b, (d + 1) b).  A coefficient of a product of factors is at most
    the product of their coefficient sums, so b bits hold every
    coefficient the walk forms, untruncated products included, when 2^b
    exceeds the product over the vertices of the largest coefficient sum
    of N[v], K[v] and C[v], each taken as 1 at least.  A factor is then one
    int multiply and a mask, and a series is unpacked to its tuple only
    when it is yielded.
    """
    order = P.vertices
    bound = 1
    for v in order:
        bound *= max(1, sum(N[v]), sum(K[v]), sum(C[v]) if C is not None else 0)
    b = bound.bit_length()
    shifts = range(0, (D + 1) * b, b)
    mask, slot = (1 << (D + 1) * b) - 1, (1 << b) - 1
    pack = lambda series: sum(map(lshift, series, shifts))
    N, K = {v: pack(N[v]) for v in order}, {v: pack(K[v]) for v in order}
    C = {v: pack(C[v]) for v in order if any(C[v])} if C is not None else {}
    ups, n = P._up, len(order)
    stack = [(0, (), (), 1, frozenset(P.objects), frozenset())]
    while stack:
        i, support, cokernel, series, up, below = stack.pop()
        if i == n:
            yield support, cokernel, tuple([series >> s & slot for s in shifts]), up, below
            continue
        v = order[i]
        up_v = up & ups[v]
        if v in C:
            below_q = below | up_v
            if len(below_q) < len(up) and (with_q := series * C[v] & mask):
                stack.append((i + 1, support, cokernel + (v,), with_q, up, below_q))
        below_v = below & up_v if below else below
        if len(below_v) < len(up_v) and (with_v := series * K[v] & mask):
            stack.append((i + 1, support + (v,), cokernel, with_v, up_v, below_v))
        if without_v := series * N[v] & mask:
            stack.append((i + 1, support, cokernel, without_v, up, below))


def _is_reduced(P: PointedPoset):
    covs = collapsible_covers(P)
    return not covs, covs[0] if covs else None


def _is_simplicial(P: PointedPoset):
    # P_{<=x} must be the boolean lattice on V(x): the map y -> V(y) is a
    # bijection onto subsets of V(x) and reflects the order.
    for x in P.objects:
        D = P.down_set(x)
        Vx = P.vertex_set(x)
        if len(D) != 2 ** len(Vx):
            return False, x
        seen = {P.vertex_set(y) for y in D}
        if len(seen) != len(D):
            return False, x
        for y in D:
            for z in D:
                if P.vertex_set(y) <= P.vertex_set(z) and not P.leq(y, z):
                    return False, x
    return True, None


def _meets_and_saturation(P: PointedPoset):
    # one pass over the pairs with an upper bound: polyhedral needs a meet,
    # lower saturated a maximal lower bound with vertex set V(a) & V(b);
    # returns the first failing pair of each.  A comparable pair passes both,
    # as the smaller element is its meet and has vertex set V(a) & V(b).
    up, down, vsets = P._up, P._down, P._vsets
    poly = sat = None
    for a, b in itertools.combinations(P.objects, 2):
        ua, ub = up[a], up[b]
        if b in ua or a in ub or ua.isdisjoint(ub):
            continue
        max_lower = P.maximal(down[a] & down[b])
        if poly is None and len(max_lower) != 1:
            poly = (a, b)
        if sat is None:
            want = vsets[a] & vsets[b]
            if not any(vsets[w] == want for w in max_lower):
                sat = (a, b)
        if poly is not None and sat is not None:
            break
    return poly, sat


def _isomorphism(P: PointedPoset, X: frozenset, Q: PointedPoset, Y: frozenset) -> dict | None:
    """Order isomorphism from X onto Y, or None; X and Y are down-sets of P
    and Q holding their base points, ordered as in P and Q.

    Backtracking over X ordered by down-set size; candidates are filtered by
    vertex count and by the sizes of down-sets and of up-sets within X or Y.
    """
    if len(X) != len(Y):
        return None
    pobj = sorted(X, key=lambda o: (len(P._down[o]), _skey(o)))

    def invariant(R, Z, o):
        return (len(R._down[o]), len(R._up[o] & Z), len(R._vsets[o]))

    qs_by_inv: dict = {}
    for q in sorted(Y, key=_skey):
        qs_by_inv.setdefault(invariant(Q, Y, q), []).append(q)
    candidates = []
    for p in pobj:
        qs = qs_by_inv.get(invariant(P, X, p))
        if qs is None:
            return None
        candidates.append(qs)

    up_p, up_q = P._up, Q._up
    mapping: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(pobj):
            return True
        p = pobj[i]
        up_of_p = up_p[p]
        for q in candidates[i]:
            if q in used:
                continue
            up_of_q = up_q[q]
            if all(
                (p in up_p[p2]) == (q in up_q[q2]) and (p2 in up_of_p) == (q2 in up_of_q)
                for p2, q2 in mapping.items()
            ):
                mapping[p] = q
                used.add(q)
                if extend(i + 1):
                    return True
                del mapping[p]
                used.discard(q)
        return False

    return dict(mapping) if extend(0) else None


def down_isomorphism(P: PointedPoset, Q: PointedPoset) -> dict | None:
    """Order isomorphism between two pointed posets, or None: the
    backtracking of ``_isomorphism`` on their whole object sets."""
    return _isomorphism(P, P._objset, Q, Q._objset)


def _is_regular(P: PointedPoset):
    # P_{<=x} is compared with P_{<=x0} inside P, x0 the str-first object of
    # the vertex-count class of x (objects come in str order)
    groups: dict[int, list[Obj]] = {}
    for x in P.objects:
        groups.setdefault(len(P._vsets[x]), []).append(x)
    for k, xs in sorted(groups.items()):
        ref = P._down[xs[0]]
        for other in xs[1:]:
            if _isomorphism(P, ref, P, P._down[other]) is None:
                return False, (xs[0], other)
    return True, None


def classify(P: PointedPoset) -> PosetReport:
    """Classification report: reduced / simplicial / polyhedral /
    lower saturated / regular, each with a witness on failure.

    Polyhedral is tested as "pairs with an upper bound have a meet", in one
    pass over the pairs that also tests lower saturation; the failing pair
    is the witness.  Every test reads the up-sets, down-sets and vertex sets
    of P itself, building no sub-poset.  The report is computed once per
    poset and kept on it.
    """
    if P._report is None:
        P._report = _classify(P)
    return P._report


def _classify(P: PointedPoset) -> PosetReport:
    witnesses: dict = {}
    reduced, w = _is_reduced(P)
    if w:
        witnesses["reduced"] = w
    simplicial, w = _is_simplicial(P)
    if w:
        witnesses["simplicial"] = w
    poly, sat = _meets_and_saturation(P)
    if poly is not None:
        witnesses["polyhedral"] = poly
    if sat is not None:
        witnesses["lower_saturated"] = sat
    regular, w = _is_regular(P)
    if w:
        witnesses["regular"] = w
    return PosetReport(
        norm=P.norm,
        reduced=reduced,
        simplicial=simplicial,
        polyhedral=poly is None,
        lower_saturated=sat is None,
        regular=regular,
        witnesses=witnesses,
    )


def reduce_poset(P: PointedPoset) -> tuple[PointedPoset, MappingProxyType]:
    """The reduction of P: the quotient that collapses every cover x < y
    with x != base and V(x) = V(y), with the projection original object ->
    image, read-only.

    The classes are the connected components of the cover graph on each set
    of objects sharing a vertex set, and each class survives as its
    str-greatest minimal element.  Collapsing covers one at a time, in any
    order, gives this same quotient.  A collapse of x < y is the quotient
    identifying y with x, so a sequence of collapses is the quotient by the
    equivalence its pairs generate.  A relation u < w with V(u) = V(w)
    factors into covers that all have that vertex set, and none of them
    starts at the base, the only object with no vertices.  So a cover that
    is collapsible after some collapses joins classes that collapsible
    covers of P already join, and a collapsible cover of P whose ends are
    still apart gives a collapsible cover of the quotient.  Hence the
    collapses stop exactly at the components above, in every order.

    P itself comes back when nothing collapses.  Otherwise the reduction is
    computed once and kept on P; it is not kept on itself, which would make
    a cycle that only the garbage collector frees.
    """
    if P._reduction is not None:
        return P._reduction
    proj = {o: o for o in P.objects}
    if not collapsible_covers(P):
        return P, MappingProxyType(proj)
    groups: dict = {}
    for x in P.objects:
        groups.setdefault(P._vsets[x], []).append(x)
    for group in groups.values():
        classes: dict = {}
        for x, rep in P.components(group).items():
            classes.setdefault(rep, []).append(x)
        for cls in classes.values():
            survivor = max(P.minimal(cls), key=_skey)
            for x in cls:
                proj[x] = survivor
    rel = {(proj[a], proj[b]) for a, b in P.covers if proj[a] != proj[b]}
    P._reduction = PointedPoset(set(proj.values()), P.base, rel), MappingProxyType(proj)
    return P._reduction
