"""Finite pointed posets.

A pointed poset is a finite poset with a minimum element, the base point.
The order is stored as its reachability closure; covers are kept in
transitively reduced form.  Objects can be any hashable values; all
deterministic orderings sort by ``str``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable

from .errors import (
    CycleError,
    DuplicateObject,
    NoBasePoint,
    NoCollapseAvailable,
    UnknownObject,
)

Obj = Any


def _skey(x: Obj):
    return str(x)


class PointedPoset:
    """Finite poset with a designated minimum (the base point).

    ``covers`` may be any set of generating strict relations; the
    constructor computes the reachability closure and re-derives the
    canonical cover relation from it.
    """

    def __init__(self, objects: Iterable[Obj], base: Obj, covers: Iterable[tuple[Obj, Obj]]):
        objects = list(objects)
        if len(set(objects)) != len(objects):
            seen, dup = set(), None
            for o in objects:
                if o in seen:
                    dup = o
                    break
                seen.add(o)
            raise DuplicateObject(f"duplicate object {dup!r}")
        self.objects: tuple[Obj, ...] = tuple(sorted(objects, key=_skey))
        self._objset = frozenset(self.objects)
        if base not in self._objset:
            raise NoBasePoint(f"base point {base!r} is not an object")
        self.base = base

        succ: dict[Obj, set[Obj]] = {o: set() for o in self.objects}
        for pair in covers:
            a, b = pair
            for o in (a, b):
                if o not in self._objset:
                    raise UnknownObject(f"cover {pair!r} references unknown object {o!r}")
            if a == b:
                raise CycleError(f"self relation on {a!r}")
            succ[a].add(b)

        order = self._toposort(succ)
        # up[x] = {y : x <= y}, computed in reverse topological order
        up: dict[Obj, set[Obj]] = {}
        for x in reversed(order):
            s = {x}
            for y in succ[x]:
                s |= up[y]
            up[x] = s
        self._up = {x: frozenset(s) for x, s in up.items()}
        down: dict[Obj, set[Obj]] = {o: set() for o in self.objects}
        for x in self.objects:
            for y in self._up[x]:
                down[y].add(x)
        self._down = {x: frozenset(s) for x, s in down.items()}

        if len(self._up[self.base]) != len(self.objects):
            missing = sorted(self._objset - self._up[self.base], key=_skey)
            raise NoBasePoint(f"base point is not below {missing[0]!r}")

        covs = []
        for x in self.objects:
            for y in self.objects:
                if x != y and y in self._up[x]:
                    between = (self._up[x] & self._down[y]) - {x, y}
                    if not between:
                        covs.append((x, y))
        self.covers: tuple[tuple[Obj, Obj], ...] = tuple(
            sorted(covs, key=lambda p: (_skey(p[0]), _skey(p[1])))
        )

        self._vertices = tuple(
            v
            for v in self.objects
            if v != self.base and self._down[v] == frozenset({self.base, v})
        )
        self._vsets = {
            x: frozenset(v for v in self._vertices if v in self._down[x]) for x in self.objects
        }
        self._report: PosetReport | None = None  # set by the first classify(self)

    def _toposort(self, succ: dict[Obj, set[Obj]]) -> list[Obj]:
        state: dict[Obj, int] = {}
        order: list[Obj] = []
        stack: list[tuple[Obj, Any]] = []
        for root in self.objects:
            if root in state:
                continue
            stack.append((root, iter(sorted(succ[root], key=_skey))))
            state[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in state:
                        state[nxt] = 1
                        stack.append((nxt, iter(sorted(succ[nxt], key=_skey))))
                        advanced = True
                        break
                    if state[nxt] == 1:
                        raise CycleError(f"relation contains a cycle through {nxt!r}")
                if not advanced:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return list(reversed(order))

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
        """Minimal objects distinct from the base point."""
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
        return tuple(x for x in self.objects if self._up[x] == frozenset({x}))

    # -- bounds --------------------------------------------------------

    def bounds(self, elems: Iterable[Obj]) -> "Bounds":
        """Minimal upper bounds, maximal lower bounds, meet and join of a set."""
        elems = list(elems)
        if not elems:
            raise UnknownObject("bounds of the empty set are not defined")
        for e in elems:
            if e not in self._objset:
                raise UnknownObject(f"{e!r} is not an object")
        uppers = frozenset.intersection(*(self._up[e] for e in elems))
        lowers = frozenset.intersection(*(self._down[e] for e in elems))
        min_upper = tuple(
            sorted((u for u in uppers if not any(self.lt(v, u) for v in uppers)), key=_skey)
        )
        max_lower = tuple(
            sorted((u for u in lowers if not any(self.lt(u, v) for v in lowers)), key=_skey)
        )
        meet = max_lower[0] if len(max_lower) == 1 else None
        join = min_upper[0] if len(min_upper) == 1 else None
        return Bounds(min_upper=min_upper, max_lower=max_lower, meet=meet, join=join)

    def meet(self, x: Obj, y: Obj) -> Obj | None:
        return self.bounds([x, y]).meet

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
        rel = [(a, b) for a in keep for b in keep if a != b and self.leq(a, b)]
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
        for key in ("objects", "base", "covers"):
            if key not in data:
                raise UnknownObject(f"poset data is missing {key!r}")
        return cls(data["objects"], data["base"], [tuple(c) for c in data["covers"]])

    def __eq__(self, other):
        if not isinstance(other, PointedPoset):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.base == other.base
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.objects, self.base, tuple(sorted(self.covers))))

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


def chains(P: PointedPoset, top: int, weak: bool = False, objects=None) -> list[list[tuple]]:
    """Levels 0..top of the chains x_0 < ... < x_n of the objects (all by
    default; a subset inherits the order), weakly increasing when ``weak``.

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
    levels = [[(x,) for x in objs]]
    while len(levels) <= top and (weak or levels[-1]):
        levels.append([c + (y,) for c in levels[-1] for y in after[c[-1]]])
    return [level for level in levels[: top + 1] if weak or level]


def collapsible_covers(P: PointedPoset) -> list[tuple[Obj, Obj]]:
    """The covers x < y with x != base and V(x) = V(y), in cover order."""
    return [(x, y) for x, y in P.covers if x != P.base and P._vsets[x] == P._vsets[y]]


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


def _is_polyhedral_local(P: PointedPoset):
    # every down-set is a lower semilattice
    for x in P.objects:
        D = sorted(P.down_set(x), key=_skey)
        for a, b in itertools.combinations(D, 2):
            lowers = [w for w in D if P.leq(w, a) and P.leq(w, b)]
            maxl = [w for w in lowers if not any(P.lt(w, v) for v in lowers)]
            if len(maxl) != 1:
                return False, (x, a, b)
    return True, None


def _is_polyhedral_meets(P: PointedPoset):
    # pairs with a common upper bound must have a meet
    for a, b in itertools.combinations(P.objects, 2):
        bd = P.bounds([a, b])
        if bd.min_upper and bd.meet is None:
            return False, (a, b)
    return True, None


def _is_lower_saturated(P: PointedPoset):
    for a, b in itertools.combinations(P.objects, 2):
        bd = P.bounds([a, b])
        if not bd.min_upper:
            continue
        want = P.vertex_set(a) & P.vertex_set(b)
        if not any(P.vertex_set(w) == want for w in bd.max_lower):
            return False, (a, b)
    return True, None


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
    groups: dict[int, list[Obj]] = {}
    for x in P.objects:
        groups.setdefault(len(P.vertex_set(x)), []).append(x)
    for k, xs in sorted(groups.items()):
        xs = sorted(xs, key=_skey)
        ref = P.sub_poset(xs[0], "down")
        for other in xs[1:]:
            if down_isomorphism(ref, P.sub_poset(other, "down")) is None:
                return False, (xs[0], other)
    return True, None


def classify(P: PointedPoset) -> PosetReport:
    """Classification report: reduced / simplicial / polyhedral /
    lower saturated / regular, each with a witness on failure.

    The two polyhedral characterizations (all down-sets are lower
    semilattices; pairs with an upper bound have meets) are both run and
    must agree.  The report is computed once per poset and kept on it.
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
    poly1, w1 = _is_polyhedral_local(P)
    poly2, w2 = _is_polyhedral_meets(P)
    if poly1 != poly2:
        raise AssertionError(
            f"polyhedral checks disagree: local={poly1} ({w1}), meets={poly2} ({w2})"
        )
    if w2:
        witnesses["polyhedral"] = w2
    elif w1:
        witnesses["polyhedral"] = w1
    sat, w = _is_lower_saturated(P)
    if w:
        witnesses["lower_saturated"] = w
    regular, w = _is_regular(P)
    if w:
        witnesses["regular"] = w
    return PosetReport(
        norm=P.norm,
        reduced=reduced,
        simplicial=simplicial,
        polyhedral=poly1,
        lower_saturated=sat,
        regular=regular,
        witnesses=witnesses,
    )


def _collapse(P: PointedPoset, x: Obj, y: Obj) -> PointedPoset:
    """Collapse the cover x < y onto x.

    The new order is the reachability closure of the old strict order on
    Obj minus y together with u <= x for every u < y.  Antisymmetry holds
    because x < y is a cover; the constructor re-checks.
    """
    keep = [o for o in P.objects if o != y]
    rel = [(a, b) for a in keep for b in keep if a != b and P.lt(a, b)]
    rel += [(u, x) for u in P.objects if u != x and u != y and P.lt(u, y)]
    return PointedPoset(keep, P.base, rel)


def reduce_poset(P: PointedPoset, candidate_order: str = "lex") -> tuple[PointedPoset, dict]:
    """Collapse covers x < y with x != base and V(x) = V(y) until none left.

    Candidates are processed in lexicographic order of (x, y) by default
    (``candidate_order="revlex"`` picks the largest instead, used to probe
    order independence).  Returns the reduced poset and the projection map
    original object -> image.
    """
    if candidate_order not in ("lex", "revlex"):
        raise ValueError(f"unknown candidate order {candidate_order!r}")
    pick = 0 if candidate_order == "lex" else -1
    proj = {o: o for o in P.objects}
    cur = P
    while True:
        cands = collapsible_covers(cur)
        if not cands:
            return cur, proj
        x, y = cands[pick]
        cur = _collapse(cur, x, y)
        for k, v in proj.items():
            if v == y:
                proj[k] = x


def reduce_step(P: PointedPoset) -> tuple[PointedPoset, tuple[Obj, Obj]]:
    """A single collapse step; raises NoCollapseAvailable when P is reduced."""
    cands = collapsible_covers(P)
    if not cands:
        raise NoCollapseAvailable("poset is already reduced")
    x, y = cands[0]
    return _collapse(P, x, y), (x, y)
