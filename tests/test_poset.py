import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_oracle as oracle
import covers_oracle
import reduce_oracle
import walk_oracle
from posetprod import errors, poset
from posetprod.fixtures import (
    cube,
    fix_a,
    fix_b,
    fix_c,
    fix_d,
    fix_e,
    random_pointed_poset,
    random_poset_with,
    simplex,
)
from posetprod.poset import PointedPoset, classify, down_isomorphism, reduce_poset, support_walk
from posetprod.stanley import ideal_generators
from posetprod.transform import simplicial_transform


def test_validation_errors():
    with pytest.raises(errors.DuplicateObject, match="duplicate objects 'a' and 'a'"):
        PointedPoset(["*", "a", "a"], "*", [])
    # every order sorts by str, so 1 and "1" would share a place in it: s(P)
    # named the faces {1}@1 and {"1"}@"1" alike and kept one of them
    with pytest.raises(errors.DuplicateObject, match="duplicate objects 1 and '1'"):
        PointedPoset(["*", 1, "1", "c"], "*", [("*", 1), ("*", "1"), (1, "c"), ("1", "c")])
    # equal objects are duplicates whatever their str
    with pytest.raises(errors.DuplicateObject, match=r"duplicate objects 1 and 1\.0"):
        PointedPoset(["*", 1, 1.0], "*", [("*", 1)])
    with pytest.raises(errors.NoBasePoint):
        PointedPoset(["a", "b"], "*", [("a", "b")])
    with pytest.raises(errors.NoBasePoint):
        # base not below b
        PointedPoset(["*", "a", "b"], "*", [("*", "a")])
    with pytest.raises(errors.UnknownObject):
        PointedPoset(["*", "a"], "*", [("*", "z")])
    with pytest.raises(errors.CycleError):
        PointedPoset(["*", "a", "b"], "*", [("*", "a"), ("a", "b"), ("b", "a")])
    with pytest.raises(errors.CycleError):
        PointedPoset(["*", "a"], "*", [("a", "a")])
    with pytest.raises(errors.UnknownObject, match="'zz' is not an object"):
        fix_c().vertex_set("zz")


def test_cover_normalization_drops_redundant_pairs():
    P = PointedPoset(["*", "a", "b"], "*", [("*", "a"), ("a", "b"), ("*", "b")])
    assert P.covers == (("*", "a"), ("a", "b"))
    assert P.leq("*", "b") and P.lt("*", "b")


def test_fix_a_vertices_and_bounds():
    P = fix_a()
    assert P.vertices == ("1", "2")
    assert P.vertex_set("5") == frozenset({"1", "2"})
    assert P.vertex_set("*") == frozenset()
    bd = P.bounds(["3", "4"])
    assert bd.min_upper == ("5", "6")
    assert bd.max_lower == ("1", "2")
    assert bd.meet is None and bd.join is None


def test_fix_b_bounds_no_upper():
    P = fix_b()
    bd = P.bounds(["c", "d"])
    assert bd.min_upper == ()
    assert bd.max_lower == ("a", "b")
    assert P.bounds(["a", "c"]).join == "c"
    assert P.bounds(["a", "b"]).meet == "*"


def test_classify_computes_once_per_poset_and_counts_every_call(monkeypatch):
    # a tracer that wraps the classify binding must still see every call,
    # while the classification itself runs once per poset object
    calls, computed = [], []
    monkeypatch.setattr(poset, "classify", lambda P: calls.append(P) or classify(P))
    real = poset._classify
    monkeypatch.setattr(poset, "_classify", lambda P: computed.append(P) or real(P))
    P = fix_a()
    first = poset.classify(P)
    assert poset.classify(P) is first
    assert (len(calls), len(computed)) == (2, 1)
    assert poset.classify(fix_a()) == first
    assert (len(calls), len(computed)) == (3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.polyhedral = True
    with pytest.raises(TypeError):
        first.witnesses["polyhedral"] = None


def test_classify_fixtures():
    ra = classify(fix_a())
    assert ra.norm == 1
    assert not ra.lower_saturated
    assert set(ra.witnesses["lower_saturated"]) == {"3", "4"}
    assert not ra.polyhedral
    assert not ra.reduced

    rb = classify(fix_b())
    assert rb.norm == 1
    assert rb.reduced and rb.simplicial and rb.polyhedral and rb.lower_saturated and rb.regular

    rc = classify(fix_c())
    assert rc.norm == 3
    assert rc.polyhedral and not rc.simplicial
    assert rc.lower_saturated and rc.regular and rc.reduced

    rd = classify(fix_d())
    assert rd.simplicial and rd.polyhedral and rd.regular

    re_ = classify(fix_e())
    assert re_.norm == 0
    assert re_.simplicial and re_.polyhedral and re_.lower_saturated and re_.regular

    r3 = classify(cube(3))
    assert r3.norm == 7
    assert r3.polyhedral and r3.regular and not r3.simplicial

    one = PointedPoset(["*"], "*", [])
    r1 = classify(one)
    assert r1.norm == -1
    assert r1.simplicial and r1.polyhedral and r1.regular


def _cube_by_containment(n):
    """The n-cube's face poset from every pair of faces, one contained in
    the other."""
    faces = ["".join(w) for w in itertools.product("01u", repeat=n)]
    rel = [(f, g) for f in faces for g in faces if f != g and all(a == b or b == "u" for a, b in zip(f, g))]
    rel += [("*", f) for f in faces if "u" not in f]
    return PointedPoset(["*"] + faces, "*", rel)


@pytest.mark.parametrize("n", range(1, 5))
def test_cube_from_covers_equals_cube_by_containment(n):
    P, Q = cube(n), _cube_by_containment(n)
    assert P.objects == Q.objects and P.covers == Q.covers
    assert {x: P.up_set(x) for x in P.objects} == {x: Q.up_set(x) for x in Q.objects}
    assert P == Q


def _simplex_by_containment(n):
    """The n-simplex's face poset from every pair of faces, one contained in
    the other, the faces named by their digits."""
    faces = ["".join(map(str, c)) for k in range(1, n + 2) for c in itertools.combinations(range(n + 1), k)]
    rel = [(f, g) for f in faces for g in faces if f != g and set(f) <= set(g)]
    rel += [("*", f) for f in faces if len(f) == 1]
    return PointedPoset(["*"] + faces, "*", rel)


@pytest.mark.parametrize("n", range(0, 7))
def test_simplex_from_covers_equals_simplex_by_containment(n):
    P, Q = simplex(n), _simplex_by_containment(n)
    assert (P.objects, P.covers, P.vertices) == (Q.objects, Q.covers, Q.vertices)
    assert P == Q


def test_simplex_refuses_names_that_no_longer_spell_one_set_of_points():
    # the point "10" and the edge "01" would have the same digits
    assert len(simplex(9).objects) == 2**10
    with pytest.raises(ValueError):
        simplex(10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_covers_from_generators_equal_the_order_derivation(seed):
    # generate the order of a random poset with its covers, some redundant
    # transitive relations and some repeated ones, in shuffled order
    rng = random.Random(seed)
    P = _renamed(random_pointed_poset(rng, max_objects=rng.randint(1, 10)), rng)
    longer = [(a, b) for a in P.objects for b in P.objects if P.lt(a, b) and (a, b) not in P.covers]
    rel = list(P.covers) + rng.sample(longer, rng.randint(0, len(longer)))
    rel += rng.choices(rel, k=rng.randint(0, len(rel)))
    rng.shuffle(rel)
    Q = PointedPoset(P.objects, P.base, rel)
    covers, lower, upper, vertices = covers_oracle.cover_data(Q)
    assert Q == P and Q.covers == covers and Q.vertices == vertices
    assert all(Q.lower_covers(x) == lower[x] and Q.upper_covers(x) == upper[x] for x in Q.objects)
    assert Q._vsets == {x: frozenset(v for v in vertices if Q.leq(v, x)) for x in Q.objects}


def _generating_relations(P: PointedPoset, rng: random.Random) -> list:
    """The covers of P with random redundant transitive and repeated
    relations, shuffled."""
    longer = [(a, b) for a in P.objects for b in P.objects if P.lt(a, b) and (a, b) not in P.covers]
    rel = list(P.covers) + rng.sample(longer, rng.randint(0, len(longer)))
    rel += rng.choices(rel, k=rng.randint(0, len(rel)))
    rng.shuffle(rel)
    return rel


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_one_pass_construction_equals_the_toposort_construction(seed):
    rng = random.Random(seed)
    P = _renamed(random_pointed_poset(rng, max_objects=rng.randint(1, 12)), rng)
    rel = _generating_relations(P, rng)
    Q, want = PointedPoset(P.objects, P.base, rel), covers_oracle.construction(P.objects, P.base, rel)
    assert Q.objects == want["objects"] and Q.covers == want["covers"] and Q.vertices == want["vertices"]
    for x in Q.objects:
        assert (Q.up_set(x), Q.down_set(x)) == (want["up"][x], want["down"][x])
        assert (Q.lower_covers(x), Q.upper_covers(x)) == (want["lower"][x], want["upper"][x])
        assert Q.vertex_set(x) == want["vsets"][x]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_a_reversed_relation_is_a_cycle_through_the_named_object(seed):
    rng = random.Random(seed)
    P = _renamed(random_pointed_poset(rng, max_objects=rng.randint(2, 12)), rng)
    a, b = rng.choice([(a, b) for a in P.objects for b in P.objects if P.lt(a, b)])
    rel = _generating_relations(P, rng) + [(b, a)]
    rng.shuffle(rel)
    with pytest.raises(errors.CycleError):
        covers_oracle.construction(P.objects, P.base, rel)
    with pytest.raises(errors.CycleError) as refused:
        PointedPoset(P.objects, P.base, rel)
    (named,) = [o for o in P.objects if str(refused.value) == f"relation contains a cycle through {o!r}"]
    # the named object reaches itself along the given relations
    seen, todo = set(), [named]
    while todo:
        x = todo.pop()
        for u, v in rel:
            if u == x and v not in seen:
                seen.add(v)
                todo.append(v)
    assert named in seen


def test_sub_poset():
    P = fix_b()
    D = P.sub_poset("c", "down")
    assert set(D.objects) == {"*", "a", "b", "c"}
    assert classify(D).simplicial
    U = P.sub_poset("a", "up")
    assert set(U.objects) == {"a", "c", "d"}
    assert U.base == "a"
    S = P.sub_poset("c", "down-strict")
    assert set(S.objects) == {"*", "a", "b"}
    X = P.sub_poset("c", "delete")
    assert set(X.objects) == {"*", "a", "b", "d"}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_sub_poset_equals_the_all_pairs_construction(seed, pick):
    P = random_pointed_poset(random.Random(seed), max_objects=9)
    x = P.objects[pick % len(P.objects)]
    keeps = {
        "down": (P.down_set(x), P.base),
        "down-strict": (P.down_set(x) - {x}, P.base),
        "up": (P.up_set(x), x),
        "delete": (set(P.objects) - {x}, P.base),
    }
    for direction, (keep, base) in keeps.items():
        if x == P.base and direction in ("down-strict", "delete"):
            continue
        Q = P.sub_poset(x, direction)
        R = PointedPoset(keep, base, [(a, b) for a in keep for b in keep if P.lt(a, b)])
        assert (Q.objects, Q.covers, Q.base, Q.vertices) == (R.objects, R.covers, R.base, R.vertices)
        assert Q == R


def test_reduce_chain():
    P = PointedPoset(["*", "v", "w"], "*", [("*", "v"), ("v", "w")])
    R, proj = reduce_poset(P)
    assert set(R.objects) == {"*", "v"}
    assert proj == {"*": "*", "v": "v", "w": "v"}


def test_reduce_fix_a_collapses_to_diamond():
    R, proj = reduce_poset(fix_a())
    assert len(R.objects) == 4
    rep = classify(R)
    assert rep.reduced and rep.simplicial
    # everything with vertex set {1,2} lands on a single top
    tops = {proj[x] for x in ("3", "4", "5", "6")}
    assert len(tops) == 1


def test_reduce_without_collapse_returns_P_and_merges_a_class():
    P = fix_b()
    R, proj = reduce_poset(P)
    assert R is P and proj == {o: o for o in P.objects}
    Q = PointedPoset(
        ["*", "a", "b", "c", "d", "e"],
        "*",
        [("*", "a"), ("*", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "e")],
    )
    # c, d and e share the vertex set {a,b} and are joined by covers: one
    # class, surviving as its str-greatest minimal element d
    R, proj = reduce_poset(Q)
    assert R.objects == ("*", "a", "b", "d")
    assert {proj[x] for x in "cde"} == {"d"}


def test_reduce_preserves_vertices_and_projection_is_monotone():
    for P in random_poset_with(11, "any", 40):
        R, proj = reduce_poset(P)
        assert set(R.vertices) == set(P.vertices)
        for x in P.objects:
            assert R.vertex_set(proj[x]) == P.vertex_set(x)
        for x in P.objects:
            for y in P.objects:
                if P.leq(x, y):
                    assert R.leq(proj[x], proj[y])
        R2, _ = reduce_poset(R)
        assert R2 == R  # idempotent


def test_collapsible_covers_drive_reduced_and_reduce():
    P = fix_a()
    covs = poset.collapsible_covers(P)
    assert covs and covs == sorted(covs)
    assert all(x != P.base and P.vertex_set(x) == P.vertex_set(y) for x, y in covs)
    assert classify(P).witnesses["reduced"] == covs[0]
    R, proj = reduce_poset(P)
    assert all(proj[x] == proj[y] for x, y in covs)
    assert poset.collapsible_covers(R) == []


def test_chains_strict_and_weak():
    P = PointedPoset(["*", "a", "b"], "*", [("*", "a"), ("a", "b")])
    assert poset.chains(P, 5) == [
        [("*",), ("a",), ("b",)],
        [("*", "a"), ("*", "b"), ("a", "b")],
        [("*", "a", "b")],
    ]
    weak = poset.chains(P, 2, weak=True)
    assert [len(level) for level in weak] == [3, 6, 10]
    assert weak[1] == [("*", "*"), ("*", "a"), ("*", "b"), ("a", "a"), ("a", "b"), ("b", "b")]
    assert poset.chains(P, 0) == [[("*",), ("a",), ("b",)]]
    assert poset.chains(P, -1) == poset.chains(P, -2, weak=True) == []
    assert poset.chains(P, 3, objects=["b", "*"]) == [[("*",), ("b",)], [("*", "b")]]
    assert poset.chains(P, 3, objects=[]) == []
    assert poset.chains(P, 1, weak=True, objects=[]) == [[], []]
    with pytest.raises(errors.UnknownObject, match="zz"):
        poset.chains(P, 3, objects=["a", "zz"])


def _is_polyhedral_local(P: PointedPoset):
    # every down-set is a lower semilattice
    for x in P.objects:
        D = sorted(P.down_set(x), key=str)
        for a, b in itertools.combinations(D, 2):
            lowers = [w for w in D if P.leq(w, a) and P.leq(w, b)]
            maxl = [w for w in lowers if not any(P.lt(w, v) for v in lowers)]
            if len(maxl) != 1:
                return False, (x, a, b)
    return True, None


def test_classify_implications_on_random_posets():
    for P in random_poset_with(13, "any", 120):
        rep = classify(P)
        assert rep.polyhedral == _is_polyhedral_local(P)[0]
        if rep.simplicial:
            assert rep.polyhedral
        if rep.polyhedral:
            assert rep.lower_saturated
        assert rep.norm == max((len(P.vertex_set(x)) for x in P.objects), default=0) - 1


def test_reduce_is_computed_once_per_poset():
    P = fix_a()
    R, proj = reduce_poset(P)
    again = reduce_poset(P)
    assert again[0] is R and again[1] is proj
    assert R._reduction is None
    with pytest.raises(TypeError):
        proj["3"] = "3"
    assert reduce_poset(fix_a()) == (R, proj)


_random_posets = st.integers(0, 10**6).map(lambda seed: random_pointed_poset(random.Random(seed), max_objects=9))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(P=_random_posets)
def test_collapse_equals_the_all_pairs_construction(P):
    for x, y in poset.collapsible_covers(P):
        Q = reduce_oracle._collapse(P, x, y)
        keep = [o for o in P.objects if o != y]
        rel = [(a, b) for a in keep for b in keep if P.lt(a, b)]
        rel += [(u, x) for u in keep if u != x and P.lt(u, y)]
        R = PointedPoset(keep, P.base, rel)
        assert (Q.objects, Q.covers, Q.base, Q.vertices) == (R.objects, R.covers, R.base, R.vertices)
        assert Q == R


def _renaming(P: PointedPoset, rng: random.Random) -> dict:
    """Each object of P mapped to a new name, the names given in a random
    order, so that the str order of names is not the order the generator
    made them in."""
    names = [f"n{i}" for i in range(len(P.objects))]
    rng.shuffle(names)
    return dict(zip(P.objects, names))


def _renamed(P: PointedPoset, rng: random.Random) -> PointedPoset:
    """A copy of P under a new ``_renaming``."""
    m = _renaming(P, rng)
    return PointedPoset(m.values(), m[P.base], [(m[a], m[b]) for a, b in P.covers])


def _doubled(P: PointedPoset, keep=lambda f: True) -> PointedPoset:
    """P with a copy f' of each kept non-base object f, lying just above f
    and below the upper covers of f: each f < f' is collapsible."""
    twins = {f: f"{f}'" for f in P.objects if f != P.base and keep(f)}
    rel = list(P.covers) + [(f, g) for f, g in twins.items()]
    rel += [(g, u) for f, g in twins.items() for u in P.upper_covers(f)]
    return PointedPoset(list(P.objects) + list(twins.values()), P.base, rel)


@st.composite
def _posets_to_reduce(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    P = random_pointed_poset(rng, max_objects=rng.randint(2, 10))
    if draw(st.booleans()):
        share = rng.random()
        P = _doubled(P, lambda f: rng.random() < share)
    return _renamed(P, rng)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(P=_posets_to_reduce())
def test_reduce_equals_the_collapse_loop(P):
    R, proj = reduce_poset(P)
    L, lproj = reduce_oracle.reduce_poset(P, "lex")
    assert (R.objects, R.covers, R.base) == (L.objects, L.covers, L.base)
    assert dict(proj) == dict(lproj)
    assert (R is P) == (L is P)
    # any collapse order reaches the same quotient, up to the names kept
    V, _ = reduce_oracle.reduce_poset(P, "revlex")
    assert down_isomorphism(V, R) is not None


def test_projection_fibres_are_the_cover_identifications():
    # stanley merges generators along its ("cover", x, y) relations and reads
    # the reduction elsewhere: both must give the same classes
    posets = random_poset_with(15, "polyhedral", 20) + [_doubled(cube(2)), _doubled(fix_c())]
    for P in posets:
        _, proj = reduce_poset(P)
        parent = {x: x for x in P.objects}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for tag in ideal_generators(P).tags:
            if tag[0] == "cover":
                parent[find(tag[1])] = find(tag[2])
        fibres = {frozenset(x for x in P.objects if proj[x] == proj[y]) for y in P.objects}
        classes = {frozenset(x for x in P.objects if find(x) == find(y)) for y in P.objects}
        assert fibres == classes


def test_reducing_doubled_cube_3_builds_one_poset(monkeypatch):
    D = _doubled(cube(3))
    built = []
    init = PointedPoset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointedPoset, "__init__", counting_init)
    R, _ = reduce_poset(D)
    assert len(built) == 1 and R == cube(3)


def _brute_minimal(P, S):
    return tuple(sorted((u for u in S if not any(P.lt(v, u) for v in S)), key=str))


def _brute_maximal(P, S):
    return tuple(sorted((u for u in S if not any(P.lt(u, v) for v in S)), key=str))


def _circle_with_a_whisker() -> PointedPoset:
    """The four-point circle c, d < y, w with x above c alone."""
    covers = [("*", "c"), ("*", "d"), ("c", "y"), ("c", "w"), ("d", "y"), ("d", "w"), ("c", "x")]
    return PointedPoset(["*", "c", "d", "w", "x", "y"], "*", covers)


def test_core_collapses_a_cone_to_one_point():
    P = cube(3)
    assert len(P.core(P.objects)) == 1
    for v in P.vertices:
        assert len(P.core(P.up_set(v))) == 1
    # {*, uuu} is not convex: its one cover skips every face between them
    assert len(P.core({P.base, "uuu"})) == 1
    assert P.core(P.vertices) == frozenset(P.vertices)


def test_core_keeps_the_four_point_circle():
    P = _circle_with_a_whisker()
    circle = frozenset({"c", "d", "w", "y"})
    assert P.core(circle) == circle
    # the whisker x has one lower cover, so it goes
    assert P.core(circle | {"x"}) == circle


def test_core_keeps_a_down_beat_point_of_b_whose_cover_lies_outside_b():
    # relative to B = {x}, dropping x would leave B empty and the pair
    # (circle, point) would become the circle alone
    P = _circle_with_a_whisker()
    U = frozenset({"c", "d", "w", "x", "y"})
    assert P.core(U, below={"x"}) == U
    # with c in B as well, x is a beat point of B too, and goes
    assert P.core(U, below={"c", "w", "x", "y"}) == U - {"x"}


def _beat_points(P, X, below):
    """The beat points of X by the definition, relative to ``below``."""
    out = set()
    for x in X:
        ups = [b for b in X if P.lt(x, b) and not any(P.lt(x, z) and P.lt(z, b) for z in X)]
        downs = [a for a in X if P.lt(a, x) and not any(P.lt(a, z) and P.lt(z, x) for z in X)]
        if len(ups) == 1 or (len(downs) == 1 and not (x in below and downs[0] not in below)):
            out.add(x)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(P=_random_posets, seed=st.integers(0, 10**6))
def test_core_leaves_no_beat_point(P, seed):
    # random subsets need not be convex, so their covers are not those of P
    rng = random.Random(seed)
    X = frozenset(rng.sample(P.objects, rng.randint(1, len(P.objects))))
    below = frozenset().union(*(P.up_set(x) & X for x in rng.sample(sorted(X, key=str), rng.randint(0, min(2, len(X))))))
    kept = P.core(X, below)
    assert kept and kept <= X
    assert _beat_points(P, kept, below) == set()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(P=_random_posets, seed=st.integers(0, 10**6))
def test_order_queries_match_their_definitions(P, seed):
    rng = random.Random(seed)
    subsets = [set(P.objects), set(rng.sample(P.objects, rng.randint(0, len(P.objects))))]
    subsets += [P.up_set(x) for x in P.objects] + [P.down_set(x) for x in P.objects]
    for S in subsets:
        assert P.minimal(S) == _brute_minimal(P, S)
        assert P.maximal(S) == _brute_maximal(P, S)
    sets = list(itertools.combinations(P.objects, 2)) + [rng.sample(P.objects, min(3, len(P.objects)))]
    for elems in sets:
        uppers = {u for u in P.objects if all(P.leq(e, u) for e in elems)}
        lowers = {w for w in P.objects if all(P.leq(w, e) for e in elems)}
        bd = P.bounds(elems)
        assert bd.min_upper == _brute_minimal(P, uppers)
        assert bd.max_lower == _brute_maximal(P, lowers)
        assert bd.join == (bd.min_upper[0] if len(bd.min_upper) == 1 else None)
        assert bd.meet == (bd.max_lower[0] if len(bd.max_lower) == 1 else None)
        if len(elems) == 2:
            assert P.meet(*elems) == bd.meet
    def covers(a, b):
        return P.lt(a, b) and not any(P.lt(a, c) and P.lt(c, b) for c in P.objects)

    for x in P.objects:
        assert P.lower_covers(x) == tuple(sorted((a for a in P.objects if covers(a, x)), key=str))
        assert P.upper_covers(x) == tuple(sorted((b for b in P.objects if covers(x, b)), key=str))
    assert P.covers == tuple((a, b) for a in P.objects for b in P.objects if covers(a, b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(P=_random_posets, seed=st.integers(0, 10**6))
def test_components_match_a_union_find_over_the_covers(P, seed):
    rng = random.Random(seed)
    members = set(rng.sample(P.objects, rng.randint(0, len(P.objects))))
    assert P.components(members) == _union_find_reps(members, P.covers)


def _transform_of_a_polyhedral_poset(seed):
    return simplicial_transform(random_poset_with(seed, "polyhedral", 1, max_objects=6)[0]).poset


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    P=st.one_of(_random_posets, st.integers(0, 10**6).map(_transform_of_a_polyhedral_poset)),
    kind=st.sampled_from(["walk", "union", "subset"]),
    seed=st.integers(0, 10**6),
)
def test_apex_is_the_object_whose_up_set_is_the_set(P, kind, seed):
    rng = random.Random(seed)
    if kind == "walk":
        S = set(rng.sample(P.vertices, rng.randint(0, len(P.vertices))))
        U = frozenset(x for x in P.objects if S <= P.vertex_set(x))
    elif kind == "union":
        U = frozenset().union(*(P.up_set(x) for x in rng.sample(P.objects, rng.randint(0, min(3, len(P.objects))))))
    else:
        U = frozenset(rng.sample(P.objects, rng.randint(0, len(P.objects))))
    a = P.apex(U)
    assert [x for x in P.objects if P.up_set(x) == U] == ([] if a is None else [a])
    if kind != "subset":
        # on an up-set, a cone exactly when it has one minimal object
        bottoms = P.minimal(U)
        assert a == (bottoms[0] if len(bottoms) == 1 else None)


def _union_find_reps(nodes, edges):
    """Each node mapped to the str-least node of its class under the edges
    with both ends in ``nodes``, by a union-find that roots each class at
    its str-least member."""
    parent = {m: m for m in nodes}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = sorted((find(a), find(b)), key=str)
            parent[rb] = ra
    return {m: find(m) for m in nodes}


_mixed_nodes = st.lists(
    st.one_of(st.integers(-20, 20), st.text("ab1(", max_size=3), st.tuples(st.integers(0, 2), st.text("ab", max_size=1))),
    max_size=25,
    unique_by=str,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_mixed_nodes, data=st.data())
def test_component_reps_match_a_union_find(values, data):
    # edges may leave the nodes: those to values[k:] are ignored
    k = data.draw(st.integers(0, len(values)))
    index = st.integers(0, len(values) - 1) if values else st.nothing()
    edges = data.draw(st.lists(st.tuples(index, index), max_size=2 * len(values)))
    neighbours: dict = {}
    for i, j in edges:
        neighbours.setdefault(values[i], []).append(values[j])
        neighbours.setdefault(values[j], []).append(values[i])
    nodes = values[:k]
    assert poset.component_reps(nodes, neighbours) == _union_find_reps(nodes, [(values[i], values[j]) for i, j in edges])


def test_component_reps_names_a_long_chain_by_its_least_node():
    # names sort downwards along the chain, so the search starts at its far
    # end and walks all 5,000 nodes; a recursive search would hit the limit
    names = [f"{9999 - i:04d}" for i in range(5000)]
    neighbours = {n: [] for n in names}
    for a, b in zip(names, names[1:]):
        neighbours[a].append(b)
        neighbours[b].append(a)
    assert poset.component_reps(names, neighbours) == dict.fromkeys(names, names[-1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(P=_random_posets)
def test_polyhedral_equals_the_local_characterization(P):
    rep = classify(P)
    assert rep.polyhedral == _is_polyhedral_local(P)[0]
    if not rep.polyhedral:
        # the witness is a pair with an upper bound and no meet
        a, b = rep.witnesses["polyhedral"]
        bd = P.bounds([a, b])
        assert bd.min_upper and bd.meet is None


def test_reduce_preserves_polyhedral():
    for P in random_poset_with(14, "polyhedral", 25):
        R, _ = reduce_poset(P)
        assert classify(R).polyhedral


def test_down_isomorphism():
    assert down_isomorphism(cube(2), cube(2)) is not None
    assert down_isomorphism(cube(2), simplex(3)) is None
    assert down_isomorphism(simplex(1), fix_e()) is None


def test_regular_witness():
    # two vertices, one edge above only one of them: ranks 1 and 2 are fine,
    # but two rank-1 objects with different down-sets break regularity below
    P = PointedPoset(
        ["*", "u", "v", "w", "e"],
        "*",
        [("*", "u"), ("*", "v"), ("*", "w"), ("u", "e"), ("v", "e"), ("v", "x")][:-1],
    )
    rep = classify(P)
    assert rep.regular  # all rank-1 down-sets are chains here
    Q = PointedPoset(
        ["*", "u", "v", "e", "f"],
        "*",
        [("*", "u"), ("*", "v"), ("u", "e"), ("v", "e"), ("u", "f")],
    )
    # f and e both cover u but V(f)={u}: Q is not reduced; e has rank 2
    repq = classify(Q)
    assert not repq.reduced
    # e, f and g have the vertices u and v; P_{<=f} is P_{<=e} under another
    # name, but P_{<=g} holds e as well, so g is the first to fail
    R = PointedPoset(
        ["*", "u", "v", "e", "f", "g"],
        "*",
        [("*", "u"), ("*", "v"), ("u", "e"), ("v", "e"), ("u", "f"), ("v", "f"), ("e", "g")],
    )
    rep_r = classify(R)
    assert rep_r.regular is False
    assert rep_r.witnesses["regular"] == ("e", "g")


def test_classify_builds_no_poset(monkeypatch):
    # every test reads the order of P itself; a regularity test that builds
    # the sub-posets P_{<=x} again fails here
    posets = [cube(3), fix_c()]
    built = []
    init = PointedPoset.__init__
    monkeypatch.setattr(PointedPoset, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    reports = [classify(P) for P in posets]
    assert built == []
    assert [r.regular for r in reports] == [True, True]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(P=_random_posets)
def test_pair_pass_and_regularity_match_the_sub_poset_oracle(P):
    rep = classify(P)
    poly, sat = oracle._meets_and_saturation(P)
    regular, w = oracle._is_regular(P)
    flags = {"polyhedral": (poly is None, poly), "lower_saturated": (sat is None, sat), "regular": (regular, w)}
    for name, expected in flags.items():
        assert (getattr(rep, name), rep.witnesses.get(name)) == expected


def _is_order_isomorphism(P, Q, mapping):
    return (
        sorted(mapping, key=str) == list(P.objects)
        and sorted(mapping.values(), key=str) == list(Q.objects)
        and mapping[P.base] == Q.base
        and all(P.leq(a, b) == Q.leq(mapping[a], mapping[b]) for a in P.objects for b in P.objects)
    )


@settings(max_examples=250, deadline=None, derandomize=True)
@given(P=_random_posets, other=_random_posets, seed=st.integers(0, 10**6))
def test_down_isomorphism_matches_the_oracle(P, other, seed):
    names = [f"y{i}" for i in range(len(P.objects) - 1)]
    random.Random(seed).shuffle(names)
    rename = {o: (o if o == P.base else names.pop()) for o in P.objects}
    Q = PointedPoset(rename.values(), P.base, [(rename[a], rename[b]) for a, b in P.covers])
    assert _is_order_isomorphism(P, Q, down_isomorphism(P, Q))
    found = down_isomorphism(P, other)
    assert (found is None) == (oracle.down_isomorphism(P, other) is None)
    assert found is None or _is_order_isomorphism(P, other, found)


def test_json_roundtrip():
    P = fix_c()
    Q = PointedPoset.from_dict(P.to_dict())
    assert Q == P


def test_hash_accepts_names_of_mixed_types():
    # names need only be hashable; int and str do not compare with <
    covers = [("*", 1), ("*", 2), (1, 3), (2, 3)]
    P = PointedPoset(["*", 1, 2, 3], "*", covers)
    Q = PointedPoset([3, 2, 1, "*"], "*", covers[::-1] + [("*", 3)])
    assert classify(P).polyhedral
    assert P == Q and hash(P) == hash(Q)
    assert len({P, Q, fix_c()}) == 2


def test_norm_and_vertex_monotonicity():
    for P in random_poset_with(15, "any", 50):
        for x, y in P.covers:
            assert P.vertex_set(x) <= P.vertex_set(y)
        for x in P.objects:
            if x != P.base:
                assert len(P.vertex_set(x)) >= 1


def test_support_walk_prunes_empty_up_sets_and_vanishing_series():
    def walk(P, D, C=None):
        N, K = dict.fromkeys(P.vertices, (1,) + (0,) * D), dict.fromkeys(P.vertices, (0, 1) + (0,) * (D - 1))
        return list(support_walk(P, N, K, D, C))

    # the edge: {0, 1} lives on the top alone, once the series reaches degree 2
    none = frozenset()
    assert walk(cube(1), 1) == [
        ((), (), (1, 0), frozenset({"*", "0", "1", "u"}), none),
        (("1",), (), (0, 1), frozenset({"1", "u"}), none),
        (("0",), (), (0, 1), frozenset({"0", "u"}), none),
    ]
    assert walk(cube(1), 2)[-1] == (("0", "1"), (), (0, 0, 1), frozenset({"u"}), none)
    # two isolated vertices: U_{v1, v2} is empty
    assert [S for S, *_ in walk(fix_e(), 2)] == [(), ("v2",), ("v1",)]


def test_support_walk_puts_cokernel_vertices_in_B_and_prunes_when_U_S_minus_B_empties():
    # three vertices below one top t
    P = PointedPoset(["*", "a", "b", "c", "t"], "*", [("*", v) for v in "abc"] + [(v, "t") for v in "abc"])
    one, x = dict.fromkeys(P.vertices, (1, 0, 0, 0)), dict.fromkeys(P.vertices, (0, 1, 0, 0))
    found = {(S, Q): (series, up, below) for S, Q, series, up, below in support_walk(P, one, x, 3, x)}
    # B holds the objects of U_S above a vertex of Q
    assert found[(("a",), ("b", "c"))] == ((0, 0, 0, 1), frozenset({"a", "t"}), frozenset({"t"}))
    assert found[((), ("a",))][2] == frozenset({"a", "t"})
    # the base point lies outside every B, so S = {} takes all 8 sets Q; S = {a, b}
    # leaves only t, which lies above c, so Q = {c} is pruned there
    assert (("a", "b"), ("c",)) not in found
    assert len(found) == 8 + 3 * 4 + 3 + 1
    # C = 0 never opens the branch
    zero = dict.fromkeys(P.vertices, (0, 0, 0, 0))
    assert {Q for _, Q, *_ in support_walk(P, one, x, 3, zero)} == {()}


def _series(rng, D):
    """A random series with D + 1 coefficients, zeros frequent and some up to 10^6."""
    return tuple(rng.choice([0, 0, 1, 2, rng.randint(0, 10**6)]) for _ in range(D + 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), D=st.integers(0, 4), cokernel=st.sampled_from(["absent", "zero", "random"]))
def test_support_walk_equals_the_tuple_series_walk(seed, D, cokernel):
    # renamed, so that the vertex order is not the order the generator made
    # the vertices in
    rng = random.Random(seed)
    P = _renamed(random_pointed_poset(rng, max_objects=rng.randint(1, 9)), rng)
    N, K = ({v: _series(rng, D) for v in P.vertices} for _ in "NK")
    if cokernel == "random":
        C = {v: _series(rng, D) for v in P.vertices}
    else:
        C = None if cokernel == "absent" else dict.fromkeys(P.vertices, (0,) * (D + 1))
    assert list(support_walk(P, N, K, D, C)) == list(walk_oracle.support_walk(P, P.vertices, N, K, D, C))


@pytest.mark.parametrize("n", [3, 4])
def test_support_walk_equals_the_tuple_series_walk_on_cubes_with_augmentation_series(n):
    # the augmentation k[x]/x^5 -> k: image 1, kernel x..x^4, no cokernel
    P, D = cube(n), 4
    N, K, C = (dict.fromkeys(P.vertices, s) for s in [(1, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0,) * 5])
    walked = list(support_walk(P, N, K, D, C))
    assert walked == list(walk_oracle.support_walk(P, P.vertices, N, K, D, C))
    # each U_S is the up-set of the smallest face holding S, the base's for S = {}
    assert {up for *_, up, _ in walked} == {P.up_set(x) for x in P.objects}
