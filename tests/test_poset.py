import dataclasses
import random

import pytest

from posetprod import errors, poset
from posetprod.fixtures import (
    cube,
    fix_a,
    fix_b,
    fix_c,
    fix_d,
    fix_e,
    random_poset_with,
    simplex,
)
from posetprod.poset import PointedPoset, classify, down_isomorphism, reduce_poset, reduce_step


def test_validation_errors():
    with pytest.raises(errors.DuplicateObject):
        PointedPoset(["*", "a", "a"], "*", [])
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


def test_reduce_step_and_no_collapse():
    P = fix_b()
    with pytest.raises(errors.NoCollapseAvailable):
        reduce_step(P)
    Q = PointedPoset(
        ["*", "a", "b", "c", "d", "e"],
        "*",
        [("*", "a"), ("*", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "e")],
    )
    # e sits above c,d with the same vertex set {a,b}: collapsible
    Q2, (x, y) = reduce_step(Q)
    assert y == "e" and x in {"c", "d"}
    assert len(Q2.objects) == 5


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


def test_reduce_candidate_order_confluence_observed():
    # open question in the source material: the reduced form is observed to
    # be independent of the collapse order; probed here, not proven
    for P in random_poset_with(12, "any", 30):
        R1, _ = reduce_poset(P, "lex")
        R2, _ = reduce_poset(P, "revlex")
        assert down_isomorphism(R1, R2) is not None


def test_reduce_refuses_an_unknown_candidate_order():
    with pytest.raises(ValueError, match="unknown candidate order 'bogus'"):
        reduce_poset(fix_a(), "bogus")


def test_collapsible_covers_drive_reduced_and_reduce():
    P = fix_a()
    covs = poset.collapsible_covers(P)
    assert covs and covs == sorted(covs)
    assert all(x != P.base and P.vertex_set(x) == P.vertex_set(y) for x, y in covs)
    assert classify(P).witnesses["reduced"] == covs[0]
    assert reduce_step(P)[1] == covs[0]
    assert poset.collapsible_covers(reduce_poset(P)[0]) == []


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


def test_classify_implications_on_random_posets():
    for P in random_poset_with(13, "any", 120):
        rep = classify(P)  # also asserts the two polyhedral algorithms agree
        if rep.simplicial:
            assert rep.polyhedral
        if rep.polyhedral:
            assert rep.lower_saturated
        assert rep.norm == max((len(P.vertex_set(x)) for x in P.objects), default=0) - 1


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


def test_json_roundtrip():
    P = fix_c()
    Q = PointedPoset.from_dict(P.to_dict())
    assert Q == P


def test_norm_and_vertex_monotonicity():
    for P in random_poset_with(15, "any", 50):
        for x, y in P.covers:
            assert P.vertex_set(x) <= P.vertex_set(y)
        for x in P.objects:
            if x != P.base:
                assert len(P.vertex_set(x)) >= 1
