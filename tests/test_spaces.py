"""Simplicial set machinery: models, products, colimits, homology."""

import pytest

from posetprod.errors import InsufficientTruncation, PreconditionFailed
from posetprod import spaces
from posetprod.fixtures import cube, fix_a, fix_b, fix_e
from posetprod.linalg import F2, QQ, FieldSpec
from posetprod.poset import PointedPoset
from posetprod.spaces import (
    FiniteSimplicialSet,
    SimplicialMap,
    _UnionFind,
    circle_space,
    colimit_space,
    disk_space,
    homology,
    interval_space,
    pair_spaces,
    point_space,
    polyhedral_product_space,
    polyprod_homology,
    product_space,
    two_point_space,
)

F101 = FieldSpec.Fp(101)


def test_model_homologies():
    assert homology(circle_space(3), 2) == (1, 1, 0)
    assert homology(disk_space(3), 2) == (1, 0, 0)
    assert homology(interval_space(2), 1) == (1, 0)
    assert homology(two_point_space(2), 1) == (2, 0)
    # complete spaces answer above their truncation
    assert homology(point_space(1), 3) == (1, 0, 0, 0)


def test_simplex_counts_and_canonical_words():
    S1 = circle_space(4)
    for n in range(5):
        simps = S1.simplices(n)
        assert len(simps) == n + 1
        for core, word in simps:
            assert list(word) == sorted(word, reverse=True)
            assert S1.dim((core, word)) == n
    assert S1.nondegenerate(1) == ["e"]
    assert S1.nondegenerate(2) == []


def test_simplicial_identities_on_models():
    X = disk_space(3)
    for n in range(2, 4):
        for s in X.simplices(n):
            for j in range(n + 1):
                for i in range(j):
                    assert X.face(X.face(s, j), i) == X.face(X.face(s, i), j - 1)
    for n in range(3):
        for s in X.simplices(n):
            for j in range(n + 1):
                t = X.degenerate(s, j)
                # d_i s_j identities
                assert X.face(t, j) == s
                assert X.face(t, j + 1) == s
                for i in range(j):
                    assert X.face(t, i) == X.degenerate(X.face(s, i), j - 1)
                for i in range(j + 2, n + 2):
                    assert X.face(t, i) == X.degenerate(X.face(s, i - 1), j)
            for j in range(n + 1):
                for i in range(j + 1):
                    left = X.degenerate(X.degenerate(s, j), i)
                    right = X.degenerate(X.degenerate(s, i), j + 1)
                    assert left == right


def test_validation_rejects_bad_face_tables():
    with pytest.raises(PreconditionFailed):
        FiniteSimplicialSet(
            {"v": 0, "w": 0, "e": 1, "T": 2},
            {"e": (("v", ()), ("w", ())), "T": (("e", ()), ("e", ()), ("e", ()))},
            3,
        )
    with pytest.raises(PreconditionFailed):
        FiniteSimplicialSet({"e": 1}, {"e": (("v", ()),)}, 2)


def test_simplicial_map_validation():
    S1 = circle_space(3)
    I = interval_space(3)
    # collapsing the circle to a vertex is fine, degenerate image and all
    SimplicialMap(S1, S1, {"v": ("v", ()), "e": ("v", (0,))})
    with pytest.raises(PreconditionFailed):
        SimplicialMap(S1, I, {"v": ("v0", ()), "e": ("e01", ())})
    with pytest.raises(PreconditionFailed):
        SimplicialMap(S1, S1, {"v": ("v", ())})


def test_torus_as_product():
    S1 = circle_space(4)
    T2, _ = product_space(S1, S1, 4)
    assert [len(T2.nondegenerate(n)) for n in range(4)] == [1, 3, 2, 0]
    assert homology(T2, 2, QQ) == (1, 2, 1)
    assert homology(T2, 2, F2) == (1, 2, 1)
    with pytest.raises(InsufficientTruncation):
        homology(T2, 4)


def test_product_express_is_natural():
    S1 = circle_space(3)
    T2, express = product_space(S1, S1, 3)
    for n in range(1, 4):
        for s in S1.simplices(n):
            for t in S1.simplices(n):
                simp = express[(n, (s, t))]
                for i in range(n + 1):
                    via_pair = express[(n - 1, (S1.face(s, i), S1.face(t, i)))]
                    assert T2.face(simp, i) == via_pair


def test_hocolim_core_counts_of_fix_a():
    space, _ = polyhedral_product_space(fix_a(), "circle-point", 3, via="hocolim")
    counts = [0] * 4
    for d in space.cores.values():
        counts[d] += 1
    assert counts == [7, 52, 100, 56]


def test_unknown_via_is_refused_before_any_block_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a block was built")

    monkeypatch.setattr(spaces, "_product", no_build)
    with pytest.raises(PreconditionFailed, match="via must be colim or hocolim"):
        polyhedral_product_space(cube(3), "circle-point", 3, via="bogus")


def test_wedge_of_circles():
    space, _ = polyhedral_product_space(fix_e(), "circle-point", 3, via="colim")
    assert homology(space, 2) == (1, 2, 0)


def test_square_boundary_is_a_circle():
    space, _ = polyhedral_product_space(fix_e(), "interval-endpoints", 3, via="colim")
    assert homology(space, 2) == (1, 1, 0)


def test_three_sphere_from_two_disk_blocks():
    space, _ = polyhedral_product_space(fix_e(), "disk2-circle", 4, via="colim")
    assert homology(space, 3) == (1, 0, 0, 1)


def test_three_sphere_hocolim_agrees():
    space, _ = polyhedral_product_space(fix_e(), "disk2-circle", 4, via="hocolim")
    assert homology(space, 3) == (1, 0, 0, 1)


def test_bigon_products_both_ways():
    P = fix_b()
    colim, _ = polyhedral_product_space(P, "circle-point", 3, via="colim")
    hoco, _ = polyhedral_product_space(P, "circle-point", 3, via="hocolim")
    assert homology(colim, 2) == (1, 2, 2)
    assert homology(hoco, 2) == (1, 2, 2)


def test_full_edge_gives_torus():
    space, _ = polyhedral_product_space(cube(1), "circle-point", 3, via="colim")
    assert homology(space, 2) == (1, 2, 1)


def test_block_inclusions_are_injective():
    P = fix_b()
    X, A, inc = pair_spaces("circle-point", 3)
    space, lookup = polyhedral_product_space(P, "circle-point", 3, via="colim")
    for x in P.objects:
        for n in range(4):
            imgs = {k: v for k, v in lookup.items() if k[0] == n and k[1][0] == x}
            assert len(set(imgs.values())) == len(imgs)


def test_homology_matches_shifted_limits():
    rep = polyprod_homology(fix_e(), "disk2-circle", 4)
    assert rep["homology"] == (1, 0, 0, 1)
    assert rep["limits"] == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert rep["agree"]

    rep = polyprod_homology(fix_b(), "circle-point", 3)
    assert rep["homology"] == (1, 2, 2)
    assert rep["predicted"] == (1, 2, 2)
    assert rep["agree"]


def test_point_pair_collapses_everything():
    rep = polyprod_homology(fix_b(), "point-point", 2)
    assert rep["homology"] == (1, 0)
    assert rep["agree"]


def test_serialization_roundtrip():
    D2 = disk_space(3)
    back = FiniteSimplicialSet.from_dict(D2.to_dict())
    assert back.cores == D2.cores
    assert back.core_faces == D2.core_faces
    assert homology(back, 2) == (1, 0, 0)


def test_field_choice_in_homology():
    rep = polyprod_homology(fix_e(), "disk2-circle", 4, field=F101)
    assert rep["homology"] == (1, 0, 0, 1)
    assert rep["agree"]


def test_insufficient_truncation_on_colimits():
    space, _ = polyhedral_product_space(fix_e(), "circle-point", 2, via="colim")
    with pytest.raises(InsufficientTruncation):
        homology(space, 2)


def test_model_spaces_cut_below_their_top_core_are_incomplete():
    D1 = disk_space(1)
    assert set(D1.cores) == {"v", "c", "e", "f"} and not D1.complete
    # the 1-skeleton has H_1 = 1, so degree 1 must be refused, not answered
    with pytest.raises(InsufficientTruncation):
        homology(D1, 1)
    assert homology(D1, 0) == (1,)
    assert disk_space(2).complete and circle_space(1).complete
    assert not circle_space(0).complete


def test_union_find_handles_long_parent_chains():
    uf = _UnionFind()
    # names sort downwards, so each union hangs the old root below the new one
    names = [f"{9999 - i:04d}" for i in range(5000)]
    for prev, new in zip(names, names[1:]):
        uf.union(new, prev)
    assert uf.parent[names[0]] == names[1]
    assert uf.find(names[0]) == names[-1]
    assert uf.parent[names[0]] == names[-1]
    assert {uf.find(n) for n in names} == {names[-1]}


def test_colimit_refuses_a_collapsing_cover_map():
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    S1 = circle_space(3)
    collapse = SimplicialMap(S1, S1, {"v": ("v", ()), "e": ("v", (0,))})
    with pytest.raises(PreconditionFailed):
        colimit_space(P, {"*": S1, "v": S1}, {("*", "v"): collapse}, 3)


def test_colimit_refuses_a_pair_whose_inclusion_is_not_injective():
    X, A = point_space(3), two_point_space(3)
    glue = SimplicialMap(A, X, {"a0": ("v", ()), "a1": ("v", ())})
    with pytest.raises(PreconditionFailed):
        polyhedral_product_space(fix_e(), (X, A, glue), 3, via="colim")
    # the homotopy colimit needs no injectivity: cylinders on the four points
    # of A x A join the two points of each other block into a circle
    space, _ = polyhedral_product_space(fix_e(), (X, A, glue), 3, via="hocolim")
    assert homology(space, 2) == (1, 1, 0)


def test_product_express_holds_exactly_the_simplex_pairs():
    S1 = circle_space(3)
    _, express = product_space(S1, S1, 3)
    assert len(express) == sum(len(S1.simplices(n)) ** 2 for n in range(4))
    assert express[(2, (("e", (1,)), ("e", (0,))))] == ((("e", (1,)), ("e", (0,))), ())
    assert express[(2, (("e", (1,)), ("v", (1, 0))))] == ((("e", ()), ("v", (0,))), (1,))
    assert (1, (("e", ()), ("v", ()))) not in express
    assert (2, (("e", (0, 1)), ("v", (1, 0)))) not in express
