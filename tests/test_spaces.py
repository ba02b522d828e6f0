"""Simplicial set machinery: models, products, colimits, homology."""

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetprod.errors import InsufficientTruncation, PreconditionFailed
from posetprod import spaces
from posetprod.fixtures import FIXTURES, cube, fix_a, fix_b, fix_c, fix_e, random_pointed_poset, simplex
from posetprod.linalg import F2, QQ, FieldSpec
from posetprod.polytensor import tensor_limits
from posetprod.poset import PointedPoset, component_reps
from posetprod.spaces import (
    FiniteSimplicialSet,
    SimplicialMap,
    PAIR_NAMES,
    circle_space,
    colimit_cells,
    colimit_space,
    disk_space,
    hocolim_cells,
    homology,
    induced_collection,
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
    T2, name = product_space(S1, S1, 3)
    for n in range(1, 4):
        for s in S1.simplices(n):
            for t in S1.simplices(n):
                simp = name((n, (s, t)))
                for i in range(n + 1):
                    via_pair = name((n - 1, (S1.face(s, i), S1.face(t, i))))
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
    X, A, _ = pair_spaces("circle-point", 3)
    _, name = polyhedral_product_space(P, "circle-point", 3, via="colim")
    verts = sorted(P.vertices, key=str)
    for x in P.objects:
        block = spaces._product([X if v in P.vertex_set(x) else A for v in verts], 3)
        for n in range(4):
            simps = block.simplices(n)
            assert len({name((n, (x, s))) for s in simps}) == len(simps)


def test_homology_matches_shifted_limits():
    rep = polyprod_homology(fix_e(), "disk2-circle", 4)
    assert rep["homology"] == (1, 0, 0, 1)
    assert rep["limits"] == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert rep["agree"]

    rep = polyprod_homology(fix_b(), "circle-point", 3)
    assert rep["homology"] == (1, 2, 2)
    assert rep["predicted"] == (1, 2, 2)
    assert rep["agree"]


def _components(S):
    """The component of each vertex of S, numbered in the str order of the
    components' least vertices."""
    joined: dict = {}
    for e in S.nondegenerate(1):
        (a, _), (b, _) = S.core_faces[e]
        joined.setdefault(a, []).append(b)
        joined.setdefault(b, []).append(a)
    rep = component_reps(S.nondegenerate(0), joined)
    roots = sorted(set(rep.values()), key=str)
    return {v: roots.index(r) for v, r in rep.items()}


@pytest.mark.parametrize("D", range(4))
@pytest.mark.parametrize("pair", PAIR_NAMES)
def test_pair_table_matches_the_spaces_it_names(pair, D):
    X, A, inc = pair_spaces(pair, D + 1)
    in_x, in_a = _components(X), _components(A)
    for field in (QQ, F2):
        collection = induced_collection(fix_b(), pair, D, field=field)
        assert set(collection.maps) == set(fix_b().vertices)
        for restriction in collection.maps.values():
            assert restriction.source.dims == homology(X, D, field)
            assert restriction.target.dims == homology(A, D, field)
            rows = restriction.nonzero_rows[0]
            for a, j in in_a.items():
                # one 1, in the column of the component of X holding a
                assert rows[j] == [(in_x[inc.on_cores[a][0]], 1)]


def test_unknown_pairs_are_refused():
    for build in (lambda: pair_spaces("disk3-sphere", 2), lambda: induced_collection(fix_b(), "disk3-sphere", 2)):
        with pytest.raises(PreconditionFailed, match="unknown pair 'disk3-sphere'"):
            build()


def test_point_pair_collapses_everything():
    rep = polyprod_homology(fix_b(), "point-point", 2)
    assert rep["homology"] == (1, 0)
    assert rep["agree"]


def test_field_choice_in_homology():
    rep = polyprod_homology(fix_e(), "disk2-circle", 4, field=F101)
    assert rep["homology"] == (1, 0, 0, 1)
    assert rep["agree"]


def test_insufficient_truncation_on_colimits():
    space, _ = polyhedral_product_space(fix_e(), "circle-point", 2, via="colim")
    with pytest.raises(InsufficientTruncation):
        homology(space, 2)


def test_a_pair_of_spaces_truncated_below_n_max_is_refused():
    # the disk cut at 1 is the circle: glued over fix-e's two vertices it
    # gives the torus's homology where the disk pair gives S^3
    assert polyprod_homology(fix_e(), "disk2-circle", 4, compare=False)["homology"] == (1, 0, 0, 1)
    short = pair_spaces("disk2-circle", 1)
    for via in ("colim", "hocolim"):
        with pytest.raises(InsufficientTruncation, match="truncated at 1, below 4"):
            polyprod_homology(fix_e(), short, 4, via=via, compare=False)
        with pytest.raises(InsufficientTruncation):
            polyhedral_product_space(fix_e(), short, 4, via=via)
    # complete spaces answer above their truncation: the circle and the point have no 2-cores
    rep = polyprod_homology(fix_e(), pair_spaces("circle-point", 1), 4, compare=False, check_route=True)
    assert rep["homology"] == rep["simplicial_homology"] == polyprod_homology(fix_e(), "circle-point", 4)["homology"]


def test_model_spaces_cut_below_their_top_core_are_incomplete():
    D1 = disk_space(1)
    assert set(D1.cores) == {"v", "e"} and not D1.complete
    # the 1-skeleton has H_1 = 1, so degree 1 must be refused, not answered
    with pytest.raises(InsufficientTruncation):
        homology(D1, 1)
    assert homology(D1, 0) == (1,)
    assert disk_space(2).complete and circle_space(1).complete
    assert not circle_space(0).complete


def test_the_one_point_poset_is_a_point_by_every_route():
    # no vertices: every block is the empty product, a point
    P = PointedPoset.from_dict({"objects": ["*"], "base": "*", "covers": []})
    for pair in PAIR_NAMES:
        for via in ("colim", "hocolim"):
            rep = polyprod_homology(P, pair, 3, via=via, check_route=True)
            assert rep["homology"] == rep["simplicial_homology"] == rep["predicted"] == (1, 0, 0)
            assert rep["routes_agree"] and rep["agree"]
        found = tensor_limits(P, induced_collection(P, pair, 2), check_route=True)
        assert found.routes_agree is True and found.limits == [(1, 0, 0)]


def test_simplicial_sets_and_maps_refuse_bad_data():
    with pytest.raises(PreconditionFailed, match="dimension 2 outside 0..1"):
        FiniteSimplicialSet({"v": 0, "t": 2}, {"t": [("v", (0,))] * 3}, 1)
    with pytest.raises(PreconditionFailed, match="vertex 'v' must not list faces"):
        FiniteSimplicialSet({"v": 0}, {"v": [("v", ())]}, 1)
    S1 = circle_space(2)
    with pytest.raises(PreconditionFailed, match="image of 'e' has the wrong dimension"):
        SimplicialMap(S1, S1, {"v": ("v", ()), "e": ("v", ())})
    with pytest.raises(PreconditionFailed, match="exceeds a factor truncation"):
        product_space(S1, circle_space(1), 2)


def test_colimit_refuses_a_collapsing_cover_map():
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    S1 = circle_space(3)
    collapse = SimplicialMap(S1, S1, {"v": ("v", ()), "e": ("v", (0,))})
    with pytest.raises(PreconditionFailed):
        colimit_space(P, {"*": S1, "v": S1}, {("*", "v"): collapse}, 3)


def _glue_pair(n_max):
    """The two points of A both sent to the one point of X."""
    X, A = point_space(n_max), two_point_space(n_max)
    return X, A, SimplicialMap(A, X, {"a0": ("v", ()), "a1": ("v", ())})


def _collapse_pair(n_max):
    """The circle A mapped onto the point X: its edge goes to a degenerate
    simplex."""
    X, A = point_space(n_max), circle_space(n_max)
    return X, A, SimplicialMap(A, X, {"v": ("v", ()), "e": ("v", (0,))})


def _cone_pair(n_max):
    """The cone on the circle, with the circle inside: three cores (c, f, T)
    outside A, where disk2-circle's disk has one."""
    X = spaces._model_space(
        {"v": 0, "c": 0, "e": 1, "f": 1, "T": 2},
        {"e": (("v", ()), ("v", ())), "f": (("c", ()), ("v", ())), "T": (("f", ()), ("f", ()), ("e", ()))},
        n_max,
    )
    A = circle_space(n_max)
    return X, A, SimplicialMap(A, X, {"v": ("v", ()), "e": ("e", ())})


_EXTRA_PAIRS = {"glue": _glue_pair, "collapse": _collapse_pair, "cone": _cone_pair}


def test_colimit_refuses_a_pair_whose_inclusion_is_not_injective():
    X, A, glue = _glue_pair(3)
    with pytest.raises(PreconditionFailed):
        polyhedral_product_space(fix_e(), (X, A, glue), 3, via="colim")
    with pytest.raises(PreconditionFailed, match="distinct cores"):
        colimit_cells(fix_e(), (X, A, glue), 3)
    # the homotopy colimit needs no injectivity: cylinders on the four points
    # of A x A join the two points of each other block into a circle
    space, _ = polyhedral_product_space(fix_e(), (X, A, glue), 3, via="hocolim")
    assert homology(space, 2) == (1, 1, 0)
    rep = polyprod_homology(fix_e(), (X, A, glue), 3, via="hocolim", compare=False, check_route=True)
    assert rep["homology"] == rep["simplicial_homology"] == (1, 1, 0)


def _wrap_pair(n_max):
    """The interval wrapped around the circle: both its ends go to the one
    vertex.  Unlike glue and collapse, A has a core with a non-zero merged
    boundary whose image is not degenerate."""
    X, A = circle_space(n_max), interval_space(n_max)
    return X, A, SimplicialMap(A, X, {"v0": ("v", ()), "v1": ("v", ()), "e01": ("e", ())})


_CYLINDER_PAIRS = dict(_EXTRA_PAIRS, wrap=_wrap_pair)


@pytest.mark.parametrize("pair", PAIR_NAMES + tuple(_CYLINDER_PAIRS))
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_the_pair_read_as_cells_has_the_homology_of_x(pair, n_max):
    # glue, collapse and wrap become the mapping cylinder of their
    # inclusion, which deforms onto X; the other pairs are X's cores as they are
    X, A, inc = pair_spaces(pair, n_max) if pair in PAIR_NAMES else _CYLINDER_PAIRS[pair](n_max)
    cells, inside = spaces._pair_cells(X, A, inc)
    bases = [[c for c, (d, _) in enumerate(cells) if d == n] for n in range(n_max + 1)]
    for c, (d, boundary) in enumerate(cells):
        assert all(cells[f][0] == d - 1 for f, _ in boundary)
        twice = Counter()
        for f, a in boundary:
            for g, b in cells[f][1]:
                twice[g] += a * b
        assert not any(twice.values()), c
    for field in (QQ, F2):
        assert spaces._betti(bases, lambda c: cells[c][1], n_max - 1, field) == homology(X, n_max - 1, field)
    # A's cells span a sub-complex with A's homology
    assert all(f in inside for c in inside for f, _ in cells[c][1])
    A_bases = [[c for c in level if c in inside] for level in bases]
    assert spaces._betti(A_bases, lambda c: cells[c][1], n_max - 1, QQ) == homology(A, n_max - 1, QQ)
    if pair in ("glue", "collapse", "wrap"):
        assert len(cells) == len(X.cores) + 2 * len(A.cores)
    else:
        # the cores of X in str order, with A's images inside
        order = sorted(X.cores, key=str)
        assert cells == [(X.cores[c], [(order.index(f), e) for f, e in spaces._core_boundary(X, c)]) for c in order]
        assert inside == {order.index(inc.on_cores[a][0]) for a in A.cores}


def test_critical_cells_of_pairs_that_are_not_injective():
    # the mapping cylinder of the glue pair sits A injectively, so its
    # fibres are matched like any other pair's: 88 critical cells where the
    # full complex of the original pair has 152
    rep = polyprod_homology(fix_a(), _glue_pair(4), 4, via="hocolim", compare=False, check_route=True)
    assert rep["cells"] == (12, 28, 32, 16, 0)
    assert rep["homology"] == rep["simplicial_homology"] == (1, 0, 0, 1)
    for P in (fix_a(), fix_b(), fix_e()):
        rep = polyprod_homology(P, _wrap_pair(3), 3, via="hocolim", compare=False, check_route=True)
        assert rep["routes_agree"], P


def test_the_limit_comparison_refuses_a_pair_of_spaces_before_building(monkeypatch):
    # the comparison reads the pair table by name; a (X, A, inclusion) pair
    # is refused before any cell is listed
    monkeypatch.setattr(spaces, "_CELLS", {"colim": None, "hocolim": None})
    for via in ("colim", "hocolim"):
        with pytest.raises(PreconditionFailed, match="the limit comparison needs a built-in pair name"):
            polyprod_homology(fix_b(), _cone_pair(3), 3, via=via)


def test_product_express_holds_exactly_the_simplex_pairs():
    S1 = circle_space(3)
    _, name = product_space(S1, S1, 3)
    assert name((2, (("e", (1,)), ("e", (0,))))) == ((("e", (1,)), ("e", (0,))), ())
    assert name((2, (("e", (1,)), ("v", (1, 0))))) == ((("e", ()), ("v", (0,))), (1,))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    pair=st.sampled_from(PAIR_NAMES + ("cone",)),
    field=st.sampled_from([QQ, F2]),
    top=st.integers(0, 3),
)
def test_cellular_route_equals_the_simplicial_colimit(seed, pair, field, top):
    P = random_pointed_poset(random.Random(seed), max_objects=7)
    if pair == "cone":
        pair = _cone_pair(top + 1)
    rep = polyprod_homology(P, pair, top + 1, field=field, compare=False)
    space, _ = polyhedral_product_space(P, pair, top + 1, via="colim")
    assert rep["route"] == "cellular"
    assert rep["homology"] == homology(space, top, field)
    _assert_boundary_squares_to_zero(P, pair, top + 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    pair=st.sampled_from(PAIR_NAMES + tuple(_EXTRA_PAIRS)),
    field=st.sampled_from([QQ, F2]),
    top=st.integers(0, 3),
)
def test_cellular_route_equals_the_simplicial_hocolim(seed, pair, field, top):
    P = random_pointed_poset(random.Random(seed), max_objects=7)
    # neither glue nor collapse is injective on cores, which only the homotopy colimit allows
    if pair in _EXTRA_PAIRS:
        pair = _EXTRA_PAIRS[pair](top + 1)
    rep = polyprod_homology(P, pair, top + 1, via="hocolim", field=field, compare=False)
    space, _ = polyhedral_product_space(P, pair, top + 1, via="hocolim")
    assert rep["route"] == "cellular"
    assert rep["homology"] == homology(space, top, field)
    _assert_boundary_squares_to_zero(P, pair, top + 1, hocolim_cells)


def _assert_boundary_squares_to_zero(P, pair, n_max, cells=colimit_cells):
    bases, faces = cells(P, pair, n_max)
    for level in bases[2:]:
        for cell in level:
            twice = Counter()
            for face, a in faces(cell):
                for g, b in faces(face):
                    twice[g] += a * b
            assert not any(twice.values()), cell


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    poset=st.one_of(st.sampled_from(["fix-a", "fix-b", "fix-c", "fix-d", "fix-e"]), st.integers(0, 10**6)),
    via=st.sampled_from(["colim", "hocolim"]),
    field=st.sampled_from([QQ, F2]),
    top=st.integers(0, 3),
)
def test_the_cone_and_the_one_core_disk_give_the_same_homology(poset, via, field, top):
    # (D^2, S^1) has one homotopy type of pairs rel S^1, so the polyhedral
    # product cannot tell its two models apart
    P = FIXTURES[poset]() if isinstance(poset, str) else random_pointed_poset(random.Random(poset), max_objects=7)
    cone = polyprod_homology(P, _cone_pair(top + 1), top + 1, via=via, field=field, compare=False)
    disk = polyprod_homology(P, "disk2-circle", top + 1, via=via, field=field, compare=False)
    assert cone["homology"] == disk["homology"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_max=st.integers(1, 3))
def test_the_faces_of_a_cell_are_distinct(seed, n_max):
    # _betti appends each face to its row as it comes, so a face listed
    # twice would give a row with a repeated column
    P = random_pointed_poset(random.Random(seed), max_objects=6)
    cone = _cone_pair(n_max)
    for cells, pairs in (
        (colimit_cells, PAIR_NAMES + (cone,)),
        (hocolim_cells, PAIR_NAMES + (cone, _glue_pair(n_max), _collapse_pair(n_max))),
    ):
        for pair in pairs:
            bases, faces = cells(P, pair, n_max)
            for level in bases:
                for cell in level:
                    listed = [f for f, e in faces(cell) if e]
                    assert len(listed) == len(faces(cell)) == len(set(listed)), cell


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    poset=st.one_of(st.sampled_from(["fix-c", "fix-d", "fix-e"]), st.integers(0, 10**6)),
    pair=st.sampled_from(PAIR_NAMES + ("cone",)),
    n_max=st.integers(1, 4),
)
def test_over_cones_the_critical_cells_are_the_colimit_cells(poset, pair, n_max):
    # where every U_S has one minimal object a, the critical cells are (a, t)
    # and a path through a matched cell comes back with the sign it left
    # with, so the Morse complex is the colimit's cellular complex, cell for
    # cell and sign for sign; the library computes the two independently
    P = FIXTURES[poset]() if isinstance(poset, str) else random_pointed_poset(random.Random(poset), max_objects=7)
    if pair == "cone":
        pair = _cone_pair(n_max)
    hoco_bases, hoco_faces = hocolim_cells(P, pair, n_max)
    if any(len(c) > 1 for level in hoco_bases for c, _, _ in level):
        return
    bases, faces = colimit_cells(P, pair, n_max)
    assert [[(code, mask) for _, code, mask in level] for level in hoco_bases] == \
        [[(code, mask) for code, mask, _ in level] for level in bases]
    for hoco_level, level in zip(hoco_bases, bases):
        for hoco_cell, cell in zip(hoco_level, level):
            assert sorted((f[1:], e) for f, e in hoco_faces(hoco_cell)) == sorted((f[:2], e) for f, e in faces(cell))


def test_cell_counts_of_the_cellular_route():
    bases, _ = colimit_cells(fix_c(), "disk2-circle", 3)
    assert tuple(map(len, bases)) == (1, 4, 10, 16)
    # the hocolim ranks the critical cells of the cone matching: where every
    # U_S is a cone, one per tuple of cores of X, as many as the colimit has
    # (the full complex has 28, 349, 2066 and 7580 cells here)
    rep = polyprod_homology(cube(3), "disk2-circle", 3, via="hocolim", compare=False)
    assert rep["cells"] == (1, 8, 36, 112) and rep["homology"] == (1, 0, 0)
    assert rep["cells"] == polyprod_homology(cube(3), "disk2-circle", 3, compare=False)["cells"]
    rep = polyprod_homology(cube(3), "circle-point", 4)
    assert rep["route"] == "cellular" and rep["cells"] == (1, 8, 28, 56, 70)
    assert rep["homology"] == (1, 8, 28, 56) and rep["agree"]
    # the full complex has (3, 4, 0) and (16, 97, 210, 194, 65, 0) cells here
    rep = polyprod_homology(fix_e(), "circle-point", 2, via="hocolim", compare=False)
    assert rep["route"] == "cellular" and rep["cells"] == (1, 2, 0)
    rep = polyprod_homology(simplex(3), "circle-point", 5, via="hocolim", compare=False)
    assert rep["cells"] == (1, 4, 6, 4, 1, 0)
    assert rep["homology"] == (1, 4, 6, 4, 1)
    # on fix-a, U_S for S both vertices is {3, 4, 5, 6} with minimal objects
    # 3 and 4, so its four objects and four covers stay critical with the
    # tuple (e, e): the cells of dimensions 2 and 3 (the full complex has
    # 7, 28, 40 and 20 cells through dimension 3)
    rep = polyprod_homology(fix_a(), "circle-point", 4, via="hocolim", compare=False)
    assert rep["cells"] == (1, 2, 4, 4, 0) and rep["homology"] == (1, 2, 1, 1)


def test_cellular_route_drops_degenerate_faces():
    # the disk's 2-core has two degenerate faces; it is glued along its boundary circle
    pair = "disk2-circle"
    # the two isolated vertices give S^3, the edge D^4, and the bigon two
    # copies of D^4 glued along their boundary: S^4
    for P, expected in ((fix_e(), (1, 0, 0, 1)), (cube(1), (1, 0, 0, 0)), (fix_b(), (1, 0, 0, 0))):
        rep = polyprod_homology(P, pair, 4, compare=False, check_route=True)
        assert rep["homology"] == rep["simplicial_homology"] == expected
        assert rep["routes_agree"]
        _assert_boundary_squares_to_zero(P, pair, 4)


def test_core_boundaries_are_merged():
    # the cone's 2-core has faces f, f, e: f's signs cancel
    assert spaces._core_boundary(_cone_pair(2)[0], "T") == [("e", 1)]
    # the disk's has e and two degenerate faces
    assert spaces._core_boundary(disk_space(2), "T") == [("e", 1)]
    # the circle's edge has boundary v - v = 0, so circle-point colimit cells have no faces
    assert spaces._core_boundary(circle_space(2), "e") == []
    bases, faces = colimit_cells(fix_c(), "circle-point", 3)
    assert sum(map(len, bases)) > 1 and not any(faces(c) for level in bases for c in level)


def test_check_route_compares_with_the_simplicial_colimit():
    rep = polyprod_homology(fix_b(), "circle-point", 3, field=F2, check_route=True)
    assert rep["homology"] == rep["simplicial_homology"] == (1, 2, 2)
    assert rep["routes_agree"] and rep["agree"]
    assert "routes_agree" not in polyprod_homology(fix_b(), "circle-point", 3)
    # the hocolim is compared with its simplicial set
    rep = polyprod_homology(fix_b(), "circle-point", 3, via="hocolim", field=F2, check_route=True)
    assert rep["homology"] == rep["simplicial_homology"] == (1, 2, 2)
    assert rep["routes_agree"] and rep["agree"]
    with pytest.raises(PreconditionFailed, match="via must be colim or hocolim"):
        polyprod_homology(fix_b(), "circle-point", 3, via="bogus")


_CELL_ORDER = """
import json, random
from posetprod import linalg, spaces
from posetprod.fixtures import fix_c, random_pointed_poset
shapes = []
def rank(rows, ncols, field, pivots=None):
    shapes.append([len(rows), ncols, sum(map(len, rows))])
    return linalg.rank(rows, ncols, field, pivots)
spaces.rank = rank
out = []
for P, pair in ((fix_c(), "disk2-circle"), (random_pointed_poset(random.Random(7), 7), "interval-endpoints")):
    for cells, via in ((spaces.colimit_cells, "colim"), (spaces.hocolim_cells, "hocolim")):
        bases, faces = cells(P, pair, 3)
        out.append([[[str(c), [str(f) for f in faces(c)]] for c in level] for level in bases])
        out.append(spaces.polyprod_homology(P, pair, 3, via=via, compare=False)["homology"])
print(json.dumps([out, shapes]))
"""


def test_cell_order_does_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _CELL_ORDER], env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][1]  # the route ranked some boundary rows
