import random

import pytest
import transform_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from posetprod.errors import NoSuchRank, NotRegular, PreconditionFailed
from posetprod.fixtures import FIXTURES, cube, fix_a, fix_b, fix_c, fix_e, random_pointed_poset, random_poset_with, simplex
from posetprod.polytensor import MorphismCollection, polyhedral_tensor
from posetprod.poset import PointedPoset, classify, down_isomorphism, support_walk
from posetprod.stanley import hilbert_from_fvector
from posetprod.transform import (
    check_embedding,
    f_transform_predict,
    f_vector,
    nu,
    simplicial_transform,
    transform_f_vector,
)

_posets = st.one_of(
    st.sampled_from(sorted(FIXTURES)).map(lambda name: FIXTURES[name]()),
    st.integers(0, 10**6).map(lambda seed: random_pointed_poset(random.Random(seed), max_objects=9)),
)


def test_f_vector_values():
    assert f_vector(fix_b()) == (2, 2)
    assert f_vector(fix_c()) == (4, 4, 0, 1)
    assert f_vector(cube(3)) == (8, 12, 0, 6, 0, 0, 0, 1)
    assert f_vector(simplex(2)) == (3, 3, 1)
    assert f_vector(PointedPoset(["*"], "*", [])) == ()


def test_transform_of_parallel_edges_is_itself():
    P = fix_b()
    t = simplicial_transform(P)
    assert down_isomorphism(t.poset, P) is not None
    assert f_vector(t.poset) == (2, 2)


def test_transform_of_square_face_poset_is_full_simplex():
    t = simplicial_transform(fix_c())
    assert f_vector(t.poset) == (4, 6, 4, 1)
    assert down_isomorphism(t.poset, simplex(3)) is not None
    assert classify(t.poset).simplicial


def test_transform_of_double_square_collapses():
    # all four tops share the vertex pair and are linked through covers, so
    # the transform is the boolean lattice on two vertices
    t = simplicial_transform(fix_a())
    diamond = PointedPoset(["*", "1", "2", "t"], "*", [("*", "1"), ("*", "2"), ("1", "t"), ("2", "t")])
    assert down_isomorphism(t.poset, diamond) is not None


def test_transform_of_isolated_vertices():
    t = simplicial_transform(fix_e())
    assert down_isomorphism(t.poset, fix_e()) is not None


def _comma_vertex_poset():
    """Vertices a, b and "a,b", all three below one object 0."""
    verts = ["a", "b", "a,b"]
    return PointedPoset(["*", *verts, "0"], "*", [("*", v) for v in verts] + [(v, "0") for v in verts])


def test_faces_that_would_share_a_name_are_refused():
    # {a, b}@0 and {"a,b"}@0 would both be named a,b@0, and s(P) would keep
    # one of them: f(s(P)) read (2, 4) against the (3, 3, 1) counted here
    P = _comma_vertex_poset()
    assert transform_f_vector(P) == (3, 3, 1)
    with pytest.raises(PreconditionFailed, match=r"faces \{'a,b'\}@'0' and \{'a', 'b'\}@'0' would both be named 'a,b@0'"):
        simplicial_transform(P)


def test_transform_fixes_simplicial_posets():
    for P in random_poset_with(1203, "simplicial", 5):
        t = simplicial_transform(P)
        assert down_isomorphism(t.poset, P) is not None


def test_transform_is_always_simplicial():
    for P in random_poset_with(88, "any", 8):
        t = simplicial_transform(P)
        assert classify(t.poset).simplicial, P.to_dict()


def test_transform_of_big_cube_is_full_boolean():
    t = simplicial_transform(cube(3))
    assert len(t.poset.objects) == 256
    assert f_vector(t.poset) == (8, 28, 56, 70, 56, 28, 8, 1)


def test_embedding_report():
    rep = check_embedding(fix_b())
    assert rep["injective"] and rep["order_embedding"]
    chain = PointedPoset(["*", "v", "w"], "*", [("*", "v"), ("v", "w")])
    rep = check_embedding(chain)
    assert not rep["injective"]
    assert rep["witness_injective"] == ("v", "w")


def test_nu_values_on_square_and_cube():
    P = fix_c()
    assert nu(P, 0, 3) == 0
    assert nu(P, 1, 3) == 2
    assert nu(P, 2, 3) == 4
    assert nu(P, 3, 3) == 1
    C = cube(3)
    assert nu(C, 1, 7) == 4
    assert nu(C, 2, 7) == 32
    assert nu(C, 1, 3) == 2
    for i, n in [(1, 3), (2, 3), (1, 7), (2, 7), (3, 7)]:
        assert nu(C, i, n, method="recursive") == nu(C, i, n, method="direct")


def test_nu_guards():
    with pytest.raises(NoSuchRank):
        nu(fix_c(), 1, 5)
    with pytest.raises(NotRegular):
        nu(fix_a(), 1, 1)
    with pytest.raises(ValueError):
        nu(fix_c(), 1, 3, method="sideways")
    with pytest.raises(NotRegular):
        f_transform_predict(fix_a())


def test_f_transform_prediction_matches_actual():
    for P in (fix_b(), fix_c(), cube(2), cube(3), simplex(2)):
        predicted = f_transform_predict(P)
        actual = f_vector(simplicial_transform(P).poset)
        assert predicted == actual, P.to_dict()


def test_f_transform_prediction_on_seeded_regular_polyhedral():
    hits = 0
    for P in random_poset_with(606, "polyhedral", 12):
        if not classify(P).regular:
            continue
        predicted = f_transform_predict(P)
        actual = f_vector(simplicial_transform(P).poset)
        assert predicted == actual, P.to_dict()
        hits += 1
    assert hits >= 3


def test_deleting_a_maximal_object_splits_off_its_new_faces():
    # every class of the transform comes from the smaller poset or is a
    # subset of V(x) seen nowhere strictly below x
    count = 0
    for P in random_poset_with(4091, "polyhedral", 8):
        tops = [x for x in P.maximal_objects() if x != P.base]
        if not tops:
            continue
        x = sorted(tops, key=str)[0]
        if len(P.objects) <= 2:
            continue
        rest = P.sub_poset(x, "delete")
        whole = simplicial_transform(P).poset
        part = simplicial_transform(rest).poset
        vx = sorted(P.vertex_set(x), key=str)
        below = [P.vertex_set(w) for w in P.down_set(x) if w != x]
        new = 0
        for r in range(1, len(vx) + 1):
            from itertools import combinations
            for S in combinations(vx, r):
                if not any(frozenset(S) <= vw for vw in below):
                    new += 1
        assert len(whole.objects) == len(part.objects) + new, P.to_dict()
        count += 1
    assert count >= 4


def test_class_map_and_embed_are_consistent():
    P = fix_c()
    t = simplicial_transform(P)
    for x in P.objects:
        assert t.embed[x] == t.to_class[(x, frozenset(P.vertex_set(x)))]
    # vertex classes glue across every object containing the vertex
    names = {t.to_class[(x, frozenset({v}))] for x in P.objects for v in P.vertex_set(x)}
    assert len(names) == 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(P=_posets)
def test_transform_equals_the_subset_by_subset_construction(P):
    new, old = simplicial_transform(P), oracle.simplicial_transform(P)
    assert new.poset == old.poset
    assert new.to_class == old.to_class
    assert new.embed == old.embed
    assert new.classes == old.classes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(P=_posets, grading=st.sampled_from([1, 2]))
def test_transform_f_vector_gives_the_level_zero_limit(P, grading):
    # k[P] and k[s(P)] have the same Hilbert function, and Stanley's
    # f-vector formula holds on the simplicial poset s(P)
    f = transform_f_vector(P)
    assert f == f_vector(simplicial_transform(P).poset)
    D = 4
    col = MorphismCollection.augmentation(P.vertices, D, gen_degree=grading)
    assert hilbert_from_fvector(f, D, scale=grading) == polyhedral_tensor(P, col)[0]


@pytest.mark.parametrize("name", ["fix-a", "fix-b", "cube-3", "s(fix-c)"])
def test_faces_search_only_up_sets_that_are_not_cones(monkeypatch, name):
    # fix-a and fix-b have U_S that are not cones, cube-3 and s(fix-c) only cones
    P = simplicial_transform(fix_c()).poset if name == "s(fix-c)" else FIXTURES[name]()
    ones = dict.fromkeys(P.vertices, (1,))
    not_cones = [up for *_, up, _ in support_walk(P, ones, ones, 0) if P.apex(up) is None]
    assert bool(not_cones) == (name in ("fix-a", "fix-b"))
    expected = f_vector(oracle.simplicial_transform(P).poset)
    searched = []
    components = PointedPoset.components
    monkeypatch.setattr(PointedPoset, "components", lambda self, members: searched.append(members) or components(self, members))
    assert transform_f_vector(P) == expected
    assert searched == not_cones
