import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetprod import polytensor
from posetprod.errors import IndexMismatch, MissingSection
from posetprod.fixtures import cube, fix_a, fix_b, fix_c, fix_e, random_poset_with
from posetprod.limits import PosetDiagram, check_diagram, higher_limits, lim0_basis
from posetprod.linalg import QQ, FieldSpec, GradedLinearMap, GradedVectorSpace
from posetprod.polytensor import (
    MorphismCollection,
    SplitTerm,
    build_T,
    build_section_S,
    polyhedral_tensor,
    random_surjective_collection,
    reduction_invariance,
    tensor_limits,
)
from posetprod.poset import PointedPoset


def test_parallel_edge_poset_augmentation_dims():
    # two vertices, two tops over both: the mixed monomials are carried
    # twice, once per top, so degree d holds 2d classes for d >= 1
    P = fix_b()
    col = MorphismCollection.augmentation(P.vertices, D=3)
    lims = polyhedral_tensor(P, col)
    assert lims == [(1, 2, 4, 6)]


def test_parallel_edge_poset_circle_dims():
    P = fix_b()
    col = MorphismCollection.circle(P.vertices, D=2)
    lims = polyhedral_tensor(P, col)
    assert lims == [(1, 2, 2)]


def test_double_square_poset_sees_level_one():
    # the two-layer double edge is not lower saturated; the mixed component
    # only lives on the four tops, which glue like a circle
    P = fix_a()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    lims = polyhedral_tensor(P, col)
    assert lims == [(1, 2, 3), (0, 0, 1)]


def test_double_square_poset_names_its_non_acyclic_support():
    # the level-1 class of criterion 3: S = {1, 2} lives on U_S = {3, 4, 5, 6},
    # whose order complex is a circle
    P = fix_a()
    col = MorphismCollection.augmentation(P.vertices, D=3)
    found = tensor_limits(P, col)
    assert found.limits == [(1, 2, 3, 4), (0, 0, 1, 2)]
    assert found.non_acyclic_terms() == [SplitTerm(("1", "2"), (0, 0, 1, 2), (1, 1))]
    assert higher_limits(build_T(P, col)) == found.limits


def _circle_and_two_points() -> PointedPoset:
    """Vertices 1, 2, 3: U_{1,2} = {a, b, c, d} is a circle, as in fix-a, and
    U_{1,3} = {e, f} two points; both have two minimal objects."""
    covers = [("*", "1"), ("*", "2"), ("*", "3"), ("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"),
              ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("1", "e"), ("1", "f"), ("3", "e"), ("3", "f")]
    return PointedPoset(["*", "1", "2", "3", "a", "b", "c", "d", "e", "f"], "*", covers)


def test_supports_with_equally_many_minimal_objects_keep_their_own_betti_numbers():
    P = _circle_and_two_points()
    found = tensor_limits(P, MorphismCollection.augmentation(P.vertices, D=2))
    assert found.limits == [(1, 3, 6), (0, 0, 1)]
    assert [(t.support, t.betti) for t in found.non_acyclic_terms()] == [
        (("1", "3"), (2,)),
        (("1", "2"), (1, 1)),
    ]


def _collection(kind, P, seed, D, field):
    if kind == "random":
        return random_surjective_collection(random.Random(seed), P.vertices, D, field)
    if kind == "aug":
        return MorphismCollection.augmentation(P.vertices, D, gen_degree=1 + seed % 2, field=field)
    return MorphismCollection.circle(P.vertices, D, field=field)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    poset=st.one_of(
        st.sampled_from([fix_a(), _circle_and_two_points()]),
        st.tuples(st.sampled_from(["any", "lower_saturated", "polyhedral"]), st.integers(0, 10**6)).map(
            lambda a: random_poset_with(a[1], a[0], 1, max_objects=8)[0]
        ),
    ),
    kind=st.sampled_from(["random", "aug", "circle"]),
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)]),
    D=st.integers(1, 3),
)
def test_split_route_equals_direct_route(poset, kind, seed, field, D):
    # random collections include kernels in degree 0, so supports are not
    # bounded by the truncation there
    col = _collection(kind, poset, seed, D, field)
    found = tensor_limits(poset, col)
    assert found.terms is not None
    assert found.limits == higher_limits(build_T(poset, col))


def test_non_surjective_collections_take_the_direct_route():
    unit = GradedVectorSpace.unit(QQ, 1)
    dead = GradedLinearMap(unit, unit, [[[0]], []])
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    col = MorphismCollection({"v": dead})
    found = tensor_limits(P, col)
    assert found.terms is None
    assert found.limits == higher_limits(build_T(P, col)) == [(1, 0)]
    # on fix-b, a_b has rank 1 onto a 2-dimensional N_b in degree 1, so
    # dim M_b - dim N_b = 0 there although ker a_b is 1-dimensional
    P = fix_b()
    space = GradedVectorSpace(QQ, (1, 2))
    short = GradedLinearMap(space, space, [[[1]], [[1, 1], [1, 1]]])
    col = MorphismCollection({"a": MorphismCollection.augmentation(["a"], D=1).maps["a"], "b": short})
    found = tensor_limits(P, col)
    assert found.terms is None
    assert found.limits == higher_limits(build_T(P, col))


def test_check_route_reports_the_direct_route(monkeypatch):
    P = fix_a()
    col = MorphismCollection.augmentation(P.vertices, D=3)
    assert tensor_limits(P, col).direct is None
    assert tensor_limits(P, col).routes_agree is None
    found = tensor_limits(P, col, check_route=True)
    assert found.terms is not None
    assert found.direct == found.limits == [(1, 2, 3, 4), (0, 0, 1, 2)]
    assert found.routes_agree is True

    # when the direct route answers, it is built once and agrees with itself
    unit = GradedVectorSpace.unit(QQ, 1)
    dead = MorphismCollection({"v": GradedLinearMap(unit, unit, [[[0]], []])})
    Q = PointedPoset(["*", "v"], "*", [("*", "v")])
    built = []
    original = polytensor.build_T
    monkeypatch.setattr(polytensor, "build_T", lambda *a, **k: built.append(a) or original(*a, **k))
    found = tensor_limits(Q, dead, check_route=True)
    assert found.terms is None
    assert found.direct == found.limits == [(1, 0)]
    assert found.routes_agree is True
    assert len(built) == 1


def test_chain_arguments_are_checked():
    P = fix_b()
    empty = MorphismCollection({}, field=QQ, truncation=1)
    for limits in (polyhedral_tensor, tensor_limits):
        with pytest.raises(IndexMismatch):
            limits(P, empty)


def test_build_T_shapes_and_labels():
    P = fix_b()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    dia = build_T(P, col)
    assert check_diagram(dia) == []
    assert dia.spaces["c"].dims == (1, 2, 3)
    assert dia.spaces["a"].dims == (1, 1, 1)
    assert dia.spaces[P.base].dims == (1, 0, 0)
    # degree-2 basis of the top object names both generators
    assert dia.spaces["c"].labels[2] == (("1", "b^2"), ("a^1", "b^1"), ("a^2", "1"))


def test_vertex_order_does_not_change_limits():
    P = fix_c()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    default = higher_limits(build_T(P, col))
    flipped = higher_limits(build_T(P, col, vertex_order=list(reversed(sorted(P.vertices)))))
    assert default == flipped


def test_index_mismatch_errors():
    P = fix_b()
    col = MorphismCollection.augmentation(["a", "b", "z"], D=1)
    with pytest.raises(IndexMismatch):
        build_T(P, col)
    with pytest.raises(IndexMismatch):
        polyhedral_tensor(P, col)
    col2 = MorphismCollection.augmentation(P.vertices, D=1)
    with pytest.raises(IndexMismatch):
        build_T(P, col2, vertex_order=["a", "a"])
    with pytest.raises(IndexMismatch):
        MorphismCollection(
            {
                "a": MorphismCollection.augmentation(["a"], D=1).maps["a"],
                "b": MorphismCollection.augmentation(["b"], D=2).maps["b"],
            }
        )


def test_sections_split_the_structure_maps():
    P = fix_c()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    S = build_section_S(P, col)
    assert set(S) == set(P.covers)


def test_missing_section_detected():
    unit = GradedVectorSpace.unit(QQ, 1)
    dead = GradedLinearMap(unit, unit, [[[0]], []])
    col = MorphismCollection({"v": dead})
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    with pytest.raises(MissingSection):
        build_section_S(P, col)
    good = MorphismCollection.augmentation(["v"], D=1)
    with pytest.raises(MissingSection):
        good.section_maps({"v": GradedLinearMap.zero(unit, good.source("v"))})


def test_higher_limits_vanish_for_lower_saturated_posets():
    rng = random.Random(2026)
    posets = random_poset_with(9001, "lower_saturated", 6)
    for P in posets:
        col = random_surjective_collection(rng, P.vertices, D=2)
        lims = polyhedral_tensor(P, col)
        assert all(all(v == 0 for v in l) for l in lims[1:]), (P.to_dict(), lims)


def test_level_zero_matches_split_subspace_dims():
    # with a section around, level 0 is the whole compatible family space;
    # spot check against the weak-chain computation
    P = fix_c()
    col = MorphismCollection.circle(P.vertices, D=2)
    strict = polyhedral_tensor(P, col)
    weak = higher_limits(build_T(P, col), weak=True, max_n=3)
    assert strict == weak


def test_reduction_keeps_limits_on_polyhedral_posets():
    # doubling an object above itself keeps the poset polyhedral and must
    # not change the limits
    rng = random.Random(77)
    for P in random_poset_with(515, "polyhedral", 4):
        objs = sorted(set(P.objects) - {P.base}, key=str)
        if not objs:
            continue
        x = rng.choice(objs)
        xx = x + "'"
        covers = list(P.covers) + [(x, xx)] + [(xx, u) for u in sorted(P.up_set(x) - {x}, key=str)]
        Q = PointedPoset(list(P.objects) + [xx], P.base, covers)
        col = MorphismCollection.augmentation(Q.vertices, D=2)
        lims, lims_r, same = reduction_invariance(Q, col, polyhedral_tensor(Q, col))
        assert same, (Q.to_dict(), lims, lims_r)


def test_reduction_can_change_limits_without_polyhedrality():
    P = fix_a()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    lims, lims_r, same = reduction_invariance(P, col, polyhedral_tensor(P, col))
    assert not same
    assert lims_r == [(1, 2, 3)]


def test_one_object_poset_tensor():
    P = PointedPoset(["*"], "*", [])
    col = MorphismCollection({}, field=QQ, truncation=2)
    lims = polyhedral_tensor(P, col)
    assert lims == [(1, 0, 0)]


def test_field_choice_spot_check():
    P = fix_b()
    for f in (QQ, FieldSpec.Fp(101)):
        col = MorphismCollection.augmentation(P.vertices, D=3, field=f)
        assert polyhedral_tensor(P, col) == [(1, 2, 4, 6)]


def test_cube_augmentation_matches_vertex_count():
    # cube posets are simplicial in low dimensions only for the 1-cube;
    # either way degree 1 of level 0 counts the vertices
    for n in (1, 2):
        P = cube(n)
        col = MorphismCollection.augmentation(P.vertices, D=1)
        lims = polyhedral_tensor(P, col)
        assert lims[0][1] == len(P.vertices)
        assert all(all(v == 0 for v in l) for l in lims[1:])


def test_tensor_and_limit_paths_never_build_a_dense_view(monkeypatch):
    # maps are stored as sparse rows; GradedLinearMap.mats is a dense copy
    # for readers outside the library, so these paths must not touch it
    def dense_view(self):
        raise AssertionError("GradedLinearMap.mats was read")

    monkeypatch.setattr(GradedLinearMap, "mats", property(dense_view))
    P = cube(2)
    col = MorphismCollection.augmentation(P.vertices, D=3)
    assert polyhedral_tensor(P, col) == [(1, 4, 10, 20)]
    assert higher_limits(build_T(P, col)) == [(1, 4, 10, 20)]
    assert set(col.section_maps()) == set(P.vertices)
    dia = PosetDiagram.indicator(fix_a(), ["3", "4"])
    assert higher_limits(dia) == [(1,), (1,)]
    assert higher_limits(dia, weak=True, max_n=3) == [(1,), (1,)]
    assert [len(basis) for _, basis in lim0_basis(dia)] == [1]
