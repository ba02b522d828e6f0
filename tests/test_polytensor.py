import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relative_betti_oracle
from posetprod import limits, linalg, polytensor
from posetprod.errors import IndexMismatch, MissingSection, PreconditionFailed
from posetprod.fixtures import cube, fix_a, fix_b, fix_c, fix_e, random_pointed_poset, random_poset_with
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
from posetprod.poset import PointedPoset, support_walk
from posetprod.spaces import PAIR_NAMES, induced_collection, polyprod_homology
from posetprod.transform import f_vector, simplicial_transform, transform_f_vector
from test_poset import _renaming


def test_parallel_edge_poset_augmentation_dims():
    # two vertices, two tops over both: the mixed monomials are carried
    # twice, once per top, so degree d holds 2d classes for d >= 1
    P = fix_b()
    col = MorphismCollection.augmentation(P.vertices, D=3)
    lims = polyhedral_tensor(P, col)
    assert lims == [(1, 2, 4, 6)]


def test_parallel_edge_poset_circle_dims():
    P = fix_b()
    col = induced_collection(P, "circle-point", 2)
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


def _arbitrary_collection(rng, vertices, D: int, field) -> MorphismCollection:
    """Maps with kernels and cokernels in any degree: both sides take 0 to 2
    dimensions per degree, and each entry is zero about half the time."""
    maps = {}
    for v in vertices:
        M = GradedVectorSpace(field, [rng.randrange(0, 3) for _ in range(D + 1)])
        N = GradedVectorSpace(field, [rng.randrange(0, 3) for _ in range(D + 1)])
        rows = [[[(j, rng.randrange(-2, 3)) for j in range(m) if rng.random() < 0.5] for _ in range(n)]
                for m, n in zip(M.dims, N.dims)]
        maps[v] = GradedLinearMap(M, N, rows)
    return MorphismCollection(maps, field=field, truncation=D)


def _collection(kind, P, seed, D, field):
    if kind == "random":
        return random_surjective_collection(random.Random(seed), P.vertices, D, field)
    if kind == "arbitrary":
        return _arbitrary_collection(random.Random(seed), P.vertices, D, field)
    if kind == "aug":
        return MorphismCollection.augmentation(P.vertices, D, gen_degree=1 + seed % 2, field=field)
    return induced_collection(P, "circle-point", D, field=field)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    poset=st.one_of(
        st.sampled_from([fix_a(), _circle_and_two_points()]),
        st.tuples(st.sampled_from(["any", "lower_saturated", "polyhedral"]), st.integers(0, 10**6)).map(
            lambda a: random_poset_with(a[1], a[0], 1, max_objects=8)[0]
        ),
    ),
    kind=st.sampled_from(["random", "arbitrary", "aug", "circle"]),
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)]),
    D=st.integers(1, 3),
)
def test_split_route_equals_direct_route(poset, kind, seed, field, D):
    # random collections include kernels in degree 0, so supports are not
    # bounded by the truncation there; arbitrary ones include cokernels
    # there too, so cokernel sets are not bounded either
    col = _collection(kind, poset, seed, D, field)
    assert tensor_limits(poset, col).limits == higher_limits(build_T(poset, col))


def test_non_surjective_collections_take_the_split_route():
    # the zero map splits as K -> 0 plus 0 -> C: S = {v} lives on the vertex
    # alone, and Q = {v} on the whole poset relative to the vertex, a cone
    # relative to a cone, so only the first term is kept
    unit = GradedVectorSpace.unit(QQ, 1)
    dead = GradedLinearMap(unit, unit, [[[(0, 0)]], []])
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    col = MorphismCollection({"v": dead})
    found = tensor_limits(P, col)
    assert found.terms == (SplitTerm(("v",), (1, 0), (1,)),)
    assert found.limits == higher_limits(build_T(P, col)) == [(1, 0)]
    # on fix-b, a_b has rank 1 onto a 2-dimensional N_b in degree 1, so
    # dim M_b - dim N_b = 0 there although ker a_b is 1-dimensional; the
    # cokernel of a_b lives relative to B = up(b), a cone, and drops out
    P = fix_b()
    space = GradedVectorSpace(QQ, (1, 2))
    short = GradedLinearMap(space, space, [[[(0, 1)]], [[(0, 1), (1, 1)], [(0, 1), (1, 1)]]])
    col = MorphismCollection({"a": MorphismCollection.augmentation(["a"], D=1).maps["a"], "b": short})
    found = tensor_limits(P, col)
    assert [(t.support, t.cokernel, t.dims) for t in found.terms] == [
        ((), (), (1, 1)), (("b",), (), (0, 1)), (("a",), (), (0, 1)),
    ]
    assert found.limits == higher_limits(build_T(P, col)) == [(1, 3)]


def test_disk_over_circle_on_two_points_has_one_relative_term():
    # the polyhedral product of (D^2, S^1) over two points is S^3: its class
    # is lim^1 in degree 2, from the cokernels of both restrictions on the
    # whole poset relative to the two vertices above them, two points
    P = fix_e()
    found = tensor_limits(P, induced_collection(P, "disk2-circle", 3))
    assert found.limits == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert found.non_acyclic_terms() == [SplitTerm((), cokernel=("v1", "v2"), dims=(0, 0, 1, 0), betti=(0, 1))]


def test_tensor_limits_builds_no_diagram_without_check_route(monkeypatch):
    def direct_route(*args, **kwargs):
        raise AssertionError("the direct route ran")

    monkeypatch.setattr(polytensor, "build_T", direct_route)
    monkeypatch.setattr(limits, "cochain_complex", direct_route)
    P = cube(3)
    found = tensor_limits(P, induced_collection(P, "disk2-circle", 3))
    assert found.limits == [(1, 0, 0, 0)]
    assert found.direct is None
    # the cokernels of interval-endpoints sit in degree 0, so every set Q is walked
    P = fix_a()
    assert polyhedral_tensor(P, induced_collection(P, "interval-endpoints", 2)) == [
        (1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0),
    ]


def test_split_terms_asks_apex_once_per_up_set(monkeypatch):
    # the Betti memo is keyed by the up-sets (U_S, B) themselves: the cone
    # test runs only on a miss
    P = cube(3)
    collection = MorphismCollection.augmentation(P.vertices, 4)
    image, kernel = (dict.fromkeys(P.vertices, s) for s in [(1, 0, 0, 0, 0), (0, 1, 1, 1, 1)])
    walked = list(support_walk(P, image, kernel, 4))
    calls = []
    apex = PointedPoset.apex
    monkeypatch.setattr(PointedPoset, "apex", lambda self, elems: calls.append(elems) or apex(self, elems))
    polytensor._split_terms(P, collection)
    assert 0 < len(calls) <= len({up for *_, up, _ in walked})


def test_split_terms_rank_each_shared_map_once(monkeypatch):
    # augmentation shares one map across the eight vertices: one rank per degree
    P = cube(3)
    calls = []
    library_rank = polytensor.rank
    monkeypatch.setattr(polytensor, "rank", lambda *args: calls.append(args) or library_rank(*args))
    polytensor._split_terms(P, MorphismCollection.augmentation(P.vertices, 4))
    assert len(calls) == 5
    calls.clear()
    col = random_surjective_collection(random.Random(3), P.vertices, 2)
    polytensor._split_terms(P, col)
    assert len(calls) == 3 * len(P.vertices)


@pytest.mark.parametrize("P", [fix_a(), fix_b(), fix_c(), cube(3)], ids=["fix-a", "fix-b", "fix-c", "cube-3"])
def test_cone_test_finds_minimal_objects_only_inside_the_core(monkeypatch, P):
    # the core recomputes covers with minimal where a set is not convex;
    # every other search for minimal objects would be the cone test's
    inside = []
    core, minimal = PointedPoset.core, PointedPoset.minimal

    def tracked_core(self, elems, below=()):
        inside.append(elems)
        try:
            return core(self, elems, below)
        finally:
            inside.pop()

    def guarded_minimal(self, elems):
        assert inside, "minimal objects searched outside the core"
        return minimal(self, elems)

    cores = []
    monkeypatch.setattr(PointedPoset, "core", lambda self, elems, below=(): cores.append(elems) or tracked_core(self, elems, below))
    monkeypatch.setattr(PointedPoset, "minimal", guarded_minimal)
    for pair in ("disk2-circle", "interval-endpoints"):
        polytensor._split_terms(P, induced_collection(P, pair, 3))
    cores.clear()
    polytensor._split_terms(P, MorphismCollection.augmentation(P.vertices, 4))
    # with B empty the core is reached only for a U_S that is not a cone
    assert all(P.apex(up) is None for up in cores)
    if P == cube(3):
        assert not cores


def _oracle_terms(P, collection):
    """The split's terms with every relative Betti number ranked from the
    chains of the whole pair, no beat point removed."""
    with mock.patch.object(polytensor, "_relative_betti", relative_betti_oracle.relative_betti):
        return tensor_limits(P, collection).terms


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    poset=st.one_of(
        st.sampled_from([fix_a(), fix_b(), fix_c(), fix_e(), _circle_and_two_points()]),
        st.integers(0, 10**6).map(lambda seed: random_pointed_poset(random.Random(seed), max_objects=9)),
    ),
    kind=st.sampled_from(["disk2-circle", "interval-endpoints", "arbitrary"]),
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)]),
    D=st.integers(1, 3),
)
def test_core_reduced_split_terms_equal_the_chain_ranked_ones(poset, kind, seed, field, D):
    # every collection here has cokernels, so the walk yields non-empty B
    if kind == "arbitrary":
        col = _arbitrary_collection(random.Random(seed), poset.vertices, D, field)
    else:
        col = induced_collection(poset, kind, D, field=field)
    assert tensor_limits(poset, col).terms == _oracle_terms(poset, col)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)]),
    data=st.data(),
)
def test_core_reduced_pairs_equal_the_chain_ranked_ones(seed, field, data):
    # U is a union of up-sets of at least two objects and B a non-empty
    # up-set inside it, so most pairs take the pair rule past the cone test
    P = random_pointed_poset(random.Random(seed), max_objects=10)
    objs = sorted(P.objects, key=str)
    gens = data.draw(st.lists(st.sampled_from(objs), min_size=2, max_size=3, unique=True)) if len(objs) > 1 else objs
    U = frozenset().union(*(P.up_set(g) for g in gens))
    B = frozenset().union(*(P.up_set(g) for g in data.draw(st.lists(st.sampled_from(sorted(U, key=str)), min_size=1, max_size=3))))
    if B == U:
        return
    expected = relative_betti_oracle.relative_betti(P, U, B, field)
    assert polytensor._relative_betti(P, U, B, field) == expected


def test_every_b_over_s_cube_3_peels_to_a_point():
    # s(cube-3) has 256 objects; of the 37 pairs (U_S, B) the walk yields for
    # disk2-circle, 28 have |B| = 192 and B is not a cone, yet each core is
    # one point, so only the empty cokernel set leaves a term.  The
    # chain-ranked oracle gives the same terms in 60-80 s.
    P = simplicial_transform(cube(3)).poset
    found = tensor_limits(P, induced_collection(P, "disk2-circle", 2))
    assert found.limits == [(1, 0, 0)]
    assert found.terms == (SplitTerm((), (1, 0, 0), (1,)),)
    assert found.non_acyclic_terms() == []


@pytest.mark.parametrize("poset", [fix_c(), fix_e()], ids=["fix-c", "fix-e"])
def test_disk_over_circle_terms_match_the_chain_ranked_ones(poset):
    col = induced_collection(poset, "disk2-circle", 4)
    assert tensor_limits(poset, col).terms == _oracle_terms(poset, col)


def test_check_route_reports_the_direct_route(monkeypatch):
    P = fix_a()
    col = MorphismCollection.augmentation(P.vertices, D=3)
    assert tensor_limits(P, col).direct is None
    assert tensor_limits(P, col).routes_agree is None
    found = tensor_limits(P, col, check_route=True)
    assert found.direct == found.limits == [(1, 2, 3, 4), (0, 0, 1, 2)]
    assert found.routes_agree is True

    # a non-surjective collection: the direct route builds T once, beside
    # the split, and agrees with it
    Q = fix_e()
    col = induced_collection(Q, "disk2-circle", 3)
    built = []
    original = polytensor.build_T
    monkeypatch.setattr(polytensor, "build_T", lambda *a, **k: built.append(a) or original(*a, **k))
    found = tensor_limits(Q, col, check_route=True)
    assert [t.cokernel for t in found.non_acyclic_terms()] == [("v1", "v2")]
    assert found.direct == found.limits == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert found.routes_agree is True
    assert len(built) == 1


def test_chain_arguments_are_checked():
    P = fix_b()
    empty = MorphismCollection({}, field=QQ, truncation=1)
    for limits in (polyhedral_tensor, tensor_limits):
        with pytest.raises(IndexMismatch):
            limits(P, empty)
    with pytest.raises(PreconditionFailed, match="empty collection needs explicit field and truncation"):
        MorphismCollection({})


def test_build_T_shapes_and_basis_order():
    P = fix_b()
    col = MorphismCollection.augmentation(P.vertices, D=2)
    dia = build_T(P, col)
    assert check_diagram(dia) == []
    assert dia.spaces["c"].dims == (1, 2, 3)
    assert dia.spaces["a"].dims == (1, 1, 1)
    assert dia.spaces[P.base].dims == (1, 0, 0)
    # the degree-2 basis of the top object, factors in vertex order (a, b):
    # 1 b^2, a b, a^2 1, as the left fold of the tensor product lists them
    M = col.source("a")
    _, basis = linalg._tensor_basis([M, M])
    assert basis[2] == [((0, 0), (2, 0)), ((1, 0), (1, 0)), ((2, 0), (0, 0))]
    # the structure maps read that order: towards a only a^2 1 survives,
    # towards b only 1 b^2
    assert dia.cover_maps[("a", "c")].nonzero_rows[2] == [[(2, 1)]]
    assert dia.cover_maps[("b", "c")].nonzero_rows[2] == [[(0, 1)]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["random", "arbitrary", "aug", "circle"]),
    pair=st.sampled_from(PAIR_NAMES),
    via=st.sampled_from(["colim", "hocolim"]),
)
def test_vertex_order_does_not_change_limits(seed, kind, pair, via):
    # renaming the objects reorders the vertices, and so the tensor factors
    # and the factor spaces; the collection follows its vertices
    rng = random.Random(seed)
    P = random_pointed_poset(rng, max_objects=7)
    while len(P.vertices) < 2:
        P = random_pointed_poset(rng, max_objects=7)
    m = _renaming(P, rng)
    R = PointedPoset(m.values(), m[P.base], [(m[a], m[b]) for a, b in P.covers])
    col = _collection(kind, P, seed, 2, QQ)
    moved = MorphismCollection({m[v]: a for v, a in col.maps.items()}, QQ, 2)
    found, renamed = tensor_limits(P, col, check_route=True), tensor_limits(R, moved, check_route=True)
    assert renamed.direct == renamed.limits == found.limits == found.direct
    cells, renamed = (polyprod_homology(Q, pair, 3, via=via, check_route=True) for Q in (P, R))
    for key in ("homology", "simplicial_homology", "routes_agree"):
        assert renamed[key] == cells[key]
    assert renamed["routes_agree"]


def test_index_mismatch_errors():
    P = fix_b()
    col = MorphismCollection.augmentation(["a", "b", "z"], D=1)
    with pytest.raises(IndexMismatch):
        build_T(P, col)
    with pytest.raises(IndexMismatch):
        polyhedral_tensor(P, col)
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
    dead = GradedLinearMap(unit, unit, [[[(0, 0)]], []])
    col = MorphismCollection({"v": dead})
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    with pytest.raises(MissingSection):
        build_section_S(P, col)
    with pytest.raises(MissingSection, match="'v'"):
        col.section_maps()


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
    col = induced_collection(P, "circle-point", 2)
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


def _mixed_names() -> PointedPoset:
    return PointedPoset(["*", 1, "a", 2], "*", [("*", 1), ("*", "a"), (1, 2), ("a", 2)])


def test_objects_named_by_ints_and_strings():
    # objects are ordered by str, so no route may compare them directly
    P = _mixed_names()
    unit = GradedVectorSpace.unit(QQ, 0)
    assert higher_limits(PosetDiagram.constant(P, unit)) == [(1,)]
    found = tensor_limits(P, MorphismCollection.augmentation(P.vertices, 2), check_route=True)
    assert found.routes_agree is True and found.limits == [(1, 2, 3)]
    assert f_vector(simplicial_transform(P).poset) == transform_f_vector(P) == (2, 1)
    with pytest.raises(PreconditionFailed, match=r"\[1, 2, 'a'\]"):
        PosetDiagram(P, {"*": unit}, {})
    # an int base point names the empty face of s(P) among str face names
    P = PointedPoset([0, 1, "a", 2], 0, [(0, 1), (0, "a"), (1, 2), ("a", 2)])
    assert f_vector(simplicial_transform(P).poset) == transform_f_vector(P) == (2, 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    as_int=st.lists(st.booleans(), min_size=8, max_size=8),
    pair=st.sampled_from(PAIR_NAMES),
    kind=st.sampled_from(["random", "arbitrary", "aug", "circle"]),
)
def test_routes_agree_on_objects_named_by_ints_and_strings(seed, as_int, pair, kind):
    Q = random_poset_with(seed, "any", 1, max_objects=7)[0]
    others = [x for x in Q.objects if x != Q.base]
    rename = {x: k if as_int[k] else f"o{k}" for k, x in enumerate(others)}
    rename[Q.base] = Q.base
    P = PointedPoset([rename[x] for x in Q.objects], Q.base, [(rename[x], rename[y]) for x, y in Q.covers])
    assert tensor_limits(P, _collection(kind, P, seed, 2, QQ), check_route=True).routes_agree
    assert polyprod_homology(P, pair, 3, check_route=True)["routes_agree"]
    assert f_vector(simplicial_transform(P).poset) == transform_f_vector(P)
