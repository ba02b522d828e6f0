import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetprod import stanley
from posetprod.errors import NotPolyhedral, NotSimplicial, PreconditionFailed
from posetprod.acceptance import POLYHEDRAL_SEED
from posetprod.fixtures import fix_a, fix_b, fix_c, fix_e, random_pointed_poset, random_poset_with, simplex
from posetprod.poset import PointedPoset
from posetprod.linalg import QQ, FieldSpec
from posetprod.polytensor import MorphismCollection, polyhedral_tensor
from posetprod.stanley import (
    RingPresentation,
    hilbert_from_fvector,
    ideal_generators,
    in_kernel,
    pi_evaluate,
    presentation_report,
    quotient_dims,
    simplicial_ideal_generators,
)
from presentation_oracle import quotient_dims as oracle_quotient_dims

F2, F3 = FieldSpec.Fp(2), FieldSpec.Fp(3)


def two_branch():
    # e and t are incomparable tops; t carries an extra vertex, so the pair
    # {v1, v2} has minimal upper bounds with unequal vertex sets
    return PointedPoset(
        "* v1 v2 v3 e t".split(),
        "*",
        [("*", "v1"), ("*", "v2"), ("*", "v3"),
         ("v1", "e"), ("v2", "e"),
         ("v1", "t"), ("v2", "t"), ("v3", "t")],
    )


def three_branch():
    return PointedPoset(
        "* v1 v2 v3 v4 e t u".split(),
        "*",
        [("*", "v1"), ("*", "v2"), ("*", "v3"), ("*", "v4"),
         ("v1", "e"), ("v2", "e"),
         ("v1", "t"), ("v2", "t"), ("v3", "t"),
         ("v1", "u"), ("v2", "u"), ("v4", "u")],
    )


def test_parallel_edge_presentation():
    P = fix_b()
    pres = ideal_generators(P)
    polys = {tuple(sorted(p.items())) for p in pres.relations}
    assert ((("a", "b"), 1), (("c",), -1), (("d",), -1)) in polys
    assert ((("c", "d"), 1),) in polys
    assert pres.skipped_unsound == 0
    assert quotient_dims(pres, 4) == (1, 2, 4, 6, 8)


def test_parallel_edge_report_agrees():
    rep = presentation_report(fix_b(), D=4)
    assert rep["agree"]
    assert rep["quotient_dims"] == [1, 2, 4, 6, 8]
    assert rep["higher_limits_vanish"]


def test_two_isolated_vertices():
    pres = ideal_generators(fix_e())
    assert quotient_dims(pres, 3) == (1, 2, 2, 2)
    rep = presentation_report(fix_e(), D=3)
    assert rep["agree"]


def test_square_face_poset_presentation_matches_limit():
    # the four adjacent corner pairs each collapse onto an edge; diagonal
    # pairs are skipped because the face carries all four vertices
    P = fix_c()
    pres = ideal_generators(P)
    assert pres.skipped_unsound > 0
    rep = presentation_report(P, D=3)
    assert rep["agree"]
    assert rep["quotient_dims"] == [1, 4, 10, 20]


def test_hilbert_from_fvector_values():
    assert hilbert_from_fvector((2, 2), 4) == (1, 2, 4, 6, 8)
    assert hilbert_from_fvector((4, 6, 4, 1), 3) == (1, 4, 10, 20)
    assert hilbert_from_fvector((2, 2), 8, scale=2) == (1, 0, 2, 0, 4, 0, 6, 0, 8)
    assert hilbert_from_fvector((3, 3, 1), 3) == (1, 3, 6, 10)
    for scale in (0, -1):
        with pytest.raises(PreconditionFailed):
            hilbert_from_fvector((2, 2), 4, scale=scale)


def test_scale_two_grading():
    pres = ideal_generators(fix_b(), scale=2)
    assert pres.degrees == {"a": 2, "b": 2, "c": 4, "d": 4}
    assert quotient_dims(pres, 8) == (1, 0, 2, 0, 4, 0, 6, 0, 8)


def test_full_simplex_face_ring_is_polynomial():
    P = simplex(2)
    pres = simplicial_ideal_generators(P)
    assert quotient_dims(pres, 3) == (1, 3, 6, 10)


def test_simplicial_guard():
    with pytest.raises(NotSimplicial):
        simplicial_ideal_generators(fix_c())
    with pytest.raises(NotPolyhedral):
        ideal_generators(fix_a())


def test_refusals_name_the_failed_property():
    with pytest.raises(NotSimplicial, match=r"^not simplicial: uu$"):
        simplicial_ideal_generators(fix_c())
    with pytest.raises(NotPolyhedral, match=r"^not polyhedral: \('3', '4'\)$"):
        ideal_generators(fix_a())


def test_presentation_report_refuses_before_building_limits():
    with pytest.raises(NotPolyhedral) as expected:
        ideal_generators(fix_a())
    with mock.patch.object(stanley, "polyhedral_tensor", side_effect=AssertionError("limits were built")) as built:
        with pytest.raises(NotPolyhedral) as refused:
            presentation_report(fix_a(), D=3)
    assert not built.called
    assert str(refused.value) == str(expected.value)


def test_simplicial_routes_agree():
    # pairwise family vs the bounded family with vertex sets: same quotient
    count = 0
    for P in random_poset_with(4242, "simplicial", 5):
        a = quotient_dims(simplicial_ideal_generators(P), 4)
        b = quotient_dims(ideal_generators(P, bound=3), 4)
        assert a == b
        count += 1
    assert count == 5


def test_two_branch_counterexample_is_detected():
    P = two_branch()
    rep = presentation_report(P, D=4)
    assert rep["quotient_dims"] == [1, 3, 7, 12, 19]
    assert rep["limit_dims"] == [1, 3, 7, 12, 18]
    assert not rep["agree"]
    assert rep["skipped_unsound"] >= 1
    # the unfiltered pair relation really does fail in the limit
    literal = {("v1", "v2"): 1, ("e",): -1, ("t",): -1}
    assert not in_kernel(P, literal, D=4)
    fam = pi_evaluate(P, literal, D=4)
    assert "t" in fam


def test_three_branch_limit_is_not_object_generated():
    P = three_branch()
    rep = presentation_report(P, D=2)
    assert not rep["agree"]
    assert rep["limit_dims"][2] == 11
    assert rep["quotient_dims"][2] == 10


def test_emitted_relations_vanish_in_the_limit():
    for seed, P in enumerate(random_poset_with(777, "polyhedral", 8)):
        pres = ideal_generators(P, bound=3)
        for poly, tag in zip(pres.relations, pres.tags):
            assert in_kernel(P, poly, D=4), (P.to_dict(), tag, poly)


def test_presentation_vs_limit_on_seeded_polyhedral_posets():
    agree_count = 0
    for P in random_poset_with(31415, "polyhedral", 10):
        rep = presentation_report(P, D=3)
        if rep["agree"]:
            agree_count += 1
    # most small draws avoid the counterexample pattern; all draws must at
    # least report honestly, and the bulk should agree
    assert agree_count >= 7


def _report_raising_every_bound(P, D, scale=1, field=QQ):
    """``presentation_report`` with its bound raised one step at a time up
    to the number of generators, the quotient recomputed at each."""
    col = MorphismCollection.augmentation(P.vertices, D=D, gen_degree=scale, field=field)
    lims = polyhedral_tensor(P, col)
    limit_dims = tuple(lims[0]) if lims else (0,) * (D + 1)
    n_gens = len(P.objects) - 1
    b = stanley._FIRST_BOUND
    while True:
        pres = ideal_generators(P, scale=scale, bound=b)
        qdims = quotient_dims(pres, D, field=field)
        agree = qdims == limit_dims
        if agree or b >= n_gens:
            break
        b += 1
    return {
        "quotient_dims": list(qdims),
        "limit_dims": list(limit_dims),
        "agree": agree,
        "bound_used": b,
        "skipped_unsound": pres.skipped_unsound,
        "higher_limits_vanish": all(all(v == 0 for v in l) for l in lims[1:]),
    }


def two_branch_beside_a_six_vertex_top():
    # every set of two to six of the w's lies under u alone, which carries
    # all six, so bounds past 4 still skip more sets
    ws = [f"w{i}" for i in range(1, 7)]
    P = two_branch()
    return PointedPoset(P.objects + ("u", *ws), "*", P.covers + tuple(("*", w) for w in ws) + tuple((w, "u") for w in ws))


@pytest.mark.parametrize("D, scale", [(4, 1), (2, 1), (5, 1), (4, 2)])
def test_report_past_the_degree_bound_equals_raising_every_bound(D, scale):
    # criterion 4's three disagreeing draws and the two-branch poset of
    # demos/04 all disagree past D // scale, where the loop stops raising
    # the bound
    drawn = random_poset_with(POLYHEDRAL_SEED, "polyhedral", 50, max_objects=8)
    posets = [drawn[0], drawn[9], drawn[41], two_branch(), three_branch(), two_branch_beside_a_six_vertex_top()]
    for P in posets:
        expected = _report_raising_every_bound(P, D, scale)
        assert presentation_report(P, D=D, scale=scale) == expected
    if (D, scale) == (4, 1):
        assert all(not presentation_report(P, D=4)["agree"] for P in posets)
        # only the last bound lists the sets of five w's
        P = posets[-1]
        assert ideal_generators(P, bound=4).skipped_unsound < presentation_report(P, D=4)["skipped_unsound"]


def test_report_with_prime_field():
    rep = presentation_report(fix_b(), D=3, field=FieldSpec.Fp(101))
    assert rep["agree"]
    assert rep["quotient_dims"] == [1, 2, 4, 6]


def test_pi_evaluate_supports():
    P = fix_b()
    fam = pi_evaluate(P, {("a",): 1}, D=2)
    assert set(fam) == {"a", "c", "d"}
    assert fam["c"] == {(1, 0): 1}
    assert in_kernel(P, {("a", "b"): 1, ("c",): -1, ("d",): -1}, D=4)
    assert not in_kernel(P, {("a", "b"): 1, ("c",): -1}, D=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    bound=st.integers(2, 4),
    field=st.sampled_from([QQ, F2, F3]),
    D=st.integers(0, 5),
)
def test_quotient_dims_equal_the_full_basis_oracle(seed, bound, field, D):
    P = random_poset_with(seed, "polyhedral", 1)[0]
    pres = ideal_generators(P, bound=bound)
    assert quotient_dims(pres, D, field) == oracle_quotient_dims(pres, D, field)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), bound=st.integers(2, 5))
def test_grown_antichains_are_the_filtered_combinations(seed, bound):
    P = random_pointed_poset(random.Random(seed), max_objects=12)
    gens = tuple(x for x in P.objects if x != P.base)
    filtered = [
        S
        for size in range(2, bound + 1)
        for S in itertools.combinations(gens, size)
        if all(not P.leq(a, b) and not P.leq(b, a) for a, b in itertools.combinations(S, 2))
    ]
    assert stanley._antichains(P, gens, bound) == filtered


def _pres(gens, relations):
    return RingPresentation(
        generators=tuple(gens), degrees={g: 1 for g in gens}, relations=relations, tags=[None] * len(relations)
    )


@pytest.mark.parametrize(
    "gens, relations, expected",
    [
        # chained identifications x~y, y~z leave k[x, w]
        ("wxyz", [{("x",): 1, ("y",): -1}, {("y",): 1, ("z",): -1}], {QQ: (1, 2, 3, 4), F2: (1, 2, 3, 4)}),
        # x + y is no identification over Q: y = -x makes x^2 + xy vanish,
        # while x = y would leave 2x^2
        ("xy", [{("x",): 1, ("y",): 1}, {("x", "x"): 1, ("x", "y"): 1}], {QQ: (1, 1, 1, 1), F3: (1, 1, 1, 1)}),
        # a coefficient that vanishes mod 2 is no term, so nothing is killed;
        # over Q the same relations leave k[x]/(x^2)
        ("xy", [{("x", "y"): 2}, {("x",): 2, ("y",): -2}], {QQ: (1, 1, 0, 0), F2: (1, 2, 3, 4)}),
        # after x~y, xz + yz is the single term 2xz and xz - yz is zero
        ("xyz", [{("x",): 1, ("y",): -1}, {("x", "z"): 1, ("y", "z"): 1}, {("x", "z"): 1, ("y", "z"): -1}],
         {QQ: (1, 2, 2, 2), F2: (1, 2, 3, 4)}),
        # a constant relation kills everything, unless it vanishes mod p
        ("x", [{(): 3}], {QQ: (0, 0, 0, 0), F3: (1, 1, 1, 1)}),
    ],
)
def test_hand_built_presentations_match_the_oracle(gens, relations, expected):
    pres = _pres(gens, relations)
    for field, dims in expected.items():
        assert quotient_dims(pres, 3, field) == dims
        assert oracle_quotient_dims(pres, 3, field) == dims


def test_quotient_dims_refuse_degree_zero_generators_and_inhomogeneous_relations():
    pres = _pres("xy", [{("x",): 1, ("y",): -1}])
    pres.degrees["y"] = 2
    with pytest.raises(AssertionError, match="inhomogeneous"):
        quotient_dims(pres, 3)
    pres.degrees["y"] = 0
    with pytest.raises(PreconditionFailed):
        quotient_dims(pres, 3)


def _renamed(P, name):
    return PointedPoset(
        [name[o] for o in P.objects], name[P.base], [(name[a], name[b]) for a, b in P.covers]
    )


def test_int_and_mixed_object_names_give_the_str_named_report():
    # int names sort differently by value than by str (..., 10, 11, 2, 9)
    P = PointedPoset(["0", "1", "2", "9", "10", "11"], "0",
                     [("0", "9"), ("0", "10"), ("0", "1"), ("9", "11"), ("10", "11"), ("1", "2")])
    ints = [0, 2, 10, 9, 1, 11, 20, 100, 3, 30]
    for Q in [P, fix_c(), *random_poset_with(2718, "polyhedral", 4)]:
        as_int = {o: ints[i] for i, o in enumerate(Q.objects)}
        as_str = {o: str(n) for o, n in as_int.items()}
        mixed = {o: n if i % 2 else f"o{n}" for i, (o, n) in enumerate(as_int.items())}
        want = presentation_report(_renamed(Q, as_str), D=3)
        assert presentation_report(_renamed(Q, as_int), D=3) == want
        assert presentation_report(_renamed(Q, mixed), D=3) == want
