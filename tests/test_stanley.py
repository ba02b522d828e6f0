import random

import pytest

from posetprod.errors import NotPolyhedral, NotSimplicial, PreconditionFailed
from posetprod.fixtures import fix_a, fix_b, fix_c, fix_e, random_poset_with, simplex
from posetprod.polytensor import MorphismCollection, polyhedral_tensor
from posetprod.poset import PointedPoset
from posetprod.linalg import FieldSpec
from posetprod.stanley import (
    hilbert_from_fvector,
    ideal_generators,
    in_kernel,
    pi_evaluate,
    presentation_report,
    quotient_dims,
    simplicial_ideal_generators,
)


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
