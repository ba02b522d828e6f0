import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetprod.errors import PreconditionFailed, UnknownObject
from posetprod.fixtures import cube, fix_a, fix_b, fix_e, random_pointed_poset, random_poset_with
from posetprod.limits import (
    PosetDiagram,
    check_diagram,
    cochain_complex,
    higher_limits,
    lim0_basis,
)
from posetprod.linalg import (
    QQ,
    FieldSpec,
    GradedLinearMap,
    GradedVectorSpace,
    truncated_polynomial,
)
from posetprod.polytensor import _relative_betti, build_T, random_surjective_collection
from posetprod.poset import PointedPoset, classify


def square_with_base():
    # two bottom objects, two top objects, all four comparabilities
    return PointedPoset(
        "* a b c d".split(),
        "*",
        [("*", "a"), ("*", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )


def test_indicator_dims_counted_right():
    P = fix_a()
    dia = PosetDiagram.indicator(P, ["3", "4"])
    cx = cochain_complex(dia)
    # only chains starting inside the up-set contribute
    live = [sum(1 for c in cs if c[0] in {"3", "4", "5", "6"}) for cs in cx.chains]
    assert live[0] == 4 and live[1] == 4 and live[2] == 0
    assert cx.spaces[0].dims == (4,)
    assert cx.spaces[1].dims == (4,)
    lims = higher_limits(dia)
    assert lims == [(1,), (1,)]


def test_higher_limits_weak_chain_cross_check():
    P = fix_a()
    dia = PosetDiagram.indicator(P, ["3", "4"])
    assert higher_limits(dia, weak=True, max_n=3) == [(1,), (1,)]
    with pytest.raises(PreconditionFailed):
        higher_limits(dia, weak=True)


def test_constant_diagram_is_acyclic():
    rng = random.Random(11)
    unit = GradedVectorSpace.unit(QQ, 0)
    for seed in range(8):
        P = random_poset_with(rng.randrange(10**6), "any", 1)[0]
        dia = PosetDiagram.constant(P, unit)
        lims = higher_limits(dia)
        assert lims[0] == (1,)
        assert all(all(v == 0 for v in l) for l in lims[1:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(3)]),
    data=st.data(),
)
def test_restriction_to_up_set_matches_indicator(seed, field, data):
    # the split route ranks the chains of an up-set U; the indicator diagram
    # of U over the whole poset is the oracle
    P = random_pointed_poset(random.Random(seed), max_objects=8)
    objs = sorted(set(P.objects) - {P.base}, key=str)
    gens = data.draw(st.lists(st.sampled_from(objs), min_size=1, max_size=3, unique=True)) if objs else [P.base]
    U = set()
    for g in gens:
        U |= P.up_set(g)
    ind = higher_limits(PosetDiagram.indicator(P, gens, field))
    assert [(b,) for b in _relative_betti(P, frozenset(U), frozenset(), field)] == ind


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(3)]),
    data=st.data(),
)
def test_relative_betti_matches_the_unit_diagram_on_U_minus_B(seed, field, data):
    # the split route ranks the chains of an up-set U whose bottom lies
    # outside an up-set B inside it; the oracle is the diagram that is the
    # unit on U minus B (convex, as both are up-sets) and zero elsewhere
    P = random_pointed_poset(random.Random(seed), max_objects=8)
    objs = sorted(P.objects, key=str)
    U = frozenset().union(*(P.up_set(g) for g in data.draw(st.lists(st.sampled_from(objs), min_size=1, max_size=3))))
    B = frozenset().union(*(P.up_set(g) for g in data.draw(st.lists(st.sampled_from(sorted(U, key=str)), max_size=3))))
    if B == U:
        return
    unit, zero = GradedVectorSpace.unit(field, 0), GradedVectorSpace.zero_space(field, 0)
    spaces = {x: unit if x in U and x not in B else zero for x in P.objects}
    maps = {(x, y): GradedLinearMap.identity(unit) if spaces[x] is spaces[y] is unit
            else GradedLinearMap.zero(spaces[y], spaces[x]) for x, y in P.covers}
    dia = PosetDiagram(P, spaces, maps)
    assert check_diagram(dia) == []
    assert [(b,) for b in _relative_betti(P, U, B, field)] == higher_limits(dia)


def test_graded_diagram_over_a_chain():
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    m, aug = truncated_polynomial(1, 3)
    unit = GradedVectorSpace.unit(QQ, 3)
    dia = PosetDiagram(P, {"*": unit, "v": m}, {("*", "v"): aug})
    assert check_diagram(dia) == []
    lims = higher_limits(dia)
    assert lims == [(1, 1, 1, 1)]


def test_lim0_basis_labels():
    P = square_with_base()
    unit = GradedVectorSpace.unit(QQ, 0)
    dia = PosetDiagram.constant(P, unit)
    [(names, vecs)] = lim0_basis(dia)
    assert len(vecs) == 1
    # coordinate (x, i) is basis element i of the space at object x
    assert names == [(x, 0) for x in "*abcd"]
    # the compatible family is constant across all five objects
    v = vecs[0]
    assert all(x == v[0] for x in v)
    # at v, two basis elements in degree 1, both in the kernel of the map
    # to the base
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    unit, space = GradedVectorSpace.unit(QQ, 1), GradedVectorSpace(QQ, (1, 2))
    dia = PosetDiagram(P, {"*": unit, "v": space}, {("*", "v"): GradedLinearMap(space, unit, [[[(0, 1)]], []])})
    names = [n for n, _ in lim0_basis(dia)]
    assert names == [[("*", 0), ("v", 0)], [("v", 0), ("v", 1)]]


def test_check_diagram_reports_noncommuting_square():
    P = square_with_base()
    unit = GradedVectorSpace.unit(QQ, 0)
    one = GradedLinearMap.identity(unit)
    minus = GradedLinearMap(unit, unit, [[[(0, -1)]]])
    maps = {c: one for c in P.covers}
    maps[("a", "c")] = minus
    dia = PosetDiagram(P, {x: unit for x in P.objects}, maps)
    problems = check_diagram(dia)
    assert any("disagree" in p for p in problems)
    # and the honest version passes
    dia2 = PosetDiagram.constant(P, unit)
    assert check_diagram(dia2) == []


def test_check_diagram_reports_shape_and_key_problems():
    P = PointedPoset(["*", "v"], "*", [("*", "v")])
    unit = GradedVectorSpace.unit(QQ, 0)
    big = GradedVectorSpace(QQ, (2,))
    dia = PosetDiagram(P, {"*": unit, "v": unit}, {})
    assert any("missing map" in p for p in check_diagram(dia))
    dia = PosetDiagram(
        P,
        {"*": unit, "v": unit},
        {("*", "v"): GradedLinearMap.identity(unit), ("v", "*"): GradedLinearMap.identity(unit)},
    )
    assert any("non-cover" in p for p in check_diagram(dia))
    dia = PosetDiagram(P, {"*": unit, "v": big}, {("*", "v"): GradedLinearMap.identity(unit)})
    assert any("wrong shape" in p for p in check_diagram(dia))


def test_composite_identity_and_error():
    P = square_with_base()
    unit = GradedVectorSpace.unit(QQ, 0)
    dia = PosetDiagram.constant(P, unit)
    assert dia.composite("a", "a").is_identity()
    assert dia.composite("*", "c").is_identity()
    with pytest.raises(PreconditionFailed):
        dia.composite("c", "a")


def test_delta_squares_to_zero_on_seeded_diagrams():
    rng = random.Random(31)
    for seed in range(6):
        P = random_poset_with(rng.randrange(10**6), "any", 1)[0]
        objs = sorted(set(P.objects) - {P.base}, key=str)
        gens = rng.sample(objs, min(2, len(objs))) if objs else []
        dia = PosetDiagram.indicator(P, gens, D=1)
        cochain_complex(dia)
        cochain_complex(dia, weak=True, max_n=3)


def test_unknown_objects_and_negative_max_n_are_refused():
    with pytest.raises(UnknownObject, match="zz"):
        PosetDiagram.indicator(fix_a(), ["3", "zz"])
    dia = PosetDiagram.indicator(fix_a(), ["3"])
    for build in (cochain_complex, higher_limits):
        for weak in (False, True):
            with pytest.raises(PreconditionFailed, match="max_n must be >= 0, got -1"):
                build(dia, weak=weak, max_n=-1)
    assert higher_limits(dia, max_n=0) == higher_limits(dia)[:1]


def test_noncommuting_diagram_fails_the_square_check():
    P = square_with_base()
    unit = GradedVectorSpace.unit(QQ, 1)
    one = GradedLinearMap.identity(unit)
    maps = {c: one for c in P.covers}
    maps[("a", "c")] = GradedLinearMap(unit, unit, [[[(0, -1)]], []])
    dia = PosetDiagram(P, {x: unit for x in P.objects}, maps)
    with pytest.raises(AssertionError, match="square to zero"):
        cochain_complex(dia)
    with pytest.raises(AssertionError, match="square to zero"):
        cochain_complex(dia, weak=True, max_n=2)
    cochain_complex(PosetDiagram(P, {x: unit for x in P.objects}, {c: one for c in P.covers}))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    poset=st.one_of(
        st.just(fix_a()),  # its tensor diagrams can have lim^1 != 0
        st.integers(0, 10**6).map(lambda s: random_pointed_poset(random.Random(s), max_objects=7)),
    ),
    seed=st.integers(0, 10**6),
    field=st.sampled_from([QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)]),
    D=st.integers(0, 2),
)
def test_weak_equals_strict_on_random_tensor_diagrams(poset, seed, field, D):
    col = random_surjective_collection(random.Random(seed), poset.vertices, D, field)
    dia = build_T(poset, col)
    strict = higher_limits(dia)
    weak = higher_limits(dia, weak=True, max_n=len(strict))
    n = max(len(strict), len(weak))
    pad = lambda l: l + [(0,) * (D + 1)] * (n - len(l))
    assert pad(strict) == pad(weak)


def test_weak_equals_strict_on_seeded_indicators():
    rng = random.Random(47)
    for seed in range(5):
        P = random_poset_with(rng.randrange(10**6), "any", 1)[0]
        objs = sorted(set(P.objects) - {P.base}, key=str)
        gens = rng.sample(objs, min(2, len(objs))) if objs else []
        dia = PosetDiagram.indicator(P, gens)
        strict = higher_limits(dia)
        weak = higher_limits(dia, weak=True, max_n=len(strict) + 1)
        n = max(len(strict), len(weak))
        pad = lambda l: l + [(0,)] * (n - len(l))
        assert pad(strict) == pad(weak)


def test_field_does_not_change_indicator_limits():
    P = fix_a()
    for f in (QQ, FieldSpec.Fp(2), FieldSpec.Fp(101)):
        dia = PosetDiagram.indicator(P, ["3", "4"], field=f)
        assert higher_limits(dia) == [(1,), (1,)]


def test_verify_lower_factoring():
    rep = classify(fix_a())
    assert not rep.lower_saturated
    assert rep.witnesses["lower_saturated"] == ("3", "4")
    assert fix_a().bounds(["3", "4"]).min_upper
    assert classify(fix_b()).lower_saturated
    assert classify(fix_e()).lower_saturated


@pytest.mark.parametrize("P, strict, weak", [
    (fix_a(), [7, 18, 20, 8], [7, 25, 63, 129]),
    (cube(3), [28, 125, 218, 168, 48], [28, 153, 496, 1225]),
])
def test_chain_counts_per_level(P, strict, weak):
    dia = PosetDiagram.constant(P, GradedVectorSpace.unit(QQ, 0))
    assert [len(level) for level in cochain_complex(dia).chains] == strict
    cx = cochain_complex(dia, weak=True, max_n=2)
    assert [len(level) for level in cx.chains] == weak
    assert all(level == sorted(level) for level in cx.chains)
