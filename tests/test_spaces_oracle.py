"""posetprod.spaces against the all-simplices construction in spaces_oracle.py.

The library lists nondegenerate simplices only; the oracle lists every
simplex and searches for the degenerate ones.  Both must give spaces with
the same number of cores in each dimension and the same homology, and
2-factor products must agree name for name.  The library's homology, which
clears rows, is checked against sympy ranks of the full dense boundary
matrices.  The cellular colimit and the full Bousfield-Kan complex of the
hocolim (``hocolim_reference.py``), which name cells by integer codes, must
give the tuple-named oracle's cells in the same order and the same
boundaries; the library's hocolim, which ranks only the critical cells of
the cone matching, must give the reference's homology.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

import hocolim_reference as reference
import spaces_oracle as oracle
from test_spaces import _EXTRA_PAIRS, _assert_boundary_squares_to_zero, _collapse_pair, _cone_pair, _glue_pair
from posetprod import spaces
from posetprod.fixtures import fix_a, fix_b, fix_c, fix_d, fix_e, random_pointed_poset
from posetprod.linalg import F2, QQ, FieldSpec
from posetprod.spaces import (
    PAIR_NAMES,
    circle_space,
    disk_space,
    homology,
    interval_space,
    point_space,
    polyhedral_product_space,
    product_space,
    two_point_space,
)

# fix-c is cube(2) and fix-d is simplex(2)
POSETS = {"fix-a": fix_a, "fix-b": fix_b, "fix-c": fix_c, "fix-d": fix_d, "fix-e": fix_e}

MODELS = {
    "point": point_space,
    "two-point": two_point_space,
    "interval": interval_space,
    "circle": circle_space,
    "disk": disk_space,
}


def _profile(space, n_max):
    counts = [len(space.nondegenerate(n)) for n in range(n_max + 1)]
    return counts, homology(space, n_max - 1, QQ), homology(space, n_max - 1, F2)


def _assert_matches_oracle(P, pair, n_max, via):
    new, _ = polyhedral_product_space(P, pair, n_max, via=via)
    old, _ = oracle.polyhedral_product_space(P, pair, n_max, via=via)
    assert _profile(new, n_max) == _profile(old, n_max)


@pytest.mark.parametrize("via", ["colim", "hocolim"])
@pytest.mark.parametrize("pair", PAIR_NAMES)
@pytest.mark.parametrize("name", sorted(POSETS))
def test_polyhedral_products_match_the_oracle(name, pair, via):
    _assert_matches_oracle(POSETS[name](), pair, 2, via)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    pair=st.sampled_from(PAIR_NAMES),
    via=st.sampled_from(["colim", "hocolim"]),
    n_max=st.integers(2, 3),
)
def test_random_polyhedral_products_match_the_oracle(seed, pair, via, n_max):
    P = random_pointed_poset(random.Random(seed), max_objects=5)
    _assert_matches_oracle(P, pair, n_max, via)


@pytest.mark.parametrize("right", sorted(MODELS))
@pytest.mark.parametrize("left", sorted(MODELS))
def test_two_factor_products_match_the_oracle_name_for_name(left, right):
    X, Y = MODELS[left](4), MODELS[right](4)
    new, name = product_space(X, Y, 4)
    old, old_express = oracle.product_space(X, Y, 4)
    assert new.cores == old.cores
    assert new.core_faces == old.core_faces
    assert {key: name(key) for key in old_express} == old_express


def _reference_ranks(X, top: int, field: FieldSpec):
    """Ranks of the dense boundary matrices C_n -> C_(n-1), n = 1..top, built
    from the face tables and ranked by sympy; entry 0 is 0."""
    dom = SYMPY_QQ if field.kind == "Q" else GF(field.p)
    bases = [X.nondegenerate(n) for n in range(top + 1)]
    ranks = [0]
    for n in range(1, top + 1):
        index = {c: k for k, c in enumerate(bases[n - 1])}
        m = [[0] * len(bases[n]) for _ in bases[n - 1]]
        for col, c in enumerate(bases[n]):
            for i, (f, word) in enumerate(X.core_faces[c]):
                if not word:
                    m[index[f]][col] += (-1) ** i
        # sympy's sparse format, which must hold no zero, ranks the full matrix fast
        entries = {i: r for i, row in enumerate(m) if (r := {j: y for j, x in enumerate(row) if x and (y := dom(x))})}
        ranks.append(DomainMatrix(entries, (len(m), len(bases[n])), dom).rank() if entries else 0)
    return ranks


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    pair=st.sampled_from(PAIR_NAMES),
    via=st.sampled_from(["colim", "hocolim"]),
    n_max=st.integers(2, 3),
    field=st.sampled_from([QQ, F2, FieldSpec.Fp(101)]),
)
# level 2 clears the rows of the edges that were pivots of level 1
@example(seed=0, pair="disk2-circle", via="hocolim", n_max=3, field=QQ)
def test_homology_matches_sympy_ranks_of_the_full_boundary_matrices(seed, pair, via, n_max, field):
    X, _ = polyhedral_product_space(random_pointed_poset(random.Random(seed), max_objects=4), pair, n_max, via=via)
    ranks = _reference_ranks(X, n_max, field)
    dims = [len(X.nondegenerate(n)) for n in range(n_max + 1)]
    calls = []
    library_rank = spaces.rank

    def recording_rank(rows, ncols, field, pivots=None):
        calls.append(len(rows))
        return library_rank(rows, ncols, field, pivots)

    with mock.patch.object(spaces, "rank", recording_rank):
        betti = homology(X, n_max - 1, field)
    assert betti == tuple(dims[n] - ranks[n] - ranks[n + 1] for n in range(n_max))
    # one row per (n-1)-core, less one per pivot one level down
    assert calls == [dims[n - 1] - ranks[n - 1] for n in range(1, n_max + 1)]


def _traced_cells(cells, P, pair, n_max, field):
    """Cells per dimension, Betti numbers, the (rows, cols, nnz) of every
    rank call, and the boundary as {(n, row, col): coefficient} by place in
    the bases, of one cellular route."""
    bases, faces = cells(P, pair, n_max)
    shapes = []
    library_rank = spaces.rank

    def merged(c):
        # the oracle lists each core's boundary face by face; _betti reads each face once
        row = {}
        for f, e in faces(c):
            row[f] = row.get(f, 0) + e
        return [(f, e) for f, e in row.items() if e]

    def recording_rank(rows, ncols, field, pivots=None):
        shapes.append((len(rows), ncols, sum(map(len, rows))))
        return library_rank(rows, ncols, field, pivots)

    with mock.patch.object(spaces, "rank", recording_rank):
        betti = spaces._betti(bases, merged, n_max - 1, field)
    boundary = {}
    for n in range(1, len(bases)):
        index = {c: k for k, c in enumerate(bases[n - 1])}
        for col, c in enumerate(bases[n]):
            for f, e in merged(c):
                boundary[(n, index[f], col)] = e
    return tuple(map(len, bases)), betti, shapes, boundary


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_max=st.integers(1, 3))
def test_cell_codes_match_the_tuple_named_cells(seed, n_max):
    P = random_pointed_poset(random.Random(seed), max_objects=6)
    # the cone has several cores outside A, where every built-in pair has one
    cone = _cone_pair(n_max)
    routes = (
        (spaces.colimit_cells, oracle.colimit_cells, PAIR_NAMES + (cone,)),
        # glue and collapse are not injective on cores, which only the hocolim allows
        (reference.hocolim_cells, oracle.hocolim_cells, PAIR_NAMES + (cone, _glue_pair(n_max), _collapse_pair(n_max))),
    )
    for new, old, pairs in routes:
        for pair in pairs:
            for field in (QQ, F2):
                assert _traced_cells(new, P, pair, n_max, field) == _traced_cells(old, P, pair, n_max, field)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    poset=st.one_of(st.sampled_from(["fix-a", "fix-b"]), st.integers(0, 10**6)),
    pair=st.sampled_from(PAIR_NAMES + tuple(_EXTRA_PAIRS)),
    n_max=st.integers(1, 4),
)
# fix-a and fix-b have supports whose U_S has two minimal objects, so their
# fibres keep every chain critical
@example(poset="fix-a", pair="circle-point", n_max=4)
@example(poset="fix-b", pair="disk2-circle", n_max=3)
# glue and collapse have more critical cells than the full complex here
# (125 against 89, and 48 against 31)
@example(poset=50, pair="glue", n_max=3)
@example(poset=135, pair="collapse", n_max=1)
def test_critical_cells_give_the_homology_of_the_full_hocolim_complex(poset, pair, n_max):
    P = POSETS[poset]() if isinstance(poset, str) else random_pointed_poset(random.Random(poset), max_objects=7)
    # the cone has three cores outside A; glue and collapse are not injective
    # on cores, so they are matched through the mapping cylinder of their
    # inclusion, which has five cells where X has one core. The critical
    # cells are no more than the full complex only for a pair injective on
    # cores: glue and collapse can have more (232,065 against 94,401 for
    # glue over cube-3)
    injective = pair not in ("glue", "collapse")
    if pair in _EXTRA_PAIRS:
        pair = _EXTRA_PAIRS[pair](n_max)
    bases, faces = spaces.hocolim_cells(P, pair, n_max)
    for field in (QQ, F2):
        counts, betti, _, _ = _traced_cells(reference.hocolim_cells, P, pair, n_max, field)
        assert spaces._betti(bases, faces, n_max - 1, field) == betti
    if injective:
        assert sum(map(len, bases)) <= sum(counts)
    _assert_boundary_squares_to_zero(P, pair, n_max, spaces.hocolim_cells)
