"""posetprod.spaces against the all-simplices construction in spaces_oracle.py.

The library lists nondegenerate simplices only; the oracle lists every
simplex and searches for the degenerate ones.  Both must give spaces with
the same number of cores in each dimension and the same homology, and
2-factor products must agree name for name.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spaces_oracle as oracle
from posetprod.fixtures import fix_a, fix_b, fix_c, fix_d, fix_e, random_pointed_poset
from posetprod.linalg import F2, QQ
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
    new, new_express = product_space(X, Y, 4)
    old, old_express = oracle.product_space(X, Y, 4)
    assert new.cores == old.cores
    assert new.core_faces == old.core_faces
    assert dict(new_express) == old_express
