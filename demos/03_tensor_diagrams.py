"""Tensor-product diagrams from a vertex-indexed family of surjections.

Given a surjection a_v: M_v -> N_v of graded vector spaces for each vertex,
the poset gets a diagram T with T(x) the tensor product of M_v for v in
V(x) and N_v for the other vertices; the structure map on a cover applies
a_v in the coordinates that leave the vertex set.  The higher limits of T
are the invariant under study here, and on well-behaved posets they vanish
above level zero.

Run with ``python3 demos/03_tensor_diagrams.py``.
"""

import random

from posetprod import MorphismCollection, build_T, polyhedral_tensor
from posetprod.fixtures import cube, fix_a, random_poset_with
from posetprod.limits import check_diagram
from posetprod.polytensor import build_section_S, random_surjective_collection, reduction_invariance

# The circle collection has one exterior degree-1 generator per vertex
# mapping onto the unit.  Over the square (four vertices) the top face
# carries the exterior algebra on all four generators, and since the top
# face dominates every object the limit is exactly that algebra: the
# cohomology of the 4-torus, (1, 4, 6, 4) through degree 3.
square = cube(2)
circle = MorphismCollection.circle(square.vertices, D=3)
T = build_T(square, circle)
print("T on the square, dims at the top face:", T.spaces["uu"].dims)
print("diagram problems:", check_diagram(T) or "none")

lims = polyhedral_tensor(square, circle)
print("higher limits:", lims)
print("lim^0 = the top block:", lims[0] == T.spaces["uu"].dims)

# The square is lower saturated, and the collection is surjective with a
# section at every vertex, so everything above level zero vanishes.  The
# section maps witness this: they split every structure map of T.
S = build_section_S(square, circle)
print("section splits every cover:", len(S) == len(square.covers))

# Vanishing holds for random surjective collections too, not just the
# circle one (trailing zero levels are trimmed, so vanishing shows up as a
# one-entry answer).
rng = random.Random(7)
col = random_surjective_collection(rng, square.vertices, D=3)
lims_rand = polyhedral_tensor(square, col)
print("random surjective collection vanishes above 0:", len(lims_rand) == 1)

# On fix_a lower saturation fails and the vanishing genuinely breaks: with
# the truncated polynomial (augmentation) collection a level-1 class
# survives.
bad = fix_a()
aug = MorphismCollection.augmentation(bad.vertices, D=3)
lims_bad = polyhedral_tensor(bad, aug)
print("\nfix_a higher limits:", lims_bad)
print("level 1 is nonzero:", any(lims_bad[1]))

# The limits only depend on the reduction when the poset is polyhedral;
# sampled polyhedral posets confirm it (reduction keeps the vertices, so
# the same collection applies on both sides).
polys = random_poset_with(20260815, "polyhedral", 3, max_objects=6)
for P in polys:
    coll = MorphismCollection.circle(P.vertices, D=2)
    _, _, equal = reduction_invariance(P, coll, polyhedral_tensor(P, coll))
    print("reduction-invariant on", len(P.objects), "objects:", equal)

# fix_a is a counterexample outside the polyhedral class: reducing it
# collapses 5 and 6 into one top and the level-1 class dies.
lims_a, lims_ra, equal_a = reduction_invariance(bad, aug, lims_bad)
print("fix_a invariant under reduction?", equal_a)
print("  over P:  ", lims_a)
print("  reduced: ", lims_ra)
