"""Classifying pointed posets and collapsing redundant covers.

Every poset here is finite and pointed: it has a designated minimum, the
base point, written ``*``.  The minimal objects above the base are the
vertices, and each object x determines its vertex set V(x), the vertices
lying below it.  The classification predicates are all stated in terms of
the order and these vertex sets.

Run with ``python3 demos/01_classify_and_reduce.py``.
"""

from posetprod import PointedPoset, classify, down_isomorphism, reduce_poset
from posetprod.fixtures import cube, fix_a, fix_b, simplex

# A poset is built from its objects, the base point, and any generating set
# of strict relations; the constructor closes them transitively and derives
# the canonical cover relation.
P = PointedPoset(
    ["*", "v1", "v2", "e", "t"],
    "*",
    [("*", "v1"), ("*", "v2"), ("v1", "e"), ("v2", "e"), ("e", "t")],
)
print("objects:", P.objects)
print("covers: ", P.covers)
print("vertices:", P.vertices)
for x in P.objects:
    print(f"  V({x}) = {sorted(P.vertex_set(x))}")

# ``classify`` evaluates the standard predicates in one pass and keeps a
# witness for each failure.  Here t sits above e with the same vertex set,
# so the poset is not reduced: the cover (e, t) carries no vertex
# information.
rep = classify(P)
print("\nclassification:", rep.to_dict())

# ``reduce_poset`` collapses every such cover at once, returning the
# reduction together with the projection map.  Objects sharing a vertex set
# and joined by covers form one class, kept as its str-greatest minimal
# element; collapsing covers one at a time, in any order, reaches the same
# quotient.  The result is reduced and has the same vertices.
R, proj = reduce_poset(P)
print("\nreduced objects:", R.objects)
print("projection:", dict(proj))
print("reduced?", classify(R).reduced)

# Names only pick the survivor of each class.  A renamed copy reduces to an
# isomorphic poset; ``down_isomorphism`` finds a base-and-order preserving
# bijection or returns None.
names = {"*": "*", "v1": "b", "v2": "a", "e": "z", "t": "c"}
P2 = PointedPoset(names.values(), "*", [(names[x], names[y]) for x, y in P.covers])
R2, proj2 = reduce_poset(P2)
print("renamed copy reduces to:", R2.objects, "via", dict(proj2))
print("isomorphic to the first reduction?", down_isomorphism(R, R2) is not None)

# Face posets of polytopes are the motivating examples.  The square is
# polyhedral (every down-set is a face lattice with unique vertex-set
# realizations) but not simplicial (a 2-face has four vertices, not three).
square = cube(2)
print("\nsquare:", classify(square).to_dict())

# The 2-simplex is simplicial, hence also polyhedral.
print("triangle:", classify(simplex(2)).to_dict())

# fix_a fails lower saturation: objects 3 and 4 share the two vertices and
# have common upper bounds, but no common lower bound realizes the
# intersection {1,2} of their vertex sets.
print("fix_a:", classify(fix_a()).to_dict())

# The bigon (two parallel edges on the same two vertices) is polyhedral
# and regular but again not simplicial.
print("bigon:", classify(fix_b()).to_dict())
