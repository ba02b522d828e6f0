"""Polyhedral products as simplicial sets, and their homology.

A pair of spaces (X, A <= X) and a pointed poset P determine a block D(x)
for every object: the product with an X factor for each vertex in V(x) and
an A factor for the rest.  Gluing the blocks along the order (an honest
colimit, or the homotopy colimit when blocks overlap badly) yields one
space whose homology the algebraic side predicts from the higher limits of
the induced diagram of cohomologies.

Run with ``python3 demos/06_spaces_and_homology.py``.
"""

from posetprod import FieldSpec, homology, polyhedral_product_space, polyprod_homology
from posetprod.fixtures import cube, fix_b, fix_e
from posetprod.spaces import (
    PAIR_NAMES,
    circle_space,
    product_space,
)

# Spaces here are truncated simplicial sets: nondegenerate simplices with
# explicit face tuples, degeneracies handled symbolically.  The built-in
# models are tiny; the circle is one vertex and one edge.
S1 = circle_space(3)
print("circle simplices per dimension:", [len(S1.simplices(n)) for n in range(4)])
print("homology of the circle:", homology(S1, 2))

# Products interleave degeneracies, so even this small model grows: the
# torus has the classical Betti numbers (1, 2, 1).
T2, _ = product_space(S1, S1)
print("torus nondegenerate cells:", [len(T2.nondegenerate(n)) for n in range(4)])
print("homology of the torus:", homology(T2, 2))

# Coefficients are a choice; the torus has no torsion so F_2 agrees.
print("over F_2:", homology(T2, 2, field=FieldSpec.parse("2")))

# Available vertex pairs (X, A):
print("\npairs:", PAIR_NAMES)

# Over the two-isolated-vertices poset with the (disk, circle) pair, the
# blocks are disk x circle, circle x disk and circle x circle, and the
# glued space is the 3-sphere.
P = fix_e()
Z, _ = polyhedral_product_space(P, "disk2-circle", n_max=4)
print("\n3-sphere homology:", homology(Z, 3))

# ``polyprod_homology`` runs both sides of the comparison: the homology of
# the glued space, and the higher limits of the induced diagram of
# cohomologies with the level-n part contributing in total degree n + k.
# For the colimit it never builds the simplicial set: it takes the cellular
# route, one cell per tuple of cores of the disk (a core of the circle on
# every vertex outside the support) and component of the support's up-set.
# The disk is the circle with one 2-core filling it, so each vertex of the
# support carries that 2-core: the 3-sphere gets 8 cells, where the cone on
# the circle (three cores outside it) gave 16.
rep = polyprod_homology(P, "disk2-circle", n_max=4)
print("comparison:", rep)
print("route:", rep["route"], "with cells per dimension", rep["cells"])

# ``check_route`` also builds the simplicial colimit, as above, and
# compares the two routes.
checked = polyprod_homology(P, "disk2-circle", n_max=4, check_route=True)
print("simplicial route:", checked["simplicial_homology"], "routes agree:", checked["routes_agree"])

# With the (circle, point) pair over the bigon the space is two tori glued
# along a wedge of two circles; limits and homology again agree.
rep2 = polyprod_homology(fix_b(), "circle-point", n_max=3)
print("\nbigon circle-point:", rep2)

# The gluing is a choice: the colimit identifies simplices outright, the
# homotopy colimit keeps gluing data as prisms.  It has a cellular route
# too: the Bousfield-Kan double complex has one cell per strict chain
# x_0 < ... < x_p of objects and tuple of factor cores of the block at x_0,
# and a cone matching leaves one critical cell per tuple of cores of X
# wherever the objects above its support have one minimal object, as here
# (the 4-torus's 1, 4, 6 and 4 cells).  For these posets both gluings give
# the same homology.  Over the square the top face
# contains all four vertices, so the glued space is the 4-torus ((1, 4, 6)
# through degree 2).
sq = cube(2)
hc = polyprod_homology(sq, "circle-point", n_max=3, via="colim")["homology"]
hoco = polyprod_homology(sq, "circle-point", n_max=3, via="hocolim")
print("\n4-torus over the square, colim vs hocolim:", hc, hoco["homology"])
print("hocolim route:", hoco["route"], "with cells per dimension", hoco["cells"])

# ``check_route`` builds the homotopy colimit as a simplicial set as well.
checked = polyprod_homology(sq, "circle-point", n_max=3, via="hocolim", check_route=True)
print("simplicial hocolim:", checked["simplicial_homology"], "routes agree:", checked["routes_agree"])

# Truncation is explicit: a product or colimit built up to n_max only
# certifies homology through degree n_max - 1, and asking beyond raises
# an error instead of silently returning wrong numbers.
try:
    homology(Z, 4)
except Exception as e:
    print("\nasking past the truncation:", type(e).__name__, "-", e)
