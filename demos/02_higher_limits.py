"""Higher limits of a diagram of graded vector spaces over a poset.

A diagram assigns a graded vector space to each object and a structure map
F(y) -> F(x) to each cover x < y (maps point downward).  The limit and its
derived functors are computed from a cochain complex indexed by strictly
increasing chains; this demo builds two small diagrams by hand and inspects
the complexes.

Run with ``python3 demos/02_higher_limits.py``.
"""

from posetprod import (
    QQ,
    FieldSpec,
    GradedVectorSpace,
    PosetDiagram,
    cochain_complex,
    higher_limits,
)
from posetprod.fixtures import fix_a
from posetprod.limits import lim0_basis

# The constant diagram has the unit space everywhere and identity structure
# maps.  Its limit is one copy of the unit and nothing higher: the chain
# complex contracts onto degree zero.
P = fix_a()
unit = GradedVectorSpace.unit(QQ, 0)
const = PosetDiagram.constant(P, unit)
print("constant diagram:", higher_limits(const))

# Indicator diagrams are the basic probes: the unit on an up-set, zero
# elsewhere.  Chains are indexed over the whole poset, but only those with
# support in the up-set {3,4,5,6} carry anything.  Level 0 sees the four
# supported objects and level 1 the four supported chains 3<5, 3<6, 4<5,
# 4<6, so the first differential is a 4 x 4 matrix; its rank is 3.
ind = PosetDiagram.indicator(P, ["3", "4"])
cx = cochain_complex(ind)
print("\nindicator on up-set of {3,4}:")
print("chain counts:", [len(c) for c in cx.chains])
print("level-0 differential, internal degree 0:")
for row in cx.deltas[0].mats[0]:
    print("  ", row)

# The limit sees one compatible family (3 and 4 must agree after mapping
# into 5 and 6), and a 1-dimensional obstruction survives in level 1.
lims = higher_limits(ind)
print("higher limits:", lims)
assert lims == [(1,), (1,)]

# lim0_basis names each coordinate of the kernel of the first differential
# (x, i), basis element i of the space at object x, so the compatible family
# is visible: equal coefficients on 3 and 4.
names, vecs = lim0_basis(ind)[0]
print("lim^0 basis over", names, "->", vecs)

# Everything works verbatim over a finite field.
F5 = FieldSpec.parse("5")
ind5 = PosetDiagram.indicator(P, ["3", "4"], field=F5)
print("\nsame computation over F_5:", higher_limits(ind5))

# A cross-check is built in: the unnormalized complex over weakly
# increasing chains is much larger but has the same cohomology through any
# fixed level.
weak = higher_limits(ind, weak=True, max_n=3)
print("weak-chain route:", weak[: len(lims)])
