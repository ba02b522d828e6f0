"""The cover data of ``posetprod.poset.PointedPoset`` as it was derived
from the order, kept as an independent oracle.

x < y is a cover exactly when x is maximal below y and y minimal above x;
the vertices are the minimal objects other than the base.
"""

from posetprod.poset import PointedPoset


def cover_data(P: PointedPoset):
    """(covers, lower covers, upper covers, vertices) of P, each list in str
    order, the covers as the upper covers of the objects in str order."""
    lower = {y: P.maximal(P.down_set(y) - {y}) for y in P.objects}
    upper = {x: P.minimal(P.up_set(x) - {x}) for x in P.objects}
    covers = tuple((x, y) for x in P.objects for y in upper[x])
    vertices = P.minimal(set(P.objects) - {P.base})
    return covers, lower, upper, vertices
