"""The full-basis quotient of a ring presentation, kept as an independent
oracle for ``posetprod.stanley.quotient_dims``.

Every degree's basis holds all monomials in all generators, and every
multiple of every relation is ranked, the identifications x - y and the
single-term relations included.  Monomials are sorted by their names'
natural order, so this oracle takes presentations whose names sort the same
way by value and by ``str``.
"""

from posetprod.linalg import QQ, FieldSpec, rank
from posetprod.stanley import RingPresentation


def _monomials_of_degree(gens, degrees, d: int):
    """All monomials of weighted degree d, as sorted generator tuples."""
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(gens):
            return
        g = gens[i]
        w = degrees[g]
        rec(i + 1, remaining, acc)
        k = 1
        while w * k <= remaining:
            rec(i + 1, remaining - w * k, acc + [g] * k)
            k += 1

    rec(0, d, [])
    return sorted(out)


def quotient_dims(pres: RingPresentation, D: int, field: FieldSpec = QQ):
    """Dimensions of the graded quotient by the relation ideal, degrees 0..D."""
    bases = [_monomials_of_degree(pres.generators, pres.degrees, d) for d in range(D + 1)]
    dims = []
    for d, basis in enumerate(bases):
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for poly in pres.relations:
            e = pres.monomial_degree(next(iter(poly)))
            if e > d:
                continue
            for m in bases[d - e]:
                row: dict = {}
                for mono, coef in poly.items():
                    j = index[tuple(sorted(mono + m))]
                    row[j] = row.get(j, 0) + coef
                pairs = [(j, v) for j, v in row.items() if v]
                if pairs:
                    rows.append(pairs)
        r = rank(rows, len(basis), field) if rows else 0
        dims.append(len(basis) - r)
    return tuple(dims)
