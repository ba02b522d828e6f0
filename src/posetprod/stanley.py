"""Presentations of the level-zero limit ring of a polyhedral poset.

Generators are the non-base objects, graded by vertex count.  Relations come
in three families: covers with equal vertex sets are identified, products
over sets with no common upper bound vanish, and sets S with common upper
bounds satisfy an inclusion-exclusion identity

    prod over odd R in S of (meet R)  =  prod over even R of (meet R) * sum of [vee S]

The identity only evaluates to zero in the limit when every minimal upper
bound z of S satisfies V(z) = union of V over S, so sets failing that test
are skipped and counted; the quotient can then be strictly larger than the
limit.  ``presentation_report`` compares both sides and flags disagreement
instead of hiding it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import NotPolyhedral, NotSimplicial, PreconditionFailed
from .linalg import QQ, FieldSpec, rank
from .polytensor import MorphismCollection, polyhedral_tensor
from .poset import PointedPoset, classify, collapsible_covers, reduce_poset

Monomial = tuple  # sorted tuple of generator names, with repetition
Polynomial = dict  # Monomial -> coefficient


@dataclass
class RingPresentation:
    generators: tuple
    degrees: dict
    relations: list
    tags: list
    skipped_unsound: int = 0

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self.degrees[g] for g in mono)


def _meet_of(P: PointedPoset, S) -> object | None:
    """Iterated pairwise meet; None when some step is not defined."""
    items = sorted(S, key=str)
    cur = items[0]
    for nxt in items[1:]:
        cur = P.meet(cur, nxt)
        if cur is None:
            return None
    return cur


def _add_term(poly: Polynomial, mono: Monomial, coef):
    c = poly.get(mono, 0) + coef
    if c == 0:
        poly.pop(mono, None)
    else:
        poly[mono] = c


def _assert_homogeneous(pres: RingPresentation):
    for poly, tag in zip(pres.relations, pres.tags):
        degs = {pres.monomial_degree(m) for m in poly}
        if len(degs) > 1:
            raise AssertionError(f"inhomogeneous relation from {tag}: degrees {sorted(degs)}")


def _antichains(P: PointedPoset, gens, size: int):
    for S in itertools.combinations(gens, size):
        if all(not P.leq(a, b) and not P.leq(b, a) for a, b in itertools.combinations(S, 2)):
            yield S


def _bound_relation(P: PointedPoset, S, uppers):
    """Inclusion-exclusion identity for a set with minimal upper bounds."""
    base = P.base
    lhs: list = []
    evens: list = []
    for r in range(1, len(S) + 1):
        for R in itertools.combinations(S, r):
            m = _meet_of(P, R)
            if m is None:
                return None
            if m != base:
                (lhs if r % 2 else evens).append(m)
    poly: Polynomial = {}
    _add_term(poly, tuple(sorted(lhs, key=str)), 1)
    for z in uppers:
        _add_term(poly, tuple(sorted(evens + [z], key=str)), -1)
    return poly or None


def ideal_generators(
    P: PointedPoset,
    scale: int = 1,
    bound: int = 3,
    include_vertex_sets: bool = True,
) -> RingPresentation:
    """Relation family for the level-zero limit ring of a polyhedral poset.

    ``bound`` caps the size of the subsets S considered; vertex sets V(x)
    of every object are always included when asked.  Subsets whose minimal
    upper bounds carry extra vertices are skipped (see module docstring) and
    counted in ``skipped_unsound``.
    """
    report = classify(P)
    if not report.polyhedral:
        raise NotPolyhedral(f"witness: {report.witnesses.get('polyhedral')}")
    gens = tuple(x for x in P.objects if x != P.base)
    degrees = {g: scale * len(P.vertex_set(g)) for g in gens}
    relations: list = []
    tags: list = []
    skipped = 0

    for x, y in collapsible_covers(P):
        relations.append({(x,): 1, (y,): -1})
        tags.append(("cover", x, y))

    # bounds and meets must be taken after the cover identifications above,
    # i.e. in the reduction (its objects are a subset of ours)
    R, _ = reduce_poset(P)
    rgens = tuple(x for x in R.objects if x != R.base)
    candidates = []
    seen = set()
    for size in range(2, max(2, bound) + 1):
        for S in _antichains(R, rgens, size):
            candidates.append(S)
            seen.add(S)
    if include_vertex_sets:
        for x in rgens:
            S = tuple(sorted(R.vertex_set(x), key=str))
            # vertices are minimal non-base objects, so S is an antichain
            if len(S) >= 2 and S not in seen:
                candidates.append(S)
                seen.add(S)

    for S in sorted(candidates):
        ubs = R.bounds(S).min_upper
        if not ubs:
            # only the inclusion-minimal empty-bound sets are needed
            minimal = all(
                R.bounds(S[:i] + S[i + 1:]).min_upper or len(S) == 2
                for i in range(len(S))
            )
            if minimal:
                relations.append({tuple(sorted(S)): 1})
                tags.append(("no-upper", *S))
            continue
        union = set()
        for w in S:
            union |= R.vertex_set(w)
        if any(R.vertex_set(z) != union for z in ubs):
            skipped += 1
            continue
        poly = _bound_relation(R, S, ubs)
        if poly:
            relations.append(poly)
            tags.append(("bound", *S))

    pres = RingPresentation(
        generators=gens,
        degrees=degrees,
        relations=relations,
        tags=tags,
        skipped_unsound=skipped,
    )
    _assert_homogeneous(pres)
    return pres


def simplicial_ideal_generators(P: PointedPoset, scale: int = 1) -> RingPresentation:
    """Pairwise face-ring relations; on a simplicial poset the minimal upper
    bounds of a pair never carry extra vertices, so no set is skipped."""
    report = classify(P)
    if not report.simplicial:
        raise NotSimplicial(f"witness: {report.witnesses.get('simplicial')}")
    pres = ideal_generators(P, scale=scale, bound=2, include_vertex_sets=False)
    if pres.skipped_unsound:
        raise AssertionError("pair with extra vertices on a simplicial poset")
    return pres


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


def hilbert_from_fvector(f, D: int, scale: int = 1):
    """Graded dimensions determined by a face-count vector: degree d holds
    sum over i of f[i] * C(d-1, i) once degrees are divided by the scale."""
    if scale < 1:
        raise PreconditionFailed(f"degree scale must be >= 1, got {scale}")
    dims = [1]
    for d in range(1, D + 1):
        if d % scale:
            dims.append(0)
            continue
        e = d // scale
        dims.append(sum(fi * comb(e - 1, i) for i, fi in enumerate(f)))
    return tuple(dims)


def pi_evaluate(P: PointedPoset, poly: Polynomial, D: int, scale: int = 1):
    """Evaluate a polynomial in the object generators inside the limit.

    Works on the reduction of P: each generator maps to the monomial on its
    vertex set, supported on the objects above it.  Returns a dict keyed by
    object of the reduced poset, with exponent-vector components.
    """
    R, proj = reduce_poset(P)
    verts = R.vertices
    out: dict = {y: {} for y in R.objects}
    for mono, coef in poly.items():
        imgs = [proj[g] for g in mono]
        e = Counter()
        for g in imgs:
            for v in R.vertex_set(g):
                e[v] += 1
        if scale * sum(e.values()) > D:
            continue
        key = tuple(e.get(v, 0) for v in verts)
        support = [y for y in R.objects if all(R.leq(g, y) for g in imgs)]
        for y in support:
            comp = out[y]
            c = comp.get(key, 0) + coef
            if c == 0:
                comp.pop(key, None)
            else:
                comp[key] = c
    return {y: comp for y, comp in out.items() if comp}


def in_kernel(P: PointedPoset, poly: Polynomial, D: int, scale: int = 1) -> bool:
    """Whether the polynomial evaluates to zero in the limit, up to the
    truncation degree."""
    return not pi_evaluate(P, poly, D, scale=scale)


# the subset-size bound that presentation_report starts from
_FIRST_BOUND = 3


def presentation_report(P: PointedPoset, D: int = 4, scale: int = 1, field: FieldSpec = QQ) -> dict:
    """Quotient dimensions against the limit dimensions, with honest
    disagreement reporting.

    On mismatch the subset-size bound is raised step by step from
    ``_FIRST_BOUND`` (up to the number of generators) before giving up; the returned dict records both
    dimension vectors, the bound that was used, and how many subsets were
    skipped as unsound.
    """
    col = MorphismCollection.augmentation(P.vertices, D=D, gen_degree=scale, field=field)
    lims = polyhedral_tensor(P, col)
    limit_dims = tuple(lims[0]) if lims else (0,) * (D + 1)
    n_gens = len(P.objects) - 1
    b = _FIRST_BOUND
    while True:
        pres = ideal_generators(P, scale=scale, bound=b)
        qdims = quotient_dims(pres, D, field=field)
        agree = qdims == limit_dims
        if agree or b >= n_gens:
            break
        b += 1
    return {
        "quotient_dims": list(qdims),
        "limit_dims": list(limit_dims),
        "agree": agree,
        "bound_used": b,
        "skipped_unsound": pres.skipped_unsound,
        "higher_limits_vanish": all(all(v == 0 for v in l) for l in lims[1:]),
    }
