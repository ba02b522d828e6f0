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

``quotient_dims`` eliminates only what needs elimination.  The
identifications x - y, one per collapsible cover, merge generators into
classes, the components (``component_reps``) of the graph they draw.  These
are the classes of ``reduce_poset``'s projection by definition, the
components of the collapsible covers, and identified generators have equal
degrees.  Rewritten on the classes, the relations
with a single term generate a monomial ideal M (the no-upper relations are
all of this kind), so each degree's basis holds only the standard monomials,
those no generator of M divides.  Only the multiples of the remaining
relations by standard monomials are ranked.  The answer is exact, since
k[X]/(x - y, M, J) is (k[X/~]/M)/J and the standard monomials are a basis of
k[X/~]/M.  Monomials are ordered by the library's ``str`` key, so object
names of any hashable type work.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import NotPolyhedral, NotSimplicial, PreconditionFailed
from .linalg import QQ, FieldSpec, rank
from .polytensor import MorphismCollection, polyhedral_tensor
from .poset import PointedPoset, _skey, classify, collapsible_covers, component_reps, reduce_poset

Monomial = tuple  # tuple of generator names sorted by str, with repetition
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


def _antichains(P: PointedPoset, gens, bound: int) -> list:
    """The antichains of 2..bound generators as tuples in ``gens`` order, by
    size and then in the order ``itertools.combinations`` lists them.  Those
    of size k grow from those of size k - 1 by a later generator that is
    incomparable with every member: the places still free for a tuple are
    one bit mask, the intersection of its members' masks."""
    n = len(gens)
    up = [P.up_set(g) for g in gens]
    # free[i]: bit j set for each j > i whose generator is incomparable with gens[i]
    free = [sum(1 << j for j in range(i + 1, n) if gens[j] not in up[i] and gens[i] not in up[j]) for i in range(n)]

    def places(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    level = [((g,), free[i]) for i, g in enumerate(gens)]
    out = []
    for _ in range(bound - 1):
        level = [(S + (gens[j],), room & free[j]) for S, room in level for j in places(room)]
        out.extend(S for S, _ in level)
    return out


def _bound_relation(P: PointedPoset, S, uppers):
    """Inclusion-exclusion identity for a set with minimal upper bounds.

    The meet of each subset R is the pairwise meets folded left in str
    order, taken as the meet of R[:-1] and R[-1]; the relation is None when
    some step is not defined.
    """
    base = P.base
    lhs: list = []
    evens: list = []
    S = sorted(S, key=_skey)
    meets: dict = {}
    for r in range(1, len(S) + 1):
        for R in itertools.combinations(S, r):
            m = R[0] if r == 1 else P.meet(meets[R[:-1]], R[-1])
            if m is None:
                return None
            meets[R] = m
            if m != base:
                (lhs if r % 2 else evens).append(m)
    poly: Polynomial = {}
    _add_term(poly, tuple(sorted(lhs, key=_skey)), 1)
    for z in uppers:
        _add_term(poly, tuple(sorted(evens + [z], key=_skey)), -1)
    return poly or None


def _require_polyhedral(P: PointedPoset) -> None:
    """Refuse a non-polyhedral P with ``NotPolyhedral`` and its witness."""
    report = classify(P)
    if not report.polyhedral:
        raise NotPolyhedral(f"not polyhedral: {report.witnesses.get('polyhedral')}")


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
    _require_polyhedral(P)
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
    candidates = _antichains(R, rgens, max(2, bound))
    seen = set(candidates)
    if include_vertex_sets:
        for x in rgens:
            S = tuple(sorted(R.vertex_set(x), key=_skey))
            # vertices are minimal non-base objects, so S is an antichain
            if len(S) >= 2 and S not in seen:
                candidates.append(S)
                seen.add(S)

    for S in sorted(candidates, key=lambda S: tuple(map(_skey, S))):
        ubs = R.minimal(frozenset.intersection(*(R.up_set(w) for w in S)))
        if not ubs:
            # only the inclusion-minimal empty-bound sets are needed
            minimal = len(S) == 2 or all(
                frozenset.intersection(*(R.up_set(w) for w in S[:i] + S[i + 1:]))
                for i in range(len(S))
            )
            if minimal:
                relations.append({tuple(sorted(S, key=_skey)): 1})
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
        raise NotSimplicial(f"not simplicial: {report.witnesses.get('simplicial')}")
    pres = ideal_generators(P, scale=scale, bound=2, include_vertex_sets=False)
    if pres.skipped_unsound:
        raise AssertionError("pair with extra vertices on a simplicial poset")
    return pres


def _standard_bases(weights, D: int, divisors):
    """The standard monomials of degrees 0..D, one list per degree, as
    non-decreasing tuples of generator positions.  ``divisors[i]`` holds the
    monomial relations that involve generator i, as (position, exponent)
    pairs; a monomial one of them divides is pruned with all its multiples."""
    bases: list = [[] for _ in range(D + 1)]
    exps = [0] * len(weights)

    def extend(start, deg, mono):
        bases[deg].append(mono)
        for i in range(start, len(weights)):
            e = deg + weights[i]
            if e > D:
                continue
            exps[i] += 1
            if not any(all(exps[h] >= k for h, k in g) for g in divisors[i]):
                extend(i, e, mono + (i,))
            exps[i] -= 1

    extend(0, 0, ())
    return bases


def quotient_dims(pres: RingPresentation, D: int, field: FieldSpec = QQ):
    """Dimensions of the graded quotient by the relation ideal, degrees 0..D.

    Identifications c(x - y) merge generators into classes, and every other
    relation is rewritten on the classes.  A rewritten relation with one
    term generates the monomial ideal M; each degree's basis holds only the
    standard monomials, those no generator of M divides.  Only the
    multiples m f of the remaining relations f by standard monomials m are
    ranked, with their terms in M dropped.  This is exact, since
    k[X]/(x - y, M, J) is (k[X/~]/M)/J and the standard monomials are a
    basis of k[X/~]/M.  Coefficients are tested in the field: a
    coefficient that vanishes mod p is no term.
    """
    conv = field.conv
    gens = sorted(pres.generators, key=_skey)
    if any(pres.degrees[g] < 1 for g in gens):
        raise PreconditionFailed("generator degrees must be >= 1")
    _assert_homogeneous(pres)
    joined: dict = {}
    others = []
    for poly in pres.relations:
        if len(poly) == 2:
            ((a, ca), (b, cb)) = poly.items()
            if len(a) == len(b) == 1 and conv(ca) and not conv(ca + cb):
                joined.setdefault(a[0], []).append(b[0])
                joined.setdefault(b[0], []).append(a[0])
                continue
        others.append(poly)

    rep = component_reps(gens, joined)
    reps = [g for g in gens if rep[g] == g]
    weights = [pres.degrees[g] for g in reps]
    pos = {g: i for i, g in enumerate(reps)}
    at = {g: pos[rep[g]] for g in gens}
    monomials, rels = [], []
    for poly in others:
        terms: dict = {}
        for mono, c in poly.items():
            key = tuple(sorted(at[g] for g in mono))
            terms[key] = terms.get(key, 0) + c
        terms = [(m, v) for m, c in terms.items() if (v := conv(c))]
        if len(terms) == 1:
            monomials.append(terms[0][0])
        elif terms:
            rels.append((sum(weights[i] for i in terms[0][0]), terms))
    if () in monomials:
        return (0,) * (D + 1)

    divisors: list = [[] for _ in reps]
    for m in monomials:
        pairs = tuple(Counter(m).items())
        for i, _ in pairs:
            divisors[i].append(pairs)
    bases = _standard_bases(weights, D, divisors)
    dims = []
    for d, basis in enumerate(bases):
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for e, terms in rels:
            if e > d:
                continue
            for m in bases[d - e]:
                row = [(j, c) for mono, c in terms if (j := index.get(tuple(sorted(mono + m)))) is not None]
                if row:
                    rows.append(row)
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
    ``_FIRST_BOUND`` (up to the number of generators) before giving up; the
    returned dict records both dimension vectors, the bound that was used,
    and how many subsets were skipped as unsound.  A non-polyhedral P is
    refused before any limit is built.

    Past D // scale raising the bound cannot change the quotient through
    degree D: the relation of a set S of more generators holds the product
    of S, of degree scale * sum |V(w)| > D, and relations are homogeneous.
    So once the bound reaches D // scale with the sides still apart, it
    jumps to the number of generators, and only the relations are listed
    there, for the count of skipped subsets.
    """
    _require_polyhedral(P)
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
        if b >= D // scale:
            b = n_gens
            pres = ideal_generators(P, scale=scale, bound=b)
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
