"""Headline verification suite.

Ten numbered checks exercise the library end to end: the worked small
example, the vanishing theorem and its necessity control, the two-sided
ring presentation, transform counts, and the space-side homology
comparisons, with field and vertex-order invariance at the end.  Each check
returns a CriterionResult; run_all prints one line per check.

Every expected value here is frozen: either quoted from a worked example,
produced by an independent counting argument documented next to it, or a
classical fact (the 3-sphere).  Seeds are fixed constants chosen up front.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .fixtures import FIXTURES, fix_a, fix_b, fix_c, fix_e, random_poset_with
from .limits import PosetDiagram, cochain_complex, higher_limits
from .linalg import F2, QQ, FieldSpec, rank
from .polytensor import MorphismCollection, build_T, polyhedral_tensor, random_surjective_collection
from .poset import PointedPoset
from .spaces import homology, polyhedral_product_space, polyprod_homology
from .stanley import (
    hilbert_from_fvector,
    ideal_generators,
    presentation_report,
    quotient_dims,
    simplicial_ideal_generators,
)
from .transform import f_transform_predict, f_vector, nu, simplicial_transform

F101 = FieldSpec.Fp(101)

POSET_SEED = 20260815
COLLECTION_SEED = 924
POLYHEDRAL_SEED = 41000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_s: float
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name} ({self.elapsed_s:.2f}s)"


def _timed(number, name, fn, budget=None):
    started = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - started
    if budget is not None:
        details["runtime_budget_s"] = budget
        if elapsed >= budget:
            passed = False
            details["runtime_exceeded"] = elapsed
    return CriterionResult(number, name, passed, elapsed, details)


def criterion_1() -> CriterionResult:
    """Worked example: unit coefficients on the four-object up-set of the
    non-saturated fixture give a rank-3 first differential, one-dimensional
    lim0 and lim1."""

    def check():
        diagram = PosetDiagram.indicator(fix_a(), ["3", "4"])
        delta = cochain_complex(diagram).deltas[0]
        shape = (delta.target.dims[0], delta.source.dims[0])
        r = rank(delta.nonzero_rows[0], shape[1], QQ)
        lims = higher_limits(diagram)
        details = {
            "delta0_shape": shape,
            "delta0_rank": r,
            "higher_limits": lims,
        }
        return r == 3 and lims == [(1,), (1,)], details

    return _timed(1, "worked example: rank 3 differential, lim0 = lim1 = 1", check, budget=0.1)


def criterion_2() -> CriterionResult:
    """Vanishing: 200 random lower-saturated posets with random surjective
    collections have zero higher limits in levels 1 and 2."""

    def check():
        posets = random_poset_with(POSET_SEED, "lower_saturated", 200, max_objects=8)
        rng = random.Random(COLLECTION_SEED)
        failures = []
        for k, P in enumerate(posets):
            coll = random_surjective_collection(rng, P.vertices, 3)
            lims = polyhedral_tensor(P, coll)
            if any(any(level) for level in lims[1:3]):
                failures.append((k, P.to_dict(), [list(l) for l in lims]))
        details = {"checked": len(posets), "failures": len(failures)}
        if failures:
            details["first_failure"] = failures[0]
        return not failures, details

    return _timed(2, "vanishing over 200 lower-saturated posets", check, budget=60.0)


def criterion_3() -> CriterionResult:
    """Necessity: the identical check on the non-saturated fixture detects
    a nonzero lim1."""

    def check():
        P = fix_a()
        coll = MorphismCollection.augmentation(P.vertices, 3)
        lims = polyhedral_tensor(P, coll)
        details = {"higher_limits": [list(l) for l in lims]}
        return len(lims) > 1 and any(lims[1]), details

    return _timed(3, "necessity control: lim1 nonzero on the non-saturated fixture", check)


def criterion_4() -> CriterionResult:
    """Two-sided ring check: graded quotient by the relation family equals
    the level-zero limit through degree 4 on the four polyhedral fixtures
    and on 50 random polyhedral posets.

    Independent counting oracles for the pinned values: fix-b has two
    vertices a,b with ab = c + d and cd = 0, so degree d holds a^d, b^d and
    the 2(d-1) monomials c^i a^j, c^i b^j (i >= 1): 1, 2, 4, 6, 8.  fix-e
    has two vertices and ab = 0: 1, 2, 2, 2, 2.
    """

    def check():
        details = {}
        ok = True
        pinned = {"fix-b": (1, 2, 4, 6, 8), "fix-e": (1, 2, 2, 2, 2)}
        for name in ("fix-b", "fix-c", "fix-d", "fix-e"):
            rep = presentation_report(FIXTURES[name](), D=4)
            details[name] = {
                "quotient": list(rep["quotient_dims"]),
                "limit": list(rep["limit_dims"]),
                "agree": rep["agree"],
            }
            ok = ok and rep["agree"]
            if name in pinned:
                ok = ok and tuple(rep["quotient_dims"]) == pinned[name]
        disagreements = []
        for k, P in enumerate(random_poset_with(POLYHEDRAL_SEED, "polyhedral", 50, max_objects=8)):
            rep = presentation_report(P, D=4)
            if not rep["agree"]:
                disagreements.append(
                    {
                        "index": k,
                        "poset": P.to_dict(),
                        "quotient": list(rep["quotient_dims"]),
                        "limit": list(rep["limit_dims"]),
                        "relations_skipped": rep["skipped_unsound"],
                    }
                )
        details["random_checked"] = 50
        details["random_disagreements"] = len(disagreements)
        if disagreements:
            details["disagreements"] = disagreements
        return ok and not disagreements, details

    return _timed(4, "presentation quotient = limit on fixtures and 50 random polyhedral posets", check)


def criterion_5() -> CriterionResult:
    """Square counts: the correction numbers of the square cell are 2
    (diagonals) and 4 (all triples), the predicted transform f-vector is
    (4,6,4,1), and its face counts give 1,4,10,20 (the polynomial ring on
    four vertices)."""

    def check():
        P = fix_c()
        details = {
            "nu_1_3": (nu(P, 1, 3, "direct"), nu(P, 1, 3, "recursive")),
            "nu_2_3": (nu(P, 2, 3, "direct"), nu(P, 2, 3, "recursive")),
        }
        predicted = f_transform_predict(P)
        actual = f_vector(simplicial_transform(P).poset)
        series = hilbert_from_fvector(actual, 3)
        details["f_predicted"] = list(predicted)
        details["f_actual"] = list(actual)
        details["series"] = list(series)
        ok = (
            details["nu_1_3"] == (2, 2)
            and details["nu_2_3"] == (4, 4)
            and predicted == actual == (4, 6, 4, 1)
            and tuple(series) == (1, 4, 10, 20)
        )
        return ok, details

    return _timed(5, "square example: correction counts, transform f-vector, series", check)


def criterion_6() -> CriterionResult:
    """Ring consistency across the transform: k[P] and k[s(P)] have equal
    dimensions through degree 4 on the polyhedral fixtures; the pairwise
    face-ring relations match the general family on the simplicial ones."""

    def check():
        details = {}
        ok = True
        for name in ("fix-b", "fix-c", "fix-d", "fix-e"):
            P = FIXTURES[name]()
            sP = simplicial_transform(P).poset
            dims_p = quotient_dims(ideal_generators(P), 4)
            dims_sp = quotient_dims(ideal_generators(sP), 4)
            details[name] = {"poset": list(dims_p), "transform": list(dims_sp)}
            ok = ok and dims_p == dims_sp
        for name in ("fix-b", "fix-d", "fix-e"):
            P = FIXTURES[name]()
            stanley = quotient_dims(simplicial_ideal_generators(P), 4)
            general = quotient_dims(ideal_generators(P), 4)
            details[name + "/stanley"] = {"pairwise": list(stanley), "general": list(general)}
            ok = ok and stanley == general
        return ok, details

    return _timed(6, "k[P] = k[s(P)] and the two simplicial presentations agree", check)


def _homology_routes(P, pair, n_max, via, field=QQ) -> dict:
    """Homology of a polyhedral-product space by its cellular route (the one
    ``homology`` answers with), by its simplicial set, and as predicted from
    the higher limits."""
    rep = polyprod_homology(P, pair, n_max, via=via, field=field, check_route=True)
    return {
        "cellular": list(rep["homology"]),
        "simplicial": list(rep["simplicial_homology"]),
        "predicted": list(rep["predicted"]),
    }


def _pinned(*dims) -> dict:
    """The ``_homology_routes`` record of three routes giving ``dims``."""
    return dict.fromkeys(("cellular", "simplicial", "predicted"), list(dims))


def criterion_7() -> CriterionResult:
    """Space side: the bigon's homotopy colimit with circle blocks has mod-2
    homology 1,2,2 (Mayer-Vietoris for two tori glued along a wedge), equal
    to the tensor-diagram limit; two isolated vertices give the wedge, 1,2."""

    def check():
        details = {
            "bigon": _homology_routes(fix_b(), "circle-point", 3, "hocolim", F2),
            "wedge": _homology_routes(fix_e(), "circle-point", 2, "hocolim", F2),
        }
        ok = details["bigon"] == _pinned(1, 2, 2) and details["wedge"] == _pinned(1, 2)
        return ok, details

    return _timed(7, "hocolim homology = tensor limit (bigon and wedge)", check, budget=120.0)


def criterion_8() -> CriterionResult:
    """Colimit and homotopy colimit agree on the bigon and the square, and
    the square's space matches the one built over its simplicial transform."""

    def check():
        details = {
            "bigon": {via: _homology_routes(fix_b(), "circle-point", 3, via) for via in ("colim", "hocolim")},
            "square": {via: _homology_routes(fix_c(), "circle-point", 4, via) for via in ("colim", "hocolim")},
            "square_transform": {
                "colim": _homology_routes(simplicial_transform(fix_c()).poset, "circle-point", 4, "colim")
            },
        }
        ok = all(r == _pinned(1, 2, 2) for r in details["bigon"].values())
        ok = ok and all(r == _pinned(1, 4, 6, 4) for r in details["square"].values())
        ok = ok and details["square_transform"]["colim"] == _pinned(1, 4, 6, 4)
        return ok, details

    return _timed(8, "colim = hocolim, and the transform builds the same space", check)


def criterion_9() -> CriterionResult:
    """Classical control: two disk-circle blocks over two isolated vertices
    assemble the 3-sphere, homology 1,0,0,1."""

    def check():
        details = _homology_routes(fix_e(), "disk2-circle", 4, "colim")
        return details == _pinned(1, 0, 0, 1), details

    return _timed(9, "moment-angle control: the 3-sphere", check)


def _reversed_names(P: PointedPoset) -> PointedPoset:
    """P with its objects other than the base renamed o0, o1, ... against
    their str order, so that its vertex order is reversed."""
    others = [x for x in P.objects if x != P.base]
    width = len(str(len(others)))
    name = {x: f"o{k:0{width}}" for k, x in enumerate(reversed(others))}
    name[P.base] = P.base
    return PointedPoset(name.values(), P.base, [(name[x], name[y]) for x, y in P.covers])


def criterion_10() -> CriterionResult:
    """Invariance: switching the field to F101, and renaming the objects so
    that the vertex order is reversed, reproduces every dimension reported
    above."""

    def check():
        details = {}
        ok = True

        def record(name, got, want):
            nonlocal ok
            details[name] = {"got": got, "want": want}
            ok = ok and got == want

        lims = higher_limits(PosetDiagram.indicator(fix_a(), ["3", "4"], field=F101))
        record("c1/F101", lims, [(1,), (1,)])

        posets = random_poset_with(POSET_SEED, "lower_saturated", 200, max_objects=8)
        rng = random.Random(COLLECTION_SEED)
        bad = 0
        for P in posets:
            coll = random_surjective_collection(rng, P.vertices, 3, field=F101)
            if any(any(level) for level in polyhedral_tensor(P, coll)[1:3]):
                bad += 1
        record("c2/F101", bad, 0)

        A = fix_a()
        coll = MorphismCollection.augmentation(A.vertices, 3, field=F101)
        record("c3/F101", any(polyhedral_tensor(A, coll)[1]), True)

        for name in ("fix-b", "fix-c", "fix-d", "fix-e"):
            P = FIXTURES[name]()
            base = presentation_report(P, D=4)
            modp = presentation_report(P, D=4, field=F101)
            record(f"c4/{name}/F101",
                   (list(modp["quotient_dims"]), list(modp["limit_dims"])),
                   (list(base["quotient_dims"]), list(base["limit_dims"])))
            coll = MorphismCollection.augmentation(P.vertices, 3)
            R = _reversed_names(P)
            reordered = higher_limits(build_T(R, MorphismCollection.augmentation(R.vertices, 3)))
            record(f"c4/{name}/order", reordered, polyhedral_tensor(P, coll))

        record("c5/F101", list(quotient_dims(ideal_generators(fix_c()), 3, field=F101)), [1, 4, 10, 20])

        sC = simplicial_transform(fix_c()).poset
        record("c6/F101",
               list(quotient_dims(ideal_generators(sC), 4, field=F101)),
               list(quotient_dims(ideal_generators(fix_c()), 4, field=F101)))

        record("c7/F101", _homology_routes(fix_b(), "circle-point", 3, "hocolim", F101), _pinned(1, 2, 2))
        hoco_b_rev, _ = polyhedral_product_space(_reversed_names(fix_b()), "circle-point", 3, via="hocolim")
        record("c7/order", homology(hoco_b_rev, 2, F2), (1, 2, 2))

        record("c8/F101",
               {via: _homology_routes(fix_c(), "circle-point", 4, via, F101) for via in ("colim", "hocolim")},
               dict.fromkeys(("colim", "hocolim"), _pinned(1, 4, 6, 4)))

        record("c9/F101", _homology_routes(fix_e(), "disk2-circle", 4, "colim", F101), _pinned(1, 0, 0, 1))
        sphere_rev, _ = polyhedral_product_space(_reversed_names(fix_e()), "disk2-circle", 4, via="colim")
        record("c9/order", homology(sphere_rev, 3), (1, 0, 0, 1))

        failing = [k for k, v in details.items() if v["got"] != v["want"]]
        if failing:
            details["failing"] = failing
        return ok, details

    return _timed(10, "field and vertex-order invariance of criteria 1-9", check)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(numbers=None) -> list[CriterionResult]:
    results = []
    for k, fn in enumerate(CRITERIA, start=1):
        if numbers and k not in numbers:
            continue
        results.append(fn())
    return results


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="posetprod-acceptance")
    parser.add_argument("numbers", nargs="*", type=int, help=f"criteria to run, 1 to {len(CRITERIA)} (default all)")
    args = parser.parse_args(argv)
    # checked here, not by choices=, which Python 3.11 also applies to an empty "*" list
    unknown = [k for k in args.numbers if not 1 <= k <= len(CRITERIA)]
    if unknown:
        parser.error(f"argument numbers: no criterion {unknown[0]} (choose from 1 to {len(CRITERIA)})")
    results = run_all(set(args.numbers) or None)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
