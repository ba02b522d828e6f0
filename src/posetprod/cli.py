"""Command line front end: every subcommand reads a poset (a JSON file or a
built-in fixture name) and prints one JSON report to stdout, whose
``parameters`` echo the parsed arguments.  ``suite`` runs ``hilbert``,
``tensor`` and ``homology`` with their cross-checks on; each of their results
is one section of its report.

Exit codes: 0 on success, 1 when a requested verification disagrees, 2 on
bad input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .errors import PosetProdError
from .fixtures import FIXTURES
from .limits import PosetDiagram, higher_limits
from .linalg import FieldSpec, GradedVectorSpace
from .poset import PointedPoset, classify, reduce_poset
# polyhedral_tensor is not called here, but perfbench/tracer.py requires this binding (ROADMAP item 1)
from .polytensor import MorphismCollection, polyhedral_tensor, reduction_invariance, tensor_limits  # noqa: F401
from .spaces import PAIR_NAMES, induced_collection, polyprod_homology
from .stanley import hilbert_from_fvector, presentation_report
from .transform import f_transform_predict, f_vector, simplicial_transform, transform_f_vector


def _load_poset(source: str):
    if source in FIXTURES:
        return FIXTURES[source](), {"source": source, "sha256": None}
    try:
        with open(source, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PosetProdError(f"cannot read {source!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PosetProdError(f"{source!r} is not valid JSON: {exc}") from exc
    return PointedPoset.from_dict(data), {"source": source, "sha256": digest}


def _parse_collection(text: str, P: PointedPoset, D: int, field: FieldSpec) -> MorphismCollection:
    if text == "circle":
        return induced_collection(P, "circle-point", D, field=field)
    name, colon, degree = text.partition(":")
    if name == "aug" and (not colon or degree.isdecimal() and int(degree) >= 1):
        gen_degree = int(degree) if colon else 1
        return MorphismCollection.augmentation(P.vertices, D, gen_degree=gen_degree, field=field)
    raise PosetProdError(f"unknown --collection {text!r}; use aug[:d] with an integer d >= 1, or circle")


def _cmd_check(P, field, args):
    results = classify(P).to_dict()
    results["objects"] = len(P.objects)
    results["vertices"] = list(map(str, P.vertices))
    code = 0 if all(results.get(e, False) for e in args.expect or ()) else 1
    return results, code, {}


def _cmd_reduce(P, field, args):
    R, proj = reduce_poset(P)
    results = {
        "reduced": R.to_dict(),
        "projection": {str(k): str(v) for k, v in sorted(proj.items())},
        "objects_before": len(P.objects),
        "objects_after": len(R.objects),
    }
    return results, 0, {}


def _cmd_fvector(P, field, args):
    return {"f_vector": list(f_vector(P)), "norm": P.norm}, 0, {}


def _cmd_stransform(P, field, args):
    res = simplicial_transform(P)
    results = {
        "transform": res.poset.to_dict(),
        "embedding": {str(k): str(v) for k, v in sorted(res.embed.items())},
        "objects_before": len(P.objects),
        "objects_after": len(res.poset.objects),
        "f_vector": list(f_vector(res.poset)),
    }
    if classify(P).regular:
        results["f_vector_predicted"] = list(f_transform_predict(P))
    return results, 0, {}


def _cmd_hilbert(P, field, args):
    if args.method == "fvector":
        dims = hilbert_from_fvector(transform_f_vector(P), args.max_degree, scale=args.grading)
        return {"dims": list(dims)}, 0, {}
    rep = presentation_report(P, D=args.max_degree, scale=args.grading, field=field)
    results = {
        "dims": list(rep["limit_dims"] if args.method == "limit" else rep["quotient_dims"]),
        "quotient_dims": list(rep["quotient_dims"]),
        "limit_dims": list(rep["limit_dims"]),
        "agree": rep["agree"],
        "relations_skipped": rep["skipped_unsound"],
        "bound_used": rep["bound_used"],
    }
    return results, 0 if rep["agree"] else 1, {}


def _cmd_limits(P, field, args):
    if args.upset:
        diagram = PosetDiagram.indicator(P, args.upset, field=field)
        kind = "indicator"
    else:
        diagram = PosetDiagram.constant(P, GradedVectorSpace(field, (1,)))
        kind = "constant"
    results = {"diagram": kind, "higher_limits": [list(l) for l in higher_limits(diagram)]}
    return results, 0, {}


def _cmd_tensor(P, field, args):
    coll = _parse_collection(args.collection, P, args.max_degree, field)
    found = tensor_limits(P, coll, check_route=args.check_route)
    results = {"higher_limits": [list(l) for l in found.limits]}
    checks = []
    if args.check_route:
        results["direct_limits"] = [list(l) for l in found.direct]
        results["routes_agree"] = found.routes_agree
        checks.append(found.routes_agree)
    if args.check_reduction:
        _, lims_reduced, equal = reduction_invariance(P, coll, found.limits)
        results["reduced_limits"] = [list(l) for l in lims_reduced]
        results["reduction_invariant"] = equal
        checks.append(equal)
    supports = [
        {"support": [str(v) for v in t.support], "cokernel": [str(v) for v in t.cokernel],
         "dims": list(t.dims), "betti": list(t.betti)}
        for t in found.non_acyclic_terms()
    ]
    return results, 0 if all(checks) else 1, {"non_acyclic_supports": supports}


def _cmd_homology(P, field, args):
    rep = polyprod_homology(
        P, args.pair, args.max_dim + 1, via=args.via, field=field, compare=args.compare,
        check_route=args.check_route,
    )
    results = {"homology": list(rep["homology"])}
    checks = []
    if args.compare:
        results["predicted_from_limits"] = list(rep["predicted"])
        results["higher_limits"] = [list(l) for l in rep["limits"]]
        results["agree"] = rep["agree"]
        checks.append(rep["agree"])
    if args.check_route:
        results["simplicial_homology"] = list(rep["simplicial_homology"])
        results["routes_agree"] = rep["routes_agree"]
        checks.append(rep["routes_agree"])
    route = {"name": rep["route"], "cells": list(rep["cells"])}
    return results, 0 if all(checks) else 1, {"route": route}


def _transform_check(P, field, args):
    """The f-vector of s(P), counted, against its prediction from P."""
    actual, predicted = transform_f_vector(P), f_transform_predict(P)
    results = {"actual": list(actual), "predicted": list(predicted), "agree": actual == predicted}
    return results, 0 if actual == predicted else 1, {}


# suite also builds the simplicial colimit, to check its homology, on posets
# with at most this many objects
_SUITE_SPACE_LIMIT = 12


def _cmd_suite(P, field, args):
    D = args.max_degree
    rep = classify(P)
    results: dict = {"classification": rep.to_dict(), "f_vector": list(f_vector(P))}
    # each section with the hypothesis it needs: the colimit has the
    # homology its limits predict only over a lower saturated poset
    sections = [
        ("hilbert", "polyhedral", _cmd_hilbert, dict(max_degree=D, method="presentation", grading=1)),
        ("tensor_circle", "polyhedral", _cmd_tensor,
         dict(collection="circle", max_degree=D, check_route=True, check_reduction=True)),
        ("transform_f_vector", "regular", _transform_check, {}),
        ("homology_circle_point", "lower_saturated", _cmd_homology,
         dict(pair="circle-point", max_dim=min(D, 3), via="colim", compare=True,
              check_route=len(P.objects) <= _SUITE_SPACE_LIMIT)),
    ]
    checks, skipped = [], {}
    for key, hypothesis, command, options in sections:
        if getattr(rep, hypothesis):
            results[key], code, _ = command(P, field, argparse.Namespace(**options))
            checks.append(code == 0)
        else:
            skipped[key] = {"hypothesis": hypothesis, "witness": str(rep.witnesses[hypothesis])}
    results["skipped_checks"] = skipped
    results["checks_run"] = len(checks)
    results["all_checks_pass"] = all(checks)
    return results, 0 if results["all_checks_pass"] else 1, {}


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_non_negative = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetprod",
        description="Pointed posets: classification, higher limits, graded rings, "
        "simplicial transforms and polyhedral-product spaces.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, field=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("poset", help="path to a poset JSON file or a fixture name")
        if field:
            p.add_argument("--field", default="q", help="q or a prime")
        p.set_defaults(fn=fn)
        return p

    p = add("check", _cmd_check, "classify a poset")
    p.add_argument(
        "--expect",
        action="append",
        choices=["reduced", "simplicial", "polyhedral", "lower_saturated", "regular"],
        help="exit 1 unless the poset has this property (repeatable)",
    )

    add("reduce", _cmd_reduce, "collapse covers with equal vertex sets")
    add("fvector", _cmd_fvector, "count objects by vertex-set size")

    add("stransform", _cmd_stransform, "simplicial transform with embedding")

    p = add("hilbert", _cmd_hilbert, "graded dimensions of the face ring", field=True)
    p.add_argument("--max-degree", type=_non_negative, default=4)
    p.add_argument("--grading", type=_int_at_least(1), default=1, help="degree scale per vertex")
    p.add_argument(
        "--method",
        choices=["presentation", "limit", "fvector"],
        default="presentation",
        help="presentation/limit cross-check both sides; fvector counts the faces of the simplicial transform s(P)",
    )

    p = add("limits", _cmd_limits, "higher limits of an indicator or constant diagram", field=True)
    p.add_argument("--upset", action="append", help="generator of the up-set (repeatable)")

    p = add("tensor", _cmd_tensor, "higher limits of a tensor-product diagram", field=True)
    p.add_argument("--collection", default="aug:1", help="aug[:d] or circle")
    p.add_argument("--max-degree", type=_non_negative, default=4)
    p.add_argument("--check-reduction", action="store_true")
    p.add_argument(
        "--check-route",
        action="store_true",
        help="also build the tensor diagram and its cochain complex (the direct route); exit 1 if the routes disagree",
    )

    p = add("homology", _cmd_homology, "homology of the polyhedral-product space", field=True)
    p.add_argument("--pair", choices=list(PAIR_NAMES), default="circle-point")
    p.add_argument("--max-dim", type=_non_negative, default=2)
    p.add_argument("--via", choices=["colim", "hocolim"], default="colim")
    p.add_argument("--no-compare", dest="compare", action="store_false", help="skip the higher-limit comparison")
    p.add_argument(
        "--check-route",
        action="store_true",
        help="also build the colimit or hocolim as a simplicial set (the cellular route answers); exit 1 if the routes disagree",
    )

    p = add("suite", _cmd_suite, "run every applicable computation with cross-checks", field=True)
    p.add_argument("--max-degree", type=_non_negative, default=4)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: print its JSON report and return its exit code, or
    print the error and return 2 on bad input or when memory runs out.  Each
    ``_cmd_*`` takes the poset, the field (None without ``--field``) and the
    arguments, and returns results, exit code and any extra top-level report
    keys; the report's parameters are the parsed arguments."""
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        P, info = _load_poset(args.poset)
        field = FieldSpec.parse(args.field) if "field" in args else None
        results, code, extra = args.fn(P, field, args)
    except (PosetProdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "poset", "pretty", "field")}
    if field is not None:
        parameters["field"] = str(field)
    report = {
        "command": args.command,
        "input": info,
        "parameters": parameters,
        "results": results,
        "elapsed_s": round(time.perf_counter() - started, 6),
        **extra,
    }
    print(json.dumps(report, indent=2 if args.pretty else None, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
