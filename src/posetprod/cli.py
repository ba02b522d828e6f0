"""Command line front end: every subcommand reads a poset (a JSON file or a
built-in fixture name) and prints one JSON report to stdout.

Exit codes: 0 on success, 1 when a requested verification disagrees, 2 on
bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import PosetProdError
from .fixtures import FIXTURES
from .limits import PosetDiagram, higher_limits
from .linalg import QQ, FieldSpec
from .poset import PointedPoset, classify, reduce_poset
# polyhedral_tensor is not called here, but perfbench/tracer.py requires this binding (ROADMAP item 1)
from .polytensor import MorphismCollection, build_T, polyhedral_tensor, reduction_invariance, tensor_limits  # noqa: F401
from .spaces import PAIR_NAMES, polyprod_homology
from .stanley import hilbert_from_fvector, presentation_report
from .transform import f_transform_predict, f_vector, simplicial_transform


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


def _parse_collection(text: str, vertices, D: int, field: FieldSpec) -> MorphismCollection:
    if text == "circle":
        return MorphismCollection.circle(vertices, D, field=field)
    name, colon, degree = text.partition(":")
    if name == "aug" and (not colon or degree.isdecimal()):
        gen_degree = int(degree) if colon else 1
        return MorphismCollection.augmentation(vertices, D, gen_degree=gen_degree, field=field)
    raise PosetProdError(f"unknown --collection {text!r}; use aug[:d] with an integer d >= 1, or circle")


def _emit(args, command, input_info, parameters, results, started, extra: dict | None = None) -> None:
    report = {
        "command": command,
        "input": input_info,
        "parameters": parameters,
        "results": results,
        "elapsed_s": round(time.perf_counter() - started, 6),
        **(extra or {}),
    }
    indent = 2 if args.pretty else None
    print(json.dumps(report, indent=indent, sort_keys=True))


def _cmd_check(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    rep = classify(P)
    results = rep.to_dict()
    results["objects"] = len(P.objects)
    results["vertices"] = sorted(map(str, P.vertices))
    _emit(args, "check", info, {"expect": args.expect}, results, started)
    if args.expect:
        return 0 if all(results.get(e, False) for e in args.expect) else 1
    return 0


def _cmd_reduce(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    R, proj = reduce_poset(P)
    results = {
        "reduced": R.to_dict(),
        "projection": {str(k): str(v) for k, v in sorted(proj.items())},
        "objects_before": len(P.objects),
        "objects_after": len(R.objects),
    }
    _emit(args, "reduce", info, {}, results, started)
    return 0


def _cmd_fvector(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    results = {"f_vector": list(f_vector(P)), "norm": P.norm}
    _emit(args, "fvector", info, {}, results, started)
    return 0


def _cmd_stransform(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
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
    _emit(args, "stransform", info, {}, results, started)
    return 0


def _cmd_hilbert(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    field = FieldSpec.parse(args.field)
    params = {
        "max_degree": args.max_degree,
        "grading": args.grading,
        "field": str(field),
        "method": args.method,
    }
    code = 0
    if args.method == "fvector":
        dims = hilbert_from_fvector(f_vector(P), args.max_degree, scale=args.grading)
        results = {"dims": list(dims)}
    else:
        rep = presentation_report(P, D=args.max_degree, scale=args.grading, field=field)
        results = {
            "dims": list(rep["limit_dims"] if args.method == "limit" else rep["quotient_dims"]),
            "quotient_dims": list(rep["quotient_dims"]),
            "limit_dims": list(rep["limit_dims"]),
            "agree": rep["agree"],
            "relations_skipped": rep["skipped_unsound"],
            "bound_used": rep["bound_used"],
        }
        if not rep["agree"]:
            code = 1
    _emit(args, "hilbert", info, params, results, started)
    return code


def _cmd_limits(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    field = FieldSpec.parse(args.field)
    if args.upset:
        diagram = PosetDiagram.indicator(P, args.upset, field=field)
        kind = "indicator"
    else:
        from .linalg import GradedVectorSpace

        diagram = PosetDiagram.constant(P, GradedVectorSpace(field, (1,)))
        kind = "constant"
    lims = higher_limits(diagram)
    results = {"diagram": kind, "higher_limits": [list(l) for l in lims]}
    _emit(args, "limits", info, {"upset": args.upset, "field": str(field)}, results, started)
    return 0


def _cmd_tensor(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    field = FieldSpec.parse(args.field)
    verts = sorted(map(str, P.vertices))
    coll = _parse_collection(args.collection, verts, args.max_degree, field)
    params = {
        "collection": args.collection,
        "max_degree": args.max_degree,
        "field": str(field),
        "check_reduction": args.check_reduction,
    }
    found = tensor_limits(P, coll)
    lims = found.limits
    results = {"higher_limits": [list(l) for l in lims]}
    code = 0
    if args.check_route:
        direct = higher_limits(build_T(P, coll))
        results["direct_limits"] = [list(l) for l in direct]
        results["routes_agree"] = direct == lims
        if direct != lims:
            code = 1
    if args.check_reduction:
        _, lims_reduced, equal = reduction_invariance(P, coll)
        results["reduced_limits"] = [list(l) for l in lims_reduced]
        results["reduction_invariant"] = equal
        if not equal:
            code = 1
    # null when the direct route answered, because some a_v is not surjective
    supports = None
    if found.terms is not None:
        supports = [
            {"support": [str(v) for v in t.support], "dims": list(t.dims), "betti": list(t.betti)}
            for t in found.non_acyclic_terms()
        ]
    _emit(args, "tensor", info, params, results, started, {"non_acyclic_supports": supports})
    return code


def _cmd_homology(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    field = FieldSpec.parse(args.field)
    rep = polyprod_homology(
        P, args.pair, args.max_dim + 1, via=args.via, field=field, compare=not args.no_compare
    )
    params = {
        "pair": args.pair,
        "max_dim": args.max_dim,
        "via": args.via,
        "field": str(field),
        "compare": not args.no_compare,
    }
    results = {"homology": list(rep["homology"])}
    code = 0
    if not args.no_compare:
        results["predicted_from_limits"] = list(rep["predicted"])
        results["higher_limits"] = [list(l) for l in rep["limits"]]
        results["agree"] = rep["agree"]
        if not rep["agree"]:
            code = 1
    _emit(args, "homology", info, params, results, started)
    return code


def _cmd_suite(args) -> int:
    started = time.perf_counter()
    P, info = _load_poset(args.poset)
    field = FieldSpec.parse(args.field)
    D = args.max_degree
    rep = classify(P)
    results: dict = {"classification": rep.to_dict(), "f_vector": list(f_vector(P))}
    checks = []
    if rep.polyhedral:
        pres = presentation_report(P, D=D, field=field)
        results["hilbert"] = {
            "quotient_dims": list(pres["quotient_dims"]),
            "limit_dims": list(pres["limit_dims"]),
            "agree": pres["agree"],
            "relations_skipped": pres["skipped_unsound"],
        }
        checks.append(pres["agree"])
        coll = MorphismCollection.circle(sorted(map(str, P.vertices)), D, field=field)
        lims, _, equal = reduction_invariance(P, coll)
        results["tensor_circle"] = {
            "higher_limits": [list(l) for l in lims],
            "reduction_invariant": equal,
        }
        checks.append(equal)
    if rep.regular:
        actual = f_vector(simplicial_transform(P).poset)
        predicted = f_transform_predict(P)
        results["transform_f_vector"] = {
            "actual": list(actual),
            "predicted": list(predicted),
            "agree": actual == predicted,
        }
        checks.append(actual == predicted)
    if len(P.objects) <= args.space_limit:
        hom = polyprod_homology(P, "circle-point", min(D, 3) + 1, via="colim", field=field)
        results["homology_circle_point"] = {
            "homology": list(hom["homology"]),
            "predicted_from_limits": list(hom["predicted"]),
            "agree": hom["agree"],
        }
        checks.append(hom["agree"])
    results["all_checks_pass"] = all(checks) if checks else True
    _emit(args, "suite", info, {"max_degree": D, "field": str(field)}, results, started)
    return 0 if results["all_checks_pass"] else 1


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

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("poset", help="path to a poset JSON file or a fixture name")
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

    p = add("hilbert", _cmd_hilbert, "graded dimensions of the face ring")
    p.add_argument("--max-degree", type=_non_negative, default=4)
    p.add_argument("--grading", type=_int_at_least(1), default=1, help="degree scale per vertex")
    p.add_argument("--field", default="q", help="q or a prime")
    p.add_argument(
        "--method",
        choices=["presentation", "limit", "fvector"],
        default="presentation",
        help="presentation/limit cross-check both sides; fvector counts faces",
    )

    p = add("limits", _cmd_limits, "higher limits of an indicator or constant diagram")
    p.add_argument("--upset", action="append", help="generator of the up-set (repeatable)")
    p.add_argument("--field", default="q")

    p = add("tensor", _cmd_tensor, "higher limits of a tensor-product diagram")
    p.add_argument("--collection", default="aug:1", help="aug[:d] or circle")
    p.add_argument("--max-degree", type=_non_negative, default=4)
    p.add_argument("--field", default="q")
    p.add_argument("--check-reduction", action="store_true")
    p.add_argument(
        "--check-route",
        action="store_true",
        help="also build the tensor diagram and its cochain complex (the direct route); exit 1 if the routes disagree",
    )

    p = add("homology", _cmd_homology, "homology of the polyhedral-product space")
    p.add_argument("--pair", choices=list(PAIR_NAMES), default="circle-point")
    p.add_argument("--max-dim", type=_non_negative, default=2)
    p.add_argument("--via", choices=["colim", "hocolim"], default="colim")
    p.add_argument("--field", default="q")
    p.add_argument("--no-compare", action="store_true", help="skip the higher-limit comparison")

    p = add("suite", _cmd_suite, "run every applicable computation with cross-checks")
    p.add_argument("--max-degree", type=_non_negative, default=4)
    p.add_argument("--field", default="q")
    p.add_argument("--space-limit", type=int, default=12, help="skip homology above this many objects")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PosetProdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
