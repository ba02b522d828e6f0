"""The benchmark's three workloads: their inputs, jobs and answer checks.

A workload is a list of passes; a pass is a list of jobs, and a job is a
zero-argument callable returning ``(ok, answer)``. ``ok`` is False when the
answer breaks a fact the mathematics guarantees; ``answer`` is a
JSON-serialisable record of what the library computed.

Every library call goes through a module attribute (``poset.classify``, not
a name imported here), so the tracer's patched bindings see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import posetprod.cli as cli
import posetprod.errors as errors
import posetprod.fixtures as fixtures
import posetprod.polytensor as polytensor
import posetprod.poset as poset
import posetprod.stanley as stanley
import posetprod.transform as transform

# The sweep poses the same 220 problems at every seed: posets and collections
# from one fixed generator stream, taken class by class. random_pointed_poset
# draws its non-base object count n uniformly from 1..7 and its vertex count
# uniformly from 1..min(4, n); SWEEP_PER_CLASS[n] posets of each (n, vertex
# count) class per check put 15 or 16 posets of every n into each check,
# close to the generator's mix, and leave more than ten jobs above p95. The
# seed draws a fresh naming of every poset's objects for each pass, which
# changes every name-sorted order inside the library (chains, pivots,
# vertices) but no answer. A seed-drawn stream would make a run's time depend
# mostly on how many large posets it happened to draw: runs of ~500 such jobs
# spread by ~10% from that alone.
SWEEP_PER_CLASS = {1: 15, 2: 8, 3: 5, 4: 4, 5: 4, 6: 4, 7: 4}
SWEEP_STREAM = "sweep"
SWEEP_MAX_OBJECTS = 8
SWEEP_VANISHING_D = 3
SWEEP_PRESENTATION_D = 4

CUBE_ARGV = ["tensor", "cube-3", "--collection", "aug", "--max-degree", "4", "--field", "q"]
CUBE_LIM0 = [[1, 8, 36, 120, 330]]

SPACES_JOBS = [
    (["homology", "fix-c", "--pair", "disk2-circle", "--max-dim", "2", "--field", "101"], [1, 0, 0]),
    (["homology", "cube-3", "--max-dim", "1", "--field", "2"], [1, 8]),
    (["homology", "simplex-3", "--max-dim", "4", "--via", "hocolim"], [1, 4, 6, 4, 1]),
    (["homology", "fix-e", "--pair", "disk2-circle", "--max-dim", "4"], [1, 0, 0, 1, 0]),
]

# Seconds one job may run before it counts as failed.
JOB_BUDGET_S = {"sweep": 20.0, "cube": 120.0, "spaces": 60.0}

PARAMETERS = {
    "sweep": {
        "generator": "fixtures.random_pointed_poset",
        "max_objects": SWEEP_MAX_OBJECTS,
        "jobs_per_pass": 2 * sum(SWEEP_PER_CLASS[n] * min(4, n) for n in SWEEP_PER_CLASS),
        "vanishing": {"collection": "random_surjective_collection", "D": SWEEP_VANISHING_D, "field": "Q"},
        "presentation": {"D": SWEEP_PRESENTATION_D},
    },
    "cube": {"argv": CUBE_ARGV},
    "spaces": {"argv": [argv for argv, _ in SPACES_JOBS]},
}


def _lists(value):
    return json.loads(json.dumps(value))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


# -- sweep --------------------------------------------------------------


def _vanishing_job(P, collection):
    def job():
        report = poset.classify(P)
        lims = polytensor.polyhedral_tensor(P, collection)
        answer = {"check": "vanishing", "lower_saturated": report.lower_saturated, "limits": _lists(lims)}
        ok = not (report.lower_saturated and any(any(level) for level in lims[1:3]))
        ok = _transform_check(P, report, answer) and ok
        return ok, answer

    return job


def _presentation_job(P):
    def job():
        report = poset.classify(P)
        answer = {"check": "presentation", "polyhedral": report.polyhedral}
        if report.polyhedral:
            # a disagreement between quotient and limit is an answer, not a failure
            answer["report"] = _lists(stanley.presentation_report(P, D=SWEEP_PRESENTATION_D))
            ok = True
        else:
            try:
                stanley.presentation_report(P, D=SWEEP_PRESENTATION_D)
                ok = False
            except errors.NotPolyhedral:
                answer["report"] = "refused: not polyhedral"
                ok = True
        ok = _transform_check(P, report, answer) and ok
        return ok, answer

    return job


def _transform_check(P, report, answer) -> bool:
    if not report.regular:
        return True
    predicted = transform.f_transform_predict(P)
    actual = transform.f_vector(transform.simplicial_transform(P).poset)
    answer["f_transform"] = {"predicted": list(predicted), "actual": list(actual)}
    return predicted == actual


def _renamed(P, names):
    rename = {o: (o if o == P.base else names.pop()) for o in P.objects}
    Q = poset.PointedPoset(
        [rename[o] for o in P.objects], P.base, [(rename[a], rename[b]) for a, b in P.covers]
    )
    return Q, rename


def sweep_pass(seed: int, k: int):
    """Pass ``k`` of the sweep: the fixed problems under names drawn from
    ``seed`` and ``k``."""
    stream = random.Random(SWEEP_STREAM)
    naming = random.Random(f"sweep:{seed}:{k}")
    quota = {}
    for n, per_class in SWEEP_PER_CLASS.items():
        for v in range(1, min(4, n) + 1):
            quota[(n, v)] = [per_class, per_class]  # vanishing, presentation
    jobs = []
    while any(sum(q) for q in quota.values()):
        P = fixtures.random_pointed_poset(stream, max_objects=SWEEP_MAX_OBJECTS)
        left = quota[(len(P.objects) - 1, len(P.vertices))]
        if not any(left):
            continue
        names = [f"o{i}" for i in range(len(P.objects) - 1)]
        naming.shuffle(names)
        Q, rename = _renamed(P, names)
        if left[0]:
            left[0] -= 1
            # same maps on the same vertices as under the stream's names
            verts = [rename[v] for v in sorted(map(str, P.vertices))]
            collection = polytensor.random_surjective_collection(stream, verts, SWEEP_VANISHING_D)
            jobs.append(_vanishing_job(Q, collection))
        else:
            left[1] -= 1
            jobs.append(_presentation_job(Q))
    return jobs


# -- cube and spaces ----------------------------------------------------


def _cube_job():
    code, report = _run_cli(CUBE_ARGV)
    lims = report["results"]["higher_limits"]
    return code == 0 and lims == CUBE_LIM0, {"argv": CUBE_ARGV, "results": report["results"]}


def _spaces_job(argv, expected):
    def job():
        code, report = _run_cli(argv)
        results = report["results"]
        ok = code == 0 and results.get("agree") is True and results["homology"] == expected
        return ok, {"argv": argv, "results": results}

    return job


def cube_pass(seed: int, k: int):
    return [_cube_job]


def spaces_pass(seed: int, k: int):
    return [_spaces_job(argv, expected) for argv, expected in SPACES_JOBS]


# cube and spaces are the fixed problems the workloads are about; the seed
# does not change them.
PASSES = {"sweep": sweep_pass, "cube": cube_pass, "spaces": spaces_pass}
