"""The benchmark's own test: one short run of each workload, untraced and
twice traced (under two hash seeds).

    python3 perfbench/selftest.py [workload ...]

For each workload it checks that every run verifies its answers, that every
layer metric mapped to the workload is non-zero, that traced and untraced
runs give the same answers and job counts, that every required binding was
patched, and that the layer counts repeat exactly from run to run. Takes
about four minutes on a 2-core Xeon.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

RANK = ("calls", "entries", "nnz", "density", "s")

# Layer metrics each workload must move (the table in README.md).
LAYERS = {
    "sweep": [f"linalg.rank.{c}.{q}" for c in ("limits", "stanley") for q in RANK]
    + [
        "limits.cochain_complex.s", "limits.cochain_complex.chains",
        "limits.cochain_complex.entries", "limits.cochain_complex.nnz",
        "limits.higher_limits.self_s",
        "polytensor.build_T.calls", "polytensor.build_T.s", "polytensor.polyhedral_tensor.self_s",
        "poset.classify.calls", "poset.classify.s", "poset.reduce_poset.calls", "poset.reduce_poset.s",
        "stanley.ideal_generators.s", "stanley.ideal_generators.relations", "stanley.quotient_dims.self_s",
        "transform.simplicial_transform.s", "transform.f_transform_predict.s",
        "trace.overhead_s",
    ],
    "cube": [f"linalg.rank.limits.{q}" for q in RANK]
    + [
        "limits.cochain_complex.s", "limits.cochain_complex.chains",
        "limits.cochain_complex.entries", "limits.cochain_complex.nnz",
        "limits.higher_limits.self_s",
        "polytensor.build_T.calls", "polytensor.build_T.s", "polytensor.polyhedral_tensor.self_s",
        "cli.main.self_s", "trace.overhead_s",
    ],
    "spaces": [f"linalg.rank.spaces.{q}" for q in RANK]
    + [
        "spaces.polyhedral_product_space.s", "spaces.polyhedral_product_space.cores",
        "spaces.homology.self_s", "spaces.homology.boundary_entries",
        "cli.main.self_s", "trace.overhead_s",
    ],
}


def bench(workload: str, trace: int, hash_seed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    record_line, result_line = res.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def check_workload(workload: str) -> None:
    plain_rec, plain = bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0, plain

    rec1, traced1 = bench(workload, 1, "0")
    rec2, traced2 = bench(workload, 1, "1")
    for rec, res in ((rec1, traced1), (rec2, traced2)):
        assert res["correct"] and res["failed"] == 0, res
        # one traced run holds an untraced and a traced pass of pass 0
        assert res["attempted"] == 2 * plain["attempted"] * rec["passes"], (res, plain)
        assert rec["answers_sha256"] == plain_rec["answers_sha256"], workload
        missing = {f"{m}.{a}" for m, a in tracer.REQUIRED_BINDINGS} - set(rec["patched_bindings"])
        assert not missing, missing

    m1, m2 = traced1["metrics"], traced2["metrics"]
    assert set(m1) == {name for name, _ in tracer.LAYER_METRICS} | {"trace.overhead_s"}
    zero = [name for name in LAYERS[workload] if not m1[name]["value"]]
    assert not zero, f"{workload}: layer metrics that stayed zero: {zero}"
    differ = [
        name for name, v in m1.items()
        if v["unit"] != "s" and v["value"] != m2[name]["value"]
    ]
    assert not differ, f"{workload}: counts that did not repeat: {differ}"


def test_sweep():
    check_workload("sweep")


def test_cube():
    check_workload("cube")


def test_spaces():
    check_workload("spaces")


if __name__ == "__main__":
    for name in sys.argv[1:] or LAYERS:
        check_workload(name)
        print(f"{name}: ok")
