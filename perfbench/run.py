"""posetprod benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep|cube|spaces --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
The run starts fresh worker processes one after another (never two at a
time): SETUP_PROBES that only set up, then the one that measures. The last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). The line before it is the run record. Traced runs also
write their spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "cube", "spaces")
DEFAULT_SEED = 1
# Seed kept out of tuning; use it to confirm a claimed change.
CONFIRM_SEED = 2
SETUP_PROBES = 4
RUN_LIMIT_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, extra=()):
    """Start a worker; returns (process, seconds from start to ready scaled
    by the host speed measured just before and after)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    host = [hostclock.reference_time() for _ in range(3)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    host += [hostclock.reference_time() for _ in range(3)]
    ready *= hostclock.scale(host)
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not set up (said {line.strip()!r}, exit {proc.returncode})")
    return proc, ready


def finish_worker(proc, timeout, summary=True):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker went over the run's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if summary else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "posetprod").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def end_to_end_metrics(summary, setup_times):
    """Times scaled for host speed (see hostclock.py): passes by their
    pass's factor, jobs by their own, set-up by the speed around it. Memory
    as measured."""
    walls = [w * f for w, f in zip(summary["pass_walls"], summary["pass_factors"])]
    # every pass runs the same jobs in the same order: a job's latency is
    # its median over the passes
    times = [statistics.median(ts) for ts in zip(*summary["job_times"])]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(times),
        # with fewer than 20 jobs (cube, spaces) this is the interpolated
        # top of the sample, not a tail estimate
        "job_p95_s": statistics.quantiles(times, n=20, method="inclusive")[18] if len(times) > 1 else times[0],
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        "verified_frac": (summary["attempted"] - summary["failed"]) / summary["attempted"],
    }


def traced_metrics(summary):
    """Counts from the first traced pass (every pass must repeat them
    exactly); times as the median over traced passes. Returns (metrics,
    units, counts_repeat)."""
    per_pass = summary["pass_metrics"]
    units = dict(tracer.LAYER_METRICS)
    metrics, repeat = {}, True
    for name, unit in units.items():
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    metrics["trace.overhead_s"] = statistics.median(summary["traced_walls"]) - statistics.median(
        summary["plain_walls"]
    )
    units["trace.overhead_s"] = "s"
    return metrics, units, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "posetprod" / "__init__.py").is_file():
        return fail(f"no library source at {SRC / 'posetprod'}; run from a full checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    started = time.perf_counter()
    try:
        setup_times = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(args, ["--setup-only"])
            finish_worker(proc, 60.0, summary=False)
            setup_times.append(ready)
        extra = []
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            extra = ["--spans", str(spans_file)]
        proc, ready = start_worker(args, extra)
        setup_times.append(ready)
        summary = finish_worker(proc, max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except RuntimeError as exc:
        return fail(str(exc))

    # answers do not depend on the seed, so every run checks the digest
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    digest_ok = summary["answers_sha256"] == expected
    if not digest_ok:
        print(f"perfbench: answer digest {summary['answers_sha256']} differs from the recorded one", file=sys.stderr)
    correct = summary["failed"] == 0 and digest_ok and summary["answers_identical"]
    if args.trace:
        metrics, units, repeat = traced_metrics(summary)
        correct = correct and repeat
    else:
        metrics, units = end_to_end_metrics(summary, setup_times), END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "parameters": summary["parameters"],
        "passes": summary["passes"],
        "jobs_per_pass": len(summary["job_times"][0]) if "job_times" in summary else None,
        "setup_times_s": setup_times,
        "answers_sha256": summary["answers_sha256"],
    }
    if args.trace:
        record.update(
            plain_walls_s=summary["plain_walls"],
            traced_walls_s=summary["traced_walls"],
            patched_bindings=summary["patched"],
            spans_file=str(spans_file.relative_to(ROOT)),
        )
    else:
        record["raw_pass_walls_s"] = summary["pass_walls"]
        record["host_factors"] = summary["pass_factors"]
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
