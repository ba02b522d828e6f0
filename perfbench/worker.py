"""One benchmark worker: set up a workload, run its passes, report.

Started by run.py as a fresh process with the checkout's ``src`` on
PYTHONPATH. It prints ``ready`` when set-up is done and, unless
``--setup-only`` is given, runs passes in a closed loop (one job at a time)
and prints one JSON summary line.

Untraced runs measure passes k = 0, 1, ... until the next pass would end
after ``--seconds``; every pass must give the same answers, and each pass
runs under a HostClock that measures the host's speed during it. Traced runs repeat pass 0 as a pair: once untraced and
once traced, on freshly generated inputs each time, so the difference of the
two is the tracing overhead and the traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback

# Address-space cap; the largest job (spaces, fix-c) peaks near 0.55 GiB.
ADDRESS_SPACE_LIMIT = 2 << 30
# A run never goes past this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
SPAN_FIELDS = ["name", "start", "end", "parent", "job", "counts", "count_s"]


class JobTimeout(BaseException):
    """Raised from the interval timer; a BaseException so that no
    ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, budget_s: float, tracer=None, job_id=None):
    """Returns (seconds, ok, answer); errors, timeouts and failed checks
    give ok False."""
    signal.setitimer(signal.ITIMER_REAL, max(budget_s, 0.001))
    start = time.perf_counter()
    try:
        ok, answer = tracer.run_job(job_id, job) if tracer else job()
    except JobTimeout:
        ok, answer = False, {"error": "time budget exceeded"}
    except MemoryError:
        ok, answer = False, {"error": "MemoryError"}
    except Exception as exc:  # a job boundary: record the failure, keep going
        traceback.print_exc(file=sys.stderr)
        ok, answer = False, {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, ok, answer


def run_pass(jobs, budget_s, deadline, tracer=None, clock=None, pass_id=0):
    """Runs every job of a pass; returns (wall seconds, job seconds, oks,
    answers). Time taken by the clock's reference samples is left out, and
    with a clock each job's time is scaled by the host speed around it."""
    times, oks, answers = [], [], []

    def spent():
        return clock.spent if clock else 0.0

    with clock or contextlib.nullcontext():
        start, spent_start = time.perf_counter(), spent()
        for i, job in enumerate(jobs):
            job_start = time.perf_counter()
            spent_job = spent()
            dt, ok, answer = run_job(job, min(budget_s, deadline - job_start), tracer, (pass_id, i))
            dt -= spent() - spent_job
            if clock:
                dt *= clock.factor_between(job_start, time.perf_counter())
            times.append(dt)
            oks.append(ok)
            answers.append(answer)
        wall = time.perf_counter() - start - (spent() - spent_start)
    return wall, times, oks, answers


def digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    process_start = time.perf_counter()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)

    import hostclock
    import workloads

    passes = workloads.PASSES[args.workload]
    first = passes(args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    budget = workloads.JOB_BUDGET_S[args.workload]
    deadline = process_start + HARD_LIMIT_S
    end = time.perf_counter() + args.seconds
    summary = {
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "parameters": workloads.PARAMETERS[args.workload],
    }

    def room_for(wall_times):
        # start another pass only if one more of the typical length still
        # ends within --seconds
        now = time.perf_counter()
        return now < end and now + statistics.median(wall_times) <= end and now < deadline

    if not args.trace:
        walls, factors, job_times, oks, digests = [], [], [], [], set()
        k, jobs = 0, first
        while True:
            clock = hostclock.HostClock()
            wall, times, ok, answers = run_pass(jobs, budget, deadline, clock=clock, pass_id=k)
            walls.append(wall)
            factors.append(clock.factor())
            job_times.append(times)
            oks += ok
            digests.add(digest(answers))
            k += 1
            if not room_for(walls):
                break
            jobs = passes(args.seed, k)
        summary.update(
            passes=len(walls),
            pass_walls=walls,
            pass_factors=factors,
            job_times=job_times,
            attempted=len(oks),
            failed=oks.count(False),
            answers_identical=len(digests) == 1,
            answers_sha256=sorted(digests)[0],
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    else:
        import tracer as tracing

        plain_walls, traced_walls, oks, pass_metrics = [], [], [], []
        digests, spans = set(), None
        jobs = first
        while True:
            wall, _, ok, answers = run_pass(jobs, budget, deadline)
            plain_walls.append(wall)
            oks += ok
            digests.add(digest(answers))
            jobs = passes(args.seed, 0)
            tr = tracing.Tracer()
            patched = tr.install()
            try:
                wall, _, ok, answers = run_pass(jobs, budget, deadline, tracer=tr)
            finally:
                tr.uninstall()
            traced_walls.append(wall)
            oks += ok
            digests.add(digest(answers))
            pass_metrics.append(tracing.layer_metrics(tr.spans))
            spans = spans or tr.spans
            if not room_for([a + b for a, b in zip(plain_walls, traced_walls)]):
                break
            jobs = passes(args.seed, 0)
        summary.update(
            passes=len(traced_walls),
            plain_walls=plain_walls,
            traced_walls=traced_walls,
            attempted=len(oks),
            failed=oks.count(False),
            answers_identical=len(digests) == 1,
            answers_sha256=sorted(digests)[0],
            pass_metrics=pass_metrics,
            patched=sorted(f"{m}.{a}" for m, a in patched),
        )
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": SPAN_FIELDS, "spans": spans}, fh)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
