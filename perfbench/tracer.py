"""Spans around the library's public functions, recorded from outside it.

The library imports its functions by name (``from .linalg import rank``), so
one function has a separate binding in every module that imports it.
``Tracer.install`` replaces every binding of each traced function in every
loaded ``posetprod`` module, so a call is recorded whichever module makes
it. ``rank`` spans are named after the module that holds the binding, which
splits rank work by caller.

Spans stay in memory as lists ``[name, start, end, parent, job, counts,
count_s]``; ``count_s`` is the time spent computing the counts, which is
excluded from the parent's self time.
"""

from __future__ import annotations

import importlib
import sys
import time


def _nnz(rows) -> int:
    return sum(len(r) - r.count(0) for r in rows)


def _rank_counts(args, result):
    rows, ncols = args[0], args[1]
    return {"entries": len(rows) * ncols, "nnz": _nnz(rows)}


def _cochain_counts(args, cx):
    entries = nnz = 0
    for delta in cx.deltas:
        for d, mat in enumerate(delta.mats):
            entries += delta.target.dims[d] * delta.source.dims[d]
            nnz += _nnz(mat)
    return {"chains": sum(len(level) for level in cx.chains), "entries": entries, "nnz": nnz}


def _relation_counts(args, pres):
    return {"relations": len(pres.relations)}


def _core_counts(args, result):
    return {"cores": len(result[0].cores)}


# (defining module, function, counts from (args, result) or None)
TARGETS = [
    ("linalg", "rank", _rank_counts),
    ("limits", "cochain_complex", _cochain_counts),
    ("limits", "higher_limits", None),
    ("polytensor", "build_T", None),
    ("polytensor", "polyhedral_tensor", None),
    ("poset", "classify", None),
    ("poset", "reduce_poset", None),
    ("stanley", "ideal_generators", _relation_counts),
    ("stanley", "quotient_dims", None),
    ("transform", "simplicial_transform", None),
    ("transform", "f_transform_predict", None),
    ("spaces", "polyhedral_product_space", _core_counts),
    ("spaces", "homology", None),
    ("cli", "main", None),
]

# Bindings the library is known to look up; install() checks each is patched.
REQUIRED_BINDINGS = {
    ("limits", "rank"), ("stanley", "rank"), ("spaces", "rank"),
    ("fixtures", "classify"), ("stanley", "classify"), ("transform", "classify"), ("cli", "classify"),
    ("stanley", "polyhedral_tensor"), ("cli", "polyhedral_tensor"), ("polytensor", "polyhedral_tensor"),
    ("stanley", "reduce_poset"), ("polytensor", "reduce_poset"), ("cli", "reduce_poset"),
}

PACKAGE = "posetprod"


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] or PACKAGE


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> set[tuple[str, str]]:
        """Patch every binding of every target; returns the (module, name)
        pairs patched."""
        for mod, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        importlib.import_module(f"{PACKAGE}.fixtures")
        modules = {
            _short(name): m
            for name, m in list(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None
        }
        for mod, fname, counter in TARGETS:
            original = getattr(modules[mod], fname)
            for holder, m in sorted(modules.items()):
                for attr, value in list(vars(m).items()):
                    if value is original:
                        span = f"{mod}.{fname}.{holder}" if fname == "rank" else f"{mod}.{fname}"
                        setattr(m, attr, self._wrap(span, original, counter))
                        self._patched.append((m, attr, original))
        patched = {(_short(m.__name__), attr) for m, attr, _ in self._patched}
        missing = REQUIRED_BINDINGS - patched
        if missing:
            self.uninstall()
            raise RuntimeError(f"bindings not found, so not traced: {sorted(missing)}")
        return patched

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
                span[6] = clock() - span[2]
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id, fn):
        """Run ``fn`` as job ``job_id`` under a root span."""
        self.job = job_id
        try:
            return self._wrap("job", fn, None)()
        finally:
            self.job = None


def self_times(spans) -> list[float]:
    """Duration of each span minus its children's durations and the time
    spent counting their arguments and results."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= (s[2] - s[1]) + s[6]
    return own


RANK_CALLERS = ("limits", "stanley", "spaces")

LAYER_METRICS = (
    [(f"linalg.rank.{c}.{q}", u) for c in RANK_CALLERS
     for q, u in (("calls", "count"), ("entries", "count"), ("nnz", "count"), ("density", "ratio"), ("s", "s"))]
    + [
        ("limits.cochain_complex.s", "s"),
        ("limits.cochain_complex.chains", "count"),
        ("limits.cochain_complex.entries", "count"),
        ("limits.cochain_complex.nnz", "count"),
        ("limits.higher_limits.self_s", "s"),
        ("polytensor.build_T.calls", "count"),
        ("polytensor.build_T.s", "s"),
        ("polytensor.polyhedral_tensor.self_s", "s"),
        ("poset.classify.calls", "count"),
        ("poset.classify.s", "s"),
        ("poset.reduce_poset.calls", "count"),
        ("poset.reduce_poset.s", "s"),
        ("stanley.ideal_generators.s", "s"),
        ("stanley.ideal_generators.relations", "count"),
        ("stanley.quotient_dims.self_s", "s"),
        ("transform.simplicial_transform.s", "s"),
        ("transform.f_transform_predict.s", "s"),
        ("spaces.polyhedral_product_space.s", "s"),
        ("spaces.polyhedral_product_space.cores", "count"),
        ("spaces.homology.self_s", "s"),
        ("spaces.homology.boundary_entries", "count"),
        ("cli.main.self_s", "s"),
    ]
)


def layer_metrics(spans) -> dict[str, float]:
    """Every metric of LAYER_METRICS (except the tracing overhead) summed
    over the given spans."""
    out = {name: 0 for name, _ in LAYER_METRICS}
    own = self_times(spans)
    for i, (name, start, end, parent, _, counts, _) in enumerate(spans):
        values = {"calls": 1, "s": end - start, "self_s": own[i], **(counts or {})}
        for quantity, value in values.items():
            key = f"{name}.{quantity}"
            if key in out:
                out[key] += value
        if name.startswith("linalg.rank.") and parent is not None and spans[parent][0] == "spaces.homology":
            out["spaces.homology.boundary_entries"] += counts["entries"]
    for c in RANK_CALLERS:
        entries = out[f"linalg.rank.{c}.entries"]
        out[f"linalg.rank.{c}.density"] = out[f"linalg.rank.{c}.nnz"] / entries if entries else 0.0
    return out
