"""In-memory spans around polyclone's public layer functions.

Tracing is installed from outside: each target function is replaced, by
module attribute, with a wrapper that records a span (name, start, end,
parent) and adds the layer's work counts.  Every polyclone module that
imported the function by name gets the wrapper too, so calls between
layers are traced as well.  Nothing under ``src/`` changes.

``SymmetricOp.value_counts`` is deliberately not wrapped: a scan calls it
millions of times, and a span per call would distort the scan.  Its cost
comes from a separate microbench instead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> per-layer metric that receives the span's self time
SPAN_METRIC = {
    "structures.build": "structures.build_s",
    "structures.ladder": "structures.ladder_s",
    "relations.compose": "relations.compose_s",
    "compat.exact": "compat.exact_s",
    "compat.sampled": "compat.sampled_s",
    "indicator.build": "indicator.build_s",
    "indicator.solve": "indicator.solve_s",
    "trace.certify": "trace.certify_s",
    "trace.check_cold": "trace.check_cold_s",
    "trace.check_warm": "trace.check_warm_s",
    "trace.to_json": "trace.to_json_s",
    "trace.from_json": "trace.from_json_s",
}


class Tracer:
    """Spans of one operation.  Spans are recorded only while `active`, so
    preparation outside the timed interval leaves no trace."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._checked_params: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def check_span_name(self, args, kwargs) -> str:
        """A certificate check is cold the first time its parameters are
        checked in this process, warm afterwards (the checker caches)."""
        cert = args[0] if args else kwargs["cert"]
        key = (cert.family, cert.n, cert.m)
        if key in self._checked_params:
            return "trace.check_warm"
        self._checked_params.add(key)
        return "trace.check_cold"

    def layer_totals(self) -> dict[str, float]:
        """Self time per layer metric: a span's duration minus the time its
        direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            metric = "cli.self_s" if name.startswith("cli.") else SPAN_METRIC.get(name)
            if metric is not None:
                out[metric] = out.get(metric, 0.0) + (end - start) - child[i]
        return out


def _count_exact(counts, args, kwargs, verdict):
    rel = args[1] if len(args) > 1 else kwargs["rel"]
    counts["compat.multisets"] += verdict.checked
    # one value_counts call per row of every multiset
    counts["witness.value_counts_calls"] += verdict.checked * rel.arity


def _count_sampled(counts, args, kwargs, verdict):
    rel = args[1] if len(args) > 1 else kwargs["rel"]
    counts["compat.samples"] += verdict.checked
    counts["witness.value_counts_calls"] += verdict.checked * rel.arity


def _count_build(counts, args, kwargs, inst):
    counts["indicator.constraints"] += inst.n_constraints
    counts["indicator.vars"] += inst.nvars


def _count_solve(counts, args, kwargs, report):
    counts["indicator.nodes"] += report.nodes


def _count_certify(counts, args, kwargs, cert):
    counts["trace.steps"] += len(cert.steps)


# (module, function, span name or None for the cold/warm check, counter)
TARGETS = [
    ("structures", "structure_a", "structures.build", None),
    ("structures", "structure_b", "structures.build", None),
    ("structures", "chain_matches_congruence_a", "structures.ladder", None),
    ("structures", "chain_matches_congruence_b", "structures.ladder", None),
    ("structures", "chain_congruence_a", "structures.ladder", None),
    ("structures", "chain_congruence_b", "structures.ladder", None),
    ("relations", "compose", "relations.compose", None),
    ("compat", "check_compat_symmetric", "compat.exact", _count_exact),
    ("compat", "check_compat_sampled", "compat.sampled", _count_sampled),
    ("indicator", "build_indicator", "indicator.build", _count_build),
    ("indicator", "solve", "indicator.solve", _count_solve),
    ("trace", "certify_lower_bound_a", "trace.certify", _count_certify),
    ("trace", "certify_lower_bound_b", "trace.certify", _count_certify),
    ("trace", "check_certificate", None, None),
    ("trace", "certificate_to_json", "trace.to_json", None),
    ("trace", "certificate_from_json", "trace.from_json", None),
]


def _wrap(tracer: Tracer, fn, span_name, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        name = span_name or tracer.check_span_name(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Replace every target, in every loaded polyclone module that holds it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polyclone"]
    for mod_name, fn_name, span_name, count in TARGETS:
        original = getattr(sys.modules[f"polyclone.{mod_name}"], fn_name)
        traced = _wrap(tracer, original, span_name, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
