"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

`Tracer.patch` swaps each traced function for a wrapper in every
`cran_maxmin` module that holds it (the package imports functions by name,
so `beamforming.solve_socp` and `association.solve_max_min` are the names
the callers actually look up), records one span per call and puts the
originals back on exit.  A span holds its name, start, end, the index of the
span that was open when it began, and a few attributes read off the result.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None,
                        time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if describe is not None:
                    span.attrs.update(describe(args, result, error))
        return wrapper

    @contextmanager
    def patch(self, targets):
        """targets: (owner, attribute, span name, describe) tuples.  A class
        owner is patched in place; a module owner is patched in every
        cran_maxmin module that holds the same function object."""
        saved = []
        try:
            for owner, attr, name, describe in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, describe)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [m for key, m in list(sys.modules.items())
                               if key.split(".")[0] == "cran_maxmin"
                               and getattr(m, attr, None) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def ancestors(self, i: int):
        parent = self.spans[i].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "error": s.error,
                 **{k: v for k, v in s.attrs.items()
                    if isinstance(v, (int, float, str))}}
                for s in self.spans]


def span_cost_s(calls: int = 20000) -> float:
    """Wall time the wrapper adds to one call, timed on a function that does
    nothing; times the span count, it estimates a traced pass's overhead."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    costs = []
    for fn in (wrapped, noop):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    return max(0.0, costs[0] - costs[1]) / calls


def _socp(args, result, error):
    return {} if result is None else {"status": result.status,
                                      "iterations": result.iterations}


def _scheme(args, result, error):
    report = result if result is not None else getattr(error, "partial_report", None)
    out = {"args": args, "report": result}
    if report is not None:
        out.update(scheme=report.scheme_label, iterations=len(report.iterations))
    return out


def program_targets(cm):
    """The traced boundaries of each layer; cm holds the program's modules."""
    return [
        (cm.socp, "solve_socp", "socp", _socp),
        (cm.beamforming, "solve_max_min", "beamforming.max_min", None),
        (cm.beamforming, "solve_power_min", "beamforming.power_min", None),
        (cm.beamforming, "check_feasible", "beamforming.check_feasible", None),
        (cm.association.SolveCache, "max_min", "association.cache", None),
        (cm.association.SolveCache, "power_min", "association.cache", None),
        (cm.association, "run_algorithm1", "association.scheme", _scheme),
        (cm.association, "run_benchmark2", "association.scheme", _scheme),
        (cm.association, "run_benchmark3", "association.scheme", _scheme),
        (cm.oracle, "exhaustive_best", "oracle.exhaustive", None),
    ]


PER_LAYER = (
    ("socp.calls", "count"), ("socp.ipm_iters", "count"),
    ("socp.iters_per_call", "iter/call"), ("socp.s_per_iter", "s/iter"),
    ("socp.self_s", "s"), ("socp.not_optimal", "count"),
    ("beamforming.max_min_calls", "count"),
    ("beamforming.probes_per_max_min", "socp/call"),
    ("beamforming.power_min_calls", "count"), ("beamforming.self_s", "s"),
    ("beamforming.indeterminate", "count"),
    ("association.cache_requests", "count"),
    ("association.cache_hit_ratio", "ratio"), ("association.iterations", "count"),
    ("association.alg1_s", "s"), ("association.bench1_s", "s"),
    ("association.bench2_s", "s"), ("association.bench3_s", "s"),
    ("oracle.associations", "count"), ("oracle.s_per_association", "s/assoc"),
    ("harness.worker_busy_ratio", "ratio"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, worker_busy_ratio: float) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    children = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += 1

    def pick(prefix):
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    socp, bf, cache = pick("socp"), pick("beamforming."), pick("association.cache")
    max_min = pick("beamforming.max_min")
    iters = sum(spans[i].attrs.get("iterations", 0) for i in socp)
    in_max_min = set(max_min)
    probes = sum(1 for i in socp if spans[i].parent in in_max_min)
    scheme_s = {}
    for i in pick("association.scheme"):
        label = spans[i].attrs.get("scheme", "unknown")
        scheme_s[label] = scheme_s.get(label, 0.0) + spans[i].duration
    exhaustive = pick("oracle.exhaustive")
    assocs = sum(1 for i in max_min
                 if any(a.name == "oracle.exhaustive" for a in tracer.ancestors(i)))
    values = {
        "socp.calls": len(socp),
        "socp.ipm_iters": iters,
        "socp.iters_per_call": _ratio(iters, len(socp)),
        "socp.s_per_iter": _ratio(sum(spans[i].duration for i in socp), iters),
        "socp.self_s": sum(own[i] for i in socp),
        "socp.not_optimal": sum(1 for i in socp
                                if spans[i].attrs.get("status") != "optimal"),
        "beamforming.max_min_calls": len(max_min),
        "beamforming.probes_per_max_min": _ratio(probes, len(max_min)),
        "beamforming.power_min_calls": len(pick("beamforming.power_min")),
        "beamforming.self_s": sum(own[i] for i in bf),
        "beamforming.indeterminate": sum(1 for i in bf
                                         if spans[i].error == "SolverIndeterminate"),
        "association.cache_requests": len(cache),
        "association.cache_hit_ratio": _ratio(sum(1 for i in cache if not children[i]),
                                              len(cache)),
        "association.iterations": sum(spans[i].attrs.get("iterations", 0)
                                      for i in pick("association.scheme")),
        **{f"association.{s}_s": scheme_s.get(s, 0.0)
           for s in ("alg1", "bench1", "bench2", "bench3")},
        "oracle.associations": assocs,
        "oracle.s_per_association": _ratio(sum(spans[i].duration for i in exhaustive),
                                           assocs),
        "harness.worker_busy_ratio": worker_busy_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
