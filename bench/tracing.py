"""Layer spans recorded from outside the program.

The tracer rebinds public names that a calling module looks up at call time
(``harness.decode``, ``decoders.solve_lp``, ...), so each call into a layer
becomes a span.  Spans live in memory and are written out once, at the end
of the run.  A hooked name that no longer exists is skipped: its span is
simply absent.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# (module, attribute, span name).  The module is the *caller's* module, whose
# global lookup the rebinding intercepts.
HOOKS = (
    ("harness", "gibbs_sample", "prior.gibbs"),
    ("harness", "bernoulli_design", "testing.design"),
    ("harness", "run_tests", "testing.channel"),
    ("harness", "decode", "decoders.decode"),
    ("decoders", "build_model", "decoders.build"),
    ("decoders", "solve_lp", "milp.solve_lp"),
    ("decoders", "solve_ilp", "milp.solve_ilp"),
    ("milp", "feasibility_violation", "milp.feas_check"),
    ("cli", "run_experiment", "harness.experiment"),
    ("cli", "emit", "harness.report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trial: int
    count: float = 0.0  # work done, read from the arguments or return value
    status: str = ""


def _count(name: str, args, kwargs, result) -> tuple:
    """(work count, status) of one call, read from its arguments/result."""
    if name == "prior.gibbs":  # sweeps x n site updates
        return float(args[1] if len(args) > 1 else kwargs["sweeps"]) * result.n, ""
    if name == "testing.design":
        return float(result.t * result.n), ""
    if name == "milp.solve_ilp":
        return float(result.nodes_explored), result.status
    if name == "milp.solve_lp":
        return 1.0, result.status
    if name == "harness.report":
        if isinstance(result, str):  # report_json / report_csv body
            return float(len(result.encode())), ""
        return float(os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])), ""
    return 0.0, ""


class Tracer:
    """Records spans for every hooked call while installed (a context manager)."""

    def __init__(self, modules: Dict[str, object], clock: Callable[[], float] = time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._trial = -1
        self._saved = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if name == "testing.design":
            self._trial += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent, self._trial)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        span.count, span.status = _count(name, args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attr, span_name in HOOKS:
            mod = self.modules[mod_name]
            if hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(span_name, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "trial": s.trial, "count": s.count,
                                     "status": s.status}) + "\n")


def layer_metrics(spans: List[Span], first: int, last: int, pass_wall: float) -> dict:
    """Per-layer totals of the spans ``first..last-1``, which belong to one
    pass of ``pass_wall`` seconds.  Self time is a span's duration minus the
    durations of its direct children (children of one span never overlap:
    the program is single-threaded)."""
    dur: Dict[str, float] = {}
    self_t: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    work: Dict[str, float] = {}
    non_optimal = 0
    child_sum = [0.0] * (last - first)
    for i in range(first, last):
        s = spans[i]
        if s.parent is not None and s.parent >= first:
            child_sum[s.parent - first] += s.end - s.start
    covered = 0.0
    for i in range(first, last):
        s = spans[i]
        d = s.end - s.start
        dur[s.name] = dur.get(s.name, 0.0) + d
        self_t[s.name] = self_t.get(s.name, 0.0) + d - child_sum[i - first]
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0.0) + s.count
        if s.name in ("milp.solve_lp", "milp.solve_ilp") and s.status != "optimal":
            non_optimal += 1
        if s.parent is None or s.parent < first:
            covered += d
    gibbs_s = dur.get("prior.gibbs", 0.0)
    ilp_s = dur.get("milp.solve_ilp", 0.0)
    nodes = work.get("milp.solve_ilp", 0.0)
    return {
        "prior.gibbs_s": gibbs_s,
        "prior.site_updates": work.get("prior.gibbs", 0.0),
        "prior.site_updates_per_s": work.get("prior.gibbs", 0.0) / gibbs_s if gibbs_s else 0.0,
        "testing.design_s": dur.get("testing.design", 0.0),
        "testing.channel_s": dur.get("testing.channel", 0.0),
        "testing.design_cells": work.get("testing.design", 0.0),
        "decoders.decode_s": dur.get("decoders.decode", 0.0),
        "decoders.decode_self_s": self_t.get("decoders.decode", 0.0),
        "decoders.build_s": dur.get("decoders.build", 0.0),
        "milp.solve_lp_s": dur.get("milp.solve_lp", 0.0),
        "milp.lp_calls": calls.get("milp.solve_lp", 0),
        "milp.solve_ilp_s": ilp_s,
        "milp.ilp_calls": calls.get("milp.solve_ilp", 0),
        "milp.bb_nodes": nodes,
        "milp.ilp_s_per_node": ilp_s / nodes if nodes else 0.0,
        "milp.feas_check_s": dur.get("milp.feas_check", 0.0),
        "milp.feas_check_calls": calls.get("milp.feas_check", 0),
        "milp.non_optimal": non_optimal,
        "harness.experiment_s": dur.get("harness.experiment", 0.0),
        "harness.self_s": self_t.get("harness.experiment", 0.0),
        "harness.report_s": dur.get("harness.report", 0.0),
        "harness.report_bytes": work.get("harness.report", 0.0),
        "cli.main_s": dur.get("cli.main", 0.0),
        "cli.self_s": self_t.get("cli.main", 0.0),
        "trace.uncovered_frac": max(pass_wall - covered, 0.0) / pass_wall if pass_wall else 0.0,
    }
