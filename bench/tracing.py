"""Span recorder that times calls into the hjnet modules from outside.

While a ``Recorder`` is active, each public entry point listed in ``TARGETS``
is replaced by a wrapper that appends one span ``[name, start, end, parent,
attrs]`` to an in-memory list.  Leaving the ``with`` block puts the original
functions back, so untraced runs carry no wrapper.  The wrappers sit on
module attributes and class methods that callers look up at call time, which
is how calls made inside the library (``effective_hamiltonian`` ->
``min_cycle_weight`` -> ``EdgeProfile.sigma``) are seen too.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from hjnet import (action, base_graph, cell_problem, crystal, edge_calculus,
                   homogenize, mather)
from workloads import EpsLadder


def _sigma_attrs(args, kwargs, result):
    return {"levels": int(np.size(args[1] if len(args) > 1 else kwargs["a"]))}


def _alpha_batch_attrs(args, kwargs, result):
    P = args[1] if len(args) > 1 else kwargs["P"]
    return {"rows": int(np.atleast_2d(np.asarray(P)).shape[0])}


def _reach_attrs(args, kwargs, result):
    reach = args[0]
    return {"levels": int(reach.dist.shape[0]),
            "cells": int(reach.dist.size),  # levels x |V0| x (2r+1)^b
            "cap_bound": int(reach.cap_bound)}


def _min_action_attrs(args, kwargs, result):
    query = args[3] if len(args) > 3 else kwargs["query"]
    return {"b": args[1].betti, "T": float(query.T)}


def _dim_attrs(args, kwargs, result):
    point = args[1] if len(args) > 1 else kwargs.get("p", kwargs.get("h"))
    return {"b": int(np.size(point))}


def _epsilon_attrs(args, kwargs, result):
    return {"eps": float(args[6] if len(args) > 6 else kwargs["eps"])}


# (owner, attribute, span name, attrs extractor, summed attribute names)
TARGETS = (
    (base_graph, "build_graph", "base_graph.build_graph", None, ()),
    (base_graph, "spanning_tree", "base_graph.spanning_tree", None, ()),
    (base_graph, "theta_map", "base_graph.theta_map", None, ()),
    (edge_calculus, "build_profiles", "edge_calculus.build_profiles", None, ()),
    (edge_calculus.EdgeProfile, "sigma", "edge_calculus.sigma", _sigma_attrs,
     ("levels",)),
    (cell_problem, "effective_hamiltonian", "cell_problem.effective_hamiltonian",
     None, ()),
    (cell_problem, "min_cycle_weight", "cell_problem.min_cycle_weight", None, ()),
    (mather.MatherSolver, "__init__", "mather.solver_init", None, ()),
    (mather.MatherSolver, "alpha", "mather.alpha", _dim_attrs, ()),
    (mather.MatherSolver, "alpha_batch", "mather.alpha_batch", _alpha_batch_attrs,
     ("rows",)),
    (mather.MatherSolver, "beta", "mather.beta", _dim_attrs, ()),
    (mather.MatherSolver, "flow_oracle", "mather.flow_oracle", None, ()),
    (crystal.Crystal, "graph_distance", "crystal.graph_distance", None, ()),
    (crystal, "stable_norm_estimate", "crystal.stable_norm_estimate", None, ()),
    (action, "min_action", "action.min_action", _min_action_attrs, ()),
    (action, "asymptotics_scan", "action.asymptotics_scan", None, ()),
    (action.LiftedReach, "__init__", "action.lifted_reach", _reach_attrs,
     ("levels", "cells", "cap_bound")),
    (homogenize, "epsilon_solution", "homogenize.epsilon_solution", _epsilon_attrs,
     ()),
    (homogenize, "limit_solution", "homogenize.limit_solution", None, ()),
)


class Recorder:
    """Context manager that wraps every target and keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, attrs, _ in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans) -> dict[str, float]:
    """Per-span calls, inclusive and self seconds, and summed attributes.

    For a span ``m.f`` this yields ``m.f_calls``, ``m.f_s``, ``m.f.self_s`` and
    ``m.f_<attr>``; self time is the duration minus that of direct children
    (one thread, so children never overlap).  Every target is reported, with
    zeros where the workload never called it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for _, _, name, _, summed in TARGETS:
        out[f"{name}_calls"] = 0
        out[f"{name}_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for key in summed:
            out[f"{name}_{key}"] = 0
    for eps in EpsLadder.ladder:
        out[f"homogenize.epsilon_solution_s.eps-{eps}"] = 0.0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        out[f"{name}_calls"] += 1
        out[f"{name}_s"] += end - start
        out[f"{name}.self_s"] += end - start - child[i]
        if name == "homogenize.epsilon_solution" and attrs:
            key = f"homogenize.epsilon_solution_s.eps-{attrs['eps']}"
            out[key] = out.get(key, 0.0) + end - start
        elif attrs:
            for key in attrs:
                if f"{name}_{key}" in out:
                    out[f"{name}_{key}"] += attrs[key]
    out["base_graph.build_s"] = sum(
        out[f"base_graph.{f}_s"] for f in ("build_graph", "spanning_tree", "theta_map"))
    out["trace.spans"] = len(spans)
    return out


def baseline_figures(spans) -> dict[str, float]:
    """Per-call figures comparable with the ROADMAP item-1 baseline table.

    Only top-level calls (made by the benchmark, or in set-up) count, so
    ``beta`` calls nested in ``limit_solution`` do not dilute the warm figure;
    ``min_action`` is the exception, as only ``asymptotics_scan`` calls it.
    Each figure is labelled with the Betti number, T or eps of its calls.
    """
    durations: dict[str, list[float]] = {}
    for name, start, end, parent, attrs in spans:
        if parent >= 0 and name != "action.min_action":
            continue
        labels = ",".join(f"{k}={v:g}" for k, v in (attrs or {}).items()
                          if k in ("b", "T", "eps"))
        key = f"{name}@{labels}" if labels else name
        durations.setdefault(key, []).append(end - start)
    return {name: float(np.median(d)) for name, d in sorted(durations.items())}
