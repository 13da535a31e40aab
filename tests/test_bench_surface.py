"""The library surface that the benchmark in ``bench/`` imports and traces.

``bench/tracing.py`` wraps the entry points listed in its ``TARGETS`` and
``bench/workloads.py`` builds its networks through the public constructors,
so renaming or deleting one of them breaks the benchmark; this test breaks
first.  The span attributes read from a ``LiftedReach`` are checked the same
way.
"""

from pathlib import Path

from hjnet.action import LiftedReach
from hjnet.crystal import BoxGraph, CrystalVertex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_targets_and_networks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing  # imports workloads
    import workloads

    for owner, attr, name, *_ in tracing.TARGETS:
        assert callable(vars(owner).get(attr)), f"{name}: {owner!r} has no {attr}"
    try:
        for name in workloads.NETWORKS:
            net = workloads.build_network(name)
            assert net.solver.a0 == net.profiles.a0
    finally:
        workloads.forget_solvers()


def test_reach_attrs_read_a_lifted_reach(monkeypatch, honeycomb_free):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    g, tm, profs = honeycomb_free
    box = BoxGraph(g, tm, CrystalVertex("x1", (0, 0)), 1)
    reach = LiftedReach(box, profs, [profs.a0, profs.a0 + 1.0])
    assert tracing._reach_attrs((reach, box, profs), {}, None) == {
        "levels": 2, "cells": 2 * 2 * 3 * 3, "cap_bound": 0}
