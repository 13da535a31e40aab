"""The library surface that the benchmark in ``bench/`` imports and traces.

``bench/tracing.py`` wraps the entry points listed in its ``TARGETS`` and
``bench/workloads.py`` builds its networks through the public constructors,
so renaming or deleting one of them breaks the benchmark; this test breaks
first.
"""

from pathlib import Path

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
