import numpy as np
import pytest

from hjnet import crystal
from hjnet.crystal import Crystal, CrystalEdge, CrystalVertex, stable_norm_estimate
from hjnet.errors import BudgetExceeded

from oracles import metric_invariance_check


def _ball_graph(g, tm, radius):
    """Materialized crystal ball as a networkx graph, built from the base
    graph and theta directly (independent oracle)."""
    import itertools

    import networkx as nx

    G = nx.Graph()
    for h in itertools.product(range(-radius, radius + 1), repeat=tm.betti):
        for e in g.edges:
            h2 = tuple(int(k) for k in np.asarray(h) + tm.theta[e])
            if max(abs(k) for k in h2) <= radius:
                G.add_edge(CrystalVertex(g.origin(e), h),
                           CrystalVertex(g.terminus(e), h2))
    return G


def test_involution_and_terminus_law(honeycomb, bouquet):
    rng = np.random.default_rng(3)
    for g, tm in (honeycomb, bouquet):
        c = Crystal(g, tm)
        edges = sorted(g.edges)
        for _ in range(50):
            e = edges[int(rng.integers(0, len(edges)))]
            h = tuple(int(k) for k in rng.integers(-5, 6, size=tm.betti))
            ce = CrystalEdge(e, h)
            assert c.reversed(c.reversed(ce)) == ce
            t = c.terminus(ce)
            assert t.base == g.terminus(e)
            assert (np.asarray(t.h) == np.asarray(h) + tm.theta[e]).all()
            assert c.origin(c.reversed(ce)) == c.terminus(ce)


def test_no_self_loops(honeycomb, bouquet):
    import itertools

    for g, tm in (honeycomb, bouquet):
        c = Crystal(g, tm)
        for e in g.edges:
            for h in itertools.product(range(-3, 4), repeat=tm.betti):
                ce = CrystalEdge(e, h)
                assert c.origin(ce) != c.terminus(ce)


def test_graph_distance_lattice(bouquet):
    g, tm = bouquet
    c = Crystal(g, tm)
    z = CrystalVertex("v", (0, 0))
    assert c.graph_distance(z, z) == 0
    assert c.graph_distance(z, CrystalVertex("v", (2, 1))) == 3
    # the 2-bouquet crystal is the Z^2 lattice: distance is the l1 norm
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rng.integers(-4, 5, size=2)
        d = c.graph_distance(z, CrystalVertex("v", tuple(int(k) for k in h)))
        assert d == abs(int(h[0])) + abs(int(h[1]))


def test_graph_distance_adjacent(honeycomb):
    g, tm = honeycomb
    c = Crystal(g, tm)
    z = CrystalVertex("x1", (0, 0))
    for e in g.star("x1"):
        w = CrystalVertex(g.terminus(e), tuple(int(k) for k in tm.theta[e]))
        assert c.graph_distance(z, w) == 1


def test_graph_distance_against_networkx(honeycomb):
    import networkx as nx

    g, tm = honeycomb
    G = _ball_graph(g, tm, 5)
    c = Crystal(g, tm)
    rng = np.random.default_rng(17)
    z = CrystalVertex("x1", (0, 0))
    for _ in range(15):
        v = g.vertices[int(rng.integers(0, 2))]
        h = tuple(int(k) for k in rng.integers(-2, 3, size=2))
        w = CrystalVertex(v, h)
        assert c.graph_distance(z, w) == nx.shortest_path_length(G, z, w)


def test_metric_invariance(honeycomb, bouquet):
    rng = np.random.default_rng(23)
    for g, tm in (honeycomb, bouquet):
        for _ in range(30):
            x0 = g.vertices[int(rng.integers(0, len(g.vertices)))]
            h = rng.integers(-3, 4, size=tm.betti)
            hbar = rng.integers(-3, 4, size=tm.betti)
            assert metric_invariance_check(g, tm, x0, h, hbar)


def test_stable_norm_zero(bouquet):
    g, tm = bouquet
    est = stable_norm_estimate(g, tm, (0, 0), 4)
    assert est.estimate == 0.0


def test_stable_norm_lattice(bouquet):
    g, tm = bouquet
    est = stable_norm_estimate(g, tm, (1, 1), 8)
    assert est.estimate == pytest.approx(2.0, abs=1e-12)
    assert all(b <= a + 1e-12 for a, b in zip(est.upper_sequence,
                                              est.upper_sequence[1:]))
    est2 = stable_norm_estimate(g, tm, (2, 1), 4)
    assert est2.estimate == pytest.approx(3.0, abs=1e-12)


def test_stable_norm_dominates_euclidean(honeycomb, bouquet):
    for g, tm in (honeycomb, bouquet):
        for h in [(1, 0), (1, 1), (2, -1), (-3, 2)]:
            est = stable_norm_estimate(g, tm, h, 4)
            assert est.estimate >= est.euclidean_lower - 1e-12
            assert est.euclidean_lower == pytest.approx(float(np.linalg.norm(h)))


def test_distance_subadditive_along_multiples(bouquet, honeycomb):
    for g, tm in (bouquet, honeycomb):
        c = Crystal(g, tm)
        z0 = CrystalVertex(g.vertices[0], (0, 0))

        def d(k, h):
            target = CrystalVertex(g.vertices[0], tuple(k * x for x in h))
            return c.graph_distance(z0, target)

        for h in [(1, 0), (1, 1), (2, -1)]:
            for m in range(1, 4):
                for n in range(1, 4):
                    assert d(m + n, h) <= d(m, h) + d(n, h)


def test_budget_exceeded(bouquet, monkeypatch):
    g, tm = bouquet
    c = Crystal(g, tm)
    with monkeypatch.context() as m:
        m.setattr(crystal, "DEFAULT_NODE_CAP", 100)
        with pytest.raises(BudgetExceeded, match="node cap 100"):
            c.graph_distance(CrystalVertex("v", (0, 0)), CrystalVertex("v", (40, 40)))
    assert c.graph_distance(CrystalVertex("v", (0, 0)), CrystalVertex("v", (4, 4))) == 8


@pytest.mark.parametrize("h, n_max", [((1.5, 0), 4), ((0.5, 0), 4), ((1, 0), 2.5)],
                         ids=["h-1.5", "h-0.5", "n_max-2.5"])
def test_stable_norm_rejects_non_integer_input(bouquet, h, n_max):
    """Truncating them would report another h or another n."""
    with pytest.raises(ValueError, match="must have integer entries"):
        stable_norm_estimate(*bouquet, h, n_max)


@pytest.mark.parametrize("a, b", [
    ((0, 0), (3,)), ((0, 0), (3, 0, 0)), ((0,), (3, 3)), ((0, 0, 0), (3, 3))],
    ids=["target-short", "target-long", "source-short", "source-long"])
def test_graph_distance_rejects_wrong_length_h(honeycomb, a, b):
    """A short h was broadcast: (3,) read as (3, 3)."""
    with pytest.raises(ValueError, match="h must have b = 2 entries"):
        Crystal(*honeycomb).graph_distance(CrystalVertex("x1", a), CrystalVertex("x1", b))


@pytest.mark.parametrize("h", [(1,), (1, 0, 0)], ids=["short", "long"])
def test_stable_norm_rejects_wrong_length_h(honeycomb, h):
    """(1,) was read as (1, 1)."""
    with pytest.raises(ValueError, match="h must have b = 2 entries"):
        stable_norm_estimate(*honeycomb, h, 4)


def test_stable_norm_against_networkx(honeycomb, bouquet):
    """n_max not a power of two: every rescaled distance is a BFS distance."""
    import networkx as nx

    for g, tm in (honeycomb, bouquet):
        x0 = g.vertices[0]
        dist = nx.single_source_shortest_path_length(_ball_graph(g, tm, 48),
                                                     CrystalVertex(x0, (0, 0)))
        for h in [(1, 0), (1, 1), (-1, 1)]:
            for n_max in (12, 48):
                est = stable_norm_estimate(g, tm, h, n_max)

                def rescaled(n):
                    return dist[CrystalVertex(x0, (n * h[0], n * h[1]))] / n

                assert est.upper_sequence == [rescaled(2**k) for k in range(6)
                                              if 2**k <= n_max]
                assert est.estimate == rescaled(n_max)


def test_one_hop_search_per_call(honeycomb, monkeypatch):
    """Every target of a call is read from at most two boxes around its source."""
    g, tm = honeycomb
    built = []
    init = crystal.BoxGraph.__init__

    def spy(self, *args, **kwargs):
        built.append(args[3])
        init(self, *args, **kwargs)

    monkeypatch.setattr(crystal.BoxGraph, "__init__", spy)
    for h in [(1, 0), (1, 1), (0, -1)]:
        built.clear()
        stable_norm_estimate(g, tm, h, 64)
        assert 1 <= len(built) <= 2
        built.clear()
        Crystal(g, tm).graph_distance(CrystalVertex("x1", (0, 0)),
                                      CrystalVertex("x2", (64 * h[0], 64 * h[1])))
        assert 1 <= len(built) <= 2


def test_stable_norm_budget_exceeded(bouquet, monkeypatch):
    monkeypatch.setattr(crystal, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(BudgetExceeded, match="node cap 100"):
        stable_norm_estimate(*bouquet, (1, 1), 40)
