"""The crystal shortest-path engine against independent references.

Reaches (Dijkstra on a Johnson-reweighted box) are compared with the
label-correcting sweeps of ``oracles.sweep_reach``; graph distances with
networkx BFS on a materialized box.  Hop-bounded searches are compared with
the unbounded search they replace.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from hjnet import crystal
from hjnet.action import ActionQuery, LiftedReach, crystal_potential, min_action
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import (BoxGraph, Crystal, CrystalVertex, Potential,
                           reduced_weights)
from hjnet.edge_calculus import _concave_max
from hjnet.errors import NegativeReducedWeight, RimReached
from hjnet.homogenize import ConeDatum, LinearDatum, epsilon_solution

from conftest import networks
from oracles import sweep_reach, sweep_weights


def _nx_box(g, tm, center, radius):
    """The crystal box as a networkx graph, built from the base graph directly."""
    G = nx.DiGraph()
    for off in itertools.product(range(-radius, radius + 1), repeat=tm.betti):
        h = np.add(center, off)
        for e in g.edges:
            h2 = h + tm.theta[e]
            if np.max(np.abs(h2 - center), initial=0) <= radius:
                G.add_edge((g.origin(e), tuple(h)), (g.terminus(e), tuple(h2)))
    return G


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), data=st.data())
def test_engine_matches_sweep_oracle(net, data):
    g, tm, profs = net
    b = tm.betti
    radius = data.draw(st.integers(1, 4))
    x = data.draw(st.sampled_from(g.vertices))
    h0 = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=b, max_size=b)))
    steps = data.draw(st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=3))
    a = profs.a0 + np.array([0.0] + steps)
    for reverse in (False, True):
        box = BoxGraph(g, tm, CrystalVertex(x, h0), radius, reverse)
        want = sweep_reach(g, tm, profs, x, h0, radius, a, reverse=reverse)
        np.testing.assert_allclose(LiftedReach(box, profs, a).dist, want,
                                   rtol=0, atol=1e-9)

    y = data.draw(st.sampled_from(g.vertices))
    h1 = tuple(k + data.draw(st.integers(-1, 1)) for k in h0)
    d = Crystal(g, tm).graph_distance(CrystalVertex(x, h0), CrystalVertex(y, h1))
    # a box of radius >= d holds every walk of <= d edges from the source
    G = _nx_box(g, tm, h0, max(d, 1))
    assert d == nx.shortest_path_length(G, (x, h0), (y, h1))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(net=networks(), data=st.data())
def test_hop_bound_keeps_every_node_within_it(net, data):
    """Hop-bounded searches equal the unbounded one bit for bit at every node
    within the bound, forward and reverse, and at a single node ``at``, also
    when ``walk`` reads a tree searched past that node's hop count."""
    g, tm, profs = net
    b = tm.betti
    radius = data.draw(st.integers(1, 4))
    x = data.draw(st.sampled_from(g.vertices))
    h0 = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=b, max_size=b)))
    steps = data.draw(st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=3))
    w = profs.sigma_all(profs.a0 + np.array([0.0] + steps)).T
    pot = crystal_potential(g, tm, profs)
    for reverse in (False, True):
        box = BoxGraph(g, tm, CrystalVertex(x, h0), radius, reverse)
        full = np.stack(list(box.levels(w, pot)))
        hops = box.hops()
        k = data.draw(st.integers(0, int(hops[np.isfinite(hops)].max())))
        within = hops <= k
        for row, bounded in zip(full, box.levels(w, pot, max_hops=k)):
            np.testing.assert_array_equal(bounded[within], row[within])
        y = data.draw(st.sampled_from(g.vertices))
        h1 = tuple(c + data.draw(st.integers(-radius, radius)) for c in h0)
        at = box.index(y, h1)
        for row, dist in zip(w, full):
            for tree in (None, box.tree(row, pot, np.inf)):
                psi, counts = box.walk(row, pot, at, tree)
                assert psi == dist[at]
                if np.isfinite(psi):  # the counts form a walk of that weight
                    _assert_walk(g, tm, counts, x, h0, y, h1, reverse)
                    np.testing.assert_allclose(counts @ row, psi, rtol=0, atol=1e-9)


def _assert_walk(g, tm, counts, x, h0, y, h1, reverse):
    """Edge counts of a walk from (x, h0) to (y, h1), or into it if reverse:
    every vertex but the ends balances, and theta sums to the h difference."""
    if reverse:
        x, h0, y, h1 = y, h1, x, h0
    net = np.zeros(len(g.vertices), dtype=int)
    np.add.at(net, g.terminus_index, counts)
    np.subtract.at(net, g.origin_index, counts)
    want = np.zeros(len(g.vertices), dtype=int)
    want[g.vertices.index(y)] += 1
    want[g.vertices.index(x)] -= 1
    np.testing.assert_array_equal(net, want)
    np.testing.assert_array_equal(counts @ tm.matrix, np.subtract(h1, h0))


def _unbounded_dijkstra(monkeypatch):
    """Make every crystal search ignore its hop bound; counts the bounded
    searches it replaced."""
    bounded = []

    def unbounded(*args, limit=np.inf, **kw):
        bounded.append(np.isfinite(limit))
        return dijkstra(*args, **kw)

    monkeypatch.setattr(crystal, "dijkstra", unbounded)
    return bounded


def test_hop_bound_leaves_answers_unchanged(honeycomb_cos, drifted_loop,
                                            monkeypatch):
    """epsilon_solution and min_action give the same floats without the bound.

    On the drifted loop the minimizer of the zero datum sits near h = -2 t
    (speed H_eff'(0) = 2), more than half way to the edge of the search ball
    (R = 3.375 t + 1), so a bound that covers only part of the ball changes
    the answer.
    """
    cases = [
        (honeycomb_cos, ConeDatum(1.5), CrystalVertex("x1", (4, 2)), 1.0, 1 / 8),
        (drifted_loop, LinearDatum((0.0,)), CrystalVertex("v", (0,)), 2.0, 1 / 8),
        (drifted_loop, LinearDatum((0.0,)), CrystalVertex("v", (0,)), 1.0, 1 / 8),
    ]
    queries = [(honeycomb_cos, ActionQuery("x1", "x2", 16.0, (3, -2))),
               (drifted_loop, ActionQuery("v", "v", 8.0, (5,))),
               (drifted_loop, ActionQuery("v", "v", 4.0, (-3,)))]

    def answers():
        return ([epsilon_solution(*net, datum, z, t, eps)
                 for net, datum, z, t, eps in cases]
                + [min_action(*net, q) for net, q in queries])

    bounded = answers()
    replaced = _unbounded_dijkstra(monkeypatch)
    assert answers() == bounded
    assert sum(replaced) >= len(cases) + len(queries)


def _bfs_reach(g, tm, x, k_max, G, radius):
    """Largest |h_i| over the crystal vertices within k hops of (x, 0), for
    k = 0..k_max, by networkx BFS on G, the box of the given radius around 0;
    None if BFS reaches the box's outer layer, where a walk might leave it."""
    zero = (0,) * tm.betti
    hops = nx.single_source_shortest_path_length(G, (x, zero), cutoff=k_max)
    dh = {node: max(map(abs, node[1]), default=0) for node in hops}
    if max(dh.values()) >= radius:
        return None
    return [max(dh[node] for node, d in hops.items() if d <= k) for k in range(k_max + 1)]


def _assert_hop_reach(g, tm, k_max, sources):
    """``hop_reach`` at K = 0..k_max from each source vertex against BFS in a
    box one layer wider than the largest reach it claims."""
    got = {x: [crystal.hop_reach(g, tm, x, k, 10**6) for k in range(k_max + 1)]
           for x in sources}
    radius = max(r[-1] for r in got.values()) + 1
    G = _nx_box(g, tm, (0,) * tm.betti, radius)
    for x in sources:
        assert got[x] == _bfs_reach(g, tm, x, k_max, G, radius)


@pytest.mark.parametrize("network", ["honeycomb", "k4_mixed", "bouquet",
                                     "drifted_loop", "path_tree"])
def test_hop_reach_matches_bfs(request, network):
    """K = 0..20 from every vertex; the cap stops an unbounded K."""
    g, tm = request.getfixturevalue(network)[:2]
    _assert_hop_reach(g, tm, 20, g.vertices)
    assert crystal.hop_reach(g, tm, g.vertices[0], np.inf, 7) == (7 if tm.betti else 0)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), data=st.data())
def test_hop_reach_matches_bfs_on_random_networks(net, data):
    g, tm, _ = net
    _assert_hop_reach(g, tm, 5, [data.draw(st.sampled_from(g.vertices))])


def test_rim_check_raises_on_the_outer_layer(honeycomb_cos):
    """A rim-checked search raises once it settles a node with
    |h - h_s|_inf = r, and leaves a search that stays inside unchanged."""
    g, tm, profs = honeycomb_cos
    pot = crystal_potential(g, tm, profs)
    w = profs.sigma_all(profs.a0 + np.array([0.5])).T
    source = CrystalVertex("x1", (1, -2))
    checked = BoxGraph(g, tm, source, 3, reverse=True, rim_check=True)
    with pytest.raises(RimReached):
        list(checked.levels(w, pot))
    plain = BoxGraph(g, tm, source, 3, reverse=True)
    within = next(plain.levels(w, pot, max_hops=4))
    assert np.isinf(within[:, [0, -1], :]).all() and np.isinf(within[:, :, [0, -1]]).all()
    np.testing.assert_array_equal(next(checked.levels(w, pot, max_hops=4)), within)


def test_negative_box_radius_rejected(honeycomb):
    g, tm = honeycomb
    with pytest.raises(ValueError, match="negative"):
        BoxGraph(g, tm, CrystalVertex("x1", (0, 0)), -1)


def test_unknown_vertex_named(honeycomb):
    g, tm = honeycomb
    with pytest.raises(ValueError, match="'nope'"):
        BoxGraph(g, tm, CrystalVertex("nope", (0, 0)), 1)
    box = BoxGraph(g, tm, CrystalVertex("x1", (0, 0)), 1)
    with pytest.raises(ValueError, match="'nope'"):
        box.index("nope", (0, 0))


def test_honeycomb_uses_zero_potential(honeycomb_cos):
    pot = crystal_potential(*honeycomb_cos)
    assert not pot.d.any() and not pot.p.any()


class TestDriftedLoop:
    """Named regression fixture with H_eff(0) = a0 + 2 > a0."""

    def test_heff_above_a0(self, drifted_loop):
        g, tm, profs = drifted_loop
        assert profs["f"].sigma(profs.a0) == pytest.approx(-2.0, abs=1e-9)
        assert effective_hamiltonian(g, tm, profs, (0.0,)) == pytest.approx(
            profs.a0 + 2.0, abs=1e-7)

    def test_reduced_weights_nonnegative(self, drifted_loop):
        g, tm, profs = drifted_loop
        pot = crystal_potential(g, tm, profs)
        edges = sorted(g.edges)
        shift = pot.edge_shift(g, tm)
        for a in profs.a0 + np.array([0.0, 1e-6, 0.5, 4.0]):
            w = np.array([profs[e].sigma(a) for e in edges])
            assert (w + shift >= -1e-9 * (1 + np.abs(w).max())).all()
            assert (reduced_weights(w, shift) >= 0).all()

    def test_min_action_matches_oracle_sweep(self, drifted_loop):
        """min_action's cutting planes against the dual maximized by
        ``_concave_max`` over the distances of the label-correcting sweeps."""
        g, tm, profs = drifted_loop
        queries = [ActionQuery("v", "v", T, h) for T, h in
                   [(1.0, (0,)), (2.0, (3,)), (4.0, (-2,)), (8.0, (5,))]]
        got = [min_action(g, tm, profs, q) for q in queries]
        want = []
        for q in queries:
            at = (slice(None),) + BoxGraph(g, tm, CrystalVertex(q.x, (0,)),
                                           q.radius()).index(q.y, q.h)

            def dual(a):
                dist = sweep_weights(g, tm, profs.sigma_all([a]).T, q.x, q.radius())
                return float(dist[at][0]) - a * q.T

            want.append(_concave_max(dual, profs.a0)[0])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_single_node_distances(self, drifted_loop):
        g, tm, profs = drifted_loop
        box = BoxGraph(g, tm, CrystalVertex("v", (0,)), 4)
        pot = crystal_potential(g, tm, profs)
        assert pot.p.any()  # the unshift path is exercised
        a = profs.a0 + np.array([0.0, 0.3, 2.0])
        full = LiftedReach(box, profs, a, pot).dist
        w = np.stack([profs[e].sigma(a) for e in box.edges], axis=1)
        for h in [(0,), (3,), (-4,)]:
            at = box.index("v", h)
            for row, dist in zip(w, full):
                psi, counts = box.walk(row, pot, at)
                assert psi == dist[at]
                _assert_walk(g, tm, counts, "v", (0,), "v", h, False)

    def test_hop_bound_with_zero_reduced_weight(self, drifted_loop):
        """At a0 every reduced weight of the loop is 0 under a nonzero
        potential, so the bound is 0; the bounded search stays exact within
        2 arcs, and above a0 it leaves nodes beyond them unsettled."""
        g, tm, profs = drifted_loop
        pot = crystal_potential(g, tm, profs)
        w = profs.sigma_all(profs.a0 + np.array([0.0, 0.5])).T
        shift = pot.edge_shift(g, tm)
        assert not reduced_weights(w[0], shift).any()
        for reverse in (False, True):
            box = BoxGraph(g, tm, CrystalVertex("v", (0,)), 4, reverse)
            within = box.hops() <= 2
            full = np.stack(list(box.levels(w, pot)))
            bounded = np.stack(list(box.levels(w, pot, max_hops=2)))
            np.testing.assert_array_equal(bounded[:, within], full[:, within])
            assert np.isfinite(full).all() and np.isinf(bounded[1, ~within]).any()

    def test_negative_reduced_weight_raises(self, drifted_loop):
        g, tm, profs = drifted_loop
        box = BoxGraph(g, tm, CrystalVertex("v", (0,)), 3)
        zero = Potential(np.zeros(1), np.zeros(1))
        with pytest.raises(NegativeReducedWeight):
            LiftedReach(box, profs, [profs.a0], zero)


def test_reduced_weights_clamp_and_raise():
    w = np.array([3.0, 1.0])
    tol = 1e-9 * 4.0
    np.testing.assert_array_equal(reduced_weights(w, [-3.0 - 0.5 * tol, 0.0]),
                                  [0.0, 1.0])
    with pytest.raises(NegativeReducedWeight):
        reduced_weights(w, [-3.0 - 2 * tol, 0.0])
