"""The crystal shortest-path engine against independent references.

Reaches (Dijkstra on a Johnson-reweighted box) are compared with the
label-correcting sweeps of ``oracles.sweep_reach``; graph distances with
networkx BFS on a materialized box.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjnet import action, build_graph, spanning_tree, theta_map
from hjnet.action import ActionQuery, LiftedReach, crystal_potential, min_action
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import (BoxGraph, Crystal, CrystalVertex, Potential,
                           reduced_weights)
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles
from hjnet.errors import NegativeReducedWeight

from oracles import sweep_reach


@st.composite
def networks(draw):
    """Connected multigraphs on 1-4 vertices with self-loops, multi-edges and
    drifted quadratic models (sigma < 0 where the drift dominates)."""
    n_v = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n_v)]
    ends = []
    for i in range(1, n_v):
        j = draw(st.integers(0, i - 1))
        ends.append((vertices[i], vertices[j]) if draw(st.booleans())
                    else (vertices[j], vertices[i]))
    for _ in range(draw(st.integers(1 if n_v == 1 else 0, 3))):
        ends.append((draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))))
    g = build_graph({"vertices": vertices,
                     "edges": [{"id": f"e{k}", "from": u, "to": v}
                               for k, (u, v) in enumerate(ends)]})
    # sigma(e, a0) < 0 needs a drift on every edge, so drifts come as a set
    drifted = draw(st.booleans())
    models = {}
    for e in g.orientation:
        drift = (draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1, 1]))
                 if drifted else draw(st.floats(-0.3, 0.3)))
        models[e] = QuadraticEdgeModel(
            kappa=draw(st.sampled_from([0.5, 1.0, 2.0])), drift=TrigPoly(const=drift),
            potential=TrigPoly(cos=(draw(st.floats(-0.5, 0.5)),)))
    return g, theta_map(g, spanning_tree(g)), build_profiles(g, models)


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
        shift = pot.edge_shift(g, tm, edges)
        for a in profs.a0 + np.array([0.0, 1e-6, 0.5, 4.0]):
            w = np.array([profs[e].sigma(a) for e in edges])
            assert (w + shift >= -1e-9 * (1 + np.abs(w).max())).all()
            assert (reduced_weights(w, shift) >= 0).all()

    def test_min_action_matches_oracle_sweep(self, drifted_loop, monkeypatch):
        g, tm, profs = drifted_loop

        class SweepReach:
            def __init__(self, box, profiles, a_values, potential=None):
                self.box = box
                self.dist = sweep_reach(box.g, box.tm, profiles, box.source.base,
                                        box.source.h, box.radius, a_values,
                                        reverse=box.reverse)

            def at(self, vertex, h):
                return self.dist[(slice(None),) + self.box.index(vertex, h)]

        queries = [ActionQuery("v", "v", T, h) for T, h in
                   [(1.0, (0,)), (2.0, (3,)), (4.0, (-2,)), (8.0, (5,))]]
        got = [min_action(g, tm, profs, q) for q in queries]
        monkeypatch.setattr(action, "LiftedReach", SweepReach)
        want = [min_action(g, tm, profs, q) for q in queries]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

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
