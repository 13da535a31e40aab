import numpy as np
import pytest

from hjnet import Path, action, build_graph, crystal, spanning_tree, theta_map
from hjnet.action import (ActionQuery, LiftedReach, _dual_max, asymptotics_scan,
                          crystal_potential, min_action, path_action)
from hjnet.crystal import BoxGraph, CrystalVertex
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles
from hjnet.errors import BudgetExceeded, Unreachable

from oracles import allocation_grid_action, min_action_exact_oracle

INF = float("inf")


@pytest.fixture(scope="module")
def mixed_path_graph():
    """x -- y -- z chain; stiff free edge, then a cosine-potential edge."""
    g = build_graph({"vertices": ["x", "y", "z"],
                     "edges": [{"id": "exy", "from": "x", "to": "y"},
                               {"id": "eyz", "from": "y", "to": "z"}]})
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {
        "exy": QuadraticEdgeModel(kappa=4.0),
        "eyz": QuadraticEdgeModel(potential=TrigPoly(cos=(-1.0,)))})
    return g, tm, profs


class TestPathAction:
    def test_single_edge_closed_form(self, bouquet_free):
        _, _, profs = bouquet_free
        assert path_action(profs, Path(("f1",)), 2.0) == pytest.approx(
            0.25, abs=1e-9)
        assert path_action(profs, Path(("f1",)), 1.0) == pytest.approx(
            0.5, abs=1e-9)

    def test_equals_edge_action(self, honeycomb_cos):
        _, _, profs = honeycomb_cos
        for T in [0.4, 1.0, 3.0]:
            assert path_action(profs, Path(("e0",)), T) == pytest.approx(
                profs["e0"].action(T), abs=1e-7)

    def test_allocation_oracle_three_edges(self, honeycomb_cos):
        g, _, profs = honeycomb_cos
        support = ("e1", "e0~", "e2")
        T = 1.0
        got = path_action(profs, Path(support), T)
        want = allocation_grid_action(profs, support, T, n=400)
        assert got == pytest.approx(want, abs=2e-3)

    def test_rejects_bad_input(self, bouquet_free):
        _, _, profs = bouquet_free
        with pytest.raises(ValueError):
            path_action(profs, Path(()), 1.0)
        for T in (0.0, float("nan")):
            with pytest.raises(ValueError, match="T must be positive"):
                path_action(profs, Path(("f1",)), T)


class TestMinAction:
    def test_rejects_nan_horizon(self, bouquet_free):
        with pytest.raises(ValueError, match="T must be positive"):
            min_action(*bouquet_free, ActionQuery("v", "v", float("nan"), (0, 0)))

    def test_bouquet_loop(self, bouquet_free):
        g, tm, profs = bouquet_free
        q = ActionQuery("v", "v", 8.0, (4, 0))
        assert min_action(g, tm, profs, q) == pytest.approx(1.0, abs=1e-8)

    def test_pause_beats_motion(self, bouquet_free):
        g, tm, profs = bouquet_free
        for T in [1.0, 5.0]:
            q = ActionQuery("v", "v", T, (0, 0))
            assert min_action(g, tm, profs, q) == pytest.approx(0.0, abs=1e-10)

    def test_matches_beta_scaling(self, bouquet_free):
        g, tm, profs = bouquet_free
        phi = min_action(g, tm, profs, ActionQuery("v", "v", 8.0, (4, 0)))
        assert phi / 8.0 == pytest.approx(0.125, abs=1e-9)

    def test_single_edge_graph(self):
        g = build_graph({"vertices": ["a", "b"],
                         "edges": [{"id": "e", "from": "a", "to": "b"}]})
        tm = theta_map(g, spanning_tree(g))
        profs = build_profiles(g, {"e": QuadraticEdgeModel()})
        for T in [0.5, 1.0, 2.0]:
            got = min_action(g, tm, profs, ActionQuery("a", "b", T, ()))
            assert got == pytest.approx(profs["e"].action(T), abs=1e-8)

    def test_unreachable(self, bouquet_free):
        g, tm, profs = bouquet_free
        with pytest.raises(Unreachable):
            min_action(g, tm, profs,
                       ActionQuery("v", "v", 1.0, (4, 0), rotation_radius=3))

    def test_subadditive(self, bouquet_free):
        g, tm, profs = bouquet_free
        rng = np.random.default_rng(4)
        for _ in range(8):
            h1 = tuple(int(k) for k in rng.integers(-2, 3, size=2))
            h2 = tuple(int(k) for k in rng.integers(-2, 3, size=2))
            T1, T2 = rng.uniform(0.5, 3.0, size=2)
            h12 = tuple(a + b for a, b in zip(h1, h2))
            lhs = min_action(g, tm, profs,
                             ActionQuery("v", "v", T1 + T2, h12))
            rhs = (min_action(g, tm, profs, ActionQuery("v", "v", T1, h1))
                   + min_action(g, tm, profs, ActionQuery("v", "v", T2, h2)))
            assert lhs <= rhs + 1e-7


def test_psi_concave_in_a(honeycomb_cos):
    g, tm, profs = honeycomb_cos
    a = profs.a0 + np.linspace(1e-3, 5.0, 15)  # uniform grid for midpoint checks
    reach = LiftedReach(BoxGraph(g, tm, CrystalVertex("x1", (0, 0)), 5), profs, a)
    psi = reach.at("x2", (2, 1))
    assert np.isfinite(psi).all()
    assert (psi[1:-1] >= (psi[:-2] + psi[2:]) / 2 - 1e-10).all()


DENSE_GRID_CASES = [
    ("honeycomb_cos", "x1", "x2", 16.0, (7, 3)),
    ("honeycomb_cos", "x1", "x1", 5.0, (-1, 2)),
    ("k4_drift", "a", "b", 8.0, (-2, 0, -3)),
    ("k4_drift", "c", "c", 6.0, (1, 1, 0)),
]


def _grid_dual_max(g, tm, profs, q, top, n=101, rounds=8):
    """Max of Psi_a - a T over level grids of a LiftedReach on min_action's
    box: n levels on [a0, top], then n levels between the neighbours of the
    best level, ``rounds`` times.  The dual is concave, so each bracket
    holds its maximizer."""
    reach_box = BoxGraph(g, tm, CrystalVertex(q.x, (0,) * tm.betti), q.radius())
    lo, hi, best = profs.a0, top, -np.inf
    for k in range(rounds):
        a = np.linspace(lo, hi, n)
        vals = LiftedReach(reach_box, profs, a).at(q.y, q.h) - a * q.T
        i = int(np.argmax(vals))
        assert k or i < n - 1  # the first grid brackets the maximizer
        best = max(best, float(vals[i]))
        lo, hi = a[max(i - 1, 0)], a[min(i + 1, n - 1)]
    return best


@pytest.mark.parametrize("network, x, y, T, h", DENSE_GRID_CASES)
def test_min_action_matches_dense_level_grid(request, network, x, y, T, h):
    g, tm, profs = request.getfixturevalue(network)
    q = ActionQuery(x, y, T, h)
    got = min_action(g, tm, profs, q)
    assert got == pytest.approx(_grid_dual_max(g, tm, profs, q, profs.a0 + 16.0),
                                abs=1e-9)


def test_min_action_needs_few_searches(request, monkeypatch):
    """The cutting planes certify the dual in a few weighted box searches
    (about 28 with Brent on the dual itself)."""
    searches, dijkstra = [], crystal.dijkstra

    def counted(*args, **kw):
        searches.append(not kw.get("unweighted", False))
        return dijkstra(*args, **kw)

    monkeypatch.setattr(crystal, "dijkstra", counted)
    for network, x, y, T, h in DENSE_GRID_CASES:
        searches.clear()
        min_action(*request.getfixturevalue(network), ActionQuery(x, y, T, h))
        assert 2 <= sum(searches) <= 4


@pytest.fixture(scope="module")
def two_route_graph():
    """The loop L at y, reached from x over the edge a or over b, c: on the
    walks from (x, 0) to (x, theta(L)) the route over a is the dearer at a0
    and the flatter in a, so at T = 3 the dual peaks where the two tie."""
    g = build_graph({"vertices": ["x", "y", "w"],
                     "edges": [{"id": "a", "from": "x", "to": "y"},
                               {"id": "b", "from": "x", "to": "w"},
                               {"id": "c", "from": "w", "to": "y"},
                               {"id": "L", "from": "y", "to": "y"}]})
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {"a": QuadraticEdgeModel(potential=TrigPoly(const=-1.0)),
                               "b": QuadraticEdgeModel(), "c": QuadraticEdgeModel(),
                               "L": QuadraticEdgeModel()})
    return g, tm, profs


def test_dual_max_at_a_tie_of_two_walks(two_route_graph, monkeypatch):
    g, tm, profs = two_route_graph
    q = ActionQuery("x", "x", 3.0, tuple(tm.theta["L"]))
    walks, walk = [], BoxGraph.walk

    def spied(box, *args):
        out = walk(box, *args)
        walks.append(tuple(out[1]))
        return out

    monkeypatch.setattr(BoxGraph, "walk", spied)
    got = min_action(g, tm, profs, q)
    assert len(set(walks)) == 2
    assert got == pytest.approx(_grid_dual_max(g, tm, profs, q, profs.a0 + 16.0),
                                abs=1e-9)


def test_dual_max_search_cap(two_route_graph, monkeypatch):
    q = ActionQuery("x", "x", 3.0, tuple(two_route_graph[1].theta["L"]))
    monkeypatch.setattr(action, "_DUAL_SEARCHES", 1)
    with pytest.raises(BudgetExceeded, match="each of 1 dual searches"):
        min_action(*two_route_graph, q)


def _dual_and_walk(g, tm, profs, q):
    """``_dual_max`` on min_action's box: the dual and its last walk's support."""
    box = BoxGraph(g, tm, CrystalVertex(q.x, (0,) * tm.betti), q.radius())
    value, counts = _dual_max(box, profs, crystal_potential(g, tm, profs),
                              box.index(q.y, q.h), q.T, 1.0)
    return value, Path(tuple(np.repeat(box.edges, counts)))


def test_last_walk_bounds_the_action_from_above(bouquet_free, honeycomb_cos,
                                                mixed_path_graph):
    """path_action on the last walk's support is a primal bound: never below
    min_action, on the fixtures of criteria 6 and 9."""
    cases = ([(bouquet_free, ActionQuery("v", "v", 8.0, (4, 0)))]
             + [(bouquet_free, ActionQuery("v", "v", T, (2, 1)))
                for T in (2.0, 4.0, 8.0, 16.0)]
             + [(honeycomb_cos, ActionQuery("x1", "x2", T, (int(0.45 * T), int(0.2 * T))))
                for T in (8.0, 16.0, 32.0, 64.0)])
    for net, q in cases:
        value, support = _dual_and_walk(*net, q)
        assert value == pytest.approx(min_action(*net, q), abs=1e-12)
        assert path_action(net[2], support, q.T) >= value - 1e-12
    # the chain's closed walk x -> x is empty: its primal needs the detour
    # that the criterion-9 constant measures
    _, support = _dual_and_walk(*mixed_path_graph, ActionQuery("x", "x", 8.0, ()))
    assert not support.edges


@pytest.mark.parametrize("h", [(2,), (2, 1, 0)], ids=["short", "long"])
def test_wrong_length_h_rejected(honeycomb_cos, h):
    with pytest.raises(ValueError, match="rotation vector h must have b = 2"):
        min_action(*honeycomb_cos, ActionQuery("x1", "x2", 8.0, h))
    with pytest.raises(ValueError, match="h_direction must have b = 2"):
        asymptotics_scan(*honeycomb_cos, "x1", "x2", h, [8.0])


class TestExactOracle:
    def test_single_edge(self):
        g = build_graph({"vertices": ["a", "b"],
                         "edges": [{"id": "e", "from": "a", "to": "b"}]})
        tm = theta_map(g, spanning_tree(g))
        profs = build_profiles(g, {"e": QuadraticEdgeModel()})
        q = ActionQuery("a", "b", 2.0, ())
        assert min_action_exact_oracle(g, tm, profs, q, edge_cap=5) == pytest.approx(
            0.25, abs=1e-9)

    def test_pause_optimal(self, bouquet_free):
        g, tm, profs = bouquet_free
        q = ActionQuery("v", "v", 3.0, (0, 0))
        assert min_action_exact_oracle(g, tm, profs, q, edge_cap=4) == pytest.approx(
            0.0, abs=1e-10)

    def test_dual_bound_with_stable_constant(self, mixed_path_graph):
        g, tm, profs = mixed_path_graph
        cs = []
        for T in [2.0, 4.0, 8.0, 16.0]:
            q = ActionQuery("x", "x", T, ())
            dual = min_action(g, tm, profs, q)
            exact = min_action_exact_oracle(g, tm, profs, q, edge_cap=8)
            assert dual <= exact + 1e-9
            cs.append(exact - dual)
        # the detour construction: pause at y via the stiff edge, cost 2 sigma
        assert cs[-1] == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert max(cs) - min(cs) <= 0.1 * max(cs) + 1e-12

    def test_random_tiny_queries_bounded(self, bouquet_free):
        g, tm, profs = bouquet_free
        rng = np.random.default_rng(6)
        for _ in range(5):
            h = tuple(int(k) for k in rng.integers(-2, 3, size=2))
            T = float(rng.uniform(1.0, 4.0))
            q = ActionQuery("v", "v", T, h)
            dual = min_action(g, tm, profs, q)
            exact = min_action_exact_oracle(g, tm, profs, q, edge_cap=6)
            assert dual <= exact + 1e-9
            assert exact - dual <= 1e-7  # homogeneous bouquet: no gap


def _between(g, tm, profs, z1, z2, T):
    """Minimal action between two crystal vertices: their h difference."""
    h = tuple(b - a for a, b in zip(z1.h, z2.h))
    return min_action(g, tm, profs, ActionQuery(z1.base, z2.base, T, h))


class TestNetworkMinAction:
    def test_projection_identity(self, bouquet_free):
        g, tm, profs = bouquet_free
        z1 = CrystalVertex("v", (0, 0))
        z2 = CrystalVertex("v", (4, 0))
        assert _between(g, tm, profs, z1, z2, 8.0) == pytest.approx(1.0, abs=1e-8)

    def test_translation_invariance(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        z1 = CrystalVertex("x1", (0, 0))
        z2 = CrystalVertex("x2", (2, 1))
        base = _between(g, tm, profs, z1, z2, 3.0)
        for shift in [(1, -2), (-3, 4)]:
            w1 = CrystalVertex("x1", (shift[0], shift[1]))
            w2 = CrystalVertex("x2", (2 + shift[0], 1 + shift[1]))
            assert _between(g, tm, profs, w1, w2, 3.0) == pytest.approx(
                base, abs=1e-10)


class TestAsymptoticsScan:
    def test_homogeneous_exact(self, bouquet_free):
        g, tm, profs = bouquet_free
        rows = asymptotics_scan(g, tm, profs, "v", "v", (0.5, 0.0),
                                [2, 4, 8])
        for r in rows:
            assert r.deviation < 1e-8

    def test_zero_direction(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        rows = asymptotics_scan(g, tm, profs, "x1", "x2", (0.0, 0.0),
                                [8, 16, 32])
        devs = [r.deviation for r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        # phi/T -> beta(0) = -a0 at rate ~ sigma(e0, a0)/T
        assert devs[-1] == pytest.approx(profs["e0"].b_e / 32, abs=1e-3)

    def test_row_schema(self, bouquet_free):
        g, tm, profs = bouquet_free
        rows = asymptotics_scan(g, tm, profs, "v", "v", (0.3, 0.1), [2, 4])
        assert rows[0].h == (0, 0) and rows[1].h == (1, 0)
        for r in rows:
            assert r.deviation == pytest.approx(abs(r.phi_over_T - r.beta))


def test_path_action_rejects_infinite_time(bouquet_free):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        path_action(bouquet_free[2], Path(("f1",)), INF)


def test_min_action_rejects_infinite_time(honeycomb_cos):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        min_action(*honeycomb_cos, ActionQuery("x1", "x2", INF, (1, 0)))


@pytest.mark.parametrize("h", [(1.9, 0), (1.5, 0), (float("nan"), 0)],
                         ids=["1.9", "1.5", "nan"])
def test_query_rejects_non_integer_h(h):
    """A truncated h would be solved as another rotation vector."""
    with pytest.raises(ValueError, match="h must"):
        ActionQuery("x1", "x2", 8.0, h)


@pytest.mark.parametrize("direction, T_list", [((0.5, 0.25), (4.0, INF)),
                                               ((float("nan"), 0.25), (4.0,))],
                         ids=["T-inf", "direction-nan"])
def test_asymptotics_scan_rejects_non_finite_input(honeycomb_cos, direction, T_list):
    with pytest.raises(ValueError, match="finite"):
        asymptotics_scan(*honeycomb_cos, "x1", "x2", direction, T_list)


@pytest.mark.parametrize("radius", [-1, 2.5, float("nan")], ids=["negative", "fractional", "nan"])
def test_query_rejects_bad_rotation_radius(radius):
    """-1 was read as an unreachable h and 2.5 as the box of radius 2."""
    with pytest.raises(ValueError, match="rotation_radius must"):
        ActionQuery("x1", "x2", 8.0, (0, 0), rotation_radius=radius)
