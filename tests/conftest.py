import pytest

from hjnet import build_graph, spanning_tree, theta_map
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles

HONEYCOMB_SPEC = {
    "vertices": ["x1", "x2"],
    "edges": [
        {"id": "e0", "from": "x1", "to": "x2"},
        {"id": "e1", "from": "x1", "to": "x2"},
        {"id": "e2", "from": "x1", "to": "x2"},
    ],
}

BOUQUET_SPEC = {
    "vertices": ["v"],
    "edges": [
        {"id": "f1", "from": "v", "to": "v"},
        {"id": "f2", "from": "v", "to": "v"},
    ],
}


@pytest.fixture(scope="session")
def honeycomb():
    g = build_graph(HONEYCOMB_SPEC)
    tm = theta_map(g, spanning_tree(g))
    return g, tm


@pytest.fixture(scope="session")
def bouquet():
    g = build_graph(BOUQUET_SPEC)
    tm = theta_map(g, spanning_tree(g))
    return g, tm


@pytest.fixture(scope="session")
def bouquet_free(bouquet):
    """2-bouquet with the free quadratic Hamiltonian on both loops."""
    g, tm = bouquet
    profiles = build_profiles(g, {e: QuadraticEdgeModel() for e in g.orientation})
    return g, tm, profiles


@pytest.fixture(scope="session")
def honeycomb_free(honeycomb):
    g, tm = honeycomb
    profiles = build_profiles(g, {e: QuadraticEdgeModel() for e in g.orientation})
    return g, tm, profiles


@pytest.fixture(scope="session")
def honeycomb_cos(honeycomb):
    """Honeycomb with the unit cosine potential on edge e0."""
    g, tm = honeycomb
    models = {
        "e0": QuadraticEdgeModel(potential=TrigPoly(cos=(-1.0,))),
        "e1": QuadraticEdgeModel(),
        "e2": QuadraticEdgeModel(),
    }
    return g, tm, build_profiles(g, models)


@pytest.fixture(scope="session")
def drifted_loop():
    """One-loop bouquet, H = rho^2/2 + 2 rho: sigma(f, a0) = -2, H_eff(0) = a0 + 2."""
    g = build_graph({"vertices": ["v"],
                     "edges": [{"id": "f", "from": "v", "to": "v"}]})
    tm = theta_map(g, spanning_tree(g))
    profiles = build_profiles(g, {"f": QuadraticEdgeModel(drift=TrigPoly(const=2.0))})
    return g, tm, profiles
