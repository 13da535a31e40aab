import itertools

import pytest
from hypothesis import strategies as st

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
def honeycomb_cos_quarter(honeycomb):
    """Honeycomb with a quarter-amplitude cosine potential on e0.

    Small enough that a moderately steep datum pulls the homogenized
    minimizer into genuine motion (the flat region of the effective
    Hamiltonian does not swallow the datum's slopes).
    """
    g, tm = honeycomb
    models = {"e0": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.25,))),
              "e1": QuadraticEdgeModel(), "e2": QuadraticEdgeModel()}
    return g, tm, build_profiles(g, models)


@pytest.fixture(scope="session")
def k4_drift():
    """K4 (b = 3) with drift 1 on every edge: sigma(e, a0) = -1 < 0."""
    g = build_graph({"vertices": list("abcd"),
                     "edges": [{"id": f"k{u}{v}", "from": u, "to": v}
                               for u, v in itertools.combinations("abcd", 2)]})
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {e: QuadraticEdgeModel(drift=TrigPoly(const=1.0))
                               for e in g.orientation})
    return g, tm, profs


@pytest.fixture(scope="session")
def k4_mixed():
    """Sunada's K4 crystal (b = 3) with the benchmark's drifts and potentials."""
    g = build_graph({"vertices": list("abcd"),
                     "edges": [{"id": f"k{u}{v}", "from": u, "to": v}
                               for u, v in itertools.combinations("abcd", 2)]})
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {
        "kab": QuadraticEdgeModel(drift=TrigPoly(const=0.25)),
        "kac": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.5,))),
        "kad": QuadraticEdgeModel(),
        "kbc": QuadraticEdgeModel(drift=TrigPoly(sin=(0.2,))),
        "kbd": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.25,))),
        "kcd": QuadraticEdgeModel(drift=TrigPoly(const=-0.15),
                                  potential=TrigPoly(sin=(0.2,)))})
    return g, tm, profs


@pytest.fixture(scope="session")
def drifted_loop():
    """One-loop bouquet, H = rho^2/2 + 2 rho: sigma(f, a0) = -2, H_eff(0) = a0 + 2."""
    g = build_graph({"vertices": ["v"],
                     "edges": [{"id": "f", "from": "v", "to": "v"}]})
    tm = theta_map(g, spanning_tree(g))
    profiles = build_profiles(g, {"f": QuadraticEdgeModel(drift=TrigPoly(const=2.0))})
    return g, tm, profiles


@pytest.fixture(scope="session")
def path_tree():
    """The path a-b-c-d-e (b = 0), drifted, with a potential on its last edge."""
    g = build_graph({"vertices": list("abcde"),
                     "edges": [{"id": f"t{i}", "from": u, "to": v}
                               for i, (u, v) in enumerate(["ab", "bc", "cd", "de"])]})
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {e: QuadraticEdgeModel(
        drift=TrigPoly(const=1.5), potential=TrigPoly(cos=(-0.5 if e == "t3" else 0.0,)))
        for e in g.orientation})
    return g, tm, profs


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
