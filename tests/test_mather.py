import gc
import itertools
import weakref

import numpy as np
import pytest

from hjnet import build_graph, mather, spanning_tree, theta_map
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles
from hjnet.errors import BoxExpansionLimit
from hjnet.homogenize import ConeDatum, limit_solution
from hjnet.mather import MatherSolver

from conftest import BOUQUET_SPEC
from oracles import beta_flow_oracle, conjugate_pair_check

NAN, INF = float("nan"), float("inf")


def _fresh(network):
    """The network with new profiles of the same models: a ladder at a0 alone."""
    g, tm, profs = network
    return g, tm, build_profiles(g, {e: profs[e].model for e in g.orientation})


class TestBetaConjugation:
    def test_bouquet_closed_form(self, bouquet_free):
        solver = MatherSolver(*bouquet_free)
        assert solver.beta((1.0, 1.0)) == pytest.approx(2.0, abs=1e-6)
        assert solver.beta((4.0, 0.0)) == pytest.approx(8.0, abs=1e-6)
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = rng.uniform(-2, 2, size=2)
            want = (abs(h[0]) + abs(h[1])) ** 2 / 2
            assert solver.beta(h) == pytest.approx(want, abs=1e-5)

    def test_beta_zero_is_minus_a0(self, bouquet_free, honeycomb_cos):
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            assert MatherSolver(g, tm, profs).beta(np.zeros(2)) == pytest.approx(
                -profs.a0, abs=1e-8)

    def test_beta_convex(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        solver = MatherSolver(g, tm, profs)
        rng = np.random.default_rng(14)
        for _ in range(10):
            h1, h2 = rng.uniform(-2, 2, size=(2, 2))
            mid = solver.beta((h1 + h2) / 2)
            assert mid <= (solver.beta(h1) + solver.beta(h2)) / 2 + 1e-6

    def test_beta_superlinear(self, bouquet_free):
        g, tm, profs = bouquet_free
        solver = MatherSolver(g, tm, profs)
        h = np.array([0.7, -0.4])
        ratios = [solver.beta(t * h) / t for t in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_box_expansion_limit(self, bouquet_free, monkeypatch):
        solver = MatherSolver(*bouquet_free)
        with monkeypatch.context() as m:
            m.setattr(mather, "_MAX_BOX_EXPANSIONS", 0)
            with pytest.raises(BoxExpansionLimit):
                solver.beta_batch([(4.0, 0.0)], search_box=0.5)
        with pytest.raises(ValueError):
            solver.beta_batch([(1.0, 0.0)], search_box=-1.0)

    @pytest.mark.parametrize("box", [np.nan, np.inf, 1e308])
    def test_search_box_must_stay_finite(self, bouquet_free, box):
        """A box that is not finite after every doubling is an input error."""
        with pytest.raises(ValueError, match="search_box must be positive"):
            MatherSolver(*bouquet_free).beta_batch([(1.0, 0.0)], search_box=box)


class TestFlowOracle:
    def test_bouquet_values(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert beta_flow_oracle(g, tm, profs, (1.0, 0.0)) == pytest.approx(
            0.5, abs=1e-3)
        assert beta_flow_oracle(g, tm, profs, (0.0, 0.0)) == pytest.approx(
            0.0, abs=1e-6)

    def test_flow_is_closed(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        solver = MatherSolver(g, tm, profs)
        val, flow = solver.flow_oracle((1.0, -1.0))
        assert flow.mass() == pytest.approx(1.0, abs=1e-8)
        assert flow.conservation_residual(g) < 1e-8
        assert np.allclose(flow.rotation(tm), (1.0, -1.0), atol=1e-8)

    def test_zero_rotation_pauses_on_critical_edge(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        val, flow = MatherSolver(g, tm, profs).flow_oracle((0.0, 0.0))
        assert val == pytest.approx(-profs.a0, abs=1e-8)
        assert sum(flow.flux.values()) == pytest.approx(0.0, abs=1e-9)

    def test_agreement_with_conjugation(self, bouquet_free, honeycomb_cos):
        rng = np.random.default_rng(8)
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            solver = MatherSolver(g, tm, profs)
            for _ in range(4):
                h = rng.uniform(-1.5, 1.5, size=2)
                assert solver.flow_oracle(h)[0] == pytest.approx(
                    solver.beta(h), abs=1e-3)

    def test_scaling_convexity(self, bouquet_free):
        g, tm, profs = bouquet_free
        solver = MatherSolver(g, tm, profs)
        v0 = solver.flow_oracle((0.0, 0.0))[0]
        v1 = solver.flow_oracle((1.0, 0.0))[0]
        v2 = solver.flow_oracle((2.0, 0.0))[0]
        assert v1 <= (v0 + v2) / 2 + 1e-6

    def test_rejects_large_graphs(self):
        spec = {"vertices": ["v"],
                "edges": [{"id": f"f{i}", "from": "v", "to": "v"}
                          for i in range(9)]}
        from hjnet import build_graph, spanning_tree, theta_map
        g = build_graph(spec)
        tm = theta_map(g, spanning_tree(g))
        profs = build_profiles(g, {e: QuadraticEdgeModel()
                                   for e in g.orientation})
        with pytest.raises(ValueError):
            beta_flow_oracle(g, tm, profs, (1.0,) * 9)


class TestConjugatePairs:
    def test_trivial_pair(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert conjugate_pair_check(g, tm, profs, (0.0, 0.0), (0.0, 0.0))

    def test_bouquet_pairs(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert conjugate_pair_check(g, tm, profs, (1.0, 0.0), (1.0, 0.0))
        assert not conjugate_pair_check(g, tm, profs, (1.0, 0.0), (0.0, 1.0))


def conjugate_of_beta(solver, p, box=12.0, levels=16):
    """Numerical biconjugation sup_h <p,h> - beta(h), refined on a grid."""
    p = np.asarray(p, dtype=float)
    center = np.zeros(p.size)
    hw = box
    best = -np.inf
    for _ in range(levels):
        axes = [np.linspace(center[i] - hw, center[i] + hw, 7)
                for i in range(p.size)]
        H = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.size)
        vals = H @ p - solver.beta_batch(H, polish=False, levels=16)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        center = H[i]
        hw /= 2.0
    return best


def test_duality_round_trip(bouquet_free, honeycomb_cos):
    rng = np.random.default_rng(77)
    for g, tm, profs in (bouquet_free, honeycomb_cos):
        solver = MatherSolver(g, tm, profs)
        for _ in range(2):
            p = rng.uniform(-1.5, 1.5, size=2)
            assert conjugate_of_beta(solver, p) == pytest.approx(
                solver.alpha(p), abs=1e-3)


def test_drifted_model_duality(honeycomb):
    """alpha/beta stay conjugate when reversal asymmetry is active."""
    g, tm = honeycomb
    profs = build_profiles(g, {
        "e0": QuadraticEdgeModel(drift=TrigPoly(const=0.4)),
        "e1": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.3,))),
        "e2": QuadraticEdgeModel()})
    solver = MatherSolver(g, tm, profs)
    for h in [(1.0, 0.0), (-0.5, 0.8)]:
        assert solver.flow_oracle(h)[0] == pytest.approx(solver.beta(h), abs=1e-3)


def test_answers_independent_of_query_history(honeycomb_cos):
    """The sigma ladder only appends, so earlier queries never move answers."""
    rng = np.random.default_rng(5)
    P = rng.uniform(-2, 2, size=(50, 2))
    H = rng.uniform(-3, 3, size=(8, 2))

    def answers(solver, order):
        batch = solver.alpha_batch(P)
        alphas = {i: solver.alpha(H[i]) for i in order}
        betas = {i: solver.beta(H[i]) for i in order}
        return batch.tolist(), alphas, betas

    solver = MatherSolver(*_fresh(honeycomb_cos))
    first = answers(solver, range(8))
    solver.beta((6.0, 5.0))
    assert answers(solver, range(8)) == first

    solver = MatherSolver(*_fresh(honeycomb_cos))
    betas = {i: solver.beta(H[i]) for i in reversed(range(8))}
    alphas = {i: solver.alpha(H[i]) for i in reversed(range(8))}
    assert (solver.alpha_batch(P).tolist(), alphas, betas) == first


def test_flow_oracle_on_fresh_solver(honeycomb_cos):
    solver = MatherSolver(*_fresh(honeycomb_cos))
    assert abs(solver.flow_oracle((2.0, 2.0))[0] - solver.beta((2.0, 2.0))) <= 1e-3


def test_lagrangian_grid_is_certified(honeycomb_cos):
    """Flow-LP costs are max over a >= a0 of q sigma(e, a) - a, to 1e-6.

    That is the edge Lagrangian wherever its maximizing level lies above a0,
    and q sigma(e, a0) - a0 below; the grid never truncates at the top.
    """
    solver = MatherSolver(*_fresh(honeycomb_cos))
    a0 = solver.a0
    speeds = np.array([0.0, 0.3, 1.0, 2.0, 4.0, 8.0, 12.0])
    grid = solver._lagrangian_grid(speeds)
    for j, e in enumerate(solver.g.edge_order):
        prof = solver.profiles[e]
        for q, cost in zip(speeds, grid[j]):
            slope_at_a0 = q * (prof.sigma(a0 + 1e-7) - prof.sigma(a0)) / 1e-7 - 1
            want = (prof.lagrangian(q) if q == 0 or slope_at_a0 > 0
                    else q * prof.sigma(a0) - a0)
            assert cost == pytest.approx(want, abs=1e-6)


def test_beta_batch_rows_independent(honeycomb_cos, monkeypatch):
    """Each beta_batch row is bit-identical to beta of that row alone."""
    rng = np.random.default_rng(21)
    # |h| near 6 keeps the maximizer on the default box: those rows expand
    H = np.concatenate([[[6.0, 0.5], [-5.8, 6.1], [0.0, 0.0]],
                        rng.uniform(-2, 2, size=(5, 2))])
    solver = MatherSolver(*_fresh(honeycomb_cos))
    for polish in (True, False):
        want = [solver.beta_batch(h[None], polish=polish)[0] for h in H]
        order = rng.permutation(len(H))
        assert solver.beta_batch(H, polish=polish).tolist() == want
        assert solver.beta_batch(H[order], polish=polish).tolist() == [
            want[i] for i in order]
    assert [solver.beta(h) for h in H] == solver.beta_batch(H).tolist()
    with monkeypatch.context() as m:
        m.setattr(mather, "_MAX_BOX_EXPANSIONS", 0)
        with pytest.raises(BoxExpansionLimit):
            solver.beta_batch(H)
    with pytest.raises(ValueError):
        solver.beta_batch(H, search_box=0.0)

    # b = 3: a batch of 3 x 9^3 grid rows per level crosses chunk boundaries
    g = build_graph({"vertices": list("abcd"),
                     "edges": [{"id": f"k{u}{v}", "from": u, "to": v}
                               for u, v in itertools.combinations("abcd", 2)]})
    tm = theta_map(g, spanning_tree(g))
    drift = {"kab": 0.25, "kbc": -0.15, "kcd": 0.4}
    solver = MatherSolver(g, tm, build_profiles(g, {
        e: QuadraticEdgeModel(drift=TrigPoly(const=drift.get(e, 0.0)),
                              potential=TrigPoly(cos=(-0.5,)))
        for e in g.orientation}))
    H = rng.uniform(-1, 1, size=(3, 3))
    want = [solver.beta(h) for h in H]
    monkeypatch.setattr(mather, "_ROW_CHUNK", 500)
    assert solver.beta_batch(H).tolist() == want

    # b = 0: a tree, beta = -alpha = -a0 on every row
    g = build_graph({"vertices": ["u", "w"],
                     "edges": [{"id": "t", "from": "u", "to": "w"}]})
    profs = build_profiles(g, {"t": QuadraticEdgeModel(
        potential=TrigPoly(cos=(-1.0,)))})
    solver = MatherSolver(g, theta_map(g, spanning_tree(g)), profs)
    assert solver.beta_batch(np.zeros((2, 0))).tolist() == [-profs.a0] * 2
    assert solver.beta(()) == -profs.a0


def test_network_is_freed_after_use():
    """No module keeps a network alive once its caller drops it."""
    g = build_graph(BOUQUET_SPEC)
    tm = theta_map(g, spanning_tree(g))
    profs = build_profiles(g, {e: QuadraticEdgeModel() for e in g.orientation})
    limit_solution(g, tm, profs, ConeDatum(1.0), (0.5, 0.25), 1.0)
    refs = [weakref.ref(x) for x in (g, tm, profs)]
    del g, tm, profs
    gc.collect()  # scipy's brentq wraps its objective in a collectable cycle
    assert [r() for r in refs] == [None, None, None]


def test_solvers_share_the_ladder(honeycomb_cos):
    """A solver reads the ladder that another solver on its profiles grew,
    and answers as a solver alone on its profiles does."""
    P = np.random.default_rng(3).uniform(-2, 2, size=(20, 2))
    g, tm, profs = _fresh(honeycomb_cos)
    one, other = MatherSolver(g, tm, profs), MatherSolver(g, tm, profs)
    first = one.alpha_batch(P).tolist()
    levels = profs.ladder_a.size
    other.alpha_batch([[6.0, 5.0]])
    assert profs.ladder_a.size > levels
    alone = MatherSolver(*_fresh(honeycomb_cos))
    assert one.alpha_batch(P).tolist() == alone.alpha_batch(P).tolist() == first
    assert [one.alpha(p) for p in P[:4]] == [alone.alpha(p) for p in P[:4]]
    assert one.beta((1.0, -0.5)) == alone.beta((1.0, -0.5))


@pytest.mark.parametrize("method, arg, name", [
    ("beta_batch", [[NAN, 0.25]], "H"), ("beta_batch", [[INF, 0.25]], "H"),
    ("alpha", (NAN, 0.0), "p"), ("alpha", (INF, 0.0), "p"),
    ("alpha_batch", [[NAN, 0.0]], "P"), ("alpha_batch", [[INF, 0.0]], "P"),
], ids=["beta_batch-nan", "beta_batch-inf", "alpha-nan", "alpha-inf",
        "alpha_batch-nan", "alpha_batch-inf"])
def test_rejects_non_finite_input(honeycomb_cos, method, arg, name):
    """Before the ladder grows by a block."""
    g, tm, profs = _fresh(honeycomb_cos)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        getattr(MatherSolver(g, tm, profs), method)(arg)
    assert profs.ladder_a.size == 1
