import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjnet import build_graph, mather, spanning_tree, theta_map
from hjnet.crystal import CrystalVertex
from hjnet.edge_calculus import (QuadraticEdgeModel, TabulatedEdgeModel, TrigPoly,
                                 _increasing_root, build_profiles)
from hjnet.errors import BudgetExceeded, ConvergenceFailure
from hjnet.homogenize import ConeDatum, _reach_scales, epsilon_solution, limit_solution
from hjnet.mather import MatherSolver

from conftest import BOUQUET_SPEC, networks
from oracles import (beta_flow_oracle, conjugate_pair_check, lagrangian_grid_dense,
                     reach_per_circuit)

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

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(net=networks(), data=st.data())
    def test_conjugates_not_below_witnesses(self, net, data):
        """beta(0) = -a0, and beta(h) and the cone limit are not below the
        witnesses <p, h> - t alpha(p) (p in the cone's box for the limit), on
        multigraphs with loops, multi-edges and trees (b = 0)."""
        g, tm, profs = net
        solver = MatherSolver(g, tm, profs)

        def vec(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=tm.betti,
                                               max_size=tm.betti)))

        h, t = vec(-2.0, 2.0), data.draw(st.floats(0.25, 2.0))
        c = data.draw(st.floats(0.0, 2.0))
        assert solver.beta(np.zeros(tm.betti)) == pytest.approx(-profs.a0, abs=1e-9)
        beta, cone = solver.beta(h), limit_solution(g, tm, profs, ConeDatum(c), h, t)
        for _ in range(3):
            p = vec(-2.0, 2.0)
            assert beta >= p @ h - solver.alpha(p) - 1e-9
            p = np.clip(p, -c, c)
            assert cone >= p @ h - t * solver.alpha(p) - 1e-9

    def test_beta_not_below_a_witness_at_a_kink(self, honeycomb_cos):
        # <p_w, h> - H_eff(p_w) bounds beta(h) below; a grid search that
        # stalls at the kink of alpha near p_w reads 5.97e-4 short
        got = MatherSolver(*honeycomb_cos).beta((-0.149, 0.889))
        assert got >= 1.5461297451006237 - 1e-9


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


def conjugate_of_beta(solver, p, box=6.0, levels=10):
    """Numerical biconjugation sup_h <p,h> - beta(h), refined on a grid."""
    p = np.asarray(p, dtype=float)
    center = np.zeros(p.size)
    hw = box
    best = -np.inf
    for _ in range(levels):
        axes = [np.linspace(center[i] - hw, center[i] + hw, 5)
                for i in range(p.size)]
        H = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.size)
        vals = H @ p - np.array([solver.beta(h) for h in H])
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


def _grid_matches_dense(network, q_top):
    """The slope search against the dense scan, each on fresh profiles: the
    same costs to 1e-12 and the same ladder length."""
    speeds = np.concatenate([[0.0, 1e-3], np.linspace(q_top / 40, q_top, 40)])
    fast, dense = MatherSolver(*_fresh(network)), MatherSolver(*_fresh(network))
    assert np.abs(fast._lagrangian_grid(speeds)
                  - lagrangian_grid_dense(dense, speeds)).max() <= 1e-12
    assert fast.profiles.ladder_a.size == dense.profiles.ladder_a.size


@settings(derandomize=True, max_examples=25, deadline=None)
@given(networks(), st.floats(0.5, 12.0))
def test_lagrangian_grid_matches_dense_scan(network, q_top):
    _grid_matches_dense(network, q_top)


def test_lagrangian_grid_matches_dense_scan_tabulated(honeycomb):
    """A tabulated e0 (samples of the unit cosine model): its ladder grows
    by crossing searches, slower than the quadratic kernel, so one example only."""
    g, tm = honeycomb
    s, rho = np.linspace(0.0, 1.0, 9), np.linspace(-8.0, 8.0, 33)
    cos = QuadraticEdgeModel(potential=TrigPoly(cos=(-1.0,)))
    models = {"e0": TabulatedEdgeModel(s, rho, cos.value(s[:, None], rho[None, :])),
              "e1": QuadraticEdgeModel(), "e2": QuadraticEdgeModel(kappa=2.0)}
    _grid_matches_dense((g, tm, build_profiles(g, models)), 5.0)


def test_lagrangian_grid_rejects_a_dip(honeycomb_cos):
    """A ladder that is not concave is refused; the dense scan returns a number."""
    solver = MatherSolver(*_fresh(honeycomb_cos))
    speeds = np.array([0.0, 1.0, 4.0])
    solver._lagrangian_grid(speeds)
    sig = solver.profiles.ladder_sig.copy()
    sig[1, sig.shape[1] // 2] -= 1e-6
    solver.profiles.ladder_sig = sig
    assert np.isfinite(lagrangian_grid_dense(solver, speeds)).all()
    with pytest.raises(ConvergenceFailure, match=rf"sigma\({solver.g.edge_order[1]}\)"):
        solver._lagrangian_grid(speeds)


def test_beta_batch_rows_independent(honeycomb_cos):
    """beta over a batch of rows, in any order, equals beta of each row on a
    solver of its own; b = 0 (a tree) gives -alpha = -a0."""
    rng = np.random.default_rng(21)
    H = np.concatenate([[[6.0, 0.5], [-5.8, 6.1], [0.0, 0.0]],
                        rng.uniform(-2, 2, size=(5, 2))])
    want = [MatherSolver(*_fresh(honeycomb_cos)).beta(h) for h in H]
    solver = MatherSolver(*_fresh(honeycomb_cos))
    order = rng.permutation(len(H))
    assert [solver.beta(H[i]) for i in order] == [want[i] for i in order]

    g = build_graph({"vertices": ["u", "w"],
                     "edges": [{"id": "t", "from": "u", "to": "w"}]})
    profs = build_profiles(g, {"t": QuadraticEdgeModel(
        potential=TrigPoly(cos=(-1.0,)))})
    solver = MatherSolver(g, theta_map(g, spanning_tree(g)), profs)
    assert solver.beta(()) == solver.beta(np.zeros(0)) == -profs.a0


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


def test_conjugation_table_has_a_budget(honeycomb_cos, monkeypatch):
    """Nine circuits at b = 2, three of them of zero rotation, which no face
    holds: the ball's table counts 1 + 6 + 15 row sets."""
    solver = MatherSolver(*honeycomb_cos)
    monkeypatch.setattr(mather, "_FACE_BUDGET", 22)
    assert solver.hopf_sup((0.5, 0.25), 1.0, 1.0, 2) > -np.inf
    monkeypatch.setattr(mather, "_FACE_BUDGET", 21)
    with pytest.raises(BudgetExceeded, match="table of 22 row sets exceeds 21"):
        MatherSolver(*honeycomb_cos).hopf_sup((0.5, 0.25), 1.0, 1.0, 2)


@pytest.mark.parametrize("radius, ord", [(-1.0, 2), (NAN, np.inf), (1.0, 1)],
                         ids=["negative", "nan", "ord-1"])
def test_hopf_sup_rejects_unknown_dual_sets(honeycomb_cos, radius, ord):
    with pytest.raises(ValueError, match="need radius >= 0 and ord 2 or inf"):
        MatherSolver(*honeycomb_cos).hopf_sup((0.5, 0.25), 1.0, radius, ord)


@pytest.mark.parametrize("ord", [np.inf, 2], ids=["box", "ball"])
def test_hopf_sup_of_radius_zero_is_the_closed_form(k4_drift, ord):
    """D = {0}: the witness lies in D, so the value is -t alpha(0) exactly,
    whatever q (a candidate within the feasibility slack of D read up to
    5e-12 above it)."""
    solver, t = MatherSolver(*k4_drift), 0.7
    want = -t * solver.alpha(np.zeros(3))
    for q in np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 3)):
        assert solver.hopf_sup(q, t, 0.0, ord) == want


@pytest.mark.parametrize("t", [NAN, INF, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
def test_hopf_sup_rejects_non_positive_or_infinite_t(honeycomb_cos, t):
    """The level search over a holds for 0 < t < inf only: t = -1 on this box
    has a finite sup, yet its bracket expansion over a failed."""
    with pytest.raises(ValueError, match="t must be positive and finite"):
        MatherSolver(*honeycomb_cos).hopf_sup((0.5, 0.25), t, 1.5, np.inf)


@pytest.mark.parametrize("method, arg, name", [
    ("beta", (NAN, 0.25), "h"), ("beta", (INF, 0.25), "h"),
    ("alpha", (NAN, 0.0), "p"), ("alpha", (INF, 0.0), "p"),
    ("alpha_batch", [[NAN, 0.0]], "P"), ("alpha_batch", [[INF, 0.0]], "P"),
    ("flow_oracle", (NAN, 0.1), "h"), ("flow_oracle", (0.1, INF), "h"),
], ids=["beta-nan", "beta-inf", "alpha-nan", "alpha-inf",
        "alpha_batch-nan", "alpha_batch-inf", "flow_oracle-nan", "flow_oracle-inf"])
def test_rejects_non_finite_input(honeycomb_cos, method, arg, name):
    """Before the ladder grows by a block."""
    g, tm, profs = _fresh(honeycomb_cos)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        getattr(MatherSolver(g, tm, profs), method)(arg)
    assert profs.ladder_a.size == 1


@pytest.mark.parametrize("method, arg, name", [
    ("alpha", [0.5], "momentum p"), ("alpha", 0.5, "momentum p"),
    ("alpha_batch", [[0.5]], "momenta P"), ("beta", [0.5], "rotation vector h"),
    ("hopf_sup", [0.5], "point q"), ("flow_oracle", [0.3], "rotation vector h"),
    ("flow_oracle", 0.3, "rotation vector h"), ("flow_oracle", [0.3, 0.1, 0.0], "rotation vector h"),
], ids=["alpha-short", "alpha-scalar", "alpha_batch-short", "beta-short",
        "hopf_sup-short", "flow_oracle-short", "flow_oracle-scalar", "flow_oracle-long"])
def test_rejects_wrong_length_input(honeycomb_cos, method, arg, name):
    g, tm, profs = _fresh(honeycomb_cos)
    with pytest.raises(ValueError, match=f"{name} must have b = 2 entries"):
        getattr(MatherSolver(g, tm, profs), method)(arg)
    assert profs.ladder_a.size == 1


@pytest.mark.parametrize("name", ["honeycomb_cos_quarter", "k4_mixed"])
def test_pipeline_leaves_the_ladder_alone(request, name):
    """Only alpha_batch and the flow LP grow the sigma ladder: alpha, beta, the
    Hopf pieces on a box and a ball, the limit and u_eps read sigma_all."""
    g, tm, profs = _fresh(request.getfixturevalue(name))
    solver = MatherSolver(g, tm, profs)
    h = np.array([0.5, 0.25, 0.0][:tm.betti])
    solver.alpha(np.full(tm.betti, 2.0))
    solver.beta(h)
    solver.hopf_sup(h, 1.0, 1.5, np.inf)
    solver.hopf_sup(h, 1.0, 1.5, 2)
    limit_solution(g, tm, profs, ConeDatum(1.5), h, 1.0)
    z = CrystalVertex(g.vertices[0], tuple(int(k) for k in 4 * h))
    epsilon_solution(g, tm, profs, ConeDatum(1.5), z, 1.0, 0.25)
    assert profs.ladder_a.size == 1


@pytest.mark.parametrize("name, parent_speed", [
    ("honeycomb_cos_quarter", 1.8820), ("k4_mixed", 1.5635), ("drifted_loop", None)])
def test_reach_bound_is_certified(request, name, parent_speed):
    """On the ball |p|_2 <= r = L + 1/2, L = 1.5 sqrt(b), ``reach`` caps alpha
    and |grad alpha| at every circuit direction on the sphere, where the caps
    are attained, and at 60 seeded points.  Each central difference of step
    delta carries two root errors, 2e-11 / (2 delta), and O(delta^2).  The
    speed of ``epsilon_solution``'s ball is not below the one that 16 random
    directions and the axes gave (at L = 1.5 sqrt(b))."""
    g, tm, profs = request.getfixturevalue(name)
    solver, b = MatherSolver(g, tm, profs), tm.betti
    r = 1.5 * np.sqrt(b) + 0.5
    a_cap, q = solver.reach(r)
    theta = solver.circuit_theta[np.linalg.norm(solver.circuit_theta, axis=1) > 0]
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, b))
    X *= r * rng.uniform(size=(60, 1)) ** (1 / b) / np.linalg.norm(X, axis=1, keepdims=True)
    delta = 1e-4
    for p in np.concatenate([r * theta / np.linalg.norm(theta, axis=1, keepdims=True), X]):
        assert solver.alpha(p) <= a_cap + 2e-11
        grad = np.array([solver.alpha(p + e) - solver.alpha(p - e)
                         for e in delta * np.eye(b)]) / (2 * delta)
        assert np.linalg.norm(grad) <= q + np.sqrt(b) * 1e-11 / delta + delta**2
    if parent_speed is not None:
        assert _reach_scales(solver, r - 0.5)[0] >= parent_speed


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), radius=st.floats(0.0, 4.0))
def test_reach_matches_the_per_circuit_roots(net, radius):
    """One root search over all circuits gives max a_xi of the per-circuit
    roots, on multigraphs with loops, multi-edges and trees (b = 0).  Its
    secants sit at a_cap >= a_xi, so by concavity its speed is not below the
    per-circuit one, up to the rounding of a secant over 1e-6 (2.4e-9 relative
    in 200 examples)."""
    solver = MatherSolver(*net)
    a_cap, q = solver.reach(radius)
    top, speed = reach_per_circuit(solver, radius)
    assert abs(a_cap - top) <= 1e-11 + 8 * np.finfo(float).eps * abs(top)
    assert q >= speed * (1 - 1e-8)


def test_reach_is_one_root_search(k4_mixed, monkeypatch):
    calls = []

    def spy(f, lo, xtol):
        calls.append(lo)
        return _increasing_root(f, lo, xtol)

    monkeypatch.setattr(mather, "_increasing_root", spy)
    MatherSolver(*k4_mixed).reach(1.5 * np.sqrt(3) + 0.5)
    assert len(calls) == 1


def test_beta_at_b5_on_the_six_edge_bouquet():
    """Two vertices joined by six edges with cosine potentials of amplitude
    0.1 i (b = 5, 36 circuits): without the six zero-rotation circuits,
    beta's table holds 142,506 row sets, within the budget.  beta is not
    below the witness 3.1220690529 of the uncertified search it replaced, and
    Fenchel-Young holds against alpha at 20 seeded p."""
    g = build_graph({"vertices": ["u", "v"],
                     "edges": [{"id": f"e{i}", "from": "u", "to": "v"} for i in range(6)]})
    tm = theta_map(g, spanning_tree(g))
    solver = MatherSolver(g, tm, build_profiles(g, {
        f"e{i}": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.1 * i,))) for i in range(6)}))
    h = np.linspace(0.1, 0.4, 5)
    beta = solver.beta(h)
    assert beta >= 3.1220690529 - 1e-9
    for p in np.random.default_rng(5).uniform(-2.0, 2.0, size=(20, 5)):
        assert beta + solver.alpha(p) >= p @ h - 1e-9
