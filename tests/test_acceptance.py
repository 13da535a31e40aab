"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

from hjnet import Path, betti, build_graph, spanning_tree, theta_map
from hjnet.action import ActionQuery, asymptotics_scan, min_action
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import (Crystal, CrystalEdge, CrystalVertex,
                           stable_norm_estimate)
from hjnet.edge_calculus import (EdgeProfile, QuadraticEdgeModel, TrigPoly,
                                 build_profiles, flux_limiter)
from hjnet.homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                              convergence_experiment)
from hjnet.mather import get_solver

from oracles import (convexity_probe, dp_edge_action_refined,
                     metric_invariance_check, min_action_exact_oracle)

FREE = QuadraticEdgeModel()
COS1 = QuadraticEdgeModel(potential=TrigPoly(cos=(-1.0,)))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_homology(honeycomb, bouquet):
    g, tm = honeycomb
    assert betti(g) == 2
    assert tm.theta["e0"].tolist() == [0, 0]
    assert tm.theta["e1"].tolist() == [1, 0]
    assert tm.theta["e2"].tolist() == [0, 1]
    assert tm.theta["e0~"].tolist() == [0, 0]
    assert tm.theta["e1~"].tolist() == [-1, 0]
    assert tm.theta["e2~"].tolist() == [0, -1]
    gb, tmb = bouquet
    assert betti(gb) == 2
    assert tmb.theta["f1"].tolist() == [1, 0]
    assert tmb.theta["f2"].tolist() == [0, 1]
    _report(1, "betti and theta tables exact on honeycomb and bouquet")


def test_criterion_2_edge_calculus_closed_forms(bouquet):
    prof = EdgeProfile("e", FREE)
    assert prof.a_e == pytest.approx(0.0, abs=1e-6)
    assert float(prof.sigma(2.0)) == pytest.approx(2.0, abs=1e-6)
    assert prof.hamiltonian(2.0) == pytest.approx(2.0, abs=1e-6)
    assert prof.lagrangian(3.0) == pytest.approx(4.5, abs=1e-6)
    g, _ = bouquet
    profs = build_profiles(g, {"f1": FREE, "f2": FREE})
    assert flux_limiter(g, profs, "v") == pytest.approx(0.0, abs=1e-6)
    cos_prof = EdgeProfile("e", COS1)
    assert float(cos_prof.sigma(1.0)) == pytest.approx(4.0 / np.pi, abs=1e-5)
    _report(2, "free-quadratic closed forms within 1e-6; sigma(e,1)=4/pi within 1e-5")


def test_criterion_3_single_edge_action_oracle():
    prof = EdgeProfile("e", COS1)
    for T in (0.5, 1.0, 2.0):
        want = prof.action(T)
        got = dp_edge_action_refined(COS1, T)
        assert got == pytest.approx(want, rel=0.02)
    _report(3, "grid-DP action matches T*L(e,1/T) within 2% for T in {0.5,1,2}")


def test_criterion_4_effective_hamiltonian(bouquet_free, honeycomb_cos,
                                           honeycomb_cos_quarter):
    g, tm, profs = bouquet_free
    rng = np.random.default_rng(100)
    for _ in range(25):
        p = rng.uniform(-2, 2, size=2)
        want = max(p[0] ** 2, p[1] ** 2) / 2
        assert effective_hamiltonian(g, tm, profs, p) == pytest.approx(
            want, abs=1e-5)
    for gg, tt, pp in (bouquet_free, honeycomb_cos, honeycomb_cos_quarter):
        assert effective_hamiltonian(gg, tt, pp, np.zeros(2)) == pytest.approx(
            pp.a0, abs=1e-6)
    ok = 0
    for _ in range(50):
        p1, p2 = rng.uniform(-2, 2, size=(2, 2))
        ok += convexity_probe(g, tm, profs, p1, p2)
    gh, th, ph = honeycomb_cos
    for _ in range(50):
        p1, p2 = rng.uniform(-2, 2, size=(2, 2))
        ok += convexity_probe(gh, th, ph, p1, p2)
    assert ok == 100
    _report(4, "H_eff closed form at 25 p (1e-5), H_eff(0)=a0 (1e-6), "
               "convexity on 100 random pairs")


def test_criterion_5_mather_duality(bouquet_free, honeycomb_cos):
    g, tm, profs = bouquet_free
    solver = get_solver(g, tm, profs)
    rng = np.random.default_rng(200)
    for _ in range(25):
        h = rng.uniform(-2, 2, size=2)
        want = (abs(h[0]) + abs(h[1])) ** 2 / 2
        assert solver.beta(h) == pytest.approx(want, abs=1e-4)
    for gg, tt, pp in (bouquet_free, honeycomb_cos):
        s = get_solver(gg, tt, pp)
        assert s.beta(np.zeros(2)) == pytest.approx(-pp.a0, abs=1e-6)
        for h in [(1.0, 0.0), (0.5, -1.0), (1.5, 1.0)]:
            assert s.flow_oracle(h)[0] == pytest.approx(s.beta(h), abs=1e-3)

    from test_mather import conjugate_of_beta
    for gg, tt, pp in (bouquet_free, honeycomb_cos):
        s = get_solver(gg, tt, pp)
        for p in [(1.0, 0.0), (-0.7, 1.1)]:
            assert conjugate_of_beta(s, p) == pytest.approx(
                s.alpha(p), abs=1e-3)
    _report(5, "beta closed form at 25 h (1e-4), beta(0)=-a0 (1e-6), "
               "flow oracle (1e-3), biconjugation (1e-3)")


def test_criterion_6_action_asymptotics(bouquet_free, honeycomb_cos):
    g, tm, profs = bouquet_free
    solver = get_solver(g, tm, profs)
    phi = min_action(g, tm, profs, ActionQuery("v", "v", 8.0, (4, 0)))
    dev = abs(phi / 8.0 - solver.beta((0.5, 0.0)))
    assert dev <= 1e-6
    gh, th, ph = honeycomb_cos
    rows = asymptotics_scan(gh, th, ph, "x1", "x2", (0.45, 0.2),
                            [8, 16, 32, 64])
    devs = [r.deviation for r in rows]
    assert devs[-1] <= 0.05
    assert all(b <= a + 1e-3 for a, b in zip(devs, devs[1:]))
    _report(6, f"exact scaling dev={dev:.2e} at T=8; honeycomb devs "
               f"{[round(d, 4) for d in devs]} non-increasing, last <= 0.05")


def test_criterion_7_main_theorem_experiment(bouquet_free, honeycomb_cos,
                                             honeycomb_cos_quarter):
    zero = LinearDatum((0.0, 0.0))
    eps4 = (0.25, 0.125, 0.0625, 0.03125)
    # (a) flat datum: both sides equal -a0 t
    for gg, tt, pp in (bouquet_free, honeycomb_cos):
        grid = ExperimentGrid((((0.5, 0.25), 1.0),), eps4[:3])
        report = convergence_experiment(gg, tt, pp, zero, grid)
        assert all(err <= 1e-6 for err in report.sup_error_per_eps.values())
    # (b) linear datum on the bouquet
    g, tm, profs = bouquet_free
    grid = ExperimentGrid((((0.5, 0.25), 1.0), ((0.375, -0.5), 0.75)),
                          (0.25, 0.0625))
    report = convergence_experiment(g, tm, profs, LinearDatum((1.0, 0.0)), grid)
    assert report.sup_error_per_eps[0.0625] < 1e-2
    # (c) cone datum on the honeycomb with a potential edge
    gh, th, ph = honeycomb_cos_quarter
    grid = ExperimentGrid((((0.5, 0.25), 1.0),), eps4)
    report = convergence_experiment(gh, th, ph, ConeDatum(1.5), grid)
    errs = [report.sup_error_per_eps[e] for e in eps4]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    _report(7, f"flat datum exact; linear datum err<1e-2 at eps=1/16; "
               f"cone errors strictly decreasing {[f'{e:.2e}' for e in errs]}")


def test_criterion_8_crystal_metrics(bouquet, honeycomb):
    rng = np.random.default_rng(300)
    checks = 0
    for g, tm in (bouquet, honeycomb):
        c = Crystal(g, tm)
        edges = sorted(g.edges)
        for _ in range(25):
            e = edges[int(rng.integers(0, len(edges)))]
            h = tuple(int(k) for k in rng.integers(-3, 4, size=2))
            ce = CrystalEdge(e, h)
            assert c.reversed(c.reversed(ce)) == ce
            t = c.terminus(ce)
            assert t.base == g.terminus(e)
            assert (np.asarray(t.h) == np.asarray(h) + tm.theta[e]).all()
            assert c.origin(ce) != c.terminus(ce)
            checks += 1
        for _ in range(25):
            x0 = g.vertices[int(rng.integers(0, len(g.vertices)))]
            h = rng.integers(-3, 4, size=2)
            hbar = rng.integers(-3, 4, size=2)
            assert metric_invariance_check(g, tm, x0, h, hbar)
            checks += 1
    assert checks == 100
    g, tm = bouquet
    z0 = CrystalVertex("v", (0, 0))
    assert Crystal(g, tm).graph_distance(z0, CrystalVertex("v", (2, 1))) == 3
    est = stable_norm_estimate(g, tm, (1, 1), 8)
    assert abs(est.estimate - 2.0) <= 1e-9
    _report(8, "involution/terminus/no-self-loop/invariance on 100 instances; "
               "lattice distances exact")


def test_criterion_9_dual_bound_audit(bouquet_free):
    # homogeneous bouquet: the dual bound is tight (no detour needed)
    g, tm, profs = bouquet_free
    cs = []
    for T in (2.0, 4.0, 8.0, 16.0):
        q = ActionQuery("v", "v", T, (2, 1))
        dual = min_action(g, tm, profs, q)
        exact = min_action_exact_oracle(g, tm, profs, q, edge_cap=9)
        assert dual <= exact + 1e-9
        cs.append(exact - dual)
    assert max(cs) - min(cs) <= 1e-3

    # stiff chain with one potential edge: constant equilibrium-detour gap
    gp = build_graph({"vertices": ["x", "y", "z"],
                      "edges": [{"id": "exy", "from": "x", "to": "y"},
                                {"id": "eyz", "from": "y", "to": "z"}]})
    tmp = theta_map(gp, spanning_tree(gp))
    profp = build_profiles(gp, {"exy": QuadraticEdgeModel(kappa=4.0),
                                "eyz": COS1})
    cs2 = []
    for T in (2.0, 4.0, 8.0, 16.0):
        q = ActionQuery("x", "x", T, ())
        dual = min_action(gp, tmp, profp, q)
        exact = min_action_exact_oracle(gp, tmp, profp, q, edge_cap=8)
        assert dual <= exact + 1e-9
        cs2.append(exact - dual)
    assert max(cs2) - min(cs2) <= 0.1 * max(cs2)
    _report(9, f"dual <= exact; detour constants stable: "
               f"C1 in {[round(c, 6) for c in cs]}, "
               f"C2 in {[round(c, 6) for c in cs2]}")
