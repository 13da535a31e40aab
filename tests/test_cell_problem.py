import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjnet.cell_problem import (_edge_weights, effective_hamiltonian,
                                enumerate_circuits, min_cycle_weight)
from hjnet.edge_calculus import (QuadraticEdgeModel, TrigPoly, build_profiles)
from hjnet.errors import LevelBelowMinimum

from conftest import networks
from oracles import convexity_probe, karp_min_cycle_mean, simpson_sigma


def honeycomb_closed_form(p):
    """Free quadratic honeycomb: 2 sqrt(2a) = max |<p, theta_i - theta_j>|."""
    m = max(abs(p[0]), abs(p[1]), abs(p[0] - p[1]))
    return m * m / 8.0


class TestMinCycleWeight:
    def test_bouquet_negative(self, bouquet_free):
        g, tm, profs = bouquet_free
        val = min_cycle_weight(g, tm, profs, (1.0, 0.0), 0.3)
        assert val == pytest.approx(np.sqrt(0.6) - 1.0, abs=1e-10)

    def test_bouquet_zero(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert min_cycle_weight(g, tm, profs, (1.0, 0.0), 0.5) == pytest.approx(
            0.0, abs=1e-12)

    def test_free_at_zero(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert min_cycle_weight(g, tm, profs, (0.0, 0.0), 0.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_monotone_in_a(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        p = (0.8, -0.4)
        vals = [min_cycle_weight(g, tm, profs, p, a) for a in (1.0, 1.5, 2.5, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), data=st.data())
def test_min_cycle_weight_matches_karp_oracle(net, data):
    """The vectorised Karp against the reference loop, on multigraphs with
    loops, multi-edges and trees (b = 0)."""
    g, tm, profs = net
    p = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=tm.betti,
                                    max_size=tm.betti)))
    a = profs.a0 + data.draw(st.floats(1e-3, 5.0))
    got = min_cycle_weight(g, tm, profs, p, a)
    # the same weights through the loop: the same arithmetic, bit for bit
    weights = dict(zip(g.edge_order, _edge_weights(tm, profs, p, a).tolist()))
    assert got == karp_min_cycle_mean(g, weights)
    # weights from the pointwise Simpson oracle
    ref = {e: simpson_sigma(profs[e].model, a) - float(p @ tm.theta[e])
           for e in g.edges}
    assert got == pytest.approx(karp_min_cycle_mean(g, ref), abs=1e-12)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), gap=st.floats(1e-3, 2.0))
def test_below_critical_level_raises(net, gap):
    g, tm, profs = net
    with pytest.raises(LevelBelowMinimum):
        min_cycle_weight(g, tm, profs, np.zeros(tm.betti), profs.a0 - gap)
    with pytest.raises(LevelBelowMinimum):
        profs.sigma_all(np.array([profs.a0 + 1.0, profs.a0 - gap]))
    top = profs[max(g.edges, key=lambda e: profs[e].a_e)]
    with pytest.raises(LevelBelowMinimum):
        top.sigma(top.a_e - gap)
    with pytest.raises(LevelBelowMinimum):  # the kernel's own check, unclipped
        top.grid.sigma(np.array([top.a_e, top.a_e - gap]))


def test_cell_weights(bouquet_free):
    g, tm, profs = bouquet_free
    w = dict(zip(g.edge_order, _edge_weights(tm, profs, np.array([1.0, 0.0]), 0.5)))
    assert w["f1"] == pytest.approx(0.0, abs=1e-12)
    assert w["f1~"] == pytest.approx(2.0, abs=1e-12)
    assert w["f1"] + w["f2"] == pytest.approx(1.0, abs=1e-12)


class TestEffectiveHamiltonian:
    def test_bouquet_closed_form(self, bouquet_free):
        g, tm, profs = bouquet_free
        assert effective_hamiltonian(g, tm, profs, (1.0, 0.0)) == pytest.approx(
            0.5, abs=1e-7)
        assert effective_hamiltonian(g, tm, profs, (1.0, 2.0)) == pytest.approx(
            2.0, abs=1e-7)
        rng = np.random.default_rng(9)
        for _ in range(15):
            p = rng.uniform(-2, 2, size=2)
            want = max(p[0] ** 2, p[1] ** 2) / 2
            assert effective_hamiltonian(g, tm, profs, p) == pytest.approx(
                want, abs=1e-6)

    def test_honeycomb_closed_form(self, honeycomb_free):
        g, tm, profs = honeycomb_free
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = rng.uniform(-2, 2, size=2)
            assert effective_hamiltonian(g, tm, profs, p) == pytest.approx(
                honeycomb_closed_form(p), abs=1e-6)

    def test_at_zero_equals_a0(self, bouquet_free, honeycomb_cos, honeycomb):
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            assert effective_hamiltonian(g, tm, profs, np.zeros(2)) == profs.a0
        # pure drift, zero potential: sigma(e, a0) = 0, so a0 is still critical
        g, tm = honeycomb
        drifty = build_profiles(g, {
            "e0": QuadraticEdgeModel(drift=TrigPoly(const=0.3)),
            "e1": QuadraticEdgeModel(),
            "e2": QuadraticEdgeModel(drift=TrigPoly(sin=(0.2,)))})
        assert effective_hamiltonian(g, tm, drifty, np.zeros(2)) == pytest.approx(
            drifty.a0, abs=1e-9)

    def test_monotone_certificate(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        p = (3.5, 0.5)  # outside the flat region where H_eff sits at a0
        a_star = effective_hamiltonian(g, tm, profs, p)
        assert a_star > profs.a0
        assert min_cycle_weight(g, tm, profs, p, a_star) == pytest.approx(
            0.0, abs=1e-6)
        assert min_cycle_weight(g, tm, profs, p, a_star - 0.2) < 0
        assert min_cycle_weight(g, tm, profs, p, a_star + 0.2) > 0

    def test_superlinearity(self, bouquet_free):
        g, tm, profs = bouquet_free
        p = np.array([0.6, -0.2])
        ratios = [effective_hamiltonian(g, tm, profs, t * p) / t
                  for t in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_reversal_symmetry(self, honeycomb_cos):
        # even in rho and drift-free: H_eff is even in p
        g, tm, profs = honeycomb_cos
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = rng.uniform(-1.5, 1.5, size=2)
            assert effective_hamiltonian(g, tm, profs, p) == pytest.approx(
                effective_hamiltonian(g, tm, profs, -p), abs=1e-7)


def test_convexity_probe(bouquet_free, honeycomb_cos):
    g, tm, profs = bouquet_free
    assert convexity_probe(g, tm, profs, (1.0, 0.3), (1.0, 0.3))
    rng = np.random.default_rng(13)
    for _ in range(20):
        p1, p2 = rng.uniform(-2, 2, size=(2, 2))
        assert convexity_probe(g, tm, profs, p1, p2)
    g, tm, profs = honeycomb_cos
    for _ in range(10):
        p1, p2 = rng.uniform(-2, 2, size=(2, 2))
        assert convexity_probe(g, tm, profs, p1, p2)


def test_enumerate_circuits(bouquet, honeycomb):
    g, _ = bouquet
    loops = enumerate_circuits(g)
    assert sorted(c.edges for c in loops) == [("f1",), ("f1~",), ("f2",), ("f2~",)]
    g, _ = honeycomb
    circuits = enumerate_circuits(g)
    assert len(circuits) == 9  # ordered pairs (e_i, -e_j), i, j in {0,1,2}
    for c in circuits:
        assert g.origin(c.edges[0]) == "x1"
        assert g.terminus(c.edges[-1]) == "x1"


def test_alpha_routes_agree(honeycomb_cos, bouquet_free):
    from hjnet.mather import MatherSolver

    rng = np.random.default_rng(41)
    for g, tm, profs in (honeycomb_cos, bouquet_free):
        solver = MatherSolver(g, tm, profs)
        for _ in range(10):
            p = rng.uniform(-2.5, 2.5, size=2)
            assert solver.alpha(p) == pytest.approx(
                effective_hamiltonian(g, tm, profs, p), abs=1e-6)


@pytest.mark.parametrize("p", [(float("nan"), 0.0), (float("inf"), 0.0)],
                         ids=["nan", "inf"])
def test_effective_hamiltonian_rejects_non_finite_p(honeycomb_cos, p):
    with pytest.raises(ValueError, match="p must be finite"):
        effective_hamiltonian(*honeycomb_cos, p)
