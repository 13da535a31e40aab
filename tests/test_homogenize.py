import numpy as np
import pytest

from hjnet import homogenize
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import BoxGraph, CrystalVertex
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles
from hjnet.errors import RadiusExhausted
from hjnet.homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                              TabulatedDatum, convergence_experiment,
                              epsilon_solution, limit_solution)

from oracles import epsilon_solution_dense

ZERO = LinearDatum((0.0, 0.0))
NAN, INF = float("nan"), float("inf")


class TestLimitSolution:
    def test_rejects_nan_time(self, bouquet_free):
        g, tm, profs = bouquet_free
        with pytest.raises(ValueError, match="t must be positive"):
            limit_solution(g, tm, profs, ZERO, (0.5, 0.25), NAN)

    @pytest.mark.parametrize("h, t", [((0.5, 0.25), INF), ((NAN, 0.25), 1.0)],
                             ids=["t-inf", "h-nan"])
    def test_rejects_non_finite_input(self, honeycomb_cos, h, t):
        with pytest.raises(ValueError, match="finite"):
            limit_solution(*honeycomb_cos, ConeDatum(1.5), h, t)

    def test_zero_datum(self, bouquet_free, honeycomb_cos):
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            for t in [0.5, 1.0, 2.0]:
                got = limit_solution(g, tm, profs, ZERO, (0.7, -0.3), t)
                assert got == pytest.approx(-profs.a0 * t, abs=1e-7)

    def test_linear_datum_conjugation_identity(self, bouquet_free, honeycomb_cos):
        rng = np.random.default_rng(12)
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            for _ in range(3):
                p = rng.uniform(-1.2, 1.2, size=2)
                h = rng.uniform(-1.0, 1.0, size=2)
                t = float(rng.uniform(0.5, 2.0))
                want = float(p @ h) - t * effective_hamiltonian(g, tm, profs, p)
                got = limit_solution(g, tm, profs, LinearDatum(tuple(p)), h, t)
                assert got == pytest.approx(want, abs=1e-3)

    def test_short_time_consistency(self, bouquet_free):
        g, tm, profs = bouquet_free
        cone = ConeDatum(1.0)
        h = (0.4, 0.9)
        vals = [limit_solution(g, tm, profs, cone, h, t) for t in (0.2, 0.05)]
        g_at_h = float(cone.value(np.asarray(h)))
        assert abs(vals[1] - g_at_h) < abs(vals[0] - g_at_h) + 1e-9
        assert vals[1] == pytest.approx(g_at_h, abs=0.05)

    def test_lipschitz_preserved(self, bouquet_free):
        g, tm, profs = bouquet_free
        cone = ConeDatum(0.8)
        L = 0.8 * np.sqrt(2)  # euclidean Lipschitz bound of the cone datum
        rng = np.random.default_rng(3)
        for _ in range(4):
            h1, h2 = rng.uniform(-1, 1, size=(2, 2))
            u1 = limit_solution(g, tm, profs, cone, h1, 1.0)
            u2 = limit_solution(g, tm, profs, cone, h2, 1.0)
            assert abs(u1 - u2) <= L * np.linalg.norm(h1 - h2) + 1e-4


class TestEpsilonSolution:
    def test_zero_datum_exact(self, bouquet_free, honeycomb_cos):
        for g, tm, profs in (bouquet_free, honeycomb_cos):
            x0 = g.vertices[0]
            for eps in [0.25, 0.125]:
                got = epsilon_solution(g, tm, profs, ZERO,
                                       CrystalVertex(x0, (2, 1)), 1.5, eps)
                assert got == pytest.approx(-profs.a0 * 1.5, abs=1e-9)

    def test_linear_datum_hopf_lax(self, bouquet_free):
        g, tm, profs = bouquet_free
        p = (1.0, 0.0)
        lin = LinearDatum(p)
        # at lattice-aligned points the discrete and limit values coincide
        for eps in [0.25, 0.0625]:
            h = np.array([0.5, 0.25])
            hz = tuple(int(k) for k in np.round(h / eps))
            got = epsilon_solution(g, tm, profs, lin, CrystalVertex("v", hz),
                                   1.0, eps)
            want = 0.5 - 1.0 * 0.5
            assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_in_datum(self, bouquet_free):
        g, tm, profs = bouquet_free
        lo = LinearDatum((0.0, 0.0))
        hi = ConeDatum(0.7)  # pointwise >= 0 = lo
        z = CrystalVertex("v", (3, -2))
        for (t, eps) in [(1.0, 0.25), (0.5, 0.125)]:
            u_lo = epsilon_solution(g, tm, profs, lo, z, t, eps)
            u_hi = epsilon_solution(g, tm, profs, hi, z, t, eps)
            assert u_lo <= u_hi + 1e-10

    def test_constant_datum_pause_rate(self, honeycomb_cos):
        g, tm, profs = honeycomb_cos
        const = TabulatedDatum(((0.0, 0.0),), (2.0,), 0.0)
        z = CrystalVertex("x1", (1, 1))
        ts = [0.5, 1.0, 2.0]
        vals = [epsilon_solution(g, tm, profs, const, z, t, 0.25) for t in ts]
        for (t1, u1), (t2, u2) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
            rate = (u2 - u1) / (t2 - t1)
            assert rate == pytest.approx(-profs.a0, abs=1e-9)

    def test_radius_exhausted(self, bouquet_free):
        g, tm, profs = bouquet_free
        steep = LinearDatum((6.0, 0.0))  # pulls the minimizer far away
        with pytest.raises(RadiusExhausted):
            epsilon_solution(g, tm, profs, steep, CrystalVertex("v", (0, 0)),
                             1.0, 0.5, R=0.5)

    def test_ball_check_reads_the_winner(self, bouquet_free):
        # R = 1.6 binds once; in the doubled ball the last vertex refined lies
        # on the rim but the winner does not, so the ball must not bind again
        g, tm, profs = bouquet_free
        got = epsilon_solution(g, tm, profs, LinearDatum((6.0, 0.0)),
                               CrystalVertex("v", (4, 2)), 0.5, 0.125, R=1.6)
        # <p, h> - t H_eff(p) at h = (0.5, 0.25), with H_eff(p) = |p|_inf^2 / 2
        assert got == pytest.approx(6.0 * 0.5 - 0.5 * 6.0**2 / 2, abs=1e-9)

    @pytest.mark.parametrize("t, eps", [(NAN, 0.5), (1.0, NAN), (INF, 0.5), (1.0, INF)],
                             ids=["t", "eps", "t-inf", "eps-inf"])
    def test_rejects_nan(self, bouquet_free, t, eps):
        g, tm, profs = bouquet_free
        with pytest.raises(ValueError, match="must be positive"):
            epsilon_solution(g, tm, profs, ZERO, CrystalVertex("v", (0, 0)), t, eps)

    @pytest.mark.parametrize("R", [0.0, -1.0, NAN, INF])
    def test_rejects_nonpositive_radius(self, bouquet_free, R):
        g, tm, profs = bouquet_free
        with pytest.raises(ValueError, match="must be positive"):
            epsilon_solution(g, tm, profs, ZERO, CrystalVertex("v", (0, 0)),
                             1.0, 0.5, R=R)


def _vertex(x, h, eps):
    return CrystalVertex(x, tuple(int(k) for k in np.round(np.asarray(h) / eps)))


TABLE = TabulatedDatum(((0.0, 0.0), (1.0, 0.5), (-0.5, 1.0)), (0.3, -0.2, 0.5), 1.0)


@pytest.mark.parametrize("network, datum, x, h, t, eps, R", [
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.25), 1.0, 1 / 4, 3.0),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.25), 1.0, 1 / 8, 3.0),
    ("bouquet_free", TABLE, "v", (0.5, 0.25), 1.0, 1 / 4, 3.0),
    # negative reach weights: every search runs on Johnson-reduced weights
    ("k4_drift", ConeDatum(1.5), "a", (0.5, 0.25, 0.0), 0.5, 1 / 4, 1.75),
], ids=["honeycomb-quarter-eps4", "honeycomb-quarter-eps8", "bouquet-tabulated",
        "k4-drift-eps4"])
def test_epsilon_solution_matches_dense_oracle(request, network, datum, x, h, t,
                                               eps, R):
    g, tm, profs = request.getfixturevalue(network)
    z = _vertex(x, h, eps)
    got = epsilon_solution(g, tm, profs, datum, z, t, eps, R=R)
    want = epsilon_solution_dense(g, tm, profs, datum, z, t, eps, R, profs.a0 + 16.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_certification_not_the_screen_decides(honeycomb_cos_quarter, monkeypatch):
    # a 2-level screen leaves loose lower bounds; the exact refinement of the
    # least bound must still reach the same minimum
    z = _vertex("x1", (0.5, 0.25), 1 / 8)
    args = (*honeycomb_cos_quarter, ConeDatum(1.5), z, 1.0, 1 / 8)
    want = epsilon_solution(*args)
    monkeypatch.setattr(homogenize, "_DUAL_LEVELS", 2)
    assert epsilon_solution(*args) == pytest.approx(want, abs=1e-12)


def test_one_screen_of_full_ball_levels(honeycomb_cos_quarter, monkeypatch):
    # criterion 7(c) at eps = 1/8; the ball R/eps = 24 does not expand, so
    # every full-ball level belongs to the one screen
    rows = []
    levels = BoxGraph.levels

    def spy(self, weights, potential, max_hops=np.inf):
        for d in levels(self, weights, potential, max_hops):
            rows.append(max_hops)
            yield d

    monkeypatch.setattr(BoxGraph, "levels", spy)
    epsilon_solution(*honeycomb_cos_quarter, ConeDatum(1.5),
                     _vertex("x1", (0.5, 0.25), 1 / 8), 1.0, 1 / 8, R=3.0)
    assert max(rows) == 24.0
    assert rows.count(24.0) == homogenize._DUAL_LEVELS


@pytest.mark.parametrize("anchors, values, lipschitz", [
    ((), (), 1.0),
    (((0.0, 0.0), (1.0,)), (0.0, 1.0), 1.0),
    (((0.0, 0.0), (1.0, 0.0)), (0.0,), 1.0),
    (((0.0, 0.0),), (0.0,), -0.5),
    (((0.0, 0.0),), (0.0,), float("inf")),
    (((0.0, 0.0),), (0.0,), float("nan")),
    (((0.0, 0.0), (1.0, 0.0)), (0.0, float("nan")), 1.0),
    (((0.0, float("inf")),), (0.0,), 1.0),
], ids=["empty", "ragged", "value-count", "negative-L", "infinite-L", "nan-L",
        "nan-value", "infinite-anchor"])
def test_tabulated_datum_rejects_malformed_input(anchors, values, lipschitz):
    with pytest.raises(ValueError):
        TabulatedDatum(anchors, values, lipschitz)


class TestConvergenceExperiment:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), 1.0),), (0.125, 0.25))
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), -1.0),), (0.25, 0.125))

    @pytest.mark.parametrize("radius", [0.0, -1.0, NAN, INF])
    def test_grid_rejects_nonpositive_radius(self, radius):
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentGrid((((0.0, 0.0), 1.0),), (0.25, 0.125), radius=radius)

    @pytest.mark.parametrize("t, eps_list", [(NAN, (0.25,)), (1.0, (0.25, NAN)),
                                             (1.0, (0.25, -0.125)), (INF, (0.25,)),
                                             (1.0, (INF, 0.25))],
                             ids=["t-nan", "eps-nan", "eps-negative", "t-inf", "eps-inf"])
    def test_grid_rejects_nan_and_nonpositive_eps(self, t, eps_list):
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentGrid((((0.0, 0.0), t),), eps_list)

    def test_grid_rejects_non_finite_sample_point(self):
        with pytest.raises(ValueError, match="sample point h must be finite"):
            ExperimentGrid((((NAN, 0.25), 1.0),), (0.25, 0.125))

    def test_grid_accepts_single_eps(self):
        grid = ExperimentGrid((((0.0, 0.0), 1.0),), (0.1,))
        assert grid.eps_list == (0.1,)

    def test_grid_rejects_non_monotone_eps(self):
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), 1.0),), (0.25, 0.5, 0.1))
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), 1.0),), (0.25, 0.25))

    def test_zero_datum_all_zero_errors(self, bouquet_free):
        g, tm, profs = bouquet_free
        grid = ExperimentGrid((((0.5, 0.25), 1.0), ((-0.25, 0.5), 0.5)),
                              (0.25, 0.125))
        report = convergence_experiment(g, tm, profs, ZERO, grid)
        assert all(r["abs_error"] < 1e-9 for r in report.rows)
        assert set(report.sup_error_per_eps) == {0.25, 0.125}
        summary = report.summary()
        assert [e["eps"] for e in summary["sup_error_per_eps"]] == [0.25, 0.125]

    def test_linear_datum_small_errors(self, bouquet_free):
        g, tm, profs = bouquet_free
        grid = ExperimentGrid((((0.5, 0.25), 1.0),), (0.25, 0.0625))
        report = convergence_experiment(g, tm, profs, LinearDatum((1.0, 0.0)),
                                        grid)
        assert report.sup_error_per_eps[0.0625] < 1e-2

    def test_off_lattice_sample_compares_at_evaluated_point(self, honeycomb):
        # (0.3, 0.1) lies on neither lattice; u_eps at round(h / eps) must be
        # compared with u at eps round(h / eps), where a linear datum is exact
        g, tm = honeycomb
        profs = build_profiles(g, {
            "e0": QuadraticEdgeModel(potential=TrigPoly(cos=(-0.25,))),
            "e1": QuadraticEdgeModel(), "e2": QuadraticEdgeModel()})
        grid = ExperimentGrid((((0.3, 0.1), 1.0),), (0.25, 0.125))
        report = convergence_experiment(g, tm, profs, LinearDatum((0.6, 0.8)), grid)
        assert all(err <= 1e-9 for err in report.sup_error_per_eps.values())
        assert [r["h"] for r in report.rows] == [(0.3, 0.1)] * 2


@pytest.mark.parametrize("make", [lambda: ConeDatum(NAN), lambda: LinearDatum((NAN, 0.0))],
                         ids=["cone", "linear"])
def test_data_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()
