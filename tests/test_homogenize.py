import numpy as np
import pytest

from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import CrystalVertex
from hjnet.errors import RadiusExhausted
from hjnet.homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                              TabulatedDatum, convergence_experiment,
                              epsilon_solution, limit_solution)

ZERO = LinearDatum((0.0, 0.0))


class TestLimitSolution:
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


class TestConvergenceExperiment:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), 1.0),), (0.125, 0.25))
        with pytest.raises(ValueError):
            ExperimentGrid((((0.0, 0.0), -1.0),), (0.25, 0.125))

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
