import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import linprog

from hjnet.edge_calculus import (EdgeProfile, QuadraticEdgeModel,
                                 TabulatedEdgeModel, TrigPoly, _concave_max,
                                 build_profiles, critical_value, flux_limiter)
from hjnet.errors import DomainError, LevelBelowMinimum, NonConvexModel

from oracles import dp_edge_action_refined, simpson_sigma

FREE = QuadraticEdgeModel()
COS = QuadraticEdgeModel(potential=TrigPoly(cos=(-1.0,)))  # rho^2/2 - cos(2 pi s)
DRIFTED = QuadraticEdgeModel(kappa=1.5, drift=TrigPoly(const=0.4, sin=(0.3,)),
                             potential=TrigPoly(cos=(-0.5,), const=0.2))


def _random_tables(n, seed=0):
    """Tabulated models on 4 random interior s-knots, rows k (rho - b)^2 / 2 + c."""
    rng = np.random.default_rng(seed)
    rho = np.linspace(-2.0, 2.0, 7)
    for _ in range(n):
        s = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 4)), [1.0]])
        rows = []
        for _ in range(6):
            c, k, b = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(-1, 1)
            rows.append(k * (rho - b) ** 2 / 2 + c)
        yield TabulatedEdgeModel(s, rho, np.array(rows))


def _lp_critical_value(model):
    """max over s of fiber_min, one LP per s-interval: max t subject to
    t <= (1 - w) v0[j] + w v1[j] for every rho knot j, with w in [0, 1]."""
    best = -np.inf
    for v0, v1 in zip(model.values[:-1], model.values[1:]):
        res = linprog([0.0, -1.0], A_ub=np.column_stack([v0 - v1, np.ones_like(v0)]),
                      b_ub=v0, bounds=[(0.0, 1.0), (None, None)], method="highs")
        best = max(best, -res.fun)
    return best


class TestCriticalValue:
    def test_free(self):
        assert critical_value(FREE) == pytest.approx(0.0, abs=1e-12)

    def test_cosine(self):
        assert critical_value(COS) == pytest.approx(1.0, abs=1e-10)

    def test_constant_shift(self):
        shifted = QuadraticEdgeModel(potential=TrigPoly(const=3.0))
        assert critical_value(shifted) == pytest.approx(3.0, abs=1e-12)

    def test_tabulated_exact(self):
        """Tables with narrow s-intervals: the 25th drawn peaks at s = 0.99974,
        inside an interval of width 5e-4, narrower than the spacing of a
        2049-point grid."""
        grid = np.linspace(0.0, 1.0, 200_001)
        for model in _random_tables(40):
            cv = critical_value(model)
            assert cv >= model.fiber_min(grid).max() - 1e-12
            assert cv == pytest.approx(_lp_critical_value(model), abs=1e-9)
            assert EdgeProfile("e", model).a_e == pytest.approx(cv, abs=1e-12)
            assert critical_value(model.reversed()) == cv


class TestSigmaPlus:
    def test_free_closed_form(self):
        assert FREE.sigma_plus(0.3, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert FREE.sigma_plus(0.9, 0.0) == 0.0

    def test_cosine_at_zero(self):
        assert COS.sigma_plus(0.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_below_minimum_raises(self):
        with pytest.raises(LevelBelowMinimum):
            COS.sigma_plus(0.5, -2.0)


class TestSigma:
    def test_free(self):
        p = EdgeProfile("e", FREE)
        assert p.sigma(2.0) == pytest.approx(2.0, abs=1e-12)
        assert p.sigma(0.0) == 0.0

    def test_cosine_analytic_integral(self):
        # int_0^1 sqrt(2 (1 + cos 2 pi s)) ds = 4 / pi
        assert EdgeProfile("e", COS).sigma(1.0) == pytest.approx(4.0 / np.pi,
                                                                abs=1e-8)

    def test_batched_matches_scalar(self):
        p = EdgeProfile("e", COS)
        a = np.array([1.0, 1.5, 3.0])
        batched = p.sigma(a)
        for i, ai in enumerate(a):
            assert batched[i] == pytest.approx(p.sigma(float(ai)), abs=1e-13)


_COEF = st.floats(-1.0, 1.0)


@st.composite
def edge_models(draw):
    """Quadratic models with drift and potential, or tabulated samples of one."""
    model = QuadraticEdgeModel(
        kappa=draw(st.floats(0.5, 3.0)),
        drift=TrigPoly(const=draw(_COEF), cos=(draw(_COEF),), sin=(draw(_COEF),)),
        potential=TrigPoly(const=draw(_COEF), cos=(draw(_COEF),), sin=(draw(_COEF),)))
    if draw(st.booleans()):
        return model
    s = np.linspace(0.0, 1.0, draw(st.integers(2, 9)))
    rho = np.linspace(-16.0, 16.0, draw(st.integers(9, 41)))
    return TabulatedEdgeModel(s, rho, model.value(s[:, None], rho[None, :]))


_LEVELS = st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=6)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(model=edge_models(), offsets=_LEVELS, n=st.sampled_from([257, 256]))
def test_grid_kernel_matches_simpson_oracle(model, offsets, n):
    """EdgeProfile.sigma, forward and reversed, scalar and array levels.

    An even grid has asymmetric Simpson weights, so it also checks that the
    reversed kernel is mirrored in s."""
    fwd = EdgeProfile("e", model, n_quad=n)
    for prof, m in ((fwd, model), (fwd.reversed("e~"), model.reversed())):
        a = prof.a_e + np.array(offsets)
        want = simpson_sigma(m, a, n_samples=n)
        np.testing.assert_allclose(prof.sigma(a), want, rtol=1e-13, atol=1e-13)
        assert prof.sigma(float(a[0])) == pytest.approx(want[0], rel=1e-13,
                                                        abs=1e-13)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(models=st.lists(edge_models(), min_size=3, max_size=3), offsets=_LEVELS)
def test_sigma_all_matches_simpson_oracle(honeycomb, models, offsets):
    """The all-edge call on mixed quadratic and tabulated edges."""
    g, _ = honeycomb
    profs = build_profiles(g, dict(zip(g.orientation, models)))
    a = profs.a0 + np.array(offsets)
    want = np.array([simpson_sigma(profs[e].model, a) for e in sorted(g.edges)])
    np.testing.assert_allclose(profs.sigma_all(a), want, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(profs.sigma_all(a[0]), want[:, 0], rtol=1e-13,
                               atol=1e-13)


class TestDiscreteHamiltonian:
    def test_free_inverse(self):
        p = EdgeProfile("e", FREE)
        assert p.hamiltonian(2.0) == pytest.approx(2.0, abs=1e-9)

    def test_endpoint(self):
        p = EdgeProfile("e", COS)
        assert p.hamiltonian(p.b_e) == pytest.approx(p.a_e, abs=1e-12)

    def test_round_trip(self):
        p = EdgeProfile("e", COS)
        for a in [p.a_e + 0.1, 1.0 + 1e-3, 2.0, 11.0]:
            assert p.hamiltonian(float(p.sigma(a))) == pytest.approx(
                a, abs=1e-8)

    def test_below_domain_raises(self):
        p = EdgeProfile("e", COS)
        with pytest.raises(DomainError):
            p.hamiltonian(p.b_e - 0.1)


class TestDiscreteLagrangian:
    def test_free_closed_form(self):
        p = EdgeProfile("e", FREE)
        assert p.lagrangian(3.0) == pytest.approx(4.5, abs=1e-8)

    def test_zero_speed(self):
        for model in (FREE, COS, DRIFTED):
            p = EdgeProfile("e", model)
            assert p.lagrangian(0.0) == -p.a_e

    def test_fenchel_young(self):
        p = EdgeProfile("e", COS)
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = p.b_e + float(rng.uniform(0, 4))
            lam = float(rng.uniform(0, 4))
            lhs = rho * lam
            rhs = p.hamiltonian(rho) + p.lagrangian(lam)
            assert lhs <= rhs + 1e-8

    def test_momentum_form_cross_check(self):
        # the same conjugate through rho-space: max over rho of rho lam - H(rho)
        p = EdgeProfile("e", COS)
        for lam in [0.3, 1.0, 2.5]:
            rhos = np.linspace(p.b_e, p.b_e + 30.0, 4001)
            vals = [rho * lam - p.hamiltonian(float(rho)) for rho in rhos]
            assert p.lagrangian(lam) == pytest.approx(
                max(vals), abs=5e-5)


class TestStructuralProperties:
    def test_sigma_increasing_and_concave(self):
        p = EdgeProfile("e", DRIFTED)
        a = p.a_e + np.geomspace(1e-3, 20, 30)
        vals = p.sigma(a)
        assert (np.diff(vals) > 0).all()
        mid = p.sigma((a[:-2] + a[2:]) / 2)
        assert (mid >= (vals[:-2] + vals[2:]) / 2 - 1e-12).all()

    def test_sigma_sublinear(self):
        p = EdgeProfile("e", COS)
        a = p.a_e + np.geomspace(1.0, 1e5, 12)
        ratio = p.sigma(a) / a
        assert (np.diff(ratio) < 0).all()
        assert ratio[-1] < 0.02

    def test_hamiltonian_convex(self):
        p = EdgeProfile("e", COS)
        rho = np.linspace(p.b_e + 0.1, p.b_e + 6, 25)
        vals = np.array([p.hamiltonian(float(r)) for r in rho])
        assert (vals[1:-1] <= (vals[:-2] + vals[2:]) / 2 + 1e-10).all()
        assert (np.diff(vals) > 0).all()

    def test_lagrangian_convex(self):
        p = EdgeProfile("e", DRIFTED)
        lam = np.linspace(0.0, 5.0, 21)
        vals = np.array([p.lagrangian(float(x)) for x in lam])
        assert (vals[1:-1] <= (vals[:-2] + vals[2:]) / 2 + 1e-8).all()

    def test_shift_law(self):
        b = 0.7
        base = EdgeProfile("e", COS)
        shifted = EdgeProfile("e", QuadraticEdgeModel(
            potential=TrigPoly(const=b, cos=(-1.0,))))
        assert shifted.a_e == pytest.approx(base.a_e + b, abs=1e-10)
        rho = base.b_e + 0.8
        assert shifted.hamiltonian(rho) == pytest.approx(
            base.hamiltonian(rho) + b, abs=1e-8)
        assert shifted.lagrangian(1.3) == pytest.approx(
            base.lagrangian(1.3) - b, abs=1e-7)

    def test_reversal(self):
        rev = DRIFTED.reversed()
        assert critical_value(rev) == pytest.approx(critical_value(DRIFTED),
                                                    abs=1e-10)
        s = np.array([0.15, 0.4, 0.85])
        a = 1.7
        assert np.allclose(rev.sigma_plus(s, a), -DRIFTED.sigma_minus(1 - s, a))
        assert rev.reversed() is DRIFTED


class TestTabulated:
    def _from_quadratic(self, model, n_s=41, n_rho=161, rho_span=8.0):
        s = np.linspace(0, 1, n_s)
        rho = np.linspace(-rho_span, rho_span, n_rho)
        vals = model.value(s[:, None], rho[None, :])
        return TabulatedEdgeModel(s, rho, vals)

    def test_matches_quadratic(self):
        tab = self._from_quadratic(COS)
        assert critical_value(tab) == pytest.approx(1.0, abs=1e-6)
        p_tab = EdgeProfile("e", tab)
        p_cos = EdgeProfile("e", COS)
        assert p_tab.sigma(1.5) == pytest.approx(p_cos.sigma(1.5), abs=2e-3)
        assert p_tab.lagrangian(1.0) == pytest.approx(p_cos.lagrangian(1.0),
                                                      abs=5e-3)

    def test_level_crossing_extrapolates(self):
        tab = self._from_quadratic(FREE, rho_span=2.0)
        # level above the sampled range: linear extrapolation of the end slope
        val = tab.sigma_plus(0.5, 4.0)
        assert val > 2.0

    def test_nonconvex_rejected(self):
        s = np.array([0.0, 1.0])
        rho = np.array([-1.0, 0.0, 1.0])
        vals = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NonConvexModel):
            TabulatedEdgeModel(s, rho, vals)

    def test_noncoercive_rejected(self):
        s = np.array([0.0, 1.0])
        rho = np.array([-1.0, 0.0, 1.0])
        vals = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # flat right end
        with pytest.raises(NonConvexModel):
            TabulatedEdgeModel(s, rho, vals)

    def test_reversed_profile_reflects_critical_value(self):
        models = [DRIFTED, QuadraticEdgeModel(potential=TrigPoly(cos=(-0.5,),
                                                                 sin=(0.3,))),
                  self._from_quadratic(DRIFTED)]
        for model in models:
            rev = EdgeProfile("e", model).reversed("e~")
            fresh = EdgeProfile("e~", model.reversed())
            assert rev.a_e == pytest.approx(critical_value(model.reversed()),
                                            abs=1e-12)
            assert rev.b_e == pytest.approx(fresh.b_e, abs=1e-12)

    def test_reversal_of_tabulated(self):
        drift_tab = self._from_quadratic(DRIFTED, n_s=81, n_rho=321)
        rev = drift_tab.reversed()
        s = np.array([0.25, 0.6])
        assert np.allclose(rev.sigma_plus(s, 2.0),
                           -drift_tab.sigma_minus(1 - s, 2.0))

    def test_grid_kernel_searches_all_levels_at_once(self):
        """One crossing search over a ladder block of levels is bit for bit the
        stack of one search per level, forward and reversed; a level below the
        fiberwise minimum still raises."""
        prof = EdgeProfile("e", self._from_quadratic(COS))
        a = prof.a_e + 4e-7 * (1e7 ** (1 / 11999)) ** np.arange(516)
        for grid in (prof.grid, prof.grid.reversed()):
            rows = np.stack([grid.model._crossing(grid.cols, float(av), grid.right)
                             for av in a])
            want = rows @ grid.weights
            np.testing.assert_array_equal(grid.sigma(a), want if grid.right else -want)
            with pytest.raises(LevelBelowMinimum):
                grid.sigma(np.append(a, prof.a_e - 1e-6))


class TestEdgeAction:
    def test_free_closed_form(self):
        p = EdgeProfile("e", FREE)
        assert p.action(2.0) == pytest.approx(0.25, abs=1e-9)
        assert p.action(1.0) == pytest.approx(0.5, abs=1e-9)

    def test_large_time_slope(self):
        p = EdgeProfile("e", COS)
        for T in [50.0, 200.0]:
            assert p.action(T) / T == pytest.approx(-p.a_e, abs=5e-2)
        assert abs(p.action(200.0) / 200.0 + p.a_e) < abs(
            p.action(50.0) / 50.0 + p.a_e)

    def test_grid_dp_oracle(self):
        p = EdgeProfile("e", COS)
        want = p.action(1.0)
        got = dp_edge_action_refined(COS, 1.0)
        assert got == pytest.approx(want, rel=0.02)


def test_flux_limiter(bouquet, honeycomb):
    gb, _ = bouquet
    profs = build_profiles(gb, {"f1": FREE, "f2": FREE})
    assert flux_limiter(gb, profs, "v") == 0.0

    gh, _ = honeycomb
    mixed = build_profiles(gh, {"e0": COS, "e1": FREE, "e2": FREE})
    assert flux_limiter(gh, mixed, "x1") == pytest.approx(-1.0, abs=1e-10)
    assert flux_limiter(gh, mixed, "x2") == pytest.approx(-1.0, abs=1e-10)

    loop = build_profiles(gb, {"f1": COS, "f2": COS})
    assert flux_limiter(gb, loop, "v") == pytest.approx(-1.0, abs=1e-10)


def test_negative_speed_rejected():
    p = EdgeProfile("e", FREE)
    with pytest.raises(DomainError):
        p.lagrangian(-0.5)
    with pytest.raises(DomainError):
        p.action(0.0)


def test_concave_max_evaluates_each_bracket_point_once():
    seen = []

    def f(a):
        seen.append(a)
        return -(a - 3.0) ** 2

    value, a = _concave_max(f, 0.0, hi_hint=1.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert a == pytest.approx(3.0, abs=1e-6)
    # doublings 1 -> 2 -> 4: each new upper end is one evaluation, since the
    # midpoint lo + step / 2 is the previous upper end
    assert seen[:4] == [1.0, 0.5, 2.0, 4.0]
    assert len(set(seen)) == len(seen)
