import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjnet import homogenize
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import BoxGraph, CrystalVertex
from hjnet.edge_calculus import QuadraticEdgeModel, TrigPoly, build_profiles
from hjnet.errors import RadiusExhausted
from hjnet.homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                              TabulatedDatum, convergence_experiment,
                              epsilon_solution, limit_solution)
from hjnet.mather import MatherSolver

from conftest import networks
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
                assert got == pytest.approx(want, abs=1e-6)

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


def test_limit_cone_reaches_the_lattice_value(honeycomb_cos_quarter):
    # Hopf's formula sup_{|p|_inf <= 1.5} <p, h> - H_eff(p) by a dense search
    got = limit_solution(*honeycomb_cos_quarter, ConeDatum(1.5), (0.25, 0.0), 1.0)
    assert got == pytest.approx(0.08611774395279381, abs=1e-9)


def test_limit_cone_not_below_a_witness(honeycomb_cos_quarter):
    # Hopf's formula at one momentum of the box |p|_inf <= 1.5 bounds u below
    h, p_w = np.array([0.25, -0.5]), np.array([0.042742, -1.5])
    got = limit_solution(*honeycomb_cos_quarter, ConeDatum(1.5), h, 1.0)
    assert got >= p_w @ h - effective_hamiltonian(*honeycomb_cos_quarter, p_w) - 1e-9


def test_limit_tabulated_maximizer_on_the_ball(honeycomb_cos_quarter):
    # the least piece, anchor (1, 0.5), has its maximizer on the sphere |p|_2 = 1
    got = limit_solution(*honeycomb_cos_quarter, TABLE, (0.5, 0.25), 1.0)
    assert got == pytest.approx(-0.45 + np.sqrt(0.3125), abs=1e-9)


def test_limit_concave_cone_is_least_linear_piece(honeycomb_cos_quarter):
    h, c = np.array([0.5, 0.25]), -0.5
    want = min(c * np.array(s) @ h - effective_hamiltonian(*honeycomb_cos_quarter, c * np.array(s))
               for s in itertools.product((-1.0, 1.0), repeat=2))
    got = limit_solution(*honeycomb_cos_quarter, ConeDatum(c), h, 1.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_limit_matches_lattice_value_at_b3(k4_mixed):
    h = (0.5, 0.25, 0.0)
    # the tabulated datum's balls |p|_2 <= 1 meet faces of 0, 1 and 2 circuit
    # rows on the 3-d sphere
    table = TabulatedDatum(((0, 0, 0), (1, 0.5, 0), (-0.5, 1, 0.5)), (0.3, -0.2, 0.5), 1.0)
    for datum, want in ((ConeDatum(1.5), 0.625), (table, -0.14098300562505256)):
        got = limit_solution(*k4_mixed, datum, h, 1.0)
        u_eps = epsilon_solution(*k4_mixed, datum, _vertex("a", h, 1 / 4), 1.0, 1 / 4)
        assert got == pytest.approx(u_eps, abs=1e-9)
        assert got == pytest.approx(want, abs=1e-9)


def test_limit_cone_maximizer_on_the_box_face(drifted_loop):
    # alpha(p) = p^2/2 + 2p: sup over |p| <= 0.8 of 0.3 p - alpha(p) sits at
    # p = -0.8, where alpha = -1.28 is the least level that meets the box
    got = limit_solution(*drifted_loop, ConeDatum(0.8), (0.3,), 1.0)
    assert got == pytest.approx(1.04, abs=1e-9)


def test_limit_cone_of_slope_zero(drifted_loop, honeycomb_cos):
    """The box |p|_inf <= 0 is {0}: the limit is -t H_eff(0)."""
    for net, h in ((drifted_loop, (0.3,)), (honeycomb_cos, (0.5, -0.25))):
        got = limit_solution(*net, ConeDatum(0.0), h, 2.0)
        assert got == pytest.approx(-2.0 * effective_hamiltonian(*net, np.zeros(len(h))),
                                    abs=1e-9)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(net=networks(), data=st.data())
def test_limit_bounds_for_every_datum_family(net, data):
    """For linear, cone (c >= 0 and c < 0) and tabulated data on multigraphs
    with loops, multi-edges and trees (b = 0): u(h, t) <= g(h) - t a0, the
    Hopf-Lax value at h0 = h as beta(0) = -a0, and u(., t) keeps the datum's
    Lipschitz bound."""
    g, tm, profs = net
    b = tm.betti

    def vec(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=b, max_size=b)))

    family = data.draw(st.sampled_from(["linear", "cone", "concave cone", "tabulated"]))
    if family == "linear":
        datum = LinearDatum(tuple(vec(-1.5, 1.5)))
    elif family == "tabulated":
        datum = TabulatedDatum((tuple(vec(-1.0, 1.0)), tuple(vec(-1.0, 1.0))),
                               (data.draw(st.floats(-0.5, 0.5)), 0.0),
                               data.draw(st.floats(0.0, 1.5)))
    else:
        datum = ConeDatum(data.draw(st.floats(0.0, 1.5) if family == "cone"
                                    else st.floats(-1.5, -0.1)))
    t, h1, h2 = data.draw(st.floats(0.25, 2.0)), vec(-1.0, 1.0), vec(-1.0, 1.0)
    u1, u2 = (limit_solution(g, tm, profs, datum, h, t) for h in (h1, h2))
    assert u1 <= float(datum.value(h1)) - t * profs.a0 + 1e-9
    assert abs(u1 - u2) <= datum.lipschitz_bound(b) * np.linalg.norm(h1 - h2) + 1e-4


@pytest.mark.parametrize("datum, h, match", [
    (ConeDatum(1.5), (0.5,), "h must have b = 2"),
    (ConeDatum(1.5), (0.5, 0.25, 0.0), "h must have b = 2"),
    (TabulatedDatum(((0.0,),), (0.0,), 1.0), (0.5, 0.25), "dimension 1, not b = 2"),
    (LinearDatum((1.0, 0.0, 0.0)), (0.5, 0.25), "dimension 3, not b = 2"),
], ids=["h-short", "h-long", "tabulated-1d", "linear-3d"])
def test_limit_rejects_mismatched_dimensions(honeycomb_cos_quarter, datum, h, match):
    with pytest.raises(ValueError, match=match):
        limit_solution(*honeycomb_cos_quarter, datum, h, 1.0)


@pytest.mark.parametrize("datum, z, match", [
    (ConeDatum(1.5), CrystalVertex("x1", (2.5, 1)), "z.h must have integer entries"),
    (ConeDatum(1.5), CrystalVertex("x1", (2,)), "z.h must have b = 2"),
    (TabulatedDatum(((0.0,),), (0.0,), 1.0), CrystalVertex("x1", (2, 1)),
     "dimension 1, not b = 2"),
    (LinearDatum((1.0, 0.0, 0.0)), CrystalVertex("x1", (2, 1)), "dimension 3, not b = 2"),
    (ConeDatum(1.5), CrystalVertex("nope", (0, 0)), "unknown base vertex 'nope'"),
], ids=["z-fractional", "z-short", "tabulated-1d", "linear-3d", "z-base"])
def test_epsilon_rejects_mismatched_dimensions(honeycomb_cos_quarter, datum, z, match):
    with pytest.raises(ValueError, match=match):
        epsilon_solution(*honeycomb_cos_quarter, datum, z, 1.0, 0.25)


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

    def test_radius_exhausted(self, bouquet_free, monkeypatch):
        # speed 0 makes R = 1, and R = 2 after the doubling, against the
        # minimizer's distance of about 6 t
        g, tm, profs = bouquet_free
        _bind_ball(monkeypatch, 0.0)
        steep = LinearDatum((6.0, 0.0))  # pulls the minimizer far away
        with pytest.raises(RadiusExhausted):
            epsilon_solution(g, tm, profs, steep, CrystalVertex("v", (0, 0)),
                             1.0, 0.5)

    def test_tree_ball_reaches_a_far_minimizer(self, path_tree):
        """On a tree (b = 0) alpha is flat, yet the minimizer sits base-graph
        hops away: the default ball (unit speed) holds it at eps = 1."""
        g, tm, profs = path_tree
        z = CrystalVertex("e", ())
        got = epsilon_solution(g, tm, profs, ConeDatum(1.0), z, 3.0, 1.0)
        assert got == pytest.approx(epsilon_solution_dense(
            g, tm, profs, ConeDatum(1.0), z, 3.0, 1.0, 4.0, profs.a0 + 16.0), abs=1e-9)

    def test_ball_check_reads_the_winner(self, bouquet_free, monkeypatch):
        # speed 1.2 at t = 0.5 makes R = 1.6, which binds once; in the doubled
        # ball the last vertex refined lies on the rim but the winner does not,
        # so the ball must not bind again
        g, tm, profs = bouquet_free
        _bind_ball(monkeypatch, 1.2)
        got = epsilon_solution(g, tm, profs, LinearDatum((6.0, 0.0)),
                               CrystalVertex("v", (4, 2)), 0.5, 0.125)
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
        """The ball is derived from the datum and ``reach``: no radius is taken."""
        g, tm, profs = bouquet_free
        with pytest.raises(TypeError, match="'R'"):
            epsilon_solution(g, tm, profs, ZERO, CrystalVertex("v", (0, 0)),
                             1.0, 0.5, R=R)


def _bind_ball(monkeypatch, speed):
    """Make ``epsilon_solution``'s ball R = t speed + 1, keeping the real level cap."""
    reach = homogenize._reach_scales
    monkeypatch.setattr(homogenize, "_reach_scales",
                        lambda solver, L: (speed, reach(solver, L)[1]))


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
    """The library derives its ball (R = 2.888, 2.888, 3.125 and 1.891); the
    oracle searches the ball R given here, which also holds the minimizer."""
    g, tm, profs = request.getfixturevalue(network)
    z = _vertex(x, h, eps)
    got = epsilon_solution(g, tm, profs, datum, z, t, eps)
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


def _geometric_grid(a0, offset, n):
    """The earlier screen: a0, then a0 + geomspace(1e-6, offset, n - 1)."""
    return np.concatenate([[a0], a0 + np.geomspace(1e-6, offset, n - 1)])


@pytest.mark.parametrize("network, datum, x, h, t, eps", [
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.25, 0.0), 1.0, 1 / 16),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.5), 1.0, 1 / 16),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.25, 0.0), 1.0, 1 / 32),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.5), 1.0, 1 / 32),
    ("k4_mixed", ConeDatum(1.5), "a", (0.5, 0.25, 0.0), 1.0, 1 / 8),
    ("k4_drift", ConeDatum(1.5), "a", (0.5, 0.25, 0.0), 0.5, 1 / 4),
    ("drifted_loop", LinearDatum((0.0,)), "v", (0.0,), 2.0, 1 / 8),
    ("bouquet_free", TABLE, "v", (0.5, 0.25), 1.0, 1 / 4),
], ids=["honeycomb-quarter-16-a", "honeycomb-quarter-16-b", "honeycomb-quarter-32-a",
        "honeycomb-quarter-32-b", "k4-mixed-8", "k4-drift", "drifted-loop",
        "bouquet-tabulated"])
def test_screen_uniform_in_speed_matches_the_geometric_screen(request, monkeypatch,
                                                              network, datum, x, h, t, eps):
    """The 12-level screen gives the float of the 48-level geometric one, repr
    for repr: the certification, not the screen, decides (at (0.5, 0.5) and
    eps = 1/32 twelve vertices nearly tie)."""
    args = (*request.getfixturevalue(network), datum, _vertex(x, h, eps), t, eps)
    got = epsilon_solution(*args)
    monkeypatch.setattr(homogenize, "_a_grid", _geometric_grid)
    monkeypatch.setattr(homogenize, "_DUAL_LEVELS", 48)
    assert repr(got) == repr(epsilon_solution(*args))


def test_one_level_a0_search_per_box(honeycomb_cos_quarter, monkeypatch):
    """Every certification's walk at a0 reads one search at a0 to the ball's
    hop bound R/eps, so the call searches once per screen level, once at a0
    and at most once more per certification here.  Counted, not timed."""
    g, tm, profs = honeycomb_cos_quarter
    eps, w0 = 1 / 16, profs.sigma_all(profs.a0)
    searches, certs = [], []
    search, dual_max = BoxGraph._search, homogenize._dual_max

    def spy_search(self, w, shift, max_hops, predecessors=False):
        searches.append((id(self), predecessors and np.array_equal(w, w0), max_hops))
        return search(self, w, shift, max_hops, predecessors)

    def spy_dual_max(*args):
        certs.append(args[3])
        return dual_max(*args)

    monkeypatch.setattr(BoxGraph, "_search", spy_search)
    monkeypatch.setattr(homogenize, "_dual_max", spy_dual_max)
    epsilon_solution(g, tm, profs, ConeDatum(1.5), _vertex("x1", (0.5, 0.5), eps), 1.0, eps)
    q = homogenize._reach_scales(MatherSolver(g, tm, profs), 1.5 * np.sqrt(2))[0]
    at_a0 = [(box, hops) for box, a0, hops in searches if a0]
    assert len({box for box, _, _ in searches}) == 1 and len(certs) >= 2
    assert at_a0 == [(searches[0][0], (1.0 * q + 1.0) / eps)]
    assert len(searches) <= homogenize._DUAL_LEVELS + 1 + len(certs)


def test_one_screen_of_full_ball_levels(honeycomb_cos_quarter, monkeypatch):
    # criterion 7(c) at eps = 1/8; the derived ball R/eps (23.1) does not
    # expand, so every full-ball level belongs to the one screen
    rows = []
    levels = BoxGraph.levels

    def spy(self, weights, potential, max_hops=np.inf):
        for d in levels(self, weights, potential, max_hops):
            rows.append(max_hops)
            yield d

    monkeypatch.setattr(BoxGraph, "levels", spy)
    epsilon_solution(*honeycomb_cos_quarter, ConeDatum(1.5),
                     _vertex("x1", (0.5, 0.25), 1 / 8), 1.0, 1 / 8)
    q = homogenize._reach_scales(MatherSolver(*honeycomb_cos_quarter), 1.5 * np.sqrt(2))[0]
    ball = (1.0 * q + 1.0) / (1 / 8)
    assert max(rows) == ball == pytest.approx(23.1, abs=0.1)
    assert rows.count(ball) == homogenize._DUAL_LEVELS


def _pin_radius(monkeypatch, first=None):
    """Make the first reverse box of each search ball have radius ``first``,
    or the unchecked radius ceil(R/eps) + 1 if None."""
    monkeypatch.setattr(homogenize, "_box_radius", lambda g, tm, z, w_red, hops, rbox:
                        rbox if first is None else first)


def _reverse_box_radii(monkeypatch):
    """Radii of the reverse boxes built from now on, in build order."""
    radii, init = [], BoxGraph.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        if self.reverse:
            radii.append(self.radius)

    monkeypatch.setattr(BoxGraph, "__init__", spy)
    return radii


@pytest.mark.parametrize("network, datum, x, h, t, eps", [
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.25, 0.0), 1.0, 1 / 16),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.25), 1.0, 1 / 16),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.25, 0.0), 1.0, 1 / 32),
    ("honeycomb_cos_quarter", ConeDatum(1.5), "x1", (0.5, 0.25), 1.0, 1 / 32),
    ("k4_mixed", ConeDatum(1.5), "a", (0.5, 0.25, 0.0), 1.0, 1 / 8),
    ("drifted_loop", LinearDatum((0.0,)), "v", (0.0,), 2.0, 1 / 8),
    ("path_tree", ConeDatum(1.0), "e", (), 3.0, 1 / 4),
    ("k4_drift", ConeDatum(1.5), "a", (0.5, 0.25, 0.0), 0.5, 1 / 4),
], ids=["honeycomb-quarter-16-a", "honeycomb-quarter-16-b", "honeycomb-quarter-32-a",
        "honeycomb-quarter-32-b", "k4-mixed-8", "drifted-loop", "tree", "k4-drift"])
def test_sized_box_answers_match_the_full_box(request, monkeypatch, network, datum,
                                               x, h, t, eps):
    """The box sized by hop reach gives the float of the box of radius
    ceil(R/eps) + 1, repr for repr."""
    args = (*request.getfixturevalue(network), datum, _vertex(x, h, eps), t, eps)
    got = epsilon_solution(*args)
    _pin_radius(monkeypatch)
    assert repr(got) == repr(epsilon_solution(*args))


def test_zero_reduced_weight_keeps_the_full_box(k4_drift, monkeypatch):
    """At a0 a reduced weight of k4-drift is 0, so no hop count bounds the
    searches and the box keeps radius ceil(R/eps) + 1."""
    g, tm, profs = k4_drift
    radii = _reverse_box_radii(monkeypatch)
    datum, t, eps = ConeDatum(1.5), 0.5, 1 / 4
    epsilon_solution(g, tm, profs, datum, _vertex("a", (0.5, 0.25, 0.0), eps), t, eps)
    q = homogenize._reach_scales(MatherSolver(g, tm, profs), datum.lipschitz_bound(3))[0]
    assert radii == [int(np.ceil((t * q + 1.0) / eps)) + 1]


@pytest.mark.parametrize("network, x, h, eps, today, bound", [
    ("honeycomb_cos_quarter", "x1", (0.5, 0.25), 1 / 32, 94, 52),
    ("k4_mixed", "a", (0.5, 0.25, 0.0), 1 / 8, 22, 12),
], ids=["honeycomb-quarter-32", "k4-mixed-8"])
def test_reverse_box_sized_by_hop_reach(request, monkeypatch, network, x, h, eps,
                                        today, bound):
    """One reverse box, about half the radius ceil(R/eps) + 1 (``today``),
    when no search settles its outer layer."""
    radii = _reverse_box_radii(monkeypatch)
    epsilon_solution(*request.getfixturevalue(network), ConeDatum(1.5),
                     _vertex(x, h, eps), 1.0, eps)
    assert len(radii) == 1 and radii[0] <= bound < today


def test_outer_layer_hit_reruns_in_the_full_box(honeycomb_cos_quarter, monkeypatch):
    """At eps = 1/32 the screen settles nodes out to |dh|_inf = 49; a first
    box of radius 46 fails its rim check, and the rerun in the box of radius
    94 returns the unchecked float."""
    args = (*honeycomb_cos_quarter, ConeDatum(1.5), _vertex("x1", (0.5, 0.25), 1 / 32),
            1.0, 1 / 32)
    want = epsilon_solution(*args)
    radii = _reverse_box_radii(monkeypatch)
    _pin_radius(monkeypatch, 46)
    assert repr(epsilon_solution(*args)) == repr(want)
    assert radii == [46, 94]


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
        with pytest.raises(ValueError, match="samples must not be empty"):
            ExperimentGrid((), (0.25,))
        with pytest.raises(ValueError, match="eps_list must not be empty"):
            ExperimentGrid((((0.0, 0.0), 1.0),), ())

    @pytest.mark.parametrize("radius", [0.0, -1.0, NAN, INF])
    def test_grid_rejects_nonpositive_radius(self, radius):
        """``epsilon_solution`` derives its ball, so the grid takes no radius."""
        with pytest.raises(TypeError, match="'radius'"):
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

    @pytest.mark.parametrize("datum", [
        ConeDatum(1.5), TabulatedDatum(((0.0, 0.0), (0.5, -0.5)), (0.0, 0.2), 1.0)],
        ids=["cone", "tabulated"])
    def test_limits_equal_separate_calls(self, honeycomb_cos_quarter, datum):
        """One solver serves the whole experiment, with the same limits."""
        grid = ExperimentGrid((((0.5, 0.25), 1.0), ((-0.25, 0.5), 0.5)), (0.5, 0.25))
        report = convergence_experiment(*honeycomb_cos_quarter, datum, grid)
        assert [r["u_limit"] for r in report.rows] == [
            limit_solution(*honeycomb_cos_quarter, datum,
                           r["eps"] * np.round(np.asarray(r["h"]) / r["eps"]), r["t"])
            for r in report.rows]


@pytest.mark.parametrize("make", [lambda: ConeDatum(NAN), lambda: LinearDatum((NAN, 0.0))],
                         ids=["cone", "linear"])
def test_data_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()
