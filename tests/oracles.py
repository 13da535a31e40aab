"""Independent numerical oracles and cross-checks used by the test suite only."""

import numpy as np
from scipy.integrate import simpson

from hjnet.action import LiftedReach, crystal_potential
from hjnet.cell_problem import effective_hamiltonian
from hjnet.crystal import BoxGraph, Crystal, CrystalVertex
from hjnet.edge_calculus import _concave_max, _increasing_root
from hjnet.errors import BudgetExceeded, Unreachable
from hjnet.mather import MatherSolver


def simpson_sigma(model, a, n_samples=257):
    """Composite-Simpson integral over s of model.sigma_plus at level a.

    Evaluates the model pointwise at every call, one level at a time: the
    reference for the cached grid kernels of ``EdgeProfile`` and
    ``EdgeProfiles.sigma_all``.
    """
    s = np.linspace(0.0, 1.0, n_samples)
    a_arr = np.asarray(a, dtype=float)
    vals = [simpson(np.asarray(model.sigma_plus(s, float(x))), x=s)
            for x in a_arr.ravel()]
    return float(vals[0]) if a_arr.ndim == 0 else np.reshape(vals, a_arr.shape)


def karp_min_cycle_mean(g, weights):
    """Minimum cycle mean of per-edge ``weights`` (dict), by Karp's loops.

    D[k, v] is the least weight of a k-edge walk from the first vertex to v;
    the reference for the vectorised ``cell_problem.min_cycle_weight``.
    """
    vindex = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    edges = [(vindex[g.origin(e)], vindex[g.terminus(e)], weights[e])
             for e in sorted(g.edges)]
    D = np.full((n + 1, n), np.inf)
    D[0, 0] = 0.0
    for k in range(1, n + 1):
        row = D[k]
        prev = D[k - 1]
        for o, t, w in edges:
            cand = prev[o] + w
            if cand < row[t]:
                row[t] = cand
    best = np.inf
    for v in range(n):
        if not np.isfinite(D[n, v]):
            continue
        ks = np.arange(n)
        finite = np.isfinite(D[ks, v])
        vals = (D[n, v] - D[ks[finite], v]) / (n - ks[finite])
        best = min(best, float(vals.max()))
    return best


def lagrangian_closed_form(model):
    """Pointwise Lagrangian (s, lam) -> max_rho (rho lam - H(s, rho)).

    Closed form for the quadratic family: (lam - drift)^2 / (2 kappa) - potential.
    """

    def L(s, lam):
        return (lam - model.drift(s)) ** 2 / (2 * model.kappa) - model.potential(s)

    return L


def dp_edge_action(model, T, n_s, n_t, k_sub=7):
    """Dynamic program on a Riemann-sum action for one arc traversal.

    States are grid points of [0,1]; each time step moves between any two
    grid points at the implied constant speed, paying the Lagrangian averaged
    over k_sub samples along the segment.  Returns the minimal cost of
    linking s=0 to s=1 in time T.
    """
    L = lagrangian_closed_form(model)
    s = np.linspace(0.0, 1.0, n_s)
    dt = T / n_t
    speed = (s[None, :] - s[:, None]) / dt
    step_cost = np.zeros((n_s, n_s))
    for tau in np.linspace(0.0, 1.0, k_sub):
        step_cost += L(s[:, None] * (1 - tau) + s[None, :] * tau, speed)
    step_cost *= dt / k_sub
    value = np.full(n_s, np.inf)
    value[0] = 0.0
    for _ in range(n_t):
        value = np.min(value[:, None] + step_cost, axis=0)
    return float(value[-1])


# s is refined faster than t so the speed quantum (n_t/n_s)/T shrinks too
_DP_LADDER = [(41, 41), (81, 41), (161, 61), (321, 81), (641, 121)]


def dp_edge_action_refined(model, T, rel_tol=7e-3):
    """Walk the DP grid ladder until consecutive values stabilize."""
    prev = dp_edge_action(model, T, *_DP_LADDER[0])
    for n_s, n_t in _DP_LADDER[1:]:
        cur = dp_edge_action(model, T, n_s, n_t)
        if abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def allocation_grid_action(profiles, edge_ids, T, n=240):
    """Minimal sum of T_i L(e_i, 1/T_i) over the time simplex, by grid search.

    Valid when the optimum moves on every edge (no pauses); per-edge cost
    rows are precomputed so the combinatorial sweep is a vectorized sum.
    """
    m = len(edge_ids)
    ks = np.arange(1, n)
    costs = []
    for e in edge_ids:
        prof = profiles[e]
        row = np.array([(T * k / n) * prof.lagrangian(n / (T * k)) for k in ks])
        costs.append(row)
    if m == 1:
        return float(costs[0][-1])
    if m == 2:
        k1 = ks[:, None]
        k2 = n - k1
        valid = (k2 >= 1) & (k2 < n)
        total = np.where(valid, costs[0][:, None]
                         + np.take(costs[1], np.clip(k2 - 1, 0, n - 2)), np.inf)
        return float(total.min())
    if m == 3:
        k1 = ks[:, None]
        k2 = ks[None, :]
        k3 = n - k1 - k2
        valid = (k3 >= 1) & (k3 <= n - 2)
        c3 = np.take(costs[2], np.clip(k3 - 1, 0, n - 2))
        total = np.where(valid, costs[0][:, None] + costs[1][None, :] + c3, np.inf)
        return float(total.min())
    raise ValueError("allocation oracle supports up to 3 edges")


def _shift_slices(offset, n):
    src, dst = [], []
    for t in offset:
        t = int(t)
        src.append(slice(max(-t, 0), n - max(t, 0)))
        dst.append(slice(max(t, 0), n + min(t, 0)))
    return tuple(src), tuple(dst)


def sweep_reach(g, tm, profiles, source_vertex, source_h, radius, a_values,
                reverse=False):
    """Label-correcting sweeps for the cheapest lifted walk weights sum sigma(e, a).

    Gauss-Seidel passes over every edge relax whole shifted box slices at
    once, batched over the levels, until a pass improves nothing.  Returns
    an array of shape (levels, |V0|, 2r+1, ..., 2r+1) centered at source_h,
    with walks INTO the source when ``reverse``.  Closed crystal walks have
    nonnegative weight at levels >= a0, so the passes terminate; more
    passes than box nodes would mean a negative cycle.
    """
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    weights = np.stack([profiles[e].sigma(a_values) for e in sorted(g.edges)], axis=1)
    return sweep_weights(g, tm, weights, source_vertex, radius, reverse)


def sweep_weights(g, tm, weights, source_vertex, radius, reverse=False):
    """``sweep_reach`` for given weights of shape (levels, len(g.edges)).

    Columns follow ``sorted(g.edges)``, as in ``BoxGraph.levels``.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    b, n = tm.betti, 2 * radius + 1
    vindex = {v: i for i, v in enumerate(g.vertices)}
    dist = np.full((weights.shape[0], len(g.vertices)) + (n,) * b, np.inf)
    dist[(slice(None), vindex[source_vertex]) + (radius,) * b] = 0.0
    w = {e: col.reshape((-1,) + (1,) * b)
         for e, col in zip(sorted(g.edges), weights.T)}
    for _ in range(len(g.vertices) * n ** b + 1):
        improved = False
        for e in sorted(g.edges):
            if reverse:
                u, v, off = g.terminus(e), g.origin(e), -tm.theta[e]
            else:
                u, v, off = g.origin(e), g.terminus(e), tm.theta[e]
            src, dst = _shift_slices(off, n)
            cand = dist[(slice(None), vindex[u]) + src] + w[e]
            target = dist[(slice(None), vindex[v]) + dst]
            if np.any(cand < target):
                improved = True
                np.minimum(target, cand, out=target)
        if not improved:
            return dist
    raise RuntimeError("sweeps did not settle: negative closed walk")


def _incident_critical(g, profiles, vertices):
    return max(profiles[e].a_e for v in vertices for e in g.star(v))


def min_action_exact_oracle(g, tm, profiles, query, edge_cap,
                            path_budget=500_000):
    """Exact minimal action on tiny instances by support enumeration.

    Supports are walks of at most ``edge_cap`` edges inside the rotation box
    of ``query``.  Each support is scored with the pause-aware clamp: surplus
    time pauses on the best edge incident to any visited vertex (equilibrium
    fluctuations reach it at zero cost within the support's own vertices).
    The reference for the dual bound of ``action.min_action``.
    """
    if len(g.orientation) > 4:
        raise ValueError("exact oracle is intended for <= 4 positive edges")
    if edge_cap > 12:
        raise ValueError("exact oracle is intended for edge caps <= 12")
    h = np.asarray(query.h, dtype=int)
    radius = query.radius()

    memo = {}  # value depends only on edge counts + clamp

    def support_value(edges, visited):
        clamp = _incident_critical(g, profiles, visited)
        key = (clamp, tuple(sorted(edges)))
        if key in memo:
            return memo[key]
        if not edges:
            val = -clamp * query.T
        else:
            def f(a):
                return (sum(float(profiles[e].sigma(a)) for e in edges)
                        - a * query.T)

            val = _concave_max(f, clamp,
                               hi_hint=max(1.0, (len(edges) / query.T) ** 2))[0]
        memo[key] = val
        return val

    best = np.inf
    count = 0
    stack = [(query.x, (), np.zeros_like(h), frozenset([query.x]))]
    while stack:
        v, edges, rot, visited = stack.pop()
        if v == query.y and np.array_equal(rot, h):
            best = min(best, support_value(edges, visited))
        if len(edges) == edge_cap:
            continue
        remaining = edge_cap - len(edges)
        for e in g.star(v):
            rot2 = rot + tm.theta[e]
            if np.max(np.abs(rot2), initial=0) > radius:
                continue
            if np.max(np.abs(h - rot2), initial=0) > remaining - 1:
                continue
            count += 1
            if count > path_budget:
                raise BudgetExceeded("support enumeration budget exhausted")
            stack.append((g.terminus(e), edges + (e,), rot2,
                          visited | {g.terminus(e)}))
    if not np.isfinite(best):
        raise Unreachable("no support reaches the requested endpoint within caps")
    return float(best)


def beta_flow_oracle(g, tm, profiles, h):
    """beta through the closed-flow LP of ``MatherSolver.flow_oracle``."""
    if len(g.orientation) > 8:
        raise ValueError("flow oracle is intended for graphs with <= 8 positive edges")
    value, _ = MatherSolver(g, tm, profiles).flow_oracle(h)
    return value


def lagrangian_grid_dense(solver, speeds):
    """L(e, q) = max over ladder levels a of q sigma(e, a) - a, by a dense scan.

    Grows the ladder until no edge's top-speed argmax is the last level, then
    takes the argmax of q sigma(e, a) - a over every level, eight speeds at
    a time, with the parabola through the maximum and its neighbours: the
    reference for the slope search of ``MatherSolver._lagrangian_grid``.
    """
    q_top, profiles = speeds.max(), solver.profiles
    while np.any((q_top * profiles.ladder_sig - profiles.ladder_a).argmax(axis=1)
                 == profiles.ladder_a.size - 1):
        profiles.grow_ladder()
    a, sig = profiles.ladder_a, profiles.ladder_sig
    out = np.empty((len(solver.g.edge_order), speeds.size))
    for j, e in enumerate(solver.g.edge_order):
        for lo in range(0, speeds.size, 8):
            q = speeds[lo:lo + 8]
            vals = q[:, None] * sig[j] - a
            k = vals.argmax(axis=1)
            idx = np.maximum(k, 1)[:, None] + np.arange(-1, 2)
            x, y = a[idx], np.take_along_axis(vals, idx, axis=1)
            d1, d2 = np.diff(y, axis=1).T / np.diff(x, axis=1).T
            c = (d2 - d1) / (x[:, 2] - x[:, 0])
            m = d1 + c * (x[:, 1] - x[:, 0])  # slope at the middle level
            with np.errstate(divide="ignore", invalid="ignore"):
                peak = np.where(c < 0, y[:, 1] - m**2 / (4 * c), y[:, 1])
            out[j, lo:lo + q.size] = np.where(k > 0, peak, vals[:, 0])
        out[j, speeds == 0.0] = -profiles[e].a_e
    return out


def reach_per_circuit(solver, radius):
    """``MatherSolver.reach`` by one root search per circuit: a_xi, the least
    a >= a0 where S_xi reaches radius |theta(xi)|, the largest alpha as
    max a_xi, and the speed bound from each circuit's secant at its own a_xi."""
    top, speed, d = solver.a0, 0.0, 1e-6
    sigma = solver.profiles.sigma_all
    for count, n in zip(solver._circuit_edge_count,
                        np.linalg.norm(solver.circuit_theta, axis=1)):
        a = _increasing_root(lambda a: count @ sigma(a) - radius * n, solver.a0, 1e-11)
        top, speed = max(top, a), max(speed, n * d / float(count @ (sigma(a + d) - sigma(a))))
    return top, speed


def conjugate_pair_check(g, tm, profiles, p, h, tol=1e-5):
    """Whether <p,h> = alpha(p) + beta(h) within tol."""
    solver = MatherSolver(g, tm, profiles)
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    gap = float(p @ h) - solver.alpha(p) - solver.beta(h)
    return abs(gap) <= tol


def convexity_probe(g, tm, profiles, p1, p2, tol=1e-7):
    """Midpoint convexity check of the effective Hamiltonian."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    mid = effective_hamiltonian(g, tm, profiles, (p1 + p2) / 2)
    v1 = effective_hamiltonian(g, tm, profiles, p1)
    v2 = effective_hamiltonian(g, tm, profiles, p2)
    return mid <= (v1 + v2) / 2 + tol


def metric_invariance_check(g, tm, x0, h, h_bar):
    """Distances between fibers over x0 depend only on the h difference."""
    c = Crystal(g, tm)
    h = tuple(int(k) for k in h)
    h_bar = tuple(int(k) for k in h_bar)
    d1 = c.graph_distance(CrystalVertex(x0, h), CrystalVertex(x0, h_bar))
    d2 = c.graph_distance(CrystalVertex(x0, (0,) * tm.betti),
                          CrystalVertex(x0, tuple(b - a for a, b in zip(h, h_bar))))
    return d1 == d2


def epsilon_solution_dense(g, tm, profiles, datum, z, t, eps, R, top, n=101,
                           m=11, rounds=17):
    """min over the ball eps d(z0, z) <= R of g(eps h0) + eps max_a [Psi_a - a t/eps].

    Psi_a is the walk weight from z0 = (x0, h0) into z on epsilon_solution's
    reverse box, from ``LiftedReach`` over n levels on [a0, top] for every
    vertex.  The least candidate then gets ``rounds`` grids of m levels
    between the neighbours of its best level (the dual is concave in a, so
    each bracket holds its maximizer), until the least candidate is refined.
    """
    T, ball = t / eps, R / eps
    r = int(np.ceil(ball)) + 1
    box = BoxGraph(g, tm, z, r, reverse=True)
    cells = np.moveaxis(np.indices(box.shape[1:]), 0, -1) - r + np.asarray(z.h)
    g_eps = datum.value(eps * cells.astype(float))
    potential = crystal_potential(g, tm, profiles)
    best = np.full(box.shape, -np.inf)
    for a in np.array_split(np.linspace(profiles.a0, top, n), max(1, n // 10)):
        vals = (LiftedReach(box, profiles, a, potential).dist
                - (a * T).reshape((-1,) + (1,) * len(box.shape)))
        best = np.maximum(best, vals.max(axis=0))
    u = np.where(box.hops() <= ball, g_eps + eps * best, np.inf)
    refined = np.zeros(box.shape, dtype=bool)
    while not refined[w := np.unravel_index(np.argmin(u), u.shape)]:
        vertex, h0 = g.vertices[w[0]], cells[w[1:]]
        lo, hi = profiles.a0, top
        for k in range(rounds):
            a = np.linspace(lo, hi, m)
            vals = LiftedReach(box, profiles, a, potential).at(vertex, h0) - a * T
            i = int(np.argmax(vals))
            assert k or i < m - 1  # the first grid brackets the maximizer
            u[w] = max(u[w], g_eps[w[1:]] + eps * float(vals[i]))
            lo, hi = a[max(i - 1, 0)], a[min(i + 1, m - 1)]
        refined[w] = True
    return float(u[w])
