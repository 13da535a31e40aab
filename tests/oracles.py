"""Independent numerical oracles used by the test suite only."""

import numpy as np
from scipy.integrate import simpson


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

    Columns follow ``sorted(g.edges)``, as in ``BoxGraph.distances``.
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
