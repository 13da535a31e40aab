"""Mather's alpha/beta functions on the base graph.

alpha coincides with the effective Hamiltonian.  For batched evaluation the
solver exploits the circuit characterization: alpha(p) is the largest root,
over directed simple circuits xi, of

    S_xi(a) = <p, theta(xi)>        with  S_xi(a) = sum_{e in xi} sigma(e, a),

clipped from below at a0 (each S_xi is strictly increasing, so the root is
found by one inverse interpolation that ``alpha`` and ``alpha_batch`` share,
then polished in ``alpha`` by exact root finding).  This agrees with the
cycle-mean route of ``cell_problem.effective_hamiltonian``; the test suite
pins the two routes together.  Every computation here is a method of
``MatherSolver(g, tm, profiles)``, cheap to build per call.

alpha, beta and the flow LP below read sigma from the append-only ladder of
``EdgeProfiles``, which any solver on those profiles grows one block at a
time as far as its query needs; a solver extends its circuit sums block by
block before it reads them, so answers are history-free.

beta is the Fenchel conjugate of alpha: ``_refine_max``, the grid search
that ``hopf_sup`` runs on grids projected onto a ball, maximizes
<p, h> - alpha(p) on one 9^b grid per h, each level in one ``alpha_batch``
call over all grids (in chunks of ``_ROW_CHUNK`` rows, so memory stays flat
at b = 3), with at most ``_MAX_BOX_EXPANSIONS`` box doublings, and the exact
alpha at each maximizer; ``beta(h)`` is a one-row batch, bit for bit.
``flow_oracle`` realizes beta independently as the minimal action of closed
measures: atomic measures on a finite speed grid turn the problem into a
linear program over edge/speed masses with conservation and rotation
constraints, solved by HiGHS and refined around the active speeds.  Its cost
grid L(e, q) = max over ladder levels of q sigma(e, a) - a is certified: the
ladder grows until every maximizing level is interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog

from .base_graph import BaseGraph, ThetaMap, rotation_vector
from .cell_problem import enumerate_circuits
from .edge_calculus import _LADDER_BLOCK, EdgeProfiles
from .errors import BoxExpansionLimit, ConvergenceFailure, finite

DEFAULT_SEARCH_BOX = 4.0
_MAX_BOX_EXPANSIONS = 40
_SPEED_CHUNK = 8
_ROW_CHUNK = 1 << 16  # alpha_batch rows per pass; bounds its (rows, circuits) arrays
_REFINE_PTS = 9  # grid points per axis of each conjugation refinement level
_REFINE_LEVELS = 24  # halvings of every _refine_max search
_N_SPEEDS = 201  # speeds of the flow LP grid, 0 included


@dataclass
class ClosedFlow:
    """Per-directed-edge time fractions and fluxes of a closed measure."""

    time_fraction: dict[str, float]
    flux: dict[str, float]

    def mass(self) -> float:
        return sum(self.time_fraction.values())

    def rotation(self, tm: ThetaMap) -> np.ndarray:
        out = np.zeros(tm.betti)
        for e, f in self.flux.items():
            out = out + f * tm.theta[e]
        return out

    def conservation_residual(self, g: BaseGraph) -> float:
        net = {v: 0.0 for v in g.vertices}
        for e, f in self.flux.items():
            net[g.origin(e)] -= f
            net[g.terminus(e)] += f
        return max(abs(x) for x in net.values())


def _refine_max(objective, m: int, b: int, halfwidth: float):
    """Best point seen and its value per row of m grid searches over R^b: per
    level, ``objective`` maps the stacked 9^b grids (m, 9^b, b) to (m, 9^b) and
    may move the points in place (onto a constraint set); each row recentres on
    its best point, as moved, and halves the half-width."""
    rows = np.arange(m)
    grid = np.indices((_REFINE_PTS,) * b).reshape(b, -1).T  # C-order multi-indices
    center = np.zeros((m, b))
    best_p, best_val = center.copy(), np.full(m, -np.inf)
    hw = halfwidth
    for _ in range(_REFINE_LEVELS):
        axes = np.linspace(center - hw, center + hw, _REFINE_PTS, axis=-1)  # (m, b, 9)
        # (m, 9^b, b), C-contiguous so each row's BLAS call is the same
        P = np.ascontiguousarray(axes[:, np.arange(b), grid])
        vals = objective(P)
        i = vals.argmax(axis=1)
        top, center = vals[rows, i], P[rows, i]
        better = top > best_val
        best_val[better] = top[better]
        best_p[better] = center[better]
        hw /= 2.0
    return best_p, best_val


class MatherSolver:
    """alpha/beta of one (graph, theta, profiles): circuits, theta, ladder sums."""

    def __init__(self, g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles):
        self.g = g
        self.tm = tm
        self.profiles = profiles
        self.a0 = profiles.a0
        self.circuits = enumerate_circuits(g)
        self.circuit_theta = np.array(
            [rotation_vector(c, tm) for c in self.circuits], dtype=float)
        self._circuit_edge_count = np.array(
            [[c.edges.count(e) for e in g.edge_order] for c in self.circuits],
            dtype=float).reshape(len(self.circuits), len(g.edge_order))
        self._S = np.empty((len(self.circuits), 0))

    # ----- the sigma ladder -----

    def _sums(self) -> np.ndarray:
        """Circuit sums over the whole ladder, extended one ladder block at a
        time (a0 alone, then ``_LADDER_BLOCK`` levels) whoever grew it: one
        product over several blocks can round differently in the last bits."""
        sig = self.profiles.ladder_sig
        while (lo := self._S.shape[1]) < sig.shape[1]:
            hi = lo + (_LADDER_BLOCK if lo else 1)
            self._S = np.concatenate(
                [self._S, self._circuit_edge_count @ sig[:, lo:hi]], axis=1)
        return self._S

    def _cover(self, r: np.ndarray):
        """Grow until every circuit sum at the top level exceeds its r."""
        while np.any(r >= self._sums()[:, -1]):
            self.profiles.grow_ladder()
        return self.profiles.ladder_a, self._S

    def _circuit_sum(self, ci: int, a: float) -> float:
        return float(self._circuit_edge_count[ci] @ self.profiles.sigma_all(a))

    # ----- alpha -----

    def _circuit_levels(self, r: np.ndarray):
        """Per circuit xi in turn, the ladder level a where S_xi(a) reaches
        column xi of r (rows, circuits), interpolated; a0 where S_xi(a0) does."""
        a_vals, S = self._cover(r.max(axis=0, initial=-np.inf))
        for ci in range(r.shape[1]):
            yield np.interp(r[:, ci], S[ci], a_vals)

    def alpha_batch(self, P: np.ndarray) -> np.ndarray:
        """Interpolated effective Hamiltonian at each row of P (shape (m, b))."""
        P = np.atleast_2d(finite("momenta P", P))
        out = np.full(P.shape[0], self.a0)
        if not self.circuits:
            return out
        for lo in range(0, P.shape[0], _ROW_CHUNK):
            r = P[lo:lo + _ROW_CHUNK] @ self.circuit_theta.T  # (rows, n_circuits)
            part = out[lo:lo + _ROW_CHUNK]
            for level in self._circuit_levels(r):
                np.maximum(part, level, out=part)
        return out

    def alpha(self, p) -> float:
        """Effective Hamiltonian at a single p, exact up to root-finding."""
        p = finite("momentum p", p)
        if not self.circuits:
            return self.a0
        r = self.circuit_theta @ p
        cand = np.concatenate(list(self._circuit_levels(r[None])))
        a_vals, S = self.profiles.ladder_a, self._S
        best = float(cand.max())
        val = self.a0
        for ci in np.nonzero(cand >= best - 1e-3)[0]:
            if self._circuit_sum(ci, self.a0) >= r[ci]:
                continue
            hi = a_vals[max(1, np.searchsorted(S[ci], r[ci], side="right"))]
            root = brentq(lambda a: self._circuit_sum(ci, a) - r[ci],
                          self.a0, hi, xtol=1e-11)
            val = max(val, float(root))
        return val

    # ----- beta by conjugation -----

    def beta_batch(self, H, search_box: float = DEFAULT_SEARCH_BOX) -> np.ndarray:
        """beta at each row of H (shape (m, b)), with automatic box expansion.

        Rows whose maximizer sits on the box boundary are re-run together at
        twice the box, at most ``_MAX_BOX_EXPANSIONS`` times; every row is
        computed as if it were alone.
        """
        H = np.atleast_2d(finite("rotation vectors H", H))
        if H.shape[1] == 0:
            return np.full(H.shape[0], -self.alpha(np.zeros(0)))
        if not (search_box > 0 and np.isfinite(search_box * 2.0**_MAX_BOX_EXPANSIONS)):
            raise ValueError(f"search_box must be positive and finite after "
                             f"{_MAX_BOX_EXPANSIONS} doublings, not {search_box}")
        out = np.empty(H.shape[0])
        todo = np.arange(H.shape[0])
        hw = float(search_box)
        for _ in range(_MAX_BOX_EXPANSIONS + 1):
            Ht = H[todo]
            p_star, val = _refine_max(  # <p, h> - alpha(p) on each row's grid
                lambda P: np.matmul(P, Ht[:, :, None])[..., 0]
                - self.alpha_batch(P.reshape(-1, H.shape[1])).reshape(P.shape[:2]),
                todo.size, H.shape[1], hw)
            inside = np.abs(p_star).max(axis=1) < hw * (1 - 1e-9)
            for k in np.nonzero(inside)[0]:
                val[k] = p_star[k] @ H[todo[k]] - self.alpha(p_star[k])
            out[todo[inside]] = val[inside]
            todo = todo[~inside]
            if not todo.size:
                return out
            hw *= 2.0
        raise BoxExpansionLimit(
            f"conjugation maximizer still on the boundary at box {hw}")

    def beta(self, h) -> float:
        """sup over p of <p, h> - alpha(p): a one-row ``beta_batch``."""
        return float(self.beta_batch(np.asarray(h, dtype=float)[None])[0])

    def hopf_sup(self, q: np.ndarray, t: float, radius: float, ord: float) -> float:
        """sup of <p, q> - t alpha(p) over the ball |p|_ord <= radius, ord inf or 2:
        the grid search on grids clipped (inf) or scaled radially (2) onto the
        ball, then the exact alpha at the best point."""
        def objective(P):
            n = np.linalg.norm(P, axis=-1, keepdims=True)
            P[...] = (np.clip(P, -radius, radius) if ord == np.inf
                      else P * (radius / np.maximum(n, radius or 1.0)))
            return P @ q - t * self.alpha_batch(P.reshape(-1, q.size)).reshape(P.shape[:2])
        p = _refine_max(objective, 1, q.size, radius)[0][0] if q.size else q
        return float(p @ q) - t * self.alpha(p)

    # ----- beta by closed-flow linear programming -----

    def _lagrangian_grid(self, speeds: np.ndarray) -> np.ndarray:
        """L(e, q) = max over ladder levels a of q sigma(e, a) - a, per edge.

        The ladder grows until, on every edge, the top speed's maximizing
        level is interior.  The maximizer moves up with q, so that certifies
        every speed.  A parabola through the discrete maximum and its two
        neighbours (sigma is concave) removes the O(spacing^2) grid error.
        """
        q_top, profiles = speeds.max(), self.profiles
        while np.any((q_top * profiles.ladder_sig - profiles.ladder_a).argmax(axis=1)
                     == profiles.ladder_a.size - 1):
            profiles.grow_ladder()
        a, sig = profiles.ladder_a, profiles.ladder_sig
        out = np.empty((len(self.g.edge_order), speeds.size))
        for j, e in enumerate(self.g.edge_order):
            for lo in range(0, speeds.size, _SPEED_CHUNK):
                q = speeds[lo:lo + _SPEED_CHUNK]
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
            out[j, speeds == 0.0] = -self.profiles[e].a_e
        return out

    def _flow_lp(self, h: np.ndarray, speeds: np.ndarray):
        n_e, n_q = len(self.g.edge_order), speeds.size
        cost = self._lagrangian_grid(speeds).ravel()
        n_v, b = len(self.g.vertices), self.tm.betti
        rows = 1 + n_v + b
        A = np.zeros((rows, n_e * n_q))
        rhs = np.zeros(rows)
        A[0] = 1.0
        rhs[0] = 1.0
        for j in range(n_e):
            sl = slice(j * n_q, (j + 1) * n_q)
            A[1 + self.g.origin_index[j], sl] -= speeds
            A[1 + self.g.terminus_index[j], sl] += speeds
            th = self.tm.matrix[j]
            for k in range(b):
                if th[k]:
                    A[1 + n_v + k, sl] += th[k] * speeds
        rhs[1 + n_v:] = h
        res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
        return res

    def flow_oracle(self, h) -> tuple[float, ClosedFlow]:
        """Minimal action over closed flows with rotation vector h.

        Solves the atomic-measure relaxation on a speed grid (LP), expands
        the grid while the top speed is active, then refines once around the
        speeds the optimizer uses.
        """
        h = np.asarray(h, dtype=float)
        q_max = 2.0 * (np.abs(h).sum() + 1.0)
        for _ in range(12):
            speeds = np.concatenate([[0.0], np.linspace(q_max / (_N_SPEEDS - 1),
                                                        q_max, _N_SPEEDS - 1)])
            res = self._flow_lp(h, speeds)
            if res.status == 2:  # infeasible: grid cannot carry the rotation
                q_max *= 2.0
                continue
            if not res.success:
                raise ConvergenceFailure(f"flow LP failed: {res.message}")
            w = res.x.reshape(len(self.g.edge_order), speeds.size)
            if w[:, -1].max() > 1e-9:
                q_max *= 2.0
                continue
            break
        else:
            raise ConvergenceFailure("speed grid expansion did not stabilize")

        # one refinement pass around the active speeds
        active = speeds[np.nonzero(w.sum(axis=0) > 1e-12)[0]]
        dq = speeds[1] - speeds[0]
        extra = [np.linspace(max(q - dq, 0.0), q + dq, 41) for q in active if q > 0]
        speeds2 = np.unique(np.concatenate([speeds] + extra))
        res2 = self._flow_lp(h, speeds2)
        if not res2.success:
            raise ConvergenceFailure(f"flow LP refinement failed: {res2.message}")
        w2 = res2.x.reshape(len(self.g.edge_order), speeds2.size)
        lam = {e: float(w2[j].sum()) for j, e in enumerate(self.g.edge_order)}
        flux = {e: float(w2[j] @ speeds2) for j, e in enumerate(self.g.edge_order)}
        return float(res2.fun), ClosedFlow(lam, flux)


get_solver = MatherSolver  # the name bench/workloads.py builds its solvers by
