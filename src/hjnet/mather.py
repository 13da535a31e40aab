"""Mather's alpha/beta functions on the base graph.

alpha is the effective Hamiltonian by the circuit characterization: over
directed simple circuits xi, with S_xi(a) = sum_{e in xi} sigma(e, a) concave
and increasing, alpha(p) is the least a >= a0 at which every slack
S_xi(a) - <p, theta(xi)> is >= 0.  ``alpha`` finds it by the root search of
the discrete Hamiltonian (``edge_calculus._increasing_root``) on the least
slack, with S(a) from ``EdgeProfiles.sigma_all``; the test suite pins it to
the cycle means of ``cell_problem.effective_hamiltonian``.  ``alpha_batch``
interpolates each circuit on the append-only sigma ladder of ``EdgeProfiles``
(a solver extends its circuit sums block by block, so answers are
history-free).  ``reach`` gives the largest alpha on a ball by the same root
search, and a bound on |grad alpha| there from the circuit secants at it.

``hopf_sup`` is the one conjugation: sup over p in D of <p, q> - t alpha(p) for
D = R^b (beta) or the dual sets of ``homogenize.limit_solution``'s pieces, a
box |p|_inf <= c or a ball |p|_2 <= L.  alpha(p) <= a exactly when
<theta(xi), p> <= S_xi(a) for every xi, so the sup is max over a of
W(a) - t a, with W(a) = max <p, q> over D in that circuit polytope, concave in
a and -inf below the least a where the polytope meets D.  W(a) is exact on a
candidate table built once per solver and D: the vertex of every b independent
rows (the box's faces are rows too) and, for the ball, the sphere point of
every face of fewer rows.  ``edge_calculus._concave_max`` maximizes over a;
the value is <p, q> - t alpha(p) at the best candidate p, a witness.

``flow_oracle`` realizes beta independently as the minimal action of closed
measures: atomic measures on a finite speed grid turn the problem into a
linear program over edge/speed masses with conservation and rotation
constraints, solved by HiGHS and refined around the active speeds.  Its cost
L(e, q) is the max over ladder levels of q sigma(e, a) - a, concave in a: one
slope search per edge finds the best level at every speed, and a ladder that
is not concave raises.  A call still pays for growing the ladder and HiGHS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .base_graph import BaseGraph, ThetaMap
from .cell_problem import enumerate_circuits
from .edge_calculus import _LADDER_BLOCK, EdgeProfiles, _concave_max, _increasing_root
from .errors import BudgetExceeded, ConvergenceFailure, vector

_ROW_CHUNK = 1 << 16  # alpha_batch rows per pass; bounds its (rows, circuits) arrays
_FACE_BUDGET = 200_000  # row sets of one conjugation table; _face_table raises beyond
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


def _face_table(rows: np.ndarray, sizes):
    """Every set of k independent rows, k in ``sizes``, as a face: its rows
    (padded with n, whose rhs is 0), the map A from their rhs to the face's
    least-norm point, and the projector N onto its directions (0 at vertices);
    a set with a zero row is dependent, so only the nonzero rows combine."""
    n, b = rows.shape
    nonzero = np.flatnonzero(rows.any(axis=1))
    if (count := sum(math.comb(nonzero.size, k) for k in sizes)) > _FACE_BUDGET:
        raise BudgetExceeded(f"conjugation table of {count} row sets exceeds {_FACE_BUDGET}")
    idx, A, N = [], [], []
    for k in sizes:
        J = np.array([*itertools.combinations(nonzero, k)], np.intp).reshape(-1 if k else 1, k)
        G = rows[J] @ rows[J].transpose(0, 2, 1)  # integer Gram matrices: det >= 1 or 0
        keep = np.linalg.det(G) > 0.5
        J, G = J[keep], G[keep]
        Ak = rows[J].transpose(0, 2, 1) @ np.linalg.inv(G)
        idx.append(np.pad(J, ((0, 0), (0, b - k)), constant_values=n))
        A.append(np.pad(Ak, ((0, 0), (0, 0), (0, b - k))))
        N.append(np.eye(b) - Ak @ rows[J] if k < b else np.zeros((len(J), b, b)))
    return rows, *map(np.concatenate, (idx, A, N))


class MatherSolver:
    """alpha/beta of one (graph, theta, profiles): circuits, theta, ladder sums."""

    def __init__(self, g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles):
        self.g = g
        self.tm = tm
        self.profiles = profiles
        self.a0 = profiles.a0
        self.circuits = enumerate_circuits(g)
        self._circuit_edge_count = np.array(
            [[c.edges.count(e) for e in g.edge_order] for c in self.circuits],
            dtype=float).reshape(len(self.circuits), len(g.edge_order))
        self.circuit_theta = self._circuit_edge_count @ tm.matrix  # small integers: exact
        self._S = np.empty((len(self.circuits), 0))
        self._tables = {}  # hopf_sup's _face_table per D, built on first use

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

    # ----- alpha -----

    def alpha_batch(self, P: np.ndarray) -> np.ndarray:
        """Interpolated effective Hamiltonian at each row of P (shape (m, b)):
        per circuit xi, the ladder level where S_xi reaches <p, theta(xi)>."""
        P = np.atleast_2d(vector("momenta P", P, self.tm.betti, rows=True))
        out = np.full(P.shape[0], self.a0)
        for lo in range(0, P.shape[0], _ROW_CHUNK):
            r = P[lo:lo + _ROW_CHUNK] @ self.circuit_theta.T  # (rows, n_circuits)
            part = out[lo:lo + _ROW_CHUNK]
            top = r.max(axis=0, initial=-np.inf)
            while np.any(top >= self._sums()[:, -1]):  # until the top level covers r
                self.profiles.grow_ladder()
            for ci in range(r.shape[1]):
                np.maximum(part, np.interp(r[:, ci], self._S[ci], self.profiles.ladder_a),
                           out=part)
        return out

    def _level(self, r: np.ndarray) -> float:
        """The least a >= a0 at which every circuit sum S_xi(a) reaches r_xi, to 1e-11."""
        return _increasing_root(
            lambda a: float((self._circuit_edge_count @ self.profiles.sigma_all(a)
                             - r).min(initial=np.inf)), self.a0, 1e-11)

    def alpha(self, p) -> float:
        """Effective Hamiltonian at a single p: the least level a >= a0 where
        no circuit slack S_xi(a) - <p, theta(xi)> is negative."""
        return self._level(self.circuit_theta @ vector("momentum p", p, self.tm.betti))

    def reach(self, radius: float) -> tuple[float, float]:
        """The largest alpha on the ball |p|_2 <= radius, and a bound on
        |grad alpha|_2 there.  The largest <theta(xi), p> on the ball is
        radius |theta(xi)|, so a_cap, the least a where every S_xi reaches it,
        is the max of alpha.  Where xi is critical at p, grad alpha =
        theta(xi) / S_xi'(alpha(p)) with alpha(p) <= a_cap; S_xi is concave,
        so its secant over [a_cap, a_cap + d] bounds S_xi' on [a0, a_cap]."""
        n, d = np.linalg.norm(self.circuit_theta, axis=1), 1e-6
        a_cap, sig = self._level(radius * n), self.profiles.sigma_all
        rise = self._circuit_edge_count @ (sig(a_cap + d) - sig(a_cap))
        return a_cap, float((n * d / rise).max(initial=0.0))

    # ----- beta and Hopf's formula by conjugation -----

    def hopf_sup(self, q, t: float = 1.0, radius: float = np.inf,
                 ord: float = np.inf) -> float:
        """sup of <p, q> - t alpha(p) over D = {|p|_ord <= radius}, ord inf or 2
        (R^b for an infinite radius): max over a of W(a) - t a (see the module
        docstring), read as <p, q> - t alpha(p) at the best candidate p."""
        q = vector("point q", q, self.tm.betti)
        if not 0 < t < np.inf:  # the level search over a needs t > 0
            raise ValueError(f"t must be positive and finite, not {t}")
        if not radius >= 0 or ord not in (2, np.inf):
            raise ValueError(f"need radius >= 0 and ord 2 or inf, not {radius}, {ord}")
        if not q.size:
            return -t * self.alpha(q)
        key, n_c = (ord if radius < np.inf else None), len(self.circuits)
        if key not in self._tables:  # R^b, the box (its faces are rows) or the ball
            b, rows = self.tm.betti, self.circuit_theta
            if key == np.inf:
                rows = np.concatenate([rows, np.eye(b), -np.eye(b)])
            self._tables[key] = _face_table(rows, range(b + 1) if key == 2 else (b,))
        rows, idx, A, N = self._tables[key]
        rhs = np.r_[np.zeros(n_c), np.full(len(rows) - n_c, radius), 0.0]  # 0 pads faces
        u = N @ q  # each face's direction of steepest ascent: unit, or 0 at vertices
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12 * np.abs(q).max() or 1)

        def level(a):
            # W(a) (-inf if no candidate p of D has alpha(p) <= a), the best p, its face
            rhs[:n_c] = self._circuit_edge_count @ self.profiles.sigma_all(a)
            P = np.einsum("fij,fj->fi", A, rhs[idx])
            if key == 2:
                r2 = radius**2 - np.einsum("fi,fi->f", P, P)
                P += np.sqrt(np.maximum(r2, 0.0))[:, None] * u
            ok = (P @ rows.T - rhs[:-1]).max(axis=1) <= 1e-12 * (1 + np.abs(rhs).max())
            vals = np.where(ok & (key != 2 or r2 >= 0.0), P @ q, -np.inf)
            i = int(vals.argmax())
            return vals[i], P[i], i

        # the least a at which D meets {alpha <= a}: a0, or found by bisection
        lo = hi = self.a0
        while not np.isfinite(level(hi)[0]):
            lo, hi = hi, self.a0 + 2.0 * (hi - self.a0 or 0.5)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if np.isfinite(level(mid)[0]) else (mid, hi)
        best = [-np.inf, None]  # f and candidate p of the best level

        def f(a):
            w, p, _ = level(a)
            if w - t * a > best[0]:
                best[:] = w - t * a, p
            return w - t * a

        # skip the search where W - t a falls from the least level; a change
        # of best face is a kink of W
        if f(hi + 1e-10 * (1.0 + abs(hi))) > f(hi):
            _concave_max(lambda s: f(hi + s), 0.0, piece=lambda s: level(hi + s)[2])
        p = best[1]  # may leave D by the slack of ``level``: back into the box or ball
        if key == np.inf:
            p = np.clip(p, -radius, radius)
        elif key == 2 and (n := np.linalg.norm(p)) > radius:
            p = p * (radius / n)
        return float(p @ q) - t * self.alpha(p)

    def beta(self, h) -> float:
        """Mather's beta: sup over p of <p, h> - alpha(p), a ``hopf_sup`` over R^b."""
        return self.hopf_sup(vector("rotation vector h", h, self.tm.betti))

    # ----- beta by closed-flow linear programming -----

    def _lagrangian_grid(self, speeds: np.ndarray) -> np.ndarray:
        """L(e, q) = max over ladder levels a of q sigma(e, a) - a, per edge.

        sigma is concave, so the ladder's forward slopes do not increase and
        the best level at speed q, the first with slope <= 1/q, is one
        ``np.searchsorted`` per edge; a parabola through it and its neighbours
        removes the O(spacing^2) error.  The ladder grows until the top speed's
        best level is interior.  Certified: every best level is a local
        maximum and no slope rises, beyond rounding.
        """
        profiles = self.profiles  # q sigma - a rises past level i iff -slope_i < bar = -1/q
        bar = np.divide(-1.0, speeds, out=np.full(speeds.shape, -np.inf), where=speeds > 0)
        while (a := profiles.ladder_a).size < 3 or np.any(
                -np.diff(profiles.ladder_sig[:, -2:]) / (a[-1] - a[-2]) < bar.max()):
            profiles.grow_ladder()
        a, sig = profiles.ladder_a, profiles.ladder_sig
        k, bad = np.empty((len(sig), speeds.size), np.intp), np.zeros(len(sig), bool)
        for j, s in enumerate(np.diff(sig) / np.diff(a)):  # per edge: search, concavity
            k[j] = np.searchsorted(-s, bar)
            bad[j] = np.any(np.diff(s) * np.diff(a)[1:] > 1e-12 * (1 + np.abs(sig[j, 2:])))
        idx = np.maximum(k, 1)[..., None] + np.arange(-1, 2)
        x = a[idx]
        y = speeds[:, None] * np.take_along_axis(sig[:, None], idx, axis=2) - x
        dy = np.diff(y)
        d1, d2 = np.moveaxis(dy / np.diff(x), -1, 0)
        c = (d2 - d1) / (x[..., 2] - x[..., 0])
        m = d1 + c * (x[..., 1] - x[..., 0])  # slope at the middle level
        with np.errstate(divide="ignore", invalid="ignore"):
            peak = np.where(c < 0, y[..., 1] - m**2 / (4 * c), y[..., 1])
        rise = np.where(k > 0, np.maximum(-dy[..., 0], dy[..., 1]), dy[..., 0])  # off level k
        bad |= (rise > 1e-12 * (1 + np.abs(x[..., 1]))).any(axis=1)
        if bad.any():
            raise ConvergenceFailure(f"sigma({self.g.edge_order[bad.argmax()]}) is not concave")
        out = np.where(k > 0, peak, y[..., 0])
        out[:, speeds == 0.0] = -np.array([[profiles[e].a_e] for e in self.g.edge_order])
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
        h = vector("rotation vector h", h, self.tm.betti)
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
