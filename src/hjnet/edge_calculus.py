"""Per-edge numeric kernels.

Each positive edge of the base graph carries a Hamiltonian H_e(s, rho),
continuous in the arc parameter s and strictly convex and superlinear in the
momentum rho, with the reversal compatibility H_{-e}(s, rho) = H_e(1-s, -rho).
From the model we derive, per directed edge:

  a_e        critical value: max over s of the fiberwise minimum of H_e
  sigma(a)   integral over s of the largest momentum on the level set {H_e = a},
             defined for a >= a_e; strictly increasing, concave, sublinear
  cH(rho)    discrete Hamiltonian: the inverse of sigma, on [b_e, inf) with
             b_e = sigma(a_e)
  cL(lam)    discrete Lagrangian: Fenchel conjugate of cH on speeds lam >= 0,
             computable as max_{a >= a_e} (lam * sigma(a) - a)

Two model families are supported: quadratic-in-momentum with trigonometric
polynomial drift/potential (closed-form level sets), and tabulated samples
with piecewise-linear convex interpolation.

sigma is a Simpson sum w over the grid s_i = i/(n-1), n = DEFAULT_QUAD_SAMPLES
in ``build_profiles``.  Each ``EdgeProfile`` samples the level-independent
part of its integrand once (its grid kernel): for a quadratic model
beff = drift and c0 = beff^2 - 2 kappa V, so that sigma(a) =
((sqrt(max(c0 + 2 kappa a, 0)) - beff) / kappa) @ w; a tabulated model keeps
its s-blended columns and searches the crossing per level.  A reversed
profile mirrors the forward kernel in s and keeps a_e.
``EdgeProfiles.sigma_all`` evaluates every directed edge at once from the
stacked kernels; the cell problem, the reach weights and the sigma ladder
that ``EdgeProfiles`` keeps for ``mather`` read it.  Path actions start at
their support's largest a_e, which may lie below a0, so they sum the
per-edge kernels.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq, minimize_scalar

from .base_graph import BaseGraph
from .errors import (BudgetExceeded, ConvergenceFailure, DomainError,
                     LevelBelowMinimum, NonConvexModel)

DEFAULT_QUAD_SAMPLES = 257
_CRIT_GRID = 2049
_CONCAVE_XATOL = 1e-10  # level tolerance of the bounded Brent search
# (edges x levels x grid) cells per sigma_all pass: one 516-level ladder block
# in a single pass raised the duality benchmark's peak RSS by about 10 MB
_STACK_CELLS = 1 << 18
# sigma ladder: a0, then a0 + 4e-7 rho^j; 516 levels per doubling of a - a0
_LADDER_START = 4e-7
_LADDER_RATIO = 1e7 ** (1 / 11999)
_LADDER_BLOCK = 516


@functools.lru_cache(maxsize=None)
def simpson_weights(n: int) -> np.ndarray:
    """w with vals @ w the composite-Simpson integral of vals on linspace(0, 1, n).

    Simpson's rule is linear in the samples, so w is its value on the unit
    vectors; it is read-only because every profile of that grid size shares it.
    """
    w = simpson(np.eye(n), x=np.linspace(0.0, 1.0, n), axis=-1)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class TrigPoly:
    """c0 + sum_k (cos_k cos(2 pi k s) + sin_k sin(2 pi k s))."""

    const: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, self.const, dtype=float)
        for k, c in enumerate(self.cos, start=1):
            out += c * np.cos(2 * np.pi * k * s)
        for k, c in enumerate(self.sin, start=1):
            out += c * np.sin(2 * np.pi * k * s)
        return out


class QuadraticEdgeModel:
    """H(s, rho) = kappa rho^2 / 2 + drift(s) rho + potential(s), kappa > 0."""

    def __init__(self, kappa=1.0, drift: TrigPoly | None = None,
                 potential: TrigPoly | None = None):
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        self.kappa = float(kappa)
        self.drift = drift if drift is not None else TrigPoly()
        self.potential = potential if potential is not None else TrigPoly()

    def value(self, s, rho):
        s = np.asarray(s, dtype=float)
        rho = np.asarray(rho, dtype=float)
        return self.kappa * rho**2 / 2 + self.drift(s) * rho + self.potential(s)

    def fiber_min(self, s):
        """min over rho of H(s, rho), at rho = -drift/kappa."""
        return self.potential(s) - self.drift(s) ** 2 / (2 * self.kappa)

    def _discriminant(self, s, a):
        b = self.drift(s)
        disc = b**2 + 2 * self.kappa * (np.asarray(a, dtype=float) - self.potential(s))
        bad = disc < -1e-9 * max(1.0, float(np.max(np.abs(a))))
        if np.any(bad):
            raise LevelBelowMinimum("level a below the fiberwise minimum of H")
        return b, np.maximum(disc, 0.0)

    def sigma_plus(self, s, a):
        """Largest root of H(s, .) = a."""
        b, disc = self._discriminant(s, a)
        return (-b + np.sqrt(disc)) / self.kappa

    def sigma_minus(self, s, a):
        b, disc = self._discriminant(s, a)
        return (-b - np.sqrt(disc)) / self.kappa

    def on_grid(self, n: int) -> QuadraticGrid:
        """Grid kernel for Simpson's rule on n samples of [0, 1]."""
        s = np.linspace(0.0, 1.0, n)
        beff = self.drift(s)
        return QuadraticGrid(self.kappa, beff,
                             beff**2 - 2 * self.kappa * self.potential(s),
                             simpson_weights(n))

    def reversed(self):
        return ReversedEdgeModel(self)


class TabulatedEdgeModel:
    """Sampled H on an (s, rho) grid, convex piecewise-linear in rho.

    Rows are blended linearly in s; beyond the rho grid the end-segment
    slopes extrapolate linearly, so the end slopes must point outward.
    """

    def __init__(self, s_grid, rho_grid, values):
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.rho_grid = np.asarray(rho_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.s_grid.size, self.rho_grid.size):
            raise ValueError("values must have shape (len(s_grid), len(rho_grid))")
        if self.s_grid[0] != 0.0 or self.s_grid[-1] != 1.0 or np.any(np.diff(self.s_grid) <= 0):
            raise ValueError("s_grid must increase from 0 to 1")
        if np.any(np.diff(self.rho_grid) <= 0):
            raise ValueError("rho_grid must be strictly increasing")
        scale = max(1.0, float(np.max(np.abs(self.values))))
        slopes = np.diff(self.values, axis=1) / np.diff(self.rho_grid)
        if np.any(np.diff(slopes, axis=1) < -1e-9 * scale):
            raise NonConvexModel("tabulated samples are not convex in rho")
        if np.any(slopes[:, -1] <= 0) or np.any(slopes[:, 0] >= 0):
            raise NonConvexModel("end slopes must point outward (coercivity in rho)")

    def _columns(self, s):
        """Linear-in-s blend of sample rows; shape (len(s), len(rho_grid))."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.clip(np.searchsorted(self.s_grid, s, side="right") - 1, 0,
                      self.s_grid.size - 2)
        w = (s - self.s_grid[idx]) / (self.s_grid[idx + 1] - self.s_grid[idx])
        return (1 - w)[:, None] * self.values[idx] + w[:, None] * self.values[idx + 1]

    def value(self, s, rho):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        rho = np.broadcast_to(np.asarray(rho, dtype=float), s.shape)
        cols = self._columns(s)
        j = np.clip(np.searchsorted(self.rho_grid, rho) - 1, 0, self.rho_grid.size - 2)
        r0 = self.rho_grid[j]
        c0, c1 = (np.take_along_axis(cols, k[:, None], 1)[:, 0] for k in (j, j + 1))
        return c0 + (c1 - c0) / (self.rho_grid[j + 1] - r0) * (rho - r0)

    def fiber_min(self, s):
        return self._columns(s).min(axis=1)

    def _crossing(self, cols, a, right: bool):
        """Level crossing of each convex PL column at each level of a."""
        a = np.asarray(a, dtype=float)[..., None]
        mins = cols.min(axis=1)
        if np.any(a < mins - 1e-9 * np.maximum(1.0, np.abs(a))):
            raise LevelBelowMinimum("level a below the fiberwise minimum of H")
        n = self.rho_grid.size
        if not right:  # mirror to reuse the right-branch logic
            cols = cols[:, ::-1]
        grid = self.rho_grid if right else -self.rho_grid[::-1]
        le = cols <= a[..., None] + 1e-15
        # rightmost sample with value <= a; guaranteed >= argmin
        j = n - 1 - np.argmax(le[..., ::-1], axis=-1)
        j = np.where(le.any(axis=-1), j, np.argmin(cols, axis=1))
        rows = np.arange(cols.shape[0])
        at_end = j == n - 1
        # interior crossing between j and j+1
        ji = np.where(at_end, n - 2, j)
        c0 = cols[rows, ji]
        c1 = cols[rows, ji + 1]
        denom = np.where(c1 > c0, c1 - c0, 1.0)
        out = grid[ji] + np.clip((a - c0) / denom, 0.0, None) * (grid[ji + 1] - grid[ji])
        # extrapolate past the last sample with the end slope
        slope_end = (cols[:, -1] - cols[:, -2]) / (grid[-1] - grid[-2])
        extrap = grid[-1] + (a - cols[:, -1]) / slope_end
        out = np.where(at_end, extrap, out)
        return out if right else -out

    def _branch(self, s, a, right: bool):
        res = self._crossing(self._columns(s), float(a), right)
        return res if np.ndim(s) else res[0]

    def sigma_plus(self, s, a):
        return self._branch(s, a, right=True)

    def sigma_minus(self, s, a):
        return self._branch(s, a, right=False)

    def on_grid(self, n: int) -> TabulatedGrid:
        """Grid kernel for Simpson's rule on n samples of [0, 1]."""
        return TabulatedGrid(self, self._columns(np.linspace(0.0, 1.0, n)),
                             simpson_weights(n))

    def reversed(self):
        return ReversedEdgeModel(self)


class ReversedEdgeModel:
    """View of the base model through the reversal law H(s,rho) -> H(1-s,-rho)."""

    def __init__(self, base):
        self.base = base

    def value(self, s, rho):
        return self.base.value(1.0 - np.asarray(s, dtype=float),
                               -np.asarray(rho, dtype=float))

    def fiber_min(self, s):
        return self.base.fiber_min(1.0 - np.asarray(s, dtype=float))

    def sigma_plus(self, s, a):
        return -self.base.sigma_minus(1.0 - np.asarray(s, dtype=float), a)

    def sigma_minus(self, s, a):
        return -self.base.sigma_plus(1.0 - np.asarray(s, dtype=float), a)

    def on_grid(self, n: int):
        return self.base.on_grid(n).reversed()

    def reversed(self):
        return self.base


class QuadraticGrid:
    """Grid kernel of quadratic models: sigma(a) = sqrt(q0 + 2 a / kappa) @ w - drift_w.

    This is ((sqrt(max(c0 + 2 kappa a, 0)) - beff) / kappa) @ w divided through
    by kappa (q0 = c0 / kappa^2), with the level-independent beff term
    integrated once (drift_w).  ``kappa`` has shape (...) and ``beff``, ``c0``
    shape (..., n): () for one edge, (edges, 1) for a stack, the 1 broadcasting
    over levels.
    """

    def __init__(self, kappa, beff, c0, weights):
        self.kappa = np.asarray(kappa, dtype=float)
        self.beff = beff
        self.c0 = c0
        self.weights = weights
        self._q0 = c0 / self.kappa[..., None] ** 2
        self._q0_min = self._q0.min(axis=-1)
        self._drift_w = (beff @ weights) / self.kappa

    @classmethod
    def stack(cls, grids) -> QuadraticGrid:
        """One kernel for many edges of one grid size; levels have shape (edges, L)."""
        return cls(np.stack([g.kappa for g in grids])[:, None],
                   np.stack([g.beff for g in grids])[:, None, :],
                   np.stack([g.c0 for g in grids])[:, None, :], grids[0].weights)

    def sigma(self, a) -> np.ndarray:
        """The Simpson integral at levels a, shape a.shape (one edge) or
        (edges, L) (a stack)."""
        a = np.asarray(a, dtype=float)
        shift = (2.0 / self.kappa) * a
        disc = self._q0 + shift[..., None]
        # the least c0 + 2 kappa a, from the level-independent min of q0
        low = ((self._q0_min + shift) * self.kappa**2).min(initial=0.0)
        if low < 0.0:
            if low < -1e-9 * max(1.0, float(np.abs(a).max(initial=0.0))):
                raise LevelBelowMinimum("level a below the fiberwise minimum of H")
            np.maximum(disc, 0.0, out=disc)
        return np.sqrt(disc, out=disc) @ self.weights - self._drift_w

    def reversed(self) -> QuadraticGrid:
        """Kernel of the reversed model on the mirrored grid."""
        return QuadraticGrid(self.kappa, -self.beff[..., ::-1], self.c0[..., ::-1],
                             self.weights)


class TabulatedGrid:
    """Blended sample columns of a tabulated model on a grid, one row per s.

    ``right`` selects the crossing of sigma_plus; the reversed model reads the
    left crossing of the mirrored columns, negated.  One crossing search
    serves every level.
    """

    def __init__(self, model: TabulatedEdgeModel, cols: np.ndarray, weights,
                 right: bool = True):
        self.model = model
        self.cols = cols
        self.weights = weights
        self.right = right

    def sigma(self, a) -> np.ndarray:
        """The Simpson integral at levels a, shape a.shape."""
        a = np.asarray(a, dtype=float)
        rows = self.model._crossing(self.cols, a.ravel(), self.right)
        out = (rows @ self.weights).reshape(a.shape)
        return out if self.right else -out

    def reversed(self) -> TabulatedGrid:
        return TabulatedGrid(self.model, self.cols[::-1], self.weights,
                             not self.right)


def critical_value(model) -> float:
    """max over s in [0,1] of the fiberwise minimum of H.

    Exact for tabulated models: on each s-interval fiber_min is the least of
    one line in s per rho knot, so its maximum lies at an interval end or
    where two lines cross.  A reversed model has its base model's value (its
    fiber minima are mirrored in s).  Quadratic models search a grid, then
    polish the best point with a bounded Brent search.
    """
    if isinstance(model, ReversedEdgeModel):
        return critical_value(model.base)
    if isinstance(model, TabulatedEdgeModel):
        v0, dv = model.values[:-1], np.diff(model.values, axis=0)
        j, k = np.triu_indices(model.rho_grid.size, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (v0[:, k] - v0[:, j]) / (dv[:, j] - dv[:, k])
        i, c = np.nonzero((w > 0) & (w < 1))
        cross = model.s_grid[i] + w[i, c] * np.diff(model.s_grid)[i]
        return float(model.fiber_min(np.concatenate([model.s_grid, cross])).max())
    s = np.linspace(0.0, 1.0, _CRIT_GRID)
    vals = np.asarray(model.fiber_min(s))
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo, hi = s[max(i - 1, 0)], s[min(i + 1, _CRIT_GRID - 1)]
    if hi > lo:
        res = minimize_scalar(lambda t: -float(model.fiber_min(np.array([t]))[0]),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def _concave_max(f, lo: float, hi_hint: float = 1.0, piece=None) -> tuple[float, float]:
    """Max of a concave function on [lo, inf) and a level attaining it:
    doubling bracket (one evaluation per doubling, whose midpoint is the last
    upper end), then bounded Brent, which stops about sqrt(eps) |a| +
    _CONCAVE_XATOL / 3 from the maximizer a (4.5e-9 at a = 0.3), so a kinked
    maximum reads low by up to that times the jump of f' there.  With
    ``piece``, which names the piece of f that attains it at a level, a change
    of piece within d = 1e-7 (1 + |a|) of a marks a kink: a second search in
    the offset from a - d, where sqrt(eps) |offset| is about 1e-15, keeps
    the better of the two."""
    step = max(hi_hint, 1e-6)
    f_hi = f(lo + step)
    f_mid = f(lo + 0.5 * step)
    while f_hi > f_mid:
        step *= 2.0
        if step > 1e14:
            raise BudgetExceeded("concave bracket expansion failed")
        f_mid, f_hi = f_hi, f(lo + step)
    res = minimize_scalar(lambda a: -f(a), bounds=(lo, lo + step),
                          method="bounded", options={"xatol": _CONCAVE_XATOL})
    best = max((float(-res.fun), float(res.x)), (float(f(lo)), lo))
    if piece is not None:
        a, d = best[1], 1e-7 * (1.0 + abs(best[1]))
        below = max(lo, a - d)
        if len({piece(below), piece(a), piece(a + d)}) > 1:
            val, s = _concave_max(lambda s: f(below + s), 0.0, a + d - below)
            best = max(best, (val, below + s))
    return best


def _increasing_root(f, lo: float, xtol: float) -> float:
    """Least a >= lo with f(a) >= 0 for an increasing f: lo itself, or the
    root by doubling bracket + brentq."""
    if f(lo) >= 0.0:
        return lo
    step = 1.0
    while f(lo + step) < 0.0:
        step *= 2.0
        if step > 1e12:
            raise BudgetExceeded("root bracket expansion failed")
    return float(brentq(f, lo, lo + step, xtol=xtol))


class EdgeProfile:
    """Cached numeric kernels for one directed edge."""

    def __init__(self, edge_id: str, model, n_quad: int = DEFAULT_QUAD_SAMPLES,
                 a_e: float | None = None):
        """``a_e`` is the critical value, when already known."""
        self.edge_id = edge_id
        self.model = model
        self.n_quad = n_quad
        self.grid = model.on_grid(n_quad)
        if a_e is None:
            # a_e must bound the fiber minima at the quadrature nodes, which
            # the search grid of critical_value contains only for n_quad - 1
            # dividing 2048
            nodes = np.asarray(model.fiber_min(np.linspace(0, 1, n_quad)))
            a_e = max(critical_value(model), float(nodes.max()))
        self.a_e = a_e
        self.b_e = self.sigma(self.a_e)

    def reversed(self, edge_id: str) -> EdgeProfile:
        """Profile of the reversed edge: by H_{-e}(s, rho) = H_e(1-s, -rho) its
        fiber minima are these mirrored in s, so a_e carries over."""
        return EdgeProfile(edge_id, self.model.reversed(), self.n_quad, a_e=self.a_e)

    def sigma(self, a):
        """sigma(e, a) for scalar or array a (a >= a_e)."""
        a_arr = np.asarray(a, dtype=float)
        if np.any(a_arr < self.a_e - 1e-9):
            raise LevelBelowMinimum(
                f"sigma({self.edge_id}) evaluated below the critical value {self.a_e}")
        vals = self.grid.sigma(np.maximum(a_arr, self.a_e))
        return float(vals) if a_arr.ndim == 0 else vals

    def hamiltonian(self, rho: float) -> float:
        """Inverse of sigma: the a with sigma(e, a) = rho, for rho >= b_e."""
        if rho < self.b_e - 1e-9:
            raise DomainError(
                f"discrete Hamiltonian of {self.edge_id} undefined below b_e={self.b_e}")
        return _increasing_root(lambda a: self.sigma(a) - rho, self.a_e, 1e-12)

    def lagrangian(self, lam: float) -> float:
        """Fenchel conjugate of the discrete Hamiltonian at speed lam >= 0.

        Computed as max_{a >= a_e} (lam sigma(e,a) - a), which by the inverse
        relation between sigma and the discrete Hamiltonian is the same
        maximization as over momenta rho >= b_e.
        """
        if lam < 0:
            raise DomainError("speeds are nonnegative")
        if lam == 0:
            return -self.a_e
        return _concave_max(lambda a: lam * self.sigma(a) - a, self.a_e,
                            max(1.0, lam**2))[0]

    def action(self, T: float) -> float:
        """Minimal Lagrangian action to traverse the edge in time T."""
        if T <= 0:
            raise DomainError("traversal time must be positive")
        return T * self.lagrangian(1.0 / T)


@dataclass
class EdgeProfiles:
    """Profiles for every directed edge of a base graph, all on one grid.

    The quadratic grid kernels are stacked once, here, for ``sigma_all``.  The
    sigma ladder, levels ``ladder_a`` and their ``ladder_sig``, only grows
    (``grow_ladder``); not thread-safe, as queries grow it in place.
    """

    graph: BaseGraph
    profiles: dict[str, EdgeProfile]
    a0: float = field(init=False)

    def __post_init__(self):
        self.a0 = max(p.a_e for p in self.profiles.values())
        self._ordered = [self.profiles[e] for e in self.graph.edge_order]
        self._a_e = np.array([p.a_e for p in self._ordered])
        quad = [i for i, p in enumerate(self._ordered)
                if isinstance(p.grid, QuadraticGrid)]
        self._quad = np.array(quad, dtype=np.intp)
        self._other = [i for i, p in enumerate(self._ordered) if i not in quad]
        if quad:
            self._stack = QuadraticGrid.stack([self._ordered[i].grid for i in quad])
        self.ladder_a = np.array([self.a0])
        self.ladder_sig = self.sigma_all(self.ladder_a)

    def __getitem__(self, edge_id: str) -> EdgeProfile:
        return self.profiles[edge_id]

    def sigma_all(self, a) -> np.ndarray:
        """sigma(e, a) of every directed edge, rows in ``graph.edge_order``.

        Shape (|E|,) + a.shape, for a scalar a or an array of levels a >= a0;
        quadratic edges are evaluated together, in level chunks.
        """
        a_arr = np.asarray(a, dtype=float)
        if np.min(a_arr, initial=np.inf) < self.a0 - 1e-9:
            worst = self._ordered[int(np.argmax(self._a_e))]
            raise LevelBelowMinimum(
                f"sigma({worst.edge_id}) evaluated below the critical value {worst.a_e}")
        flat = a_arr.reshape(-1)
        out = np.empty((len(self._ordered), flat.size))
        if self._quad.size:
            a_clip = np.maximum(flat, self._a_e[self._quad, None])
            step = max(1, _STACK_CELLS // self._stack.c0.size)
            for lo in range(0, flat.size, step):
                out[self._quad, lo:lo + step] = self._stack.sigma(a_clip[:, lo:lo + step])
        for i in self._other:
            out[i] = self._ordered[i].sigma(flat)
        return out.reshape((-1,) + a_arr.shape)

    def grow_ladder(self):
        """Append block k, a0 + 4e-7 rho^j for j in [(k-1) B, k B) (one doubling
        of a - a0); the blocks are fixed and levels present never change."""
        if self.ladder_a[-1] - self.a0 > 1e12:
            raise ConvergenceFailure("the sigma ladder grew unboundedly")
        j0 = self.ladder_a.size - 1
        a_new = self.a0 + _LADDER_START * _LADDER_RATIO ** np.arange(
            j0, j0 + _LADDER_BLOCK)
        self.ladder_a = np.concatenate([self.ladder_a, a_new])
        self.ladder_sig = np.concatenate([self.ladder_sig, self.sigma_all(a_new)],
                                         axis=1)


def build_profiles(g: BaseGraph, models: dict[str, object]) -> EdgeProfiles:
    """Profiles for all directed edges from models on the positive ones."""
    missing = [e for e in g.orientation if e not in models]
    if missing:
        raise ValueError(f"no Hamiltonian model for positive edges {missing}")
    profiles = {}
    for e in g.orientation:
        profiles[e] = EdgeProfile(e, models[e])
        profiles[g.reversed(e)] = profiles[e].reversed(g.reversed(e))
    return EdgeProfiles(g, profiles)


def flux_limiter(g: BaseGraph, profiles: EdgeProfiles, z: str) -> float:
    """Vertex constant: min over edges incident to z of -a_e."""
    star = g.star(z)
    if not star:
        raise ValueError(f"vertex {z!r} has no incident edges")
    return min(-profiles[e].a_e for e in star)


def _trig_from_json(obj) -> TrigPoly:
    if obj is None:
        return TrigPoly()
    return TrigPoly(const=float(obj.get("const", 0.0)),
                    cos=tuple(obj.get("cos", ())),
                    sin=tuple(obj.get("sin", ())))


def parse_models(entries, g: BaseGraph) -> dict[str, object]:
    """Models from a list of per-positive-edge JSON objects."""
    models: dict[str, object] = {}
    for item in entries:
        eid = item["edge"]
        if eid not in g.edges or not g.edges[eid].is_positive:
            raise ValueError(f"hamiltonian spec names unknown positive edge {eid!r}")
        family = item.get("family", "quadratic")
        if family == "quadratic":
            models[eid] = QuadraticEdgeModel(
                kappa=float(item.get("kappa", 1.0)),
                drift=_trig_from_json(item.get("drift")),
                potential=_trig_from_json(item.get("potential")))
        elif family == "tabulated":
            models[eid] = TabulatedEdgeModel(item["s_grid"], item["rho_grid"],
                                             item["values"])
        else:
            raise ValueError(f"unknown Hamiltonian family {family!r}")
    return models


def load_hamiltonians(path: str, g: BaseGraph) -> EdgeProfiles:
    with open(path) as fh:
        entries = json.load(fh)
    return build_profiles(g, parse_models(entries, g))
