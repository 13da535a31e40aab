"""Minimal action functionals on the base graph and its crystal.

A parametrized path traverses concatenated edges with nonnegative average
speeds (time = 1/speed on moving edges) and may pause in place on an edge at
cost -a_e per unit time.  The minimal total Lagrangian cost among such paths
linking x to y in total time T with rotation vector h is the discrete
minimal action.  Two computations are provided:

* ``min_action``: a dual lower bound.  For each level a >= a0 the cheapest
  lifted path from (x, 0) to (y, h) under the weights sigma(e, a) is found
  by Dijkstra on the crystal restricted to a rotation box (``BoxGraph``),
  with one Johnson potential from the cell problem at a0 keeping every
  reweighted sigma(e, a) >= 0, and the bound  max_a [Psi_a(x,y,h) - a T]
  is maximized on an adaptive geometric a-grid plus local refinement.  The
  clamp a >= a0 (instead of the per-path max of critical values) costs at
  most a T-independent additive constant, realized by bounded detours
  through the spanning tree; only T-normalized quantities enter the
  acceptance checks.

* ``min_action_exact_oracle``: exhaustive enumeration of path supports on
  tiny instances, each support evaluated with the pause-aware clamp (the
  largest critical value among edges incident to the visited vertices),
  which is the exact minimum over parametrizations including equilibrium
  pauses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .base_graph import BaseGraph, Path, ThetaMap
from .crystal import BoxGraph, CrystalVertex, Potential, johnson_potential
from .edge_calculus import EdgeProfiles
from .errors import BudgetExceeded, Unreachable
from .mather import get_solver

DEFAULT_A_GRID = 64


@dataclass(frozen=True)
class ActionQuery:
    """Endpoints, horizon and caps for one minimal-action evaluation.

    ``rotation_radius`` bounds the crystal box of ``min_action``;
    ``edge_cap`` bounds the support length of ``min_action_exact_oracle``.
    """

    x: str
    y: str
    T: float
    h: tuple[int, ...]
    rotation_radius: int | None = None
    edge_cap: int | None = None
    a_grid: int = DEFAULT_A_GRID

    def radius(self) -> int:
        if self.rotation_radius is not None:
            return self.rotation_radius
        return int(max(abs(k) for k in self.h) if self.h else 0) + 2

    def cap(self, n_vertices: int) -> int:
        if self.edge_cap is not None:
            return self.edge_cap
        return 6 * (int(sum(abs(k) for k in self.h)) + n_vertices)


def _concave_max(f, lo: float, hi_hint: float = 1.0):
    """Max of a concave function on [lo, inf): doubling bracket + local search."""
    step = max(hi_hint, 1e-6)
    hi = lo + step
    while f(lo + step) > f(lo + 0.5 * step):
        step *= 2.0
        hi = lo + step
        if step > 1e14:
            raise BudgetExceeded("concave bracket expansion failed")
    res = minimize_scalar(lambda a: -f(a), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return max(float(-res.fun), float(f(lo)))


def path_action(profiles: EdgeProfiles, support: Path, T: float) -> float:
    """Minimal action of parametrized paths on a fixed nonempty support.

    Equals max over a >= max_i a_{e_i} of [sum_i sigma(e_i, a) - a T]; surplus
    time is implicitly paused on a support edge with the largest critical
    value.
    """
    if not support.edges:
        raise ValueError("support must be nonempty")
    if T <= 0:
        raise ValueError("T must be positive")
    a_hat = max(profiles[e].a_e for e in support.edges)

    def f(a):
        return sum(float(profiles[e].sigma(a)) for e in support.edges) - a * T

    return _concave_max(f, a_hat, hi_hint=max(1.0, (len(support.edges) / T) ** 2))


def crystal_potential(g: BaseGraph, tm: ThetaMap,
                      profiles: EdgeProfiles) -> Potential:
    """Johnson potential for the reach weights sigma(e, a) at every a >= a0.

    Feasible at a0 and sigma increases in a, so one potential serves every
    level of every reach on this network.
    """
    return johnson_potential(
        g, tm, [profiles[e].sigma(profiles.a0) for e in sorted(g.edges)])


class LiftedReach:
    """Cheapest walk weights sum sigma(e, a) from a box's source.

    ``dist`` has shape (n_a, |V0|, 2r+1, ..., 2r+1), one box axis per
    homology dimension, batched over the level grid ``a_values``; a reverse
    box gives walks INTO the source (used by the rescaled-solution search,
    which minimizes over starting vertices).  Levels must be >= a0.
    """

    cap_bound = False  # the search has no cap; bench/tracing.py counts this

    def __init__(self, box: BoxGraph, profiles: EdgeProfiles, a_values,
                 potential: Potential | None = None):
        self.box = box
        self.a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
        if potential is None:
            potential = crystal_potential(box.g, box.tm, profiles)
        weights = np.stack([profiles[e].sigma(self.a_values) for e in box.edges],
                           axis=1)
        self.dist = box.distances(weights, potential)

    def at(self, vertex: str, h):
        """Distance profile over the a-grid for one crystal vertex."""
        return self.dist[(slice(None),) + self.box.index(vertex, h)]


def _a_grid(a0: float, offset: float, n: int) -> np.ndarray:
    return np.concatenate([[a0], a0 + np.geomspace(1e-6, offset, n - 1)])


def min_action(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
               query: ActionQuery) -> float:
    """Dual minimal-action bound max_a [Psi_a(x, y, h) - a T]."""
    if query.T <= 0:
        raise ValueError("T must be positive")
    h = np.asarray(query.h, dtype=int)
    radius = query.radius()
    if np.max(np.abs(h), initial=0) > radius:
        raise Unreachable(f"h = {query.h} lies outside the rotation box of "
                          f"radius {radius}")
    a0 = profiles.a0
    offset = max(1.0, 2.0 * ((np.abs(h).sum() + len(g.vertices)) / query.T) ** 2)
    box = BoxGraph(g, tm, CrystalVertex(query.x, (0,) * tm.betti), radius)
    potential = crystal_potential(g, tm, profiles)

    def psi(a_values) -> np.ndarray:
        return LiftedReach(box, profiles, a_values, potential).at(query.y, h)

    for _ in range(20):
        grid = _a_grid(a0, offset, query.a_grid)
        vals = psi(grid) - grid * query.T
        if not np.any(np.isfinite(vals)):
            raise Unreachable(
                f"no lifted path from ({query.x}, 0) to ({query.y}, {query.h}) "
                f"within radius {radius}")
        i = int(np.argmax(vals))
        if i < query.a_grid - 1:
            break
        offset *= 2.0
    else:
        raise BudgetExceeded("a-grid upper end kept binding")

    best = float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(lambda a: -(float(psi([a])[0]) - a * query.T),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-9})
        best = max(best, float(-res.fun))
    return best


def network_min_action(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                       z1: CrystalVertex, z2: CrystalVertex, T: float,
                       **caps) -> float:
    """Minimal action between crystal vertices: only the h difference enters."""
    h = tuple(int(b) - int(a) for a, b in zip(z1.h, z2.h))
    return min_action(g, tm, profiles,
                      ActionQuery(z1.base, z2.base, T, h, **caps))


def _incident_critical(g: BaseGraph, profiles: EdgeProfiles, vertices) -> float:
    return max(profiles[e].a_e for v in vertices for e in g.star(v))


def min_action_exact_oracle(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                            query: ActionQuery, path_budget: int = 500_000) -> float:
    """Exact minimal action on tiny instances by support enumeration.

    Each support is scored with the pause-aware clamp: surplus time pauses on
    the best edge incident to any visited vertex (equilibrium fluctuations
    reach it at zero cost within the support's own vertices).
    """
    if len(g.orientation) > 4:
        raise ValueError("exact oracle is intended for <= 4 positive edges")
    h = np.asarray(query.h, dtype=int)
    radius = query.radius()
    cap = query.cap(len(g.vertices))
    if cap > 12:
        raise ValueError("exact oracle is intended for edge caps <= 12")

    memo: dict[tuple, float] = {}  # value depends only on edge counts + clamp

    def support_value(edges: tuple[str, ...], visited: frozenset[str]) -> float:
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
                               hi_hint=max(1.0, (len(edges) / query.T) ** 2))
        memo[key] = val
        return val

    best = np.inf
    count = 0
    stack = [(query.x, (), np.zeros_like(h), frozenset([query.x]))]
    while stack:
        v, edges, rot, visited = stack.pop()
        if v == query.y and np.array_equal(rot, h):
            best = min(best, support_value(edges, visited))
        if len(edges) == cap:
            continue
        remaining = cap - len(edges)
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


@dataclass
class ScanRow:
    T: float
    h: tuple[int, ...]
    phi_over_T: float
    beta: float
    deviation: float


def asymptotics_scan(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     x: str, y: str, h_direction, T_list,
                     **caps) -> list[ScanRow]:
    """Deviations |Phi(x,y,T, floor(T dir))/T - beta(h/T)| along a T schedule."""
    solver = get_solver(g, tm, profiles)
    direction = np.asarray(h_direction, dtype=float)
    rows = []
    for T in T_list:
        h = tuple(int(k) for k in np.floor(T * direction))
        phi = min_action(g, tm, profiles, ActionQuery(x, y, float(T), h, **caps))
        bval = solver.beta(np.asarray(h, dtype=float) / T)
        rows.append(ScanRow(float(T), h, phi / T, bval, abs(phi / T - bval)))
    return rows
