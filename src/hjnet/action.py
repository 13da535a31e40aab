"""Minimal action functionals on the base graph and its crystal.

A parametrized path traverses concatenated edges with nonnegative average
speeds (time = 1/speed on moving edges) and may pause in place on an edge at
cost -a_e per unit time.  The minimal total Lagrangian cost among such paths
linking x to y in total time T with rotation vector h is the discrete
minimal action.  ``path_action`` computes it on one fixed support.
``min_action`` bounds it from below over all supports: for each level
a >= a0 the cheapest lifted path from (x, 0) to (y, h) under the weights
sigma(e, a) is found by Dijkstra on the crystal restricted to a rotation box
(``BoxGraph``), with one Johnson potential from the cell problem at a0
keeping every reweighted sigma(e, a) >= 0; each search stops once the target
is settled (at the hop bound of ``BoxGraph.distances(at=)``).  The bound
max_a [Psi_a(x,y,h) - a T] is concave in a and is maximized by the library's
one bracketed concave search, ``edge_calculus._concave_max``, which
``path_action`` and ``EdgeProfile.lagrangian`` use too.  The clamp a >= a0
(instead of the per-path max of critical values) costs at most a
T-independent additive constant, realized by bounded detours through the
spanning tree; only T-normalized quantities enter the acceptance checks.
Only the h difference of two crystal vertices enters, so a query names base
vertices and that difference.

The exhaustive support enumeration that measures the constant on tiny
instances is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_graph import BaseGraph, Path, ThetaMap
from .crystal import BoxGraph, CrystalVertex, Potential, johnson_potential
from .edge_calculus import EdgeProfiles, _concave_max
from .errors import Unreachable, finite, integral
from .mather import MatherSolver


@dataclass(frozen=True)
class ActionQuery:
    """Endpoints, horizon and rotation box of one minimal-action evaluation.

    ``rotation_radius`` bounds the crystal box of ``min_action``.
    """

    x: str
    y: str
    T: float
    h: tuple[int, ...]
    rotation_radius: int | None = None

    def __post_init__(self):
        integral("rotation vector h", self.h)

    def radius(self) -> int:
        if self.rotation_radius is not None:
            return self.rotation_radius
        return int(max(abs(k) for k in self.h) if self.h else 0) + 2


def path_action(profiles: EdgeProfiles, support: Path, T: float) -> float:
    """Minimal action of parametrized paths on a fixed nonempty support.

    Equals max over a >= max_i a_{e_i} of [sum_i sigma(e_i, a) - a T]; surplus
    time is implicitly paused on a support edge with the largest critical
    value.
    """
    if not support.edges:
        raise ValueError("support must be nonempty")
    if not 0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, not {T}")
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
    return johnson_potential(g, tm, profiles.sigma_all(profiles.a0))


class LiftedReach:
    """Cheapest walk weights sum sigma(e, a) from a box's source.

    ``dist`` has shape (n_a, |V0|, 2r+1, ..., 2r+1), one box axis per
    homology dimension, batched over the level grid ``a_values``; a reverse
    box gives walks INTO the source.  Levels must be >= a0.  The library's
    own searches read ``BoxGraph`` directly: ``min_action`` one node per
    level, ``epsilon_solution`` one streamed level at a time.
    """

    cap_bound = False  # the search has no cap; bench/tracing.py counts this

    def __init__(self, box: BoxGraph, profiles: EdgeProfiles, a_values,
                 potential: Potential | None = None):
        self.box = box
        self.a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
        if potential is None:
            potential = crystal_potential(box.g, box.tm, profiles)
        # one row per level, columns in the graph's edge_order like box.edges
        self.dist = np.stack(list(box.levels(profiles.sigma_all(self.a_values).T,
                                             potential)))

    def at(self, vertex: str, h):
        """Distance profile over the a-grid for one crystal vertex."""
        return self.dist[(slice(None),) + self.box.index(vertex, h)]


def min_action(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
               query: ActionQuery) -> float:
    """Dual minimal-action bound max_{a >= a0} [Psi_a(x, y, h) - a T], concave
    in a; ``_concave_max`` runs one Dijkstra search per evaluation."""
    if not 0 < query.T < np.inf:
        raise ValueError(f"T must be positive and finite, not {query.T}")
    h = np.asarray(query.h, dtype=int)
    radius = query.radius()
    if np.max(np.abs(h), initial=0) > radius:
        raise Unreachable(f"h = {query.h} lies outside the rotation box of "
                          f"radius {radius}")
    box = BoxGraph(g, tm, CrystalVertex(query.x, (0,) * tm.betti), radius)
    target = box.index(query.y, h)
    if not np.isfinite(box.hops()[target]):
        raise Unreachable(
            f"no lifted path from ({query.x}, 0) to ({query.y}, {query.h}) "
            f"within radius {radius}")
    offset = max(1.0, 2.0 * ((np.abs(h).sum() + len(g.vertices)) / query.T) ** 2)
    return _dual_max(box, profiles, crystal_potential(g, tm, profiles), target,
                     query.T, offset)


def _dual_max(box: BoxGraph, profiles: EdgeProfiles, potential: Potential,
              target, T: float, hi_hint: float) -> float:
    """max_{a >= a0} [Psi_a - a T], Psi_a the box's walk weight at node ``target``:
    ``_concave_max`` with one hop-bounded Dijkstra search per evaluation."""
    def dual(a: float) -> float:
        psi = box.distances(profiles.sigma_all([a]).T, potential, at=target)
        return float(psi[0]) - a * T

    return _concave_max(dual, profiles.a0, hi_hint=hi_hint)


@dataclass
class ScanRow:
    T: float
    h: tuple[int, ...]
    phi_over_T: float
    beta: float
    deviation: float


def asymptotics_scan(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     x: str, y: str, h_direction, T_list) -> list[ScanRow]:
    """Deviations |Phi(x,y,T, floor(T dir))/T - beta(h/T)| along a T schedule."""
    if not all(0 < T < np.inf for T in T_list):
        raise ValueError(f"every T must be positive and finite, not {T_list}")
    direction = finite("h_direction", h_direction)
    solver = MatherSolver(g, tm, profiles)
    hs = [tuple(int(k) for k in np.floor(T * direction)) for T in T_list]
    phis = [min_action(g, tm, profiles, ActionQuery(x, y, float(T), h)) / T
            for T, h in zip(T_list, hs)]
    betas = solver.beta_batch([np.asarray(h, dtype=float) / T
                               for T, h in zip(T_list, hs)]).tolist()
    return [ScanRow(float(T), h, phi, bval, abs(phi - bval))
            for T, h, phi, bval in zip(T_list, hs, phis, betas)]
