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
is settled and returns a walk attaining it (``BoxGraph.walk``).  The bound
max_a [Psi_a(x,y,h) - a T], Psi_a the least walk weight C sigma(a), is concave
in a; ``_dual_max`` maximizes it by cutting planes on the walks found, with
the library's one concave search ``edge_calculus._concave_max``.  The clamp a >= a0
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
from .errors import BudgetExceeded, Unreachable, integral, vector
from .mather import MatherSolver

_DUAL_SEARCHES = 16  # walk searches of one _dual_max before BudgetExceeded


@dataclass(frozen=True)
class ActionQuery:
    """Endpoints, horizon and rotation box of one minimal-action evaluation.

    ``rotation_radius``, an integer >= 0, bounds the crystal box of ``min_action``.
    """

    x: str
    y: str
    T: float
    h: tuple[int, ...]
    rotation_radius: int | None = None

    def __post_init__(self):
        integral("rotation vector h", self.h)
        if self.rotation_radius is not None and not (
                integral("rotation_radius", self.rotation_radius) >= 0):
            raise ValueError(f"rotation_radius must be >= 0, not {self.rotation_radius}")

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

    return _concave_max(f, a_hat, hi_hint=max(1.0, (len(support.edges) / T) ** 2))[0]


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
    own searches read ``BoxGraph`` directly: ``min_action`` one walk per
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
    in a; ``_dual_max`` certifies it in a few Dijkstra searches."""
    if not 0 < query.T < np.inf:
        raise ValueError(f"T must be positive and finite, not {query.T}")
    h = vector("rotation vector h", query.h, tm.betti).astype(int)
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
                     query.T, offset)[0]


def _dual_max(box: BoxGraph, profiles: EdgeProfiles, potential: Potential,
              target, T: float, hi_hint: float,
              a0_tree=None) -> tuple[float, np.ndarray]:
    """max_{a >= a0} [Psi_a - a T], Psi_a the least walk weight to ``target``, and
    the edge counts of the last walk found, by cutting planes (Kelley 1960): a
    walk's weight C sigma(a) is concave and never below Psi_a, so the least of
    those found bounds Psi_a from above; each search runs where that model,
    minus a T, peaks, until it returns a walk already found, where model and
    dual agree.  Returns the best dual value evaluated (a witness).  A walk at
    a0 reads ``a0_tree``, a ``BoxGraph.tree`` of sigma_all(a0) that reaches
    ``target``, if given."""
    def model(s):
        return float((C @ profiles.sigma_all(s)).min()) - s * T

    C, best, a = np.zeros((0, len(box.edges)), dtype=int), -np.inf, profiles.a0
    for _ in range(_DUAL_SEARCHES):
        psi, counts = box.walk(profiles.sigma_all(a), potential, target,
                               a0_tree if a == profiles.a0 else None)
        best = max(best, psi - a * T)
        if (C == counts).all(axis=1).any():
            return best, counts
        C = np.vstack([C, counts])
        a = _concave_max(model, profiles.a0, hi_hint,
                         piece=lambda s: int(np.argmin(C @ profiles.sigma_all(s))))[1]
    raise BudgetExceeded(f"each of {_DUAL_SEARCHES} dual searches found a new walk")


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
    direction = vector("h_direction", h_direction, tm.betti)
    solver = MatherSolver(g, tm, profiles)
    hs = [tuple(int(k) for k in np.floor(T * direction)) for T in T_list]
    phis = [min_action(g, tm, profiles, ActionQuery(x, y, float(T), h)) / T
            for T, h in zip(T_list, hs)]
    betas = [solver.beta(np.asarray(h, dtype=float) / T) for T, h in zip(T_list, hs)]
    return [ScanRow(float(T), h, phi, bval, abs(phi - bval))
            for T, h, phi, bval in zip(T_list, hs, phis, betas)]
