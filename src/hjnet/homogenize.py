"""Rescaled evolutive solutions at crystal vertices and their homogenized limit.

The rescaled solution with initial datum g_eps(z) = g(eps pi2(z)) is

    u_eps(z, t) = min over vertices z0 of [ g_eps(z0) + eps Phi(z0, z, t/eps) ]

with the minimum restricted to a ball eps d_V(z0, z) <= R that provably
contains the minimizers (the ball radius follows from the datum's Lipschitz
bound and the conjugate speeds of the effective Hamiltonian, and expands
once if it binds).  Phi(z0, z, T) is min_action's dual bound
max_{a >= a0} [Psi_a - aT], Psi_a the least walk weight from z0 into z in one
reverse crystal box around z (``crystal.BoxGraph``).  The minimum is found by
lower-bound pruning (Land and Doig 1960).  A screen streams one a-grid over
the box, each level a Dijkstra search that stops once the ball (at most R/eps
arcs from z) is settled, into a running max: a lower bound per vertex.  The
least bound is then made exact (``action._dual_max``) until it already is,
which makes it the minimum.  The limit solution is the inf-convolution

    u(h, t) = inf over h0 of [ g(h0) + t beta((h - h0)/t) ],

computed by ``mather._refine_max``, the grid search of beta, over the
displacements q = (h - h0)/t, each level's q in one ``beta_batch`` call.
The convergence experiment compares u_eps at the lattice vertex nearest to
each sample h with u at that vertex, along a decreasing list of eps.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .base_graph import BaseGraph, ThetaMap
from .crystal import BoxGraph, CrystalVertex
from .edge_calculus import EdgeProfiles
from .errors import BudgetExceeded, RadiusExhausted, finite
from .action import _dual_max, crystal_potential
from .mather import MatherSolver, _refine_max

logger = logging.getLogger(__name__)

_DUAL_LEVELS = 48  # levels of the a-grid that epsilon_solution screens with
_REACH_DIRS = 16  # random momentum directions of _reach_scales, plus the axes
_HOPF_TOL = 1e-4  # limit_solution refines while grid half-width times t exceeds it


class InitialDatum:
    """Uniformly continuous datum on R^b with a known Lipschitz bound."""

    def value(self, h):
        raise NotImplementedError


@dataclass
class LinearDatum(InitialDatum):
    p: tuple[float, ...]

    def __post_init__(self):
        finite("linear datum p", self.p)

    def value(self, h):
        h = np.asarray(h, dtype=float)
        return h @ np.asarray(self.p, dtype=float)

    @property
    def lipschitz(self):
        return float(np.linalg.norm(self.p))


@dataclass
class ConeDatum(InitialDatum):
    """c times the l1 norm."""

    c: float

    def __post_init__(self):
        finite("cone datum c", self.c)

    def value(self, h):
        h = np.asarray(h, dtype=float)
        return self.c * np.abs(h).sum(axis=-1)

    @property
    def lipschitz(self):
        return abs(self.c)  # per component; scaled by sqrt(b) where needed


@dataclass
class TabulatedDatum(InitialDatum):
    """Lipschitz extension min_i (v_i + L |h - x_i|) of scattered samples."""

    anchors: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    lipschitz: float

    def __post_init__(self):
        if len(set(map(len, self.anchors))) != 1 or len(self.values) != len(self.anchors):
            raise ValueError("tabulated anchors need one common length and one value each")
        if not all(np.isfinite(np.asarray(x, dtype=float)).all()
                   for x in (self.values, self.anchors)):
            raise ValueError("tabulated datum values and anchors must be finite")
        if not 0 <= self.lipschitz < np.inf:
            raise ValueError(f"Lipschitz bound {self.lipschitz} must be finite and >= 0")

    def value(self, h):
        h = np.asarray(h, dtype=float)
        x = np.asarray(self.anchors, dtype=float)
        v = np.asarray(self.values, dtype=float)
        dist = np.linalg.norm(h[..., None, :] - x, axis=-1)
        return (v + self.lipschitz * dist).min(axis=-1)


@dataclass
class ExperimentGrid:
    """Sample points, eps schedule and ball radius for the experiment."""

    samples: tuple[tuple[tuple[float, ...], float], ...]
    eps_list: tuple[float, ...]
    radius: float | None = None

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if not all(0 < t < np.inf for _, t in self.samples):
            raise ValueError("sample times must be positive and finite")
        for h, _ in self.samples:
            finite("sample point h", h)
        if not all(0 < eps < np.inf for eps in self.eps_list):
            raise ValueError("every eps must be positive and finite")
        if self.radius is not None and not 0 < self.radius < np.inf:
            raise ValueError(f"search radius {self.radius} must be positive and finite")


def _datum_lipschitz(datum, b: int) -> float:
    if isinstance(datum, ConeDatum):
        return abs(datum.c) * np.sqrt(b)
    return float(datum.lipschitz)


def _a_grid(a0: float, offset: float, n: int) -> np.ndarray:
    return np.concatenate([[a0], a0 + np.geomspace(1e-6, offset, n - 1)])


def _reach_scales(solver: MatherSolver, L: float):
    """Conjugate speed bound and level cap for momenta up to |p| <= L + 1/2.

    Minimizing curves move with the gradient of the effective Hamiltonian at
    the conjugate momentum, whose norm is bounded by the datum's Lipschitz
    constant; sampled finite differences give the speed scale, and the
    effective Hamiltonian itself caps the relevant dual levels.
    """
    b = solver.tm.betti
    if b == 0:
        return 1.0, solver.a0 + 1.0
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(_REACH_DIRS, b))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    eye = np.eye(b)
    dirs = np.concatenate([dirs, eye, -eye])
    P = (L + 0.5) * dirs
    delta = 1e-4
    grads = np.empty_like(P)
    for k in range(b):
        grads[:, k] = (solver.alpha_batch(P + delta * eye[k])
                       - solver.alpha_batch(P - delta * eye[k])) / (2 * delta)
    q_reach = float(np.linalg.norm(grads, axis=1).max())
    a_cap = float(solver.alpha_batch(P).max())
    return 1.25 * q_reach + 0.25, a_cap + 1.0


def _box_lattice(center, radius: int):
    """Integer h values of the box around center (b >= 1 entries), as an
    array of shape (2r+1, ..., 2r+1, b)."""
    axes = [np.arange(-radius, radius + 1) + int(c) for c in center]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def epsilon_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     datum: InitialDatum, z: CrystalVertex, t: float,
                     eps: float, R: float | None = None) -> float:
    """Value of the rescaled solution at crystal vertex z and time t: the
    least screened lower bound, refined exactly until the least one is exact."""
    if not (0 < t < np.inf and 0 < eps < np.inf):
        raise ValueError(f"t and eps must be positive and finite, not {t}, {eps}")
    if R is not None and not 0 < R < np.inf:
        raise ValueError(f"search radius R = {R} must be positive and finite")
    solver = MatherSolver(g, tm, profiles)
    L = _datum_lipschitz(datum, tm.betti)
    q_reach, a_cap = _reach_scales(solver, L)
    potential = crystal_potential(g, tm, profiles)
    radius_given = R is not None
    if R is None:
        R = t * q_reach + 1.0
    for attempt in range(2):
        value, touches = _epsilon_solution_once(
            g, tm, profiles, potential, datum, z, t, eps, R, a_cap)
        if not touches:
            return value
        if radius_given and attempt == 0:
            logger.warning("search ball R=%.3g binding, expanding once", R)
        R *= 2.0
    raise RadiusExhausted(
        f"minimizer keeps touching the search ball even after expansion (R={R})")


def _epsilon_solution_once(g, tm, profiles, potential, datum, z, t, eps, R,
                           a_cap):
    T = t / eps
    hops_allowed = R / eps
    rbox = int(np.ceil(hops_allowed)) + 1
    offset = max(a_cap - profiles.a0, 1.0)

    box = BoxGraph(g, tm, z, rbox, reverse=True)
    hops = box.hops()
    g_vals = (datum.value(eps * _box_lattice(z.h, rbox).astype(float)) if tm.betti
              else np.asarray(datum.value(np.zeros(0))))

    # screen: the best level of one a-grid bounds each vertex's dual from below
    a_vals = _a_grid(profiles.a0, offset, _DUAL_LEVELS)
    best = np.full(box.shape, -np.inf)
    for phi, a in zip(box.levels(profiles.sigma_all(a_vals).T, potential,
                                 max_hops=hops_allowed), a_vals):
        np.maximum(best, np.subtract(phi, a * T, out=phi), out=best)
    u = np.where(hops <= hops_allowed, g_vals + eps * best, np.inf)
    if not np.isfinite(u.min()):
        raise RadiusExhausted("no admissible starting vertex in the ball")

    # certify: a least lower bound that is exact is the minimum
    exact = np.zeros(box.shape, dtype=bool)
    while not exact[(w := np.unravel_index(np.argmin(u), u.shape))]:
        dual = _dual_max(box, profiles, potential, w, T, offset)
        u[w] = max(u[w], g_vals[w[1:]] + eps * dual)
        exact[w] = True
    return float(u[w]), bool(hops[w] > hops_allowed - 1.5)


def limit_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                   datum: InitialDatum, h, t: float) -> float:
    """Hopf-Lax value inf_h0 [g(h0) + t beta((h - h0)/t)]: ``_refine_max`` on
    its negation over q = (h - h0)/t, with box doubling and a polished beta."""
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, not {t}")
    h = finite("h", h)
    solver = MatherSolver(g, tm, profiles)
    b = tm.betti
    if b == 0:
        return float(datum.value(h) + t * solver.beta(h))
    L = _datum_lipschitz(datum, b)
    q_reach, _ = _reach_scales(solver, L)

    def neg_hopf(P):  # -(g(h - t q) + t beta(q)) on the one grid P[0]
        return -(np.array([datum.value(h - t * q) for q in P[0]], dtype=float)
                 + t * solver.beta_batch(P[0], polish=False, levels=18))[None]

    hw = max(1.0, q_reach)
    for _ in range(20):
        # one level per halving while the half-width times t exceeds the tolerance
        levels = next(k for k in itertools.count() if hw / 2.0**k * t <= _HOPF_TOL)
        best_q = _refine_max(neg_hopf, 1, b, hw, levels)[0][0]
        if np.max(np.abs(best_q)) < hw * (1 - 1e-9):
            return float(datum.value(h - t * best_q) + t * solver.beta(best_q))
        hw *= 2.0
    raise BudgetExceeded("inf-convolution grid kept expanding")


@dataclass
class ExperimentReport:
    rows: list[dict] = field(default_factory=list)
    sup_error_per_eps: dict[float, float] = field(default_factory=dict)

    def summary(self) -> dict:
        return {"sup_error_per_eps": [
            {"eps": e, "sup_error": s} for e, s in self.sup_error_per_eps.items()]}


def convergence_experiment(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                           datum: InitialDatum,
                           grid: ExperimentGrid) -> ExperimentReport:
    """Compare u_eps at z = (x0, round(h / eps)), x0 the first base vertex,
    with the limit at eps round(h / eps) for every sample (h, t) and eps;
    each distinct limit point is solved once."""
    report = ExperimentReport()
    x0 = g.vertices[0]
    limits = {}
    for eps in grid.eps_list:
        sup_err = 0.0
        for (h, t) in grid.samples:
            h_z = tuple(int(k) for k in np.round(np.asarray(h, dtype=float) / eps))
            at = (tuple(float(eps * k) for k in h_z), t)
            if at not in limits:
                limits[at] = limit_solution(g, tm, profiles, datum, *at)
            u_eps = epsilon_solution(g, tm, profiles, datum, CrystalVertex(x0, h_z),
                                     t, eps, R=grid.radius)
            err = abs(u_eps - limits[at])
            sup_err = max(sup_err, err)
            report.rows.append({"eps": eps, "h": h, "t": t, "u_eps": u_eps,
                                "u_limit": limits[at], "abs_error": err})
        report.sup_error_per_eps[eps] = sup_err
    return report
