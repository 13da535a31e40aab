"""Rescaled evolutive solutions at crystal vertices and their homogenized limit.

The rescaled solution with initial datum g_eps(z) = g(eps pi2(z)) is

    u_eps(z, t) = min over vertices z0 of [ g_eps(z0) + eps Phi(z0, z, t/eps) ]

with the minimum restricted to a ball eps d_V(z0, z) <= R that provably
contains the minimizers (the ball radius follows from the datum's Lipschitz
bound and the conjugate speeds of the effective Hamiltonian, and expands
once if it binds).  Hop counts and the dual-level walk weights Phi come from
one reverse crystal box around z (``crystal.BoxGraph``): one unweighted
search, then one Dijkstra search per level.  The limit solution is the
inf-convolution

    u(h, t) = inf over h0 of [ g(h0) + t beta((h - h0)/t) ],

computed on an adaptive grid around h.  The convergence experiment compares
the two along a decreasing list of eps at nearest lattice vertices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .base_graph import BaseGraph, ThetaMap
from .crystal import BoxGraph, CrystalVertex
from .edge_calculus import EdgeProfiles
from .errors import BudgetExceeded, RadiusExhausted
from .action import LiftedReach, crystal_potential
from .mather import MatherSolver, get_solver

logger = logging.getLogger(__name__)


class InitialDatum:
    """Uniformly continuous datum on R^b with a known Lipschitz bound."""

    kind = "generic"

    def value(self, h):
        raise NotImplementedError

    def __call__(self, h):
        return self.value(h)


@dataclass
class LinearDatum(InitialDatum):
    p: tuple[float, ...]
    kind = "linear"

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
    kind = "cone"

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
    kind = "tabulated"

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
        if any(t <= 0 for _, t in self.samples):
            raise ValueError("sample times must be positive")


def _datum_lipschitz(datum, b: int) -> float:
    if isinstance(datum, ConeDatum):
        return abs(datum.c) * np.sqrt(b)
    return float(datum.lipschitz)


def _reach_scales(solver: MatherSolver, L: float, n_dirs: int = 16):
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
    dirs = rng.normal(size=(n_dirs, b))
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


def _box_lattice(center, radius: int, b: int):
    """Integer h values of the box as an array of shape (n, ..., n, b)."""
    n = 2 * radius + 1
    axes = [np.arange(-radius, radius + 1) + int(c) for c in center]
    if b == 0:
        return np.zeros((1, 0), dtype=int).reshape(() + (0,))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def epsilon_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     datum: InitialDatum, z: CrystalVertex, t: float,
                     eps: float, R: float | None = None,
                     a_grid: int = 48) -> float:
    """Value of the rescaled solution at crystal vertex z and time t."""
    if t <= 0 or eps <= 0:
        raise ValueError("t and eps must be positive")
    solver = get_solver(g, tm, profiles)
    L = _datum_lipschitz(datum, tm.betti)
    q_reach, a_cap = _reach_scales(solver, L)
    potential = crystal_potential(g, tm, profiles)
    radius_given = R is not None
    if R is None:
        R = t * q_reach + 1.0
    for attempt in range(2):
        value, touches = _epsilon_solution_once(
            g, tm, profiles, potential, datum, z, t, eps, R, a_cap, a_grid)
        if not touches:
            return value
        if radius_given and attempt == 0:
            logger.warning("search ball R=%.3g binding, expanding once", R)
        R *= 2.0
    raise RadiusExhausted(
        f"minimizer keeps touching the search ball even after expansion (R={R})")


def _epsilon_solution_once(g, tm, profiles, potential, datum, z, t, eps, R,
                           a_cap, a_grid):
    T = t / eps
    b = tm.betti
    hops_allowed = R / eps
    rbox = int(np.ceil(hops_allowed)) + 1
    h_z = np.asarray(z.h, dtype=int)
    offset = max(a_cap - profiles.a0, 1.0)

    box = BoxGraph(g, tm, z, rbox, reverse=True)
    hops = box.hops()
    lattice = _box_lattice(h_z, rbox, b)
    g_vals = datum.value(eps * lattice.astype(float)) if b else \
        np.asarray(datum.value(np.zeros(0)))

    for _ in range(12):
        a_vals = np.concatenate([[profiles.a0],
                                 profiles.a0 + np.geomspace(1e-6, offset,
                                                            a_grid - 1)])
        reach = LiftedReach(box, profiles, a_vals, potential)
        # phi[a, v, box...] -> dual value per candidate, then the datum
        phi = reach.dist - (a_vals * T).reshape((-1,) + (1,) * (b + 1))
        best_over_a = phi.max(axis=0)
        argmax_a = phi.argmax(axis=0)
        u_cand = g_vals[None, ...] + eps * best_over_a
        u_cand = np.where(hops <= hops_allowed, u_cand, np.inf)
        flat = int(np.argmin(u_cand))
        if not np.isfinite(u_cand.ravel()[flat]):
            raise RadiusExhausted("no admissible starting vertex in the ball")
        if argmax_a.ravel()[flat] < a_grid - 1:
            break
        offset *= 2.0
    else:
        raise BudgetExceeded("dual level grid kept binding")

    # refine the dual level around successive winners with denser local grids;
    # finite level grids underestimate the per-candidate sup, so refined
    # values replace coarse ones by a per-candidate maximum
    widx = np.unravel_index(flat, u_cand.shape)
    a_current = a_vals
    arg_current = argmax_a
    for _ in range(3):
        i = int(arg_current[widx])
        lo = a_current[max(i - 1, 0)]
        hi = a_current[min(i + 1, a_current.size - 1)]
        if hi <= lo:
            break
        a_ref = np.linspace(lo, hi, 48)
        reach2 = LiftedReach(box, profiles, a_ref, potential)
        phi2 = reach2.dist - (a_ref * T).reshape((-1,) + (1,) * (b + 1))
        u2 = g_vals[None, ...] + eps * phi2.max(axis=0)
        u2 = np.where(hops <= hops_allowed, u2, np.inf)
        refined = u2 > u_cand
        u_cand = np.maximum(u_cand, u2)
        flat = int(np.argmin(u_cand))
        new_widx = np.unravel_index(flat, u_cand.shape)
        if new_widx == widx and not refined[widx]:
            break
        widx = new_widx
        a_current = a_ref
        arg_current = phi2.argmax(axis=0)
    touches = bool(hops[widx] > hops_allowed - 1.5)
    return float(u_cand[widx]), touches


def limit_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                   datum: InitialDatum, h, t: float, tol: float = 1e-4,
                   pts: int = 9) -> float:
    """Hopf-Lax value inf_h0 [g(h0) + t beta((h - h0)/t)] by grid refinement."""
    if t <= 0:
        raise ValueError("t must be positive")
    solver = get_solver(g, tm, profiles)
    h = np.asarray(h, dtype=float)
    b = tm.betti
    if b == 0:
        return float(datum.value(h) + t * solver.beta(h))
    L = _datum_lipschitz(datum, b)
    q_reach, _ = _reach_scales(solver, L)

    def objective(qs):  # qs: (m, b) displacement grid
        vals = np.empty(qs.shape[0])
        for i, q in enumerate(qs):
            vals[i] = datum.value(h - t * q) + t * solver.beta(
                q, polish=False, levels=18)
        return vals

    hw = max(1.0, q_reach)
    for _ in range(20):
        center = np.zeros(b)
        best_q, best_val = center, np.inf
        hw_level = hw
        while hw_level * t > tol:
            axes = [np.linspace(center[i] - hw_level, center[i] + hw_level, pts)
                    for i in range(b)]
            qs = np.stack(np.meshgrid(*axes, indexing="ij"),
                          axis=-1).reshape(-1, b)
            vals = objective(qs)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_q = float(vals[i]), qs[i]
            center = qs[i]
            hw_level /= 2.0
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
                           datum: InitialDatum, grid: ExperimentGrid,
                           base_vertex: str | None = None) -> ExperimentReport:
    """Compare rescaled and limit solutions over the experiment grid."""
    report = ExperimentReport()
    x0 = base_vertex if base_vertex is not None else g.vertices[0]
    limits = {}
    for (h, t) in grid.samples:
        limits[(h, t)] = limit_solution(g, tm, profiles, datum, h, t)
    for eps in grid.eps_list:
        sup_err = 0.0
        for (h, t) in grid.samples:
            h_arr = np.asarray(h, dtype=float)
            h_z = tuple(int(k) for k in np.round(h_arr / eps))
            z = CrystalVertex(x0, h_z)
            u_eps = epsilon_solution(g, tm, profiles, datum, z, t, eps,
                                     R=grid.radius)
            u_lim = limits[(h, t)]
            err = abs(u_eps - u_lim)
            sup_err = max(sup_err, err)
            report.rows.append({"eps": eps, "h": h, "t": t, "u_eps": u_eps,
                                "u_limit": u_lim, "abs_error": err})
        report.sup_error_per_eps[eps] = sup_err
    return report
