"""Rescaled evolutive solutions at crystal vertices and their homogenized limit.

The rescaled solution with initial datum g_eps(z) = g(eps pi2(z)) is

    u_eps(z, t) = min over vertices z0 of [ g_eps(z0) + eps Phi(z0, z, t/eps) ]

with the minimum restricted to a ball eps d_V(z0, z) <= R that provably
contains the minimizers: R = t q + 1 is derived, with q ``MatherSolver.reach``'s
exact bound on |grad H_eff| over |p|_2 <= L + 1/2, L the datum's Lipschitz
bound; R doubles once if the winner touches its rim, then ``RadiusExhausted``.
Phi(z0, z, T) is min_action's dual bound max_{a >= a0} [Psi_a - aT], Psi_a
the least walk weight from z0 into z in one reverse crystal box around z
(``crystal.BoxGraph``).  That box is sized by the hop reach of its searches,
not by the ball: a search stopped at R/eps max(w_red) settles no node more
than K = floor(R/eps max(w_red)/min(w_red)) arcs from z, hence none beyond
``crystal.hop_reach``(K) of it.  Every search in a box smaller than the
ball's ceil(R/eps) + 1 checks that it settled none of the box's outer
layer, and the call reruns in the ball's box if one did; a search that
passes is the ball box's search, float for float.  The minimum is found by
lower-bound pruning (Land and Doig 1960).  A screen streams one a-grid of
``_DUAL_LEVELS`` levels, evenly spaced in speed (so quadratic in a - a0),
over the box, each level a Dijkstra search that stops once the ball (at most
R/eps arcs from z) is settled, into a running max: a lower bound per vertex.
The least bound is made exact (``action._dual_max``, by cutting planes) until
it already is, which makes it the minimum; the certification decides, so a
coarse screen costs refinements, never accuracy.  Every certification's walk
at a0 reads one search of the ball at a0, with predecessors, per box.  The
limit solution is the Hopf-Lax value inf over h0 of
[g(h0) + t beta((h - h0)/t)].  Every datum is the least of convex pieces
v_i + sup over p in D_i of <p, h - x_i>, D_i a point, a box or a ball
(``InitialDatum.pieces``); as alpha is convex, Hopf's formula (Hopf 1965;
Bardi and Evans 1984) gives the limit as the least over i of
v_i + sup over p in D_i of <p, h - x_i> - t alpha(p), with no beta: a closed
form where D_i is a point, else ``MatherSolver.hopf_sup``.
The convergence experiment compares u_eps at the lattice vertex nearest to
each sample h with u at that vertex, along a decreasing list of eps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .base_graph import BaseGraph, ThetaMap
from .crystal import BoxGraph, CrystalVertex, hop_reach, reduced_weights
from .edge_calculus import EdgeProfiles
from .errors import RadiusExhausted, RimReached, finite, integral, vector
from .action import _dual_max, crystal_potential
from .mather import MatherSolver

_DUAL_LEVELS = 12  # levels of the a-grid that epsilon_solution screens with


class InitialDatum:
    """Datum on R^b given as the least of convex pieces (``pieces``); its
    value, Lipschitz bound and Hopf-Lax limit are read from those pieces."""

    def pieces(self, b: int) -> list[tuple]:
        """Pieces (v, x, P, r, ord) whose least is the datum: each is
        v + <P, h - x> + r |h - x|_1 (a box piece, ord inf) or v + r |h - x|_2
        (a ball piece, ord 2, P = 0); a box piece of r = 0 is a point piece."""
        raise NotImplementedError

    def _pieces(self, b: int) -> list[tuple]:
        pieces = self.pieces(b)
        if (dim := len(pieces[0][1])) != b:
            raise ValueError(f"datum has dimension {dim}, not b = {b}")
        return pieces

    def value(self, h):
        h = np.asarray(h, dtype=float)
        out = np.inf
        for v, x, P, r, ord in self._pieces(h.shape[-1]):
            y = h - x
            norm = np.linalg.norm(y, 1 if ord == np.inf else 2, axis=-1)
            out = np.minimum(out, v + y @ P + r * norm)
        return out

    def lipschitz_bound(self, b: int) -> float:
        """Euclidean Lipschitz bound: the largest |P|_2 + r m over the pieces,
        with m = sqrt(b) for a box piece (|grad |h|_1|_2) and 1 for a ball piece."""
        return max(float(np.linalg.norm(P) + r * (np.sqrt(b) if ord == np.inf else 1.0))
                   for _, _, P, r, ord in self._pieces(b))

    def hopf_lax(self, solver: MatherSolver, h, t: float) -> float:
        """Hopf-Lax value inf_h0 [g(h0) + t beta((h - h0)/t)] by Hopf's formula:
        the least over the pieces of v + <P, y> - t alpha(P) (a point piece)
        or v + ``solver.hopf_sup``(y, t, r, ord), with y = h - x."""
        if not 0 < t < np.inf:
            raise ValueError(f"t must be positive and finite, not {t}")
        h = vector("h", h, solver.tm.betti)
        return min(v + float(P @ (h - x)) - t * solver.alpha(P) if r == 0
                   else v + solver.hopf_sup(h - x, t, r, ord)
                   for v, x, P, r, ord in self._pieces(solver.tm.betti))


@dataclass
class LinearDatum(InitialDatum):
    p: tuple[float, ...]

    def __post_init__(self):
        finite("linear datum p", self.p)

    def pieces(self, b):
        p = np.asarray(self.p, dtype=float)
        return [(0.0, np.zeros(p.size), p, 0.0, np.inf)]


@dataclass
class ConeDatum(InitialDatum):
    """c times the l1 norm: the box piece |p|_inf <= c if c >= 0, else the
    least of the 2^b point pieces c s, s in {-1, 1}^b."""

    c: float

    def __post_init__(self):
        finite("cone datum c", self.c)

    def pieces(self, b):
        if self.c >= 0:
            return [(0.0, np.zeros(b), np.zeros(b), self.c, np.inf)]
        return [(0.0, np.zeros(b), self.c * np.array(s), 0.0, np.inf)
                for s in itertools.product((-1.0, 1.0), repeat=b)]


@dataclass
class TabulatedDatum(InitialDatum):
    """Lipschitz extension min_i (v_i + L |h - x_i|) of scattered samples:
    one ball piece per anchor."""

    anchors: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    lipschitz: float

    def __post_init__(self):
        if len(set(map(len, self.anchors))) != 1 or len(self.values) != len(self.anchors):
            raise ValueError("tabulated anchors need one common length and one value each")
        finite("tabulated datum values", self.values)
        finite("tabulated datum anchors", self.anchors)
        if not 0 <= self.lipschitz < np.inf:
            raise ValueError(f"Lipschitz bound {self.lipschitz} must be finite and >= 0")

    def pieces(self, b):
        return [(v, np.asarray(x, dtype=float), np.zeros(len(x)), self.lipschitz, 2)
                for x, v in zip(self.anchors, self.values)]


@dataclass
class ExperimentGrid:
    """Sample points and eps schedule for the experiment."""

    samples: tuple[tuple[tuple[float, ...], float], ...]
    eps_list: tuple[float, ...]

    def __post_init__(self):
        for name in ("samples", "eps_list"):
            if not len(getattr(self, name)):
                raise ValueError(f"{name} must not be empty")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if not all(0 < t < np.inf for _, t in self.samples):
            raise ValueError("sample times must be positive and finite")
        for h, _ in self.samples:
            finite("sample point h", h)
        if not all(0 < eps < np.inf for eps in self.eps_list):
            raise ValueError("every eps must be positive and finite")


def _a_grid(a0: float, offset: float, n: int) -> np.ndarray:
    """n levels from a0 to a0 + offset, evenly spaced in speed: on a quadratic
    edge level a carries speed sqrt(2 (a - V)), so the spacing is quadratic in a."""
    return a0 + offset * np.linspace(0.0, 1.0, n) ** 2


def _reach_scales(solver: MatherSolver, L: float):
    """Conjugate speed bound and level cap for momenta |p|_2 <= L + 1/2.

    Minimizing curves move with the gradient of the effective Hamiltonian at
    the conjugate momentum, whose norm is bounded by the datum's Lipschitz
    constant; ``MatherSolver.reach`` bounds that gradient and caps the
    effective Hamiltonian, which bounds the relevant dual levels, exactly on
    the ball.  The margins absorb finite-eps effects, which the touch check
    of ``epsilon_solution`` certifies.  On a tree (b = 0) alpha is flat, yet
    the minimizer may still sit some base-graph hops away: unit speed.
    """
    if solver.tm.betti == 0:
        return 1.0, solver.a0 + 1.0
    a_cap, q_reach = solver.reach(L + 0.5)
    return 1.25 * q_reach + 0.25, a_cap + 1.0


def epsilon_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     datum: InitialDatum, z: CrystalVertex, t: float,
                     eps: float) -> float:
    """Value of the rescaled solution at crystal vertex z and time t: the
    least screened lower bound, refined exactly until the least one is exact."""
    if not (0 < t < np.inf and 0 < eps < np.inf):
        raise ValueError(f"t and eps must be positive and finite, not {t}, {eps}")
    if z.base not in g.vertices:
        raise ValueError(f"unknown base vertex {z.base!r}")
    integral("lattice point z.h", vector("lattice point z.h", z.h, tm.betti))
    solver = MatherSolver(g, tm, profiles)
    q_reach, a_cap = _reach_scales(solver, datum.lipschitz_bound(tm.betti))
    potential = crystal_potential(g, tm, profiles)
    R = t * q_reach + 1.0
    for _ in range(2):
        value, touches = _epsilon_solution_once(
            g, tm, profiles, potential, datum, z, t, eps, R, a_cap)
        if not touches:
            return value
        R *= 2.0
    raise RadiusExhausted(
        f"minimizer keeps touching the search ball even after expansion (R={R})")


def _box_radius(g, tm, z, w_red, hops_allowed, rbox) -> int:
    """Radius r = min(rbox, E(K) + 1) of the reverse box around z, with
    E(K) = ``hop_reach`` at K = floor(R/eps rho), rho the largest max/min
    ratio of the reduced weights ``w_red`` (one row per screen level).  A
    search stopped at R/eps max(w_red) settles only nodes at most K arcs
    from z, so none on the outer layer; rbox if a reduced weight is 0.
    As rho >= 1, the box holds every walk of at most R/eps arcs, so the hop
    counts that ``_epsilon_solution_once`` reads are those of the ball."""
    lo, hi = w_red.min(axis=1), w_red.max(axis=1)
    if not (lo > 0).all():
        return rbox
    K = np.floor(hops_allowed * (hi / lo).max())
    return hop_reach(g, tm, z.base, K, rbox - 1) + 1


def _epsilon_solution_once(g, tm, profiles, potential, datum, z, t, eps, R,
                           a_cap):
    """Least u_eps over the vertices within R/eps arcs of z, and whether the
    winner touches the ball's rim; searched in the rim-checked box of
    ``_box_radius``, and again in the box of radius ceil(R/eps) + 1, which
    every walk of at most R/eps arcs stays inside, if a search settles that
    box's outer layer."""
    T = t / eps
    hops_allowed = R / eps
    rbox = int(np.ceil(hops_allowed)) + 1
    offset = max(a_cap - profiles.a0, 1.0)
    a_vals = _a_grid(profiles.a0, offset, _DUAL_LEVELS)
    sig = profiles.sigma_all(a_vals).T

    def search(box):
        hops = box.hops()
        g_vals = datum.value(eps * box.lattice())

        # screen: the best level of one a-grid bounds each vertex's dual from below
        best = np.full(box.shape, -np.inf)
        for phi, a in zip(box.levels(sig, potential, max_hops=hops_allowed), a_vals):
            np.maximum(best, np.subtract(phi, a * T, out=phi), out=best)
        u = np.where(hops <= hops_allowed, g_vals + eps * best, np.inf)
        if not np.isfinite(u.min()):
            raise RadiusExhausted("no admissible starting vertex in the ball")

        # certify: a least lower bound that is exact is the minimum; every
        # certification's walk at a0 reads one search of the ball
        tree = box.tree(profiles.sigma_all(profiles.a0), potential, hops_allowed)
        exact = np.zeros(box.shape, dtype=bool)
        while not exact[(w := np.unravel_index(np.argmin(u), u.shape))]:
            dual = _dual_max(box, profiles, potential, w, T, offset, tree)[0]
            u[w] = max(u[w], g_vals[w[1:]] + eps * dual)
            exact[w] = True
        return float(u[w]), bool(hops[w] > hops_allowed - 1.5)

    r = _box_radius(g, tm, z, reduced_weights(sig, potential.edge_shift(g, tm)),
                    hops_allowed, rbox)
    if r < rbox:
        try:
            return search(BoxGraph(g, tm, z, r, reverse=True, rim_check=True))
        except RimReached:
            pass
    return search(BoxGraph(g, tm, z, rbox, reverse=True))


def limit_solution(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                   datum: InitialDatum, h, t: float) -> float:
    """Hopf-Lax value inf_h0 [g(h0) + t beta((h - h0)/t)] by Hopf's formula,
    the least over the datum's convex pieces (see the module docstring)."""
    return datum.hopf_lax(MatherSolver(g, tm, profiles), h, t)


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
    with the limit at eps round(h / eps) for every sample (h, t) and eps."""
    report = ExperimentReport()
    x0, solver = g.vertices[0], MatherSolver(g, tm, profiles)  # one set of Hopf tables
    for eps in grid.eps_list:
        sup_err = 0.0
        for (h, t) in grid.samples:
            h_z = tuple(int(k) for k in np.round(np.asarray(h, dtype=float) / eps))
            u = datum.hopf_lax(solver, eps * np.array(h_z, dtype=float), t)
            u_eps = epsilon_solution(g, tm, profiles, datum, CrystalVertex(x0, h_z),
                                     t, eps)
            err = abs(u_eps - u)
            sup_err = max(sup_err, err)
            report.rows.append({"eps": eps, "h": h, "t": t, "u_eps": u_eps,
                                "u_limit": u, "abs_error": err})
        report.sup_error_per_eps[eps] = sup_err
    return report
