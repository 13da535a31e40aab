"""The maximal topological crystal V0 x Z^b and its one shortest-path engine.

The crystal is never materialized as a whole: vertices are pairs (base
vertex, h) with h in Z^b, and edges are lifted base edges (e, h).  Moving
along e updates h by theta(e); reversal of the lifted edge (e, h) is
(-e, h + theta(e)).

Every crystal search runs on a ``BoxGraph``: the finite box
V0 x {h : |h - h_s|_inf <= r} around a source (x_s, h_s), turned once into
CSR arrays whose arcs remember their base edge.  A search gathers one
weight per base edge onto the arcs and runs ``scipy.sparse.csgraph.dijkstra``
from the source.  Base-edge weights may be negative (sigma(e, a) is, under a
drift); they are reweighted by a Johnson potential Phi(x, h) = d(x) + <p, h>
(Johnson 1977) taken from a feasible solution of the base-graph cell
problem, which leaves every arc weight nonnegative and shifts every path
weight by Phi(end) - Phi(start) only.  Unweighted searches give graph
distances; a box of radius r certifies a distance d <= r, because each
theta(e) is zero or a signed unit vector, so a walk of d edges never leaves
the box.

A weighted search is hop-bounded when its caller reads only nodes at most k
arcs from the source: reduced weights are nonnegative, so such a node lies
within reduced distance k max_e w_red(e) along a shortest-hop walk, and the
search stops there (``dijkstra(limit=)``, the hop-count case of the
consistent-heuristic pruning of Hart, Nilsson and Raphael 1968).  Every
node within k arcs keeps its distance bit for bit; nodes farther out may
read inf.  ``BoxGraph.levels`` yields one level at a time, so a caller can
reduce over levels without stacking them; ``BoxGraph.distances`` reads one
node of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .base_graph import BaseGraph, ThetaMap
from .errors import (BudgetExceeded, ConvergenceFailure, NegativeReducedWeight,
                     integral)

DEFAULT_NODE_CAP = 10**6


def _t(arr) -> tuple[int, ...]:
    return tuple(int(x) for x in arr)


@dataclass(frozen=True)
class CrystalVertex:
    base: str
    h: tuple[int, ...]


@dataclass(frozen=True)
class CrystalEdge:
    base_edge: str
    h: tuple[int, ...]


class Crystal:
    """Implicit view of the maximal crystal over (graph, theta map)."""

    def __init__(self, g: BaseGraph, tm: ThetaMap):
        self.g = g
        self.tm = tm
        self.b = tm.betti

    def origin(self, ce: CrystalEdge) -> CrystalVertex:
        return CrystalVertex(self.g.origin(ce.base_edge), ce.h)

    def terminus(self, ce: CrystalEdge) -> CrystalVertex:
        h = _t(np.asarray(ce.h) + self.tm.theta[ce.base_edge])
        return CrystalVertex(self.g.terminus(ce.base_edge), h)

    def reversed(self, ce: CrystalEdge) -> CrystalEdge:
        h = _t(np.asarray(ce.h) + self.tm.theta[ce.base_edge])
        return CrystalEdge(self.g.reversed(ce.base_edge), h)

    def graph_distance(self, a: CrystalVertex, b: CrystalVertex) -> int:
        """Minimal number of crystal edges linking a to b.

        Searched in the box of radius |b.h - a.h|_inf + 2 around a; a distance
        d above the radius is searched once more in the box of radius d,
        which certifies it.  A box of more than ``DEFAULT_NODE_CAP`` vertices
        raises BudgetExceeded.
        """
        if a == b:
            return 0
        radius = int(np.max(np.abs(np.subtract(b.h, a.h)), initial=0)) + 2
        for _ in range(2):
            n_nodes = len(self.g.vertices) * (2 * radius + 1) ** self.b
            if n_nodes > DEFAULT_NODE_CAP:
                raise BudgetExceeded(
                    f"crystal box of {n_nodes} vertices around {a} exceeds the "
                    f"node cap {DEFAULT_NODE_CAP} before reaching {b}")
            box = BoxGraph(self.g, self.tm, a, radius)
            d = box.hops()[box.index(b.base, b.h)]
            if d <= radius:
                return int(d)
            radius = int(d)
        raise BudgetExceeded(f"{b} unreachable from {a}")  # cannot happen: connected


def _shift_slices(offset, n):
    """Source/destination slice pairs moving an array by an integer vector."""
    src, dst = [], []
    for t in offset:
        t = int(t)
        if t >= 0:
            src.append(slice(0, n - t))
            dst.append(slice(t, n))
        else:
            src.append(slice(-t, n))
            dst.append(slice(0, n + t))
    return tuple(src), tuple(dst)


@dataclass(frozen=True)
class Potential:
    """Johnson potential Phi(x, h) = d[x] + <p, h> on the crystal.

    ``d`` follows the order of ``g.vertices``.
    """

    d: np.ndarray
    p: np.ndarray

    def edge_shift(self, g: BaseGraph, tm: ThetaMap) -> np.ndarray:
        """Phi(tail) - Phi(head) of the lifts of each base edge, in edge_order."""
        return self.d[g.origin_index] - self.d[g.terminus_index] - tm.matrix @ self.p


def johnson_potential(g: BaseGraph, tm: ThetaMap, w0) -> Potential:
    """Potential that makes every lifted arc weight nonnegative.

    ``w0`` holds one weight per edge of ``g.edge_order``.  The potential
    is zero when w0 >= 0 already; otherwise it solves the HiGHS LP

        max t  s.t.  w0[e] + d[origin e] - d[terminus e] - <p, theta(e)> >= t

    over (d, p, t) with d[first vertex] = 0.  A (d, p) with t >= 0 is a
    subsolution of the p-twisted cell problem at the level of w0, which
    exists exactly when that level is at least min_p H_eff(p) = a0.
    """
    w0 = np.asarray(w0, dtype=float)
    n_v, b = len(g.vertices), tm.betti
    if w0.min(initial=0.0) >= 0.0:
        return Potential(np.zeros(n_v), np.zeros(b))
    A = np.zeros((w0.size, n_v + b + 1))
    rows = np.arange(w0.size)
    A[rows, g.origin_index] -= 1.0
    A[rows, g.terminus_index] += 1.0  # a loop's row stays 0 there
    A[:, n_v:n_v + b] = tm.matrix
    A[:, -1] = 1.0
    cost = np.zeros(n_v + b + 1)
    cost[-1] = -1.0
    bounds = [(0.0, 0.0)] + [(None, None)] * (n_v + b)
    res = linprog(cost, A_ub=A, b_ub=w0, bounds=bounds, method="highs")
    if res.status != 0:
        raise ConvergenceFailure(f"Johnson potential LP failed: {res.message}")
    return Potential(res.x[:n_v], res.x[n_v:n_v + b])


def reduced_weights(w, shift) -> np.ndarray:
    """w + shift, with entries in [-tol, 0) clamped to 0.

    tol = 1e-9 (1 + max|w|); an entry below -tol means the potential does not
    fit w and raises NegativeReducedWeight.
    """
    w = np.asarray(w, dtype=float)
    out = w + shift
    tol = 1e-9 * (1.0 + np.abs(w).max(initial=0.0))
    if out.min(initial=0.0) < -tol:
        raise NegativeReducedWeight(
            f"reduced crystal weight {out.min():.3g} below -{tol:.3g}")
    return np.maximum(out, 0.0)


class BoxGraph:
    """The crystal box V0 x {h : |h - h_s|_inf <= r} around a source, as CSR arcs.

    Vertex (x, h) is the node ``ravel(index(x, h))`` of an array of shape
    ``shape = (|V0|, 2r+1, ..., 2r+1)``.  Each arc records the position of
    its base edge in ``edges``, so a search gathers per-edge weights and no
    (levels x arcs) weight array is ever stored.  With ``reverse=True`` every
    arc points backwards and searches give walk weights INTO the source.
    ``hops`` gives graph distances, ``levels`` streams weighted searches over
    the box and ``distances`` reads one node of each.
    """

    def __init__(self, g: BaseGraph, tm: ThetaMap, source: CrystalVertex,
                 radius: int, reverse: bool = False):
        if radius < 0:
            raise ValueError(f"crystal box radius {radius} is negative")
        self.g = g
        self.tm = tm
        self.source = source
        self.radius = int(radius)
        self.reverse = reverse
        self.edges = g.edge_order
        n = 2 * self.radius + 1
        cells = np.arange(n ** tm.betti).reshape((n,) * tm.betti)
        self.shape = (len(g.vertices),) + cells.shape
        tails, heads, ids = [], [], []
        for k, e in enumerate(self.edges):
            src_sl, dst_sl = _shift_slices(tm.matrix[k], n)
            tail = np.ravel(cells[src_sl]) + g.origin_index[k] * cells.size
            head = np.ravel(cells[dst_sl]) + g.terminus_index[k] * cells.size
            if reverse:
                tail, head = head, tail
            tails.append(tail)
            heads.append(head)
            ids.append(np.full(tail.size, k))
        tails = np.concatenate(tails)
        order = np.argsort(tails, kind="stable")
        n_nodes = len(g.vertices) * cells.size
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n_nodes), out=indptr[1:])
        self._arc_edge = np.concatenate(ids)[order]
        self._graph = csr_matrix(
            (np.ones(order.size), np.concatenate(heads)[order], indptr),
            shape=(n_nodes, n_nodes))
        self._source = int(np.ravel_multi_index(self.index(source.base, source.h),
                                                self.shape))
        self._hops = None

    def index(self, vertex: str, h) -> tuple[int, ...]:
        """Array index of crystal vertex (vertex, h); ValueError outside the box."""
        if vertex not in self.g.vertices:
            raise ValueError(f"unknown base vertex {vertex!r}")
        offset = np.asarray(h, dtype=int) - np.asarray(self.source.h, dtype=int)
        idx = offset + self.radius
        if np.any(idx < 0) or np.any(idx > 2 * self.radius):
            raise ValueError(f"h = {tuple(h)} lies outside the crystal box")
        return (self.g.vertices.index(vertex),) + tuple(int(i) for i in idx)

    def hops(self) -> np.ndarray:
        """Number of arcs on the shortest walks from the source, inf if none.

        Searched once per box; the array is read-only.
        """
        if self._hops is None:
            self._hops = dijkstra(self._graph, indices=self._source,
                                  unweighted=True).reshape(self.shape)
            self._hops.flags.writeable = False
        return self._hops

    def levels(self, weights, potential: Potential, max_hops=np.inf):
        """Least walk weights from the source over the box, one level at a time.

        ``weights`` has shape (levels, len(edges)), and ``potential`` must
        make every row nonnegative (``reduced_weights``).  Yields one array
        of ``shape`` per row.  Nodes at most ``max_hops`` arcs from the
        source read their exact distance; nodes farther out may read inf.
        """
        shift = potential.edge_shift(self.g, self.tm)
        unshift = None
        if potential.d.any() or potential.p.any():
            unshift = self._unshift(potential)
        for w in np.atleast_2d(np.asarray(weights, dtype=float)):
            w_red = reduced_weights(w, shift)
            np.take(w_red, self._arc_edge, out=self._graph.data)
            # the k arcs of a shortest-hop walk weigh at most k max(w_red);
            # their float sum can exceed that by about k ulps, which the
            # relative slack covers for any box that fits in memory
            limit = np.inf
            if np.isfinite(max_hops):
                limit = max_hops * w_red.max(initial=0.0) * (1.0 + 1e-9)
            d = dijkstra(self._graph, indices=self._source,
                         limit=limit).reshape(self.shape)
            if unshift is not None:
                d += unshift
            yield d

    def distances(self, weights, potential: Potential, at) -> np.ndarray:
        """Least walk weights from the source to the single node ``at`` (an
        ``index`` of this box), shape (levels,): one search per row of
        ``weights``, each stopping at the hop bound ``hops()[at]``."""
        return np.array([d[at] for d in
                         self.levels(weights, potential, self.hops()[at])])

    def _unshift(self, potential: Potential) -> np.ndarray:
        """Phi(x, h) - Phi(source) per box node, signed by the search direction.

        A reduced walk weight from u to v is the true one plus Phi(u) - Phi(v).
        """
        b = self.tm.betti
        d = potential.d - potential.d[self.g.vertices.index(self.source.base)]
        phi = d.reshape((-1,) + (1,) * b)
        steps = np.arange(-self.radius, self.radius + 1, dtype=float)
        for k in range(b):
            phi = phi + (potential.p[k] * steps).reshape(
                (1,) * (k + 1) + (-1,) + (1,) * (b - k - 1))
        return -phi if self.reverse else phi


@dataclass
class StableNormEstimate:
    """Rescaled-distance estimate of the stable norm along a lattice direction.

    ``upper_sequence`` is the subadditive sequence d(0, 2^k h)/2^k, which
    decreases toward the norm; ``euclidean_lower`` is the a-priori lower
    bound |h|.  No extrapolation is attempted.
    """

    h: tuple[int, ...]
    n_max: int
    estimate: float
    upper_sequence: list[float]
    euclidean_lower: float


def stable_norm_estimate(g: BaseGraph, tm: ThetaMap, h,
                         n_max: int) -> StableNormEstimate:
    """Estimate lim_n d(0, n h)/n from below-n_max rescaled distances, over
    the first base vertex."""
    n_max = int(integral("n_max", n_max))
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    h = integral("h", h)
    x0 = g.vertices[0]
    c = Crystal(g, tm)
    zero = CrystalVertex(x0, _t(np.zeros(tm.betti, dtype=int)))
    if not h.any():
        return StableNormEstimate(_t(h), n_max, 0.0, [0.0], 0.0)

    def rescaled(n):
        return c.graph_distance(zero, CrystalVertex(x0, _t(n * h))) / n

    seq = []
    k = 0
    while 2**k <= n_max:
        seq.append(rescaled(2**k))
        k += 1
    return StableNormEstimate(_t(h), n_max, rescaled(n_max), seq,
                              float(np.linalg.norm(h)))
