"""The maximal topological crystal V0 x Z^b and its one shortest-path engine.

The crystal is never materialized as a whole: vertices are pairs (base
vertex, h) with h in Z^b, and the neighborhood of a vertex is produced from
the base graph and the theta map.  Moving along edge e updates h by
theta(e); reversal of the lifted edge (e, h) is (-e, h + theta(e)).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .base_graph import BaseGraph, Path, ThetaMap
from .errors import BudgetExceeded, ConvergenceFailure, NegativeReducedWeight

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


@dataclass(frozen=True)
class LiftedPath:
    start: CrystalVertex
    edges: tuple[CrystalEdge, ...]


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

    def neighbors(self, cv: CrystalVertex):
        h = np.asarray(cv.h)
        for e in self.g.star(cv.base):
            yield CrystalVertex(self.g.terminus(e), _t(h + self.tm.theta[e]))

    def lift_path(self, p0: Path, h, origin: str | None = None) -> LiftedPath:
        """The unique lift of p0 starting at (origin(p0), h).

        An empty path needs an explicit anchor vertex.
        """
        h = np.asarray(h, dtype=int)
        if not p0.edges:
            if origin is None:
                raise ValueError("cannot lift an empty path without an anchor vertex")
            return LiftedPath(CrystalVertex(origin, _t(h)), ())
        start = CrystalVertex(self.g.origin(p0.edges[0]), _t(h))
        edges = []
        cur = h.copy()
        for e in p0.edges:
            edges.append(CrystalEdge(e, _t(cur)))
            cur = cur + self.tm.theta[e]
        return LiftedPath(start, tuple(edges))

    def lift_terminus(self, p0: Path, h) -> CrystalVertex:
        """Terminus of the lift: (terminus(p0), h + theta([p0]))."""
        h = np.asarray(h, dtype=int)
        if not p0.edges:
            raise ValueError("empty path has no terminus without an anchor vertex")
        total = h + sum(self.tm.theta[e] for e in p0.edges)
        return CrystalVertex(self.g.terminus(p0.edges[-1]), _t(total))

    def graph_distance(self, a: CrystalVertex, b: CrystalVertex,
                       node_cap: int = DEFAULT_NODE_CAP) -> int:
        """Minimal number of crystal edges linking a to b.

        Searched in the box of radius |b.h - a.h|_inf + 2 around a; a distance
        d above the radius is searched once more in the box of radius d,
        which certifies it.
        """
        if a == b:
            return 0
        radius = int(np.max(np.abs(np.subtract(b.h, a.h)), initial=0)) + 2
        for _ in range(2):
            n_nodes = len(self.g.vertices) * (2 * radius + 1) ** self.b
            if n_nodes > node_cap:
                raise BudgetExceeded(
                    f"crystal box of {n_nodes} vertices around {a} exceeds the "
                    f"node cap {node_cap} before reaching {b}")
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

    def edge_shift(self, g: BaseGraph, tm: ThetaMap, edges) -> np.ndarray:
        """Phi(tail) - Phi(head) of the lifts of each base edge."""
        vindex = {v: i for i, v in enumerate(g.vertices)}
        return np.array([self.d[vindex[g.origin(e)]] - self.d[vindex[g.terminus(e)]]
                         - float(self.p @ tm.theta[e]) for e in edges])


def johnson_potential(g: BaseGraph, tm: ThetaMap, w0) -> Potential:
    """Potential that makes every lifted arc weight nonnegative.

    ``w0`` holds one weight per edge of ``sorted(g.edges)``.  The potential
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
    vindex = {v: i for i, v in enumerate(g.vertices)}
    A = np.zeros((w0.size, n_v + b + 1))
    for row, e in zip(A, sorted(g.edges)):
        row[vindex[g.origin(e)]] -= 1.0
        row[vindex[g.terminus(e)]] += 1.0
        row[n_v:n_v + b] = tm.theta[e]
        row[-1] = 1.0
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
    """

    def __init__(self, g: BaseGraph, tm: ThetaMap, source: CrystalVertex,
                 radius: int, reverse: bool = False):
        self.g = g
        self.tm = tm
        self.source = source
        self.radius = int(radius)
        self.reverse = reverse
        self.edges = tuple(sorted(g.edges))
        n = 2 * self.radius + 1
        cells = np.arange(n ** tm.betti).reshape((n,) * tm.betti)
        self.shape = (len(g.vertices),) + cells.shape
        vindex = {v: i for i, v in enumerate(g.vertices)}
        tails, heads, ids = [], [], []
        for k, e in enumerate(self.edges):
            src_sl, dst_sl = _shift_slices(tm.theta[e], n)
            tail = np.ravel(cells[src_sl]) + vindex[g.origin(e)] * cells.size
            head = np.ravel(cells[dst_sl]) + vindex[g.terminus(e)] * cells.size
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

    def index(self, vertex: str, h) -> tuple[int, ...]:
        """Array index of crystal vertex (vertex, h); ValueError outside the box."""
        offset = np.asarray(h, dtype=int) - np.asarray(self.source.h, dtype=int)
        idx = offset + self.radius
        if np.any(idx < 0) or np.any(idx > 2 * self.radius):
            raise ValueError(f"h = {tuple(h)} lies outside the crystal box")
        return (self.g.vertices.index(vertex),) + tuple(int(i) for i in idx)

    def hops(self) -> np.ndarray:
        """Number of arcs on the shortest walks from the source, inf if none."""
        return dijkstra(self._graph, indices=self._source,
                        unweighted=True).reshape(self.shape)

    def distances(self, weights, potential: Potential) -> np.ndarray:
        """Least walk weights from the source, one level per row of ``weights``.

        ``weights`` has shape (levels, len(edges)), and ``potential`` must
        make every row nonnegative (``reduced_weights``).  Returns an array of
        shape (levels,) + shape.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        shift = potential.edge_shift(self.g, self.tm, self.edges)
        out = np.empty((weights.shape[0],) + self.shape)
        for row, w in zip(out, weights):
            np.take(reduced_weights(w, shift), self._arc_edge, out=self._graph.data)
            row.ravel()[:] = dijkstra(self._graph, indices=self._source)
        if potential.d.any() or potential.p.any():
            out += self._unshift(potential)
        return out

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


def lift_path(g: BaseGraph, tm: ThetaMap, p0: Path, h,
              origin: str | None = None) -> LiftedPath:
    return Crystal(g, tm).lift_path(p0, h, origin=origin)


def project(lp: LiftedPath) -> Path:
    """Forget the Z^b components."""
    return Path(tuple(ce.base_edge for ce in lp.edges))


def graph_distance(g: BaseGraph, tm: ThetaMap, a: CrystalVertex, b: CrystalVertex,
                   node_cap: int = DEFAULT_NODE_CAP) -> int:
    return Crystal(g, tm).graph_distance(a, b, node_cap=node_cap)


def metric_invariance_check(g: BaseGraph, tm: ThetaMap, x0: str, h, h_bar,
                            node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Distances between fibers over x0 depend only on the h difference."""
    c = Crystal(g, tm)
    h = np.asarray(h, dtype=int)
    h_bar = np.asarray(h_bar, dtype=int)
    d1 = c.graph_distance(CrystalVertex(x0, _t(h)), CrystalVertex(x0, _t(h_bar)),
                          node_cap=node_cap)
    zero = _t(np.zeros(tm.betti, dtype=int))
    d2 = c.graph_distance(CrystalVertex(x0, zero), CrystalVertex(x0, _t(h_bar - h)),
                          node_cap=node_cap)
    return d1 == d2


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


def stable_norm_estimate(g: BaseGraph, tm: ThetaMap, h, n_max: int,
                         base_vertex: str | None = None,
                         node_cap: int = DEFAULT_NODE_CAP) -> StableNormEstimate:
    """Estimate lim_n d(0, n h)/n from below-n_max rescaled distances."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    h = np.asarray(h, dtype=int)
    x0 = base_vertex if base_vertex is not None else g.vertices[0]
    c = Crystal(g, tm)
    zero = CrystalVertex(x0, _t(np.zeros(tm.betti, dtype=int)))
    if not h.any():
        return StableNormEstimate(_t(h), n_max, 0.0, [0.0], 0.0)

    def rescaled(n):
        return c.graph_distance(zero, CrystalVertex(x0, _t(n * h)), node_cap=node_cap) / n

    seq = []
    k = 0
    while 2**k <= n_max:
        seq.append(rescaled(2**k))
        k += 1
    return StableNormEstimate(_t(h), n_max, rescaled(n_max), seq,
                              float(np.linalg.norm(h)))
