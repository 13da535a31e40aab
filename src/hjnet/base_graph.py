"""Finite base graphs with edge involution, spanning trees and homology data.

A base graph is a finite connected multigraph where every edge comes in an
oriented pair (e, -e).  Only the positive half of each pair is declared; the
reversed edges are synthesized with the ``~`` suffix convention (edge ``e1``
has reverse ``e1~``).  A fixed spanning tree turns the cycle space into
integer coordinates: every positive non-tree edge closes one fundamental
circuit, and expressing incidence vectors in the basis of those circuits
yields the map ``theta`` used everywhere downstream (crystal construction,
cycle weights, rotation vectors).  One BFS builds the tree; the vertices it
misses reject a disconnected graph, and its parent edges close the circuits.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DanglingEndpoint, DisconnectedGraph, DuplicateEdgeId

REVERSED_SUFFIX = "~"


def reversed_id(edge_id: str) -> str:
    """Identifier of the reversed edge (involution on id strings)."""
    if edge_id.endswith(REVERSED_SUFFIX):
        return edge_id[: -len(REVERSED_SUFFIX)]
    return edge_id + REVERSED_SUFFIX


@dataclass(frozen=True)
class OrientedEdge:
    id: str
    origin: str
    terminus: str
    reversed: str
    is_positive: bool


@dataclass(frozen=True)
class Path:
    """A finite sequence of concatenated directed edge ids."""

    edges: tuple[str, ...]

    def __len__(self):
        return len(self.edges)


class BaseGraph:
    """Finite connected graph with fixed-point-free edge involution."""

    def __init__(self, vertices, edges, orientation):
        self.vertices: tuple[str, ...] = tuple(sorted(vertices))
        self.edges: dict[str, OrientedEdge] = dict(edges)
        self.orientation: tuple[str, ...] = tuple(sorted(orientation))
        # the order of every per-edge array downstream (weights, theta rows,
        # sigma rows, box arcs)
        self.edge_order: tuple[str, ...] = tuple(sorted(self.edges))
        star: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edge_order:
            star[self.edges[e].origin].append(e)
        self._star = {v: tuple(es) for v, es in star.items()}
        # positions in self.vertices of each edge's endpoints, in edge_order
        vindex = {v: i for i, v in enumerate(self.vertices)}
        self.origin_index = np.array([vindex[self.edges[e].origin]
                                      for e in self.edge_order], dtype=np.intp)
        self.terminus_index = np.array([vindex[self.edges[e].terminus]
                                        for e in self.edge_order], dtype=np.intp)

    def origin(self, edge_id: str) -> str:
        return self.edges[edge_id].origin

    def terminus(self, edge_id: str) -> str:
        return self.edges[edge_id].terminus

    def reversed(self, edge_id: str) -> str:
        return self.edges[edge_id].reversed

    def star(self, vertex: str) -> tuple[str, ...]:
        """Directed edges with the given origin, in id order."""
        return self._star[vertex]


def build_graph(spec: dict) -> BaseGraph:
    """Build a BaseGraph from ``{"vertices": [...], "edges": [{"id","from","to"}]}``.

    Reversed edges are implicit; connectivity is verified by ``spanning_tree``.
    """
    vertices = list(spec["vertices"])
    if len(set(vertices)) != len(vertices):
        raise DuplicateEdgeId("duplicate vertex id in spec")
    vset = set(vertices)
    edges: dict[str, OrientedEdge] = {}
    for item in spec.get("edges", []):
        eid, u, v = item["id"], item["from"], item["to"]
        rid = reversed_id(eid)
        if eid in edges or rid in edges or eid == rid:
            raise DuplicateEdgeId(f"edge id {eid!r} (or its reverse) already declared")
        if u not in vset or v not in vset:
            raise DanglingEndpoint(f"edge {eid!r} endpoint not in vertex list")
        edges[eid] = OrientedEdge(eid, u, v, rid, True)
        edges[rid] = OrientedEdge(rid, v, u, eid, False)
    if not vertices:
        raise DisconnectedGraph("graph has no vertices")
    g = BaseGraph(vertices, edges, [e for e, oe in edges.items() if oe.is_positive])
    spanning_tree(g)
    return g


def load_graph(path: str) -> BaseGraph:
    with open(path) as fh:
        return build_graph(json.load(fh))


def betti(g: BaseGraph) -> int:
    """Rank of the cycle space: |E0|/2 - |V0| + 1."""
    return len(g.orientation) - len(g.vertices) + 1


@dataclass(frozen=True)
class SpanningTree:
    root: str
    tree_edges: frozenset[str]  # closed under involution
    # vertex -> tree edge into it from its parent; set by root and tree_edges
    parent: dict[str, str] = field(compare=False)

    def contains(self, edge_id: str) -> bool:
        return edge_id in self.tree_edges


def spanning_tree(g: BaseGraph) -> SpanningTree:
    """Deterministic BFS tree from the smallest vertex id, edges tie-broken by
    id; DisconnectedGraph names the vertices it does not reach."""
    root = g.vertices[0]
    parent: dict[str, str] = {}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e in g.star(v):
            w = g.terminus(e)
            if w != root and w not in parent:
                parent[w] = e
                queue.append(w)
    if missing := sorted(set(g.vertices) - set(parent) - {root}):
        raise DisconnectedGraph(f"vertices unreachable from {root!r}: {missing}")
    tree = frozenset(parent.values()) | {g.reversed(e) for e in parent.values()}
    return SpanningTree(root, tree, parent)


@dataclass
class ThetaMap:
    """Integer cycle-space coordinates attached to every directed edge.

    ``theta[e]`` is a vector in Z^b: zero on tree edges, the j-th standard
    basis vector on the j-th positive non-tree edge, and odd under reversal.
    ``circuits[e]`` stores, for each basis edge, the fundamental circuit it
    closes through the tree (as a Path); its incidence vector is the basis
    element in the full edge-space coordinates.  ``matrix`` stacks the theta
    vectors in the graph's ``edge_order``, shape (|E|, b).
    """

    tree: SpanningTree
    betti: int
    basis_edges: tuple[str, ...]
    theta: dict[str, np.ndarray]
    matrix: np.ndarray
    circuits: dict[str, Path] = field(default_factory=dict)


def _tree_path(g: BaseGraph, t: SpanningTree, start: str, goal: str) -> Path:
    """Unique simple path inside the tree from start to goal, by parent edges."""
    def up(v):  # the edges from v to the root
        while v != t.root:
            yield g.reversed(t.parent[v])
            v = g.origin(t.parent[v])

    rise, fall = list(up(start)), list(up(goal))
    while rise and fall and rise[-1] == fall[-1]:
        rise.pop()
        fall.pop()
    return Path(tuple(rise) + tuple(g.reversed(e) for e in reversed(fall)))


def theta_map(g: BaseGraph, t: SpanningTree) -> ThetaMap:
    basis = tuple(e for e in g.orientation if not t.contains(e))
    unit = np.eye(len(basis), dtype=int)
    theta = {e: np.zeros(len(basis), dtype=int) for e in g.edges}
    for j, e in enumerate(basis):
        theta[e], theta[g.reversed(e)] = unit[j].copy(), -unit[j]
    circuits = {e: Path((e,) + _tree_path(g, t, g.terminus(e), g.origin(e)).edges)
                for e in basis}
    matrix = np.array([theta[e] for e in g.edge_order], dtype=int).reshape(len(theta), len(basis))
    return ThetaMap(t, len(basis), basis, theta, matrix, circuits)


def incidence_vector(p: Path, g: BaseGraph) -> np.ndarray:
    """Signed pass counts over the orientation: (#e passes) - (#(-e) passes)."""
    index = {e: i for i, e in enumerate(g.orientation)}
    out = np.zeros(len(g.orientation), dtype=int)
    for e in p.edges:
        oe = g.edges[e]
        if oe.is_positive:
            out[index[e]] += 1
        else:
            out[index[oe.reversed]] -= 1
    return out


def rotation_vector(p: Path, tm: ThetaMap) -> np.ndarray:
    """theta applied to the path's chain, in the fundamental-circuit basis."""
    out = np.zeros(tm.betti, dtype=int)
    for e in p.edges:
        out += tm.theta[e]
    return out
