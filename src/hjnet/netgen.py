"""Explicit periodic-network embeddings built from a base-graph embedding.

Given an embedding of the base graph in R^K (vertex coordinates plus one
sampled simple arc per positive edge), the crystal window of radius W embeds
in R^(K+b): the copy of vertex x indexed by h sits at (I(x), h), and the arc
of (e, h) is s -> (I(e)(s), h + s theta(e)).  All arcs in the same lattice
orbit are translates of each other, so their Euclidean lengths agree; the
window export records this together with the arc-length bounds.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .base_graph import BaseGraph, ThetaMap

DEFAULT_ARC_SAMPLES = 33
_LOOP_BULGE = 0.25  # offset magnitude of a self-loop's arc in straight()


@dataclass
class BaseEmbedding:
    """Vertex coordinates in R^K and a sampled arc per positive edge."""

    vertex_coords: dict[str, np.ndarray]
    arcs: dict[str, np.ndarray]  # positive edge id -> (n_samples, K)

    @property
    def dimension(self) -> int:
        return next(iter(self.vertex_coords.values())).size

    @classmethod
    def from_json(cls, obj, g: BaseGraph) -> "BaseEmbedding":
        coords = {v: np.asarray(c, dtype=float) for v, c in obj["vertices"].items()}
        arcs = {e: np.asarray(a, dtype=float) for e, a in obj["arcs"].items()}
        emb = cls(coords, arcs)
        emb.validate(g)
        return emb

    @classmethod
    def straight(cls, g: BaseGraph, vertex_coords: dict,
                 n_samples: int = DEFAULT_ARC_SAMPLES) -> "BaseEmbedding":
        """Straight segments between vertex images; self-loops get a bump.

        A self-loop cannot be a straight segment, so it is drawn as a small
        planar loop orthogonal offsets of magnitude _LOOP_BULGE, distinguished
        per edge to keep arcs disjoint.
        """
        coords = {v: np.asarray(c, dtype=float) for v, c in vertex_coords.items()}
        k = next(iter(coords.values())).size
        s = np.linspace(0.0, 1.0, n_samples)
        arcs = {}
        for j, e in enumerate(g.orientation):
            a = coords[g.origin(e)]
            b = coords[g.terminus(e)]
            pts = (1 - s)[:, None] * a + s[:, None] * b
            if g.origin(e) == g.terminus(e):
                bump = np.zeros((n_samples, k))
                bump[:, j % k] = _LOOP_BULGE * np.sin(np.pi * s)
                bump[:, (j + 1) % k] += _LOOP_BULGE * np.sin(2 * np.pi * s)
                pts = pts + bump
            arcs[e] = pts
        emb = cls(coords, arcs)
        emb.validate(g)
        return emb

    def validate(self, g: BaseGraph):
        for e in g.orientation:
            if e not in self.arcs:
                raise ValueError(f"no arc sampled for positive edge {e!r}")
            pts = self.arcs[e]
            if pts.ndim != 2 or pts.shape[0] < 2:
                raise ValueError(f"arc {e!r} must have at least two samples")
            if not np.allclose(pts[0], self.vertex_coords[g.origin(e)]):
                raise ValueError(f"arc {e!r} does not start at its origin image")
            if not np.allclose(pts[-1], self.vertex_coords[g.terminus(e)]):
                raise ValueError(f"arc {e!r} does not end at its terminus image")


@dataclass
class NetworkWindow:
    """A finite window |h|_inf <= W of the embedded periodic network."""

    dimension: int
    window: int
    vertices: list[dict]
    arcs: list[dict]

    def arc_lengths(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for arc in self.arcs:
            pts = np.asarray(arc["samples"])
            out.setdefault(arc["edge"], []).append(
                float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()))
        return out

    def to_json(self) -> dict:
        lengths = [l for ls in self.arc_lengths().values() for l in ls]
        return {
            "dimension": self.dimension,
            "window": self.window,
            "arc_length_bounds": [min(lengths), max(lengths)] if lengths else None,
            "vertices": self.vertices,
            "arcs": self.arcs,
        }


def embed_crystal(be: BaseEmbedding, g: BaseGraph, tm: ThetaMap,
                  W: int, n_samples: int | None = None) -> NetworkWindow:
    """Vertex images and sampled arcs for all lattice indices |h|_inf <= W."""
    if W < 0:
        raise ValueError(f"window W = {W} must be >= 0")
    if n_samples is not None and n_samples < 2:
        raise ValueError(f"an arc needs at least two samples, not {n_samples}")
    b = tm.betti
    k = be.dimension
    offsets = list(itertools.product(range(-W, W + 1), repeat=b))
    vertices = []
    for h in offsets:
        for v in g.vertices:
            vertices.append({"base": v, "h": list(h),
                             "coords": [*map(float, be.vertex_coords[v]), *h]})
    arcs = []
    for e in g.orientation:
        pts = be.arcs[e]
        if n_samples is not None and n_samples != pts.shape[0]:
            s_old = np.linspace(0, 1, pts.shape[0])
            s_new = np.linspace(0, 1, n_samples)
            pts = np.stack([np.interp(s_new, s_old, pts[:, i])
                            for i in range(k)], axis=1)
        s = np.linspace(0.0, 1.0, pts.shape[0])
        theta = tm.theta[e].astype(float)
        for h in offsets:
            fiber = np.asarray(h, dtype=float)[None, :] + s[:, None] * theta[None, :]
            samples = np.concatenate([pts, fiber.reshape(pts.shape[0], b)], axis=1)
            arcs.append({"edge": e, "h": list(h),
                         "samples": samples.tolist()})
    return NetworkWindow(k + b, W, vertices, arcs)


def orbit_length_check(nw: NetworkWindow, tol: float = 1e-9) -> bool:
    """All arcs over the same base edge must have equal Euclidean length."""
    for lengths in nw.arc_lengths().values():
        if max(lengths) - min(lengths) > tol:
            return False
    return True


def export_window(nw: NetworkWindow, path: str):
    with open(path, "w") as fh:
        json.dump(nw.to_json(), fh, indent=1)
