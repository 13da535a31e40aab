"""Stationary cell problems on the base graph and the effective Hamiltonian.

For a cohomology vector p and a level a >= a0, every directed edge carries
the weight  w(e) = sigma(e, a) - <p, theta(e)>.  The cell problem at level a
is solvable exactly when every cycle has nonnegative weight and some cycle
weight vanishes; since each edge weight is strictly increasing in a, the
critical level

    effective_hamiltonian(p) = max(a0, inf{a >= a0 : all cycle weights >= 0})

is the root of the minimum cycle mean, found by the root search that the
discrete Hamiltonian shares (``edge_calculus._increasing_root``).  The
minimum cycle mean (Karp) is a finite stand-in for the infimum of cycle
weights: both have the same sign, and they agree on single-edge circuits.

The weights of all edges come from one ``EdgeProfiles.sigma_all`` call and
the stacked theta matrix.  Karp's table D[k, v], the least weight of a k-edge
walk from the first vertex to v, is filled one k at a time with a single
``np.minimum.at`` over the edge index arrays of the graph; the final
min over v of max over k of (D[n, v] - D[k, v]) / (n - k) is one array
expression (Dasdan, ACM TODAES 9(4), 2004, surveys Karp's algorithm and its
variants).
"""

from __future__ import annotations

import numpy as np

from .base_graph import BaseGraph, Path, ThetaMap
from .edge_calculus import EdgeProfiles, _increasing_root
from .errors import BudgetExceeded, vector

DEFAULT_BISECTION_TOL = 1e-8
_CIRCUIT_BUDGET = 200_000  # enumerate_circuits raises beyond this many


def _edge_weights(tm: ThetaMap, profiles: EdgeProfiles, p: np.ndarray,
                  a: float) -> np.ndarray:
    """sigma(e, a) - <p, theta(e)> in the graph's edge_order."""
    return profiles.sigma_all(a) - tm.matrix @ p


def min_cycle_weight(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                     p, a: float) -> float:
    """Minimum cycle mean of the weights sigma(e,a) - <p, theta(e)>.

    Negative iff some cycle has negative total weight, zero iff the minimum
    cycle weight is exactly zero; this sign is the solvability certificate
    for the cell problem at level a.
    """
    w = _edge_weights(tm, profiles, vector("p", p, tm.betti), a)
    n = len(g.vertices)
    # Karp: D[k, v] = min weight of a k-edge walk from the source to v
    D = np.full((n + 1, n), np.inf)
    D[0, 0] = 0.0
    for k in range(1, n + 1):
        np.minimum.at(D[k], g.terminus_index, D[k - 1, g.origin_index] + w)
    # D[n, v] finite implies D[k, v] finite for some k < n; the infinite
    # D[k, v] give -inf means and inf - inf rows are dropped with their v
    with np.errstate(invalid="ignore"):
        means = ((D[n] - D[:n]) / (n - np.arange(n))[:, None]).max(axis=0)
    return float(means[np.isfinite(D[n])].min(initial=np.inf))


def effective_hamiltonian(g: BaseGraph, tm: ThetaMap, profiles: EdgeProfiles,
                          p) -> float:
    """Critical level of the p-twisted cell problem (Mather's alpha at p)."""
    p = vector("p", p, tm.betti)
    return _increasing_root(lambda a: min_cycle_weight(g, tm, profiles, p, a),
                            profiles.a0, DEFAULT_BISECTION_TOL)


def enumerate_circuits(g: BaseGraph) -> list[Path]:
    """All directed simple circuits, one representative per cyclic class.

    A circuit repeats no vertex except its endpoints.  The representative
    starts at the smallest vertex it visits, so rotations are deduplicated
    while the two directions of a circuit remain distinct.
    """
    out: list[Path] = []
    for v0 in g.vertices:
        stack: list[tuple[str, tuple[str, ...], frozenset[str]]] = [
            (v0, (), frozenset([v0]))]
        while stack:
            v, path_edges, visited = stack.pop()
            for e in g.star(v):
                w = g.terminus(e)
                if w == v0:
                    out.append(Path(path_edges + (e,)))
                    if len(out) > _CIRCUIT_BUDGET:
                        raise BudgetExceeded("too many circuits to enumerate")
                elif w not in visited and w > v0:
                    stack.append((w, path_edges + (e,), visited | {w}))
    return out
