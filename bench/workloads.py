"""The benchmark's workloads: networks, seeded inputs, one query pass, checks.

A workload draws its inputs once from the seed (``draw``), runs a fixed query
set against freshly built networks (``run``, the timed part) and then checks
every answer against an independent reference (``check``, untimed).  The
seed moves only the drawn points; the sizes that set the cost are fixed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from hjnet import (action, base_graph, cell_problem, crystal, edge_calculus,
                   homogenize, mather)

Quad = edge_calculus.QuadraticEdgeModel
Trig = edge_calculus.TrigPoly

HONEYCOMB = {"vertices": ["x1", "x2"],
             "edges": [{"id": f"e{i}", "from": "x1", "to": "x2"} for i in range(3)]}
K4 = {"vertices": ["a", "b", "c", "d"],
      "edges": [{"id": f"k{u}{v}", "from": u, "to": v}
                for u, v in itertools.combinations("abcd", 2)]}

# name -> (graph spec, models on the positive edges)
NETWORKS = {
    # acceptance criterion 7(c): quarter-amplitude cosine potential on e0
    "honeycomb-quarter": (HONEYCOMB, lambda: {
        "e0": Quad(potential=Trig(cos=(-0.25,))), "e1": Quad(), "e2": Quad()}),
    # the tests' honeycomb_cos fixture: unit cosine potential on e0
    "honeycomb-cos": (HONEYCOMB, lambda: {
        "e0": Quad(potential=Trig(cos=(-1.0,))), "e1": Quad(), "e2": Quad()}),
    # Sunada's K4 crystal (b = 3) with drifts and potentials
    "k4-mixed": (K4, lambda: {
        "kab": Quad(drift=Trig(const=0.25)),
        "kac": Quad(potential=Trig(cos=(-0.5,))),
        "kad": Quad(),
        "kbc": Quad(drift=Trig(sin=(0.2,))),
        "kbd": Quad(potential=Trig(cos=(-0.25,))),
        "kcd": Quad(drift=Trig(const=-0.15), potential=Trig(sin=(0.2,)))}),
    # K4 with drift 1 on every edge: sigma(e, a0) = -1, so reach weights go negative
    "k4-drift": (K4, lambda: {e["id"]: Quad(drift=Trig(const=1.0))
                              for e in K4["edges"]}),
}


@dataclass
class Network:
    g: base_graph.BaseGraph
    tm: base_graph.ThetaMap
    profiles: edge_calculus.EdgeProfiles

    @property
    def args(self):
        return self.g, self.tm, self.profiles

    @property
    def solver(self) -> mather.MatherSolver:
        return mather.get_solver(*self.args)


def build_network(name: str) -> Network:
    """Set-up as every CLI invocation pays it: graph, theta, profiles, solver.

    Calls go through the module attributes so that a tracer sees them.
    """
    spec, models = NETWORKS[name]
    g = base_graph.build_graph(spec)
    tm = base_graph.theta_map(g, base_graph.spanning_tree(g))
    net = Network(g, tm, edge_calculus.build_profiles(g, models()))
    net.solver  # noqa: B018 -- builds the MatherSolver
    return net


def forget_solvers():
    """Drop memoized solvers so the next set-up starts cold and old graphs die."""
    memo = getattr(mather, "_solver_memo", None)
    if memo is not None:
        memo.clear()


@dataclass
class Op:
    """One top-level public call of a pass, with its answer or its error."""

    value: object = None
    error: str | None = None
    seconds: float = 0.0


@dataclass
class Pass:
    ops: dict[tuple, Op] = field(default_factory=dict)

    def call(self, key: tuple, fn, *args):
        t0 = time.perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # counted as a failed op, the pass goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.ops[key] = Op(value, error, time.perf_counter() - t0)

    def value(self, key):
        return self.ops[key].value


class Checker:
    """Collects failed op keys with the reason each failed."""

    def __init__(self, p: Pass):
        self.failures: dict[tuple, str] = {
            k: op.error for k, op in p.ops.items() if op.error is not None}

    def ok(self, *keys) -> bool:
        return all(k not in self.failures for k in keys)

    def require(self, cond: bool, key: tuple, reason: str):
        if not cond and key not in self.failures:
            self.failures[key] = reason


def _finite(x) -> bool:
    return x is not None and bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def _box_argmax(f, lo, hi, pts: int = 21, levels: int = 30):
    """Grid-refined maximizer of a concave f over the box [lo, hi]^b."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    center, hw = (lo + hi) / 2, (hi - lo) / 2
    for _ in range(levels):
        axes = [np.linspace(max(c - w, a), min(c + w, b), pts)
                for c, w, a, b in zip(center, hw, lo, hi)]
        P = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
        center = P[int(np.argmax(f(P)))]
        hw = hw / 4
    return center


class EpsLadder:
    """Main-theorem experiment: u_eps -> u along eps = 1/4 ... 1/32."""

    name = "eps-ladder"
    networks = ("honeycomb-quarter",)
    ladder = (0.25, 0.125, 0.0625, 0.03125)
    datum = homogenize.ConeDatum(1.5)

    def draw(self, rng):
        # a point of [0.25, 0.75] x [0, 0.5] on the eps = 1/4 lattice, so every
        # eps of the ladder evaluates u_eps exactly above h (as criterion 7(c))
        h = (float(rng.choice([0.25, 0.5, 0.75])), float(rng.choice([0.0, 0.25, 0.5])))
        # ExperimentGrid rejects a single eps, so the ladder keeps >= 2 entries
        return {"grid": homogenize.ExperimentGrid(((h, 1.0),), self.ladder)}

    def run(self, nets, inputs) -> Pass:
        net = nets["honeycomb-quarter"]
        grid = inputs["grid"]
        x0 = net.g.vertices[0]
        p = Pass()
        for h, t in grid.samples:
            p.call(("limit", h, t), homogenize.limit_solution, *net.args,
                   self.datum, h, t)
        for eps in grid.eps_list:
            for h, t in grid.samples:
                z = crystal.CrystalVertex(
                    x0, tuple(int(k) for k in np.round(np.asarray(h) / eps)))
                p.call(("eps", eps, h, t), homogenize.epsilon_solution, *net.args,
                       self.datum, z, t, eps)
        return p

    def check(self, nets, inputs, p: Pass, chk: Checker) -> dict:
        net = nets["honeycomb-quarter"]
        grid = inputs["grid"]
        finest, coarsest = min(grid.eps_list), max(grid.eps_list)
        sup_err = 0.0
        for key, op in p.ops.items():
            chk.require(_finite(op.value), key, "value is not finite")
        for h, t in grid.samples:
            lim = ("limit", h, t)
            if chk.ok(lim):
                # Hopf's formula for the convex cone datum: u = sup_{|p|<=c} <p,h> - t H_eff(p)
                c = self.datum.c
                p_star = _box_argmax(
                    lambda P: P @ np.asarray(h) - t * net.solver.alpha_batch(P),
                    [-c, -c], [c, c])
                ref = float(p_star @ np.asarray(h)) - t * cell_problem.effective_hamiltonian(
                    *net.args, p_star)
                chk.require(abs(p.value(lim) - ref) <= 1e-3, lim,
                            f"limit {p.value(lim)} vs Hopf formula {ref}")
            fine, coarse = ("eps", finest, h, t), ("eps", coarsest, h, t)
            if chk.ok(lim, fine, coarse):
                err_fine = abs(p.value(fine) - p.value(lim))
                err_coarse = abs(p.value(coarse) - p.value(lim))
                chk.require(err_fine <= err_coarse, fine,
                            f"error {err_fine} at eps={finest} exceeds {err_coarse} "
                            f"at eps={coarsest}")
                sup_err = max(sup_err, err_fine)
        return {"finest_eps_s": sum(op.seconds for k, op in p.ops.items()
                                    if k[0] == "eps" and k[1] == finest),
                "sup_error_finest": sup_err}


class Duality:
    """alpha = H_eff by two routes, beta by conjugation and by the flow LP."""

    name = "duality"
    networks = ("honeycomb-cos", "k4-mixed")
    n_p = {"honeycomb-cos": 441, "k4-mixed": 100}
    n_h = {"honeycomb-cos": 12, "k4-mixed": 8}
    n_flow = {"honeycomb-cos": 2, "k4-mixed": 1}
    # H_eff = a0 on a flat region around 0 (94% of [-2, 2]^2 on the honeycomb);
    # on [-4, 4]^b most p need the root finder
    p_box = 4.0
    # beta vs the flow LP stays within 1e-3 on these boxes (the gap grows with |h|)
    h_box = {"honeycomb-cos": 0.75, "k4-mixed": 0.5}
    limit_net = "honeycomb-cos"  # one b = 3 limit_solution takes over a minute
    limit_p = (0.6, 0.8)

    def draw(self, rng):
        inputs = {}
        for name in self.networks:
            b = base_graph.betti(base_graph.build_graph(NETWORKS[name][0]))
            inputs[name] = {
                "P": rng.uniform(-self.p_box, self.p_box, size=(self.n_p[name], b)),
                "H": rng.uniform(-self.h_box[name], self.h_box[name],
                                 size=(self.n_h[name], b))}
        # for a linear datum the Hopf-Lax search over displacements does not
        # depend on h, so with p fixed the drawn h leaves the cost unchanged
        inputs["limit"] = (self.limit_p,
                           tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=2)), 1.0)
        return inputs

    def beta_points(self, name, H):
        """0, the corners of the h box, then the drawn h.

        The corners need the widest conjugation box of all h in the box, so
        the circuit tables grow to the same size whatever the seed draws.
        """
        b = H.shape[1]
        corners = self.h_box[name] * np.array(list(itertools.product((-1.0, 1.0),
                                                                     repeat=b)))
        return np.concatenate([np.zeros((1, b)), corners, H])

    def run(self, nets, inputs) -> Pass:
        p = Pass()
        for name in self.networks:
            net, P, H = nets[name], inputs[name]["P"], inputs[name]["H"]
            solver = net.solver
            for i, pv in enumerate(P):
                p.call(("heff", name, i), cell_problem.effective_hamiltonian,
                       *net.args, pv)
                p.call(("alpha", name, i), solver.alpha, pv)
            for j, hv in enumerate(self.beta_points(name, H)):
                p.call(("beta", name, j), solver.beta, hv)
            for j in range(self.n_flow[name]):
                p.call(("flow", name, j), lambda hv: solver.flow_oracle(hv)[0],
                       H[-1 - j])
        pv, hv, t = inputs["limit"]
        p.call(("limit",), homogenize.limit_solution, *nets[self.limit_net].args,
               homogenize.LinearDatum(pv), hv, t)
        return p

    def check(self, nets, inputs, p: Pass, chk: Checker) -> dict:
        gap = 0.0
        for key, op in p.ops.items():
            chk.require(_finite(op.value), key, "value is not finite")
        for name in self.networks:
            net, P, H = nets[name], inputs[name]["P"], inputs[name]["H"]
            for i in range(len(P)):
                he, al = ("heff", name, i), ("alpha", name, i)
                if chk.ok(he, al):
                    chk.require(abs(p.value(he) - p.value(al)) <= 1e-6, al,
                                f"alpha {p.value(al)} vs H_eff {p.value(he)}")
            b0 = ("beta", name, 0)
            if chk.ok(b0):
                chk.require(abs(p.value(b0) + net.profiles.a0) <= 1e-6, b0,
                            f"beta(0) = {p.value(b0)} vs -a0 = {-net.profiles.a0}")
            hs = self.beta_points(name, H)
            for j in range(self.n_flow[name]):
                fl, be = ("flow", name, j), ("beta", name, len(hs) - 1 - j)
                if chk.ok(fl, be):
                    d = abs(p.value(fl) - p.value(be))
                    gap = max(gap, d)
                    chk.require(d <= 1e-3, fl, f"flow oracle off beta by {d}")
            for j, hv in enumerate(hs):
                be = ("beta", name, j)
                for i, pv in enumerate(P):
                    al = ("alpha", name, i)
                    if chk.ok(be, al):
                        chk.require(pv @ hv <= p.value(al) + p.value(be) + 1e-6, be,
                                    f"Fenchel-Young fails at p={pv}, h={hv}")
        pv, hv, t = inputs["limit"]
        if chk.ok(("limit",)):
            # linear datum: the Hopf-Lax value is <p,h> - t H_eff(p) exactly
            ref = float(np.dot(pv, hv)) - t * cell_problem.effective_hamiltonian(
                *nets[self.limit_net].args, pv)
            chk.require(abs(p.value(("limit",)) - ref) <= 1e-3, ("limit",),
                        f"limit {p.value(('limit',))} vs exact {ref}")
        return {"beta_oracle_gap": gap}


class Asymptotics:
    """Phi(x, y, T; floor(T d))/T -> beta(d) on two crystals, plus crystal BFS."""

    name = "asymptotics"
    networks = ("honeycomb-cos", "k4-drift")
    # (network, x, y, T list); the honeycomb direction is drawn, K4's is fixed
    scans = (("honeycomb-cos", "x1", "x2", (8, 16, 32, 64, 128)),
             ("k4-drift", "a", "b", (8, 16, 32)))
    # On K4 the number of a-grid doublings in min_action (3 to 5 reaches of
    # 64 levels, about 2.5 s each at T = 32) depends on every component of
    # the direction, so a drawn K4 direction would move run_s by up to 2x.
    k4_direction = (-0.2, 0.05, -0.35)
    stable_norm_n = 64

    def draw(self, rng):
        # one axis at 0.45, the other within 0.315 = 0.7 * 0.45: the box radius
        # max|floor(T d)| + 2 is then the same for every seed
        d = rng.uniform(-0.315, 0.315, size=2)
        d[int(rng.integers(2))] = 0.45
        dirs = {"honeycomb-cos": tuple(float(x) for x in d),
                "k4-drift": self.k4_direction}
        axis = np.zeros(2, dtype=int)
        axis[int(rng.integers(2))] = 1 if rng.integers(2) else -1
        return {"dirs": dirs, "stable_h": tuple(int(k) for k in axis)}

    def run(self, nets, inputs) -> Pass:
        p = Pass()
        for name, x, y, Ts in self.scans:
            p.call(("scan", name), action.asymptotics_scan, *nets[name].args, x, y,
                   inputs["dirs"][name], list(Ts))
        net = nets["honeycomb-cos"]
        p.call(("stable_norm",), crystal.stable_norm_estimate, net.g, net.tm,
               inputs["stable_h"], self.stable_norm_n)
        return p

    def check(self, nets, inputs, p: Pass, chk: Checker) -> dict:
        last = []
        for name, *_ in self.scans:
            key = ("scan", name)
            if not chk.ok(key):
                continue
            devs = [r.deviation for r in p.value(key)]
            chk.require(_finite(devs), key, "deviation is not finite")
            if name == "honeycomb-cos":  # acceptance criterion 6
                chk.require(all(b <= a + 1e-3 for a, b in zip(devs, devs[1:])), key,
                            f"deviations not non-increasing: {devs}")
                chk.require(devs[-1] <= 0.05, key, f"last deviation {devs[-1]} > 0.05")
            else:
                chk.require(devs[-1] <= devs[0], key, f"deviations grew: {devs}")
            last.append(devs[-1])
        key = ("stable_norm",)
        if chk.ok(key):
            est = p.value(key)
            h = np.asarray(inputs["stable_h"])
            ns = [2**k for k in range(len(est.upper_sequence))] + [est.n_max]
            got = [r * n for r, n in zip(est.upper_sequence + [est.estimate], ns)]
            want = _box_distances(nets["honeycomb-cos"], [n * h for n in ns],
                                  radius=int(est.n_max * np.abs(h).max()) + 2)
            chk.require(np.allclose(got, want), key,
                        f"crystal distances {got} vs networkx {want}")
        return {"asym_dev_last": max(last, default=0.0)}


def _box_distances(net: Network, targets, radius: int) -> list[int]:
    """networkx BFS from (x0, 0) on the crystal box |h|_inf <= radius.

    The box is materialized from the base graph and theta directly; it holds
    the straight lifted paths to the targets.
    """
    import networkx as nx

    g, tm = net.g, net.tm
    G = nx.Graph()
    for h in itertools.product(range(-radius, radius + 1), repeat=tm.betti):
        for e in g.edges:
            h2 = tuple(int(k) for k in np.asarray(h) + tm.theta[e])
            if max(abs(k) for k in h2) <= radius:
                G.add_edge((g.origin(e), h), (g.terminus(e), h2))
    x0 = g.vertices[0]
    dist = nx.single_source_shortest_path_length(G, (x0, (0,) * tm.betti))
    return [dist[(x0, tuple(int(k) for k in t))] for t in targets]


WORKLOADS = {w.name: w for w in (EpsLadder(), Duality(), Asymptotics())}
