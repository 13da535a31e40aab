"""Command-line interface: config ingestion, subcommands, CSV/JSON output.

Every run is deterministic given the same config and seed; CSV rows are
emitted in input order even when evaluated on a thread pool.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import base_graph
from .action import ActionQuery, asymptotics_scan, min_action
from .cell_problem import effective_hamiltonian
from .edge_calculus import load_hamiltonians
from .errors import HJNetError
from .homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                         TabulatedDatum, convergence_experiment)
from .mather import get_solver
from .netgen import BaseEmbedding, embed_crystal, export_window, orbit_length_check


def _vector(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",")) if text else ()


def _int_vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(header, rows, out_path):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out_path):
    text = json.dumps(obj, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_setup(args, need_hamiltonians=True):
    g = base_graph.load_graph(args.graph)
    t = base_graph.spanning_tree(g)
    tm = base_graph.theta_map(g, t)
    profiles = None
    if need_hamiltonians:
        if not args.hamiltonians:
            raise HJNetError("--hamiltonians is required for this command")
        profiles = load_hamiltonians(args.hamiltonians, g)
    return g, tm, profiles


def _pmap(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def cmd_betti(args):
    g, tm, _ = _load_setup(args, need_hamiltonians=False)
    print(f"betti {tm.betti}")
    if args.out:
        _write_json({"betti": tm.betti}, args.out)
    return 0


def cmd_theta(args):
    g, tm, _ = _load_setup(args, need_hamiltonians=False)
    print(f"betti {tm.betti}")
    print(f"tree edges {sorted(e for e in tm.tree.tree_edges if g.edges[e].is_positive)}")
    table = {}
    for e in g.orientation:
        vec = tm.theta[e].tolist()
        table[e] = vec
        print(f"theta[{e}] = {tuple(vec)}")
    if args.out:
        _write_json({"betti": tm.betti, "basis_edges": list(tm.basis_edges),
                     "theta": table}, args.out)
    return 0


def _p_list(args, b):
    ps = [_vector(s) for s in (args.p or [])]
    if args.p_grid:
        lo, hi, n = float(args.p_grid[0]), float(args.p_grid[1]), int(args.p_grid[2])
        axis = np.linspace(lo, hi, n)
        mesh = np.meshgrid(*([axis] * b), indexing="ij")
        ps.extend(tuple(float(c) for c in pt)
                  for pt in np.stack([m.ravel() for m in mesh], axis=1))
    if not ps:
        raise HJNetError("no p vectors given (use --p or --p-grid)")
    for p in ps:
        if len(p) != b:
            raise HJNetError(f"p vector {p} has wrong dimension (betti = {b})")
    return ps


def cmd_effective_hamiltonian(args):
    g, tm, profiles = _load_setup(args)
    ps = _p_list(args, tm.betti)
    vals = _pmap(lambda p: effective_hamiltonian(g, tm, profiles, p),
                 ps, args.threads)
    header = [f"p_{i+1}" for i in range(tm.betti)] + ["H_eff"]
    _write_csv(header, [list(p) + [v] for p, v in zip(ps, vals)], args.out)
    return 0


def cmd_beta(args):
    g, tm, profiles = _load_setup(args)
    hs = [_vector(s) for s in (args.h or [])]
    if not hs:
        raise HJNetError("no h vectors given (use --h)")
    solver = get_solver(g, tm, profiles)
    vals = _pmap(lambda h: solver.beta(h, search_box=args.search_box),
                 hs, args.threads)
    header = [f"h_{i+1}" for i in range(tm.betti)] + ["beta"]
    _write_csv(header, [list(h) + [v] for h, v in zip(hs, vals)], args.out)
    return 0


def cmd_action(args):
    g, tm, profiles = _load_setup(args)
    h = _int_vector(args.h)
    query = ActionQuery(args.x, args.y, args.T, h,
                        rotation_radius=args.rotation_radius)
    phi = min_action(g, tm, profiles, query)
    header = (["x", "y", "T"] + [f"h_{i+1}" for i in range(tm.betti)]
              + ["phi", "phi_over_T"])
    _write_csv(header, [[args.x, args.y, args.T] + list(h) + [phi, phi / args.T]],
               args.out)
    return 0


def cmd_asymptotics(args):
    g, tm, profiles = _load_setup(args)
    rows = asymptotics_scan(g, tm, profiles, args.x, args.y,
                            _vector(args.h_direction), _vector(args.T_list))
    header = (["T"] + [f"h_{i+1}" for i in range(tm.betti)]
              + ["phi_over_T", "beta", "deviation"])
    _write_csv(header, [[r.T] + list(r.h) + [r.phi_over_T, r.beta, r.deviation]
                        for r in rows], args.out)
    return 0


def _datum(args, b):
    if args.datum == "linear":
        p = _vector(args.p_datum) if args.p_datum else (0.0,) * b
        return LinearDatum(p)
    if args.datum == "cone":
        return ConeDatum(args.c)
    if args.datum == "zero":
        return LinearDatum((0.0,) * b)
    if args.datum == "tabulated":
        with open(args.datum_file) as fh:
            obj = json.load(fh)
        return TabulatedDatum(tuple(map(tuple, obj["anchors"])),
                              tuple(obj["values"]), float(obj["lipschitz"]))
    raise HJNetError(f"unknown datum {args.datum!r}")


def cmd_homogenize(args):
    g, tm, profiles = _load_setup(args)
    samples = []
    for part in args.samples.split(";"):
        hpart, tpart = part.split("@")
        samples.append((_vector(hpart), float(tpart)))
    grid = ExperimentGrid(tuple(samples), _vector(args.eps), radius=args.radius)
    report = convergence_experiment(g, tm, profiles, _datum(args, tm.betti), grid)
    header = (["eps"] + [f"h_{i+1}" for i in range(tm.betti)]
              + ["t", "u_eps", "u_limit", "abs_error"])
    _write_csv(header, [[r["eps"]] + list(r["h"]) + [r["t"], r["u_eps"],
                                                     r["u_limit"], r["abs_error"]]
                        for r in report.rows], args.out)
    _write_json(report.summary(), args.summary)
    return 0


def cmd_embed(args):
    g, tm, _ = _load_setup(args, need_hamiltonians=False)
    with open(args.embedding) as fh:
        emb = BaseEmbedding.from_json(json.load(fh), g)
    nw = embed_crystal(emb, g, tm, args.window, n_samples=args.arc_samples)
    if not orbit_length_check(nw):
        raise HJNetError("orbit length check failed on the constructed window")
    if args.out:
        export_window(nw, args.out)
    else:
        print(json.dumps(nw.to_json()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hjnet",
        description="Effective Hamiltonians and homogenization on periodic networks")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, hams=True):
        p.add_argument("--graph", required=True, help="graph spec JSON")
        if hams:
            p.add_argument("--hamiltonians", help="hamiltonian spec JSON")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON file with default argument values")

    p = sub.add_parser("betti", help="first Betti number of the base graph")
    common(p, hams=False)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("theta", help="spanning tree and theta table")
    common(p, hams=False)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("effective-hamiltonian", help="effective Hamiltonian at p")
    common(p)
    p.add_argument("--p", action="append", help="p vector, e.g. 1,0 (repeatable)")
    p.add_argument("--p-grid", nargs=3, metavar=("MIN", "MAX", "N"),
                   help="uniform grid per coordinate")
    p.set_defaults(fn=cmd_effective_hamiltonian)

    p = sub.add_parser("beta", help="Mather beta function at h")
    common(p)
    p.add_argument("--h", action="append", help="h vector (repeatable)")
    p.add_argument("--search-box", type=float, default=4.0)
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("action", help="discrete minimal action")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--h", required=True, help="integer rotation vector, e.g. 4,0")
    p.add_argument("--rotation-radius", type=int)
    p.set_defaults(fn=cmd_action)

    p = sub.add_parser("asymptotics", help="minimal action vs beta over a T list")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--h-direction", required=True)
    p.add_argument("--T-list", required=True)
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("homogenize", help="convergence experiment")
    common(p)
    p.add_argument("--datum", default="zero",
                   choices=["zero", "linear", "cone", "tabulated"])
    p.add_argument("--p-datum", help="p for the linear datum")
    p.add_argument("--c", type=float, default=1.0, help="cone slope")
    p.add_argument("--datum-file", help="JSON for the tabulated datum")
    p.add_argument("--samples", required=True,
                   help="semicolon list of h@t samples, e.g. 0.5,0.25@1.0;1,0@0.5")
    p.add_argument("--eps", required=True, help="decreasing eps list, e.g. 0.25,0.125")
    p.add_argument("--radius", type=float)
    p.add_argument("--summary", help="path for the JSON summary")
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("embed", help="periodic network window export")
    common(p, hams=False)
    p.add_argument("--embedding", required=True, help="base embedding JSON")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--arc-samples", type=int)
    p.set_defaults(fn=cmd_embed)
    return ap


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            defaults = json.load(fh)
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) in (None, [], False):
                setattr(args, attr, value)
    return args


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args = _apply_config(args)
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, HJNetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
