"""Command-line interface: config ingestion, subcommands, CSV/JSON output.

Every run is deterministic: the same inputs give byte-identical output, and
each CSV row depends only on its own input, not on the rows before it.
CSV rows are emitted in input order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import base_graph
from .action import ActionQuery, asymptotics_scan, min_action
from .cell_problem import effective_hamiltonian
from .edge_calculus import load_hamiltonians
from .errors import HJNetError
from .homogenize import (ConeDatum, ExperimentGrid, LinearDatum,
                         TabulatedDatum, convergence_experiment)
from .mather import MatherSolver
from .netgen import BaseEmbedding, embed_crystal, export_window, orbit_length_check


def _number(text, what: str) -> float:
    """float(text), or HJNetError naming ``what`` if it is not finite."""
    x = float(text)
    if not np.isfinite(x):
        raise HJNetError(f"{what} {text} is not a finite number")
    return x


def _vector(text: str, what: str) -> tuple[float, ...]:
    return tuple(_number(x, what) for x in text.split(",")) if text else ()


def _int_vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _check_dim(vec: tuple, b: int, what: str) -> tuple:
    """vec unchanged if it has b entries; HJNetError naming ``what`` otherwise."""
    if len(vec) != b:
        raise HJNetError(f"{what} {vec} has wrong dimension (betti = {b})")
    return vec


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
    ps = [_vector(s, "--p") for s in (args.p or [])]
    if args.p_grid:
        lo, hi = (_number(x, "--p-grid") for x in args.p_grid[:2])
        n = int(args.p_grid[2])
        axis = np.linspace(lo, hi, n)
        mesh = np.meshgrid(*([axis] * b), indexing="ij")
        ps.extend(tuple(float(c) for c in pt)
                  for pt in np.stack([m.ravel() for m in mesh], axis=1))
    if not ps:
        raise HJNetError("no p vectors given (use --p or --p-grid)")
    return [_check_dim(p, b, "p vector") for p in ps]


def cmd_effective_hamiltonian(args):
    g, tm, profiles = _load_setup(args)
    ps = _p_list(args, tm.betti)
    vals = [effective_hamiltonian(g, tm, profiles, p) for p in ps]
    header = [f"p_{i+1}" for i in range(tm.betti)] + ["H_eff"]
    _write_csv(header, [list(p) + [v] for p, v in zip(ps, vals)], args.out)
    return 0


def cmd_beta(args):
    g, tm, profiles = _load_setup(args)
    hs = [_check_dim(_vector(s, "--h"), tm.betti, "h vector") for s in (args.h or [])]
    if not hs:
        raise HJNetError("no h vectors given (use --h)")
    vals = list(map(MatherSolver(g, tm, profiles).beta, hs))
    header = [f"h_{i+1}" for i in range(tm.betti)] + ["beta"]
    _write_csv(header, [list(h) + [v] for h, v in zip(hs, vals)], args.out)
    return 0


def cmd_action(args):
    g, tm, profiles = _load_setup(args)
    h = _check_dim(_int_vector(args.h), tm.betti, "h vector")
    T = _number(args.T, "--T")
    phi = min_action(g, tm, profiles, ActionQuery(args.x, args.y, T, h,
                                                  rotation_radius=args.rotation_radius))
    header = (["x", "y", "T"] + [f"h_{i+1}" for i in range(tm.betti)]
              + ["phi", "phi_over_T"])
    _write_csv(header, [[args.x, args.y, T] + list(h) + [phi, phi / T]], args.out)
    return 0


def cmd_asymptotics(args):
    g, tm, profiles = _load_setup(args)
    direction = _check_dim(_vector(args.h_direction, "--h-direction"), tm.betti,
                           "h direction")
    T_list = _vector(args.T_list, "--T-list")
    if not T_list:
        raise HJNetError("--T-list names no horizon T")
    rows = asymptotics_scan(g, tm, profiles, args.x, args.y, direction, T_list)
    header = (["T"] + [f"h_{i+1}" for i in range(tm.betti)]
              + ["phi_over_T", "beta", "deviation"])
    _write_csv(header, [[r.T] + list(r.h) + [r.phi_over_T, r.beta, r.deviation]
                        for r in rows], args.out)
    return 0


def _datum(args, b):
    if args.datum == "linear":
        p = _vector(args.p_datum, "--p-datum") if args.p_datum else (0.0,) * b
        return LinearDatum(_check_dim(p, b, "--p-datum"))
    if args.datum == "cone":
        return ConeDatum(_number(args.c, "--c"))
    if args.datum == "zero":
        return LinearDatum((0.0,) * b)
    if args.datum == "tabulated":
        with open(args.datum_file) as fh:
            obj = json.load(fh)
        anchors = tuple(_check_dim(tuple(x), b, "--datum-file anchor")
                        for x in obj["anchors"])
        return TabulatedDatum(anchors, tuple(obj["values"]), float(obj["lipschitz"]))
    raise HJNetError(f"unknown datum {args.datum!r}")


def cmd_homogenize(args):
    g, tm, profiles = _load_setup(args)
    samples = []
    for part in args.samples.split(";"):
        fields = part.split("@")
        if len(fields) != 2:
            raise HJNetError(f"--samples entry {part!r} is not of the form h@t")
        hpart, tpart = fields
        samples.append((_check_dim(_vector(hpart, "--samples h"), tm.betti, "sample h"),
                        _number(tpart, "--samples t")))
    grid = ExperimentGrid(tuple(samples), _vector(args.eps, "--eps"))
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
    p.add_argument("--summary", help="path for the JSON summary")
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("embed", help="periodic network window export")
    common(p, hams=False)
    p.add_argument("--embedding", required=True, help="base embedding JSON")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--arc-samples", type=int)
    p.set_defaults(fn=cmd_embed)
    ap.subcommands = sub.choices
    return ap


def _parse(ap: argparse.ArgumentParser, argv):
    """Parse argv with a ``--config`` file's values as the subcommand's
    defaults: an explicit flag beats the config, which beats the default."""
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = {k.replace("-", "_"): v for k, v in json.load(fh).items()}
        options = vars(args).keys() - {"command", "fn", "config"}
        unknown = [k for k in config if k not in options]
        if unknown:
            raise HJNetError(f"--config key(s) {', '.join(map(repr, unknown))} "
                             f"name no option of {args.command!r}")
        sub, unset = ap.subcommands[args.command], []
        # options argv leaves out read ``unset``; a flag given replaces the config
        sub.set_defaults(**dict.fromkeys(config, unset))
        given = {k for k, v in vars(ap.parse_args(argv)).items() if v is not unset}
        sub.set_defaults(**{k: v for k, v in config.items() if k not in given})
        args = ap.parse_args(argv)
    return args


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = _parse(ap, argv)
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, HJNetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
