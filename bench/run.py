"""Run one workload of the hjnet benchmark and print its metrics as JSON.

    python3 bench/run.py --workload eps-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``src/hjnet`` is imported from there, with
one process, one thread and BLAS pinned to one thread.  The workload runs in
a closed loop: each pass (a fixed query set on freshly built networks) starts
after the previous one ends, and passes repeat while another one fits in
``--seconds``; at least one pass always runs.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` runs one untraced and
one traced pass and prints the per-layer metrics.  The last stdout line is
the result object; full results go to ``bench/results/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload, inputs, seconds: float, min_setups: int):
    """Closed loop of set-up + pass.

    Returns the set-up times, pass times, passes and the last networks.
    """
    from workloads import build_network, forget_solvers

    setup_s, run_s, passes = [], [], []
    start = time.perf_counter()
    while True:
        forget_solvers()
        t0 = time.perf_counter()
        nets = {name: build_network(name) for name in workload.networks}
        setup_s.append(time.perf_counter() - t0)
        if len(setup_s) < min_setups:
            continue
        t0 = time.perf_counter()
        passes.append(workload.run(nets, inputs))
        run_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + run_s[-1] > seconds:
            return setup_s, run_s, passes, nets


def check(workload, nets, inputs, passes):
    """Check every pass; returns (attempted, failures, figures of the first pass)."""
    from workloads import Checker

    attempted, failures, figures = 0, {}, None
    for i, p in enumerate(passes):
        chk = Checker(p)
        figs = workload.check(nets, inputs, p, chk)
        figures = figures or figs
        for key, op in p.ops.items():
            first = passes[0].ops.get(key)
            if first is not None and repr(op.value) != repr(first.value):
                chk.require(False, key, "answer differs from the first pass")
        attempted += len(p.ops)
        failures.update({f"pass {i} {key}": why for key, why in chk.failures.items()})
    return attempted, failures, figures


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (SRC / "hjnet").glob("*.py"))


def main(argv=None) -> int:
    args = _parse(argv)
    bench_spec = ROOT / "BENCHMARK.json"
    if not (SRC / "hjnet" / "__init__.py").is_file() or not bench_spec.is_file():
        print(f"no hjnet sources under {SRC} or no {bench_spec.name}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(bench_spec.read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.draw(np.random.default_rng(args.seed))

    values: dict[str, float] = {}
    spans = None
    if args.trace:
        _, untraced, passes, _ = measure(workload, inputs, 0.0, 1)
        with tracing.Recorder() as rec:
            _, traced, more, nets = measure(workload, inputs, 0.0, 1)
        spans = rec.spans
        passes += more
        values.update(tracing.layer_metrics(spans))
        values["trace.overhead_s"] = traced[0] - untraced[0]
    else:
        setup_s, run_s, passes, nets = measure(workload, inputs, args.seconds,
                                               MIN_SETUPS)
        values["setup_s"] = statistics.median(setup_s)
        values["run_s"] = statistics.median(run_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures, figures = check(workload, nets, inputs, passes)
    info = {"finest_eps_s": 0.0, "sup_error_finest": 0.0, "beta_oracle_gap": 0.0,
            "asym_dev_last": 0.0, **figures,
            "ops_failed_frac": len(failures) / attempted,
            "source.hjnet_lines": src_lines()}
    values.update(info)
    for where, why in failures.items():
        print(f"FAILED {where}: {why}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not compute {missing}", file=sys.stderr)
        return 3
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    op_seconds: dict[str, float] = {}
    for key, op in passes[0].ops.items():
        kind = " ".join(str(k) for k in key[:2])
        op_seconds[kind] = op_seconds.get(kind, 0.0) + op.seconds
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "info": info, "failures": failures,
              "values": values, "op_seconds_first_pass": op_seconds}
    if spans is not None:
        record["baseline"] = tracing.baseline_figures(spans)
        (out / f"spans_{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"], "spans": spans}))
    (out / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
