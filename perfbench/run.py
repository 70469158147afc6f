"""Benchmark of the dualnewton experiments, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` times one untraced pass, then traced passes, and prints the
per-layer metrics plus the tracing overhead.  Untraced passes repeat until
``--seconds`` have elapsed, at least twice, after a two-iteration warm-up
of each method; each end-to-end time is the median over passes, read from
the reference-speed clock of ``speed.py``.
Every pass is checked by the correctness gate in ``bench.py``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

bench.pin_threads()

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("boltzmann", "boltzmann_newton8", "betamix", "gaussian_multistart")
BASELINES = ("natgrad", "mirror", "adam")
MIN_PASSES = 2
METHODS = ("newton",) + BASELINES

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "newton_s": "s",
    "baselines_s": "s",
    "newton_ms_per_iter": "ms",
    "iterations": "count",
    "peak_rss_mb": "MB",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, passes):
    """Per-layer metrics of a tracer that saw ``passes`` identical passes.

    Counts and times are per pass.  Returns name -> (value, unit).
    """
    out = {}

    def calls(metric, stat):
        out[f"{metric}.calls"] = (tr.calls(stat) / passes, "count")

    def self_s(metric, stat):
        out[f"{metric}.self_s"] = (tr.self_s(stat) / passes, "s")

    def repeat_frac(stat):
        out[f"{stat}.repeat_frac"] = (
            _ratio(tr.stats[stat].repeats, tr.calls(stat)),
            "fraction",
        )

    for name in (
        "loglinear.log_partition",
        "loglinear.moments",
        "loglinear.moment_to_natural",
        "loglinear.fisher_metric",
        "loglinear.third_central_moment",
        "loglinear.christoffel",
        "betamix.scores",
        "betamix.log_density",
        "betamix.fisher_metric",
        "betamix.christoffel",
        "geometry.dual_hessian_matrix",
        "geometry.newton_direction",
        "geometry.second_order_retract",
        "linalg.solve_spd",
        "linalg.solve_general",
        "linalg.is_spd",
        "objectives.value",
        "objectives.eucl_grad",
        "objectives.grad_field_jacobian",
        "optimizers.wolfe_line_search",
    ):
        calls(name, name)
        self_s(name, name)
    # linalg's fd_jacobian, as the geometry assembly resolves it
    calls("geometry.fd_jacobian", "linalg.fd_jacobian")
    self_s("geometry.fd_jacobian", "linalg.fd_jacobian")
    calls("gaussian.fisher_metric", "gaussian.fisher_metric")
    for name in (
        "loglinear.fisher_metric",
        "loglinear.third_central_moment",
        "betamix.fisher_metric",
        "betamix.christoffel",
    ):
        repeat_frac(name)

    inv = "loglinear.moment_to_natural"
    out[f"{inv}.fail_frac"] = (_ratio(tr.stats[inv].exceptions, tr.calls(inv)), "fraction")
    out[f"{inv}.potential_evals_per_call"] = (
        _ratio(tr.inside[inv, "loglinear.log_partition"], tr.calls(inv)),
        "count/call",
    )
    wolfe = "optimizers.wolfe_line_search"
    out[f"{wolfe}.value_per_call"] = (
        _ratio(tr.inside[wolfe, "objectives.value"], tr.calls(wolfe)),
        "count/call",
    )

    for method in METHODS:
        iters = tr.iterations[method]
        out[f"optimizers.{method}.value_per_iter"] = (
            _ratio(tr.inside[method, "objectives.value"], iters),
            "count/iter",
        )
        out[f"optimizers.{method}.grad_per_iter"] = (
            _ratio(tr.inside[method, "objectives.eucl_grad"], iters),
            "count/iter",
        )
        self_s(f"optimizers.{method}", f"optimizers.{method}")
    out["optimizers.newton.retracts_per_iter"] = (
        _ratio(tr.inside["newton", "geometry.second_order_retract"], tr.iterations["newton"]),
        "count/iter",
    )

    runs_s = sum(tr.total_s(f"optimizers.{m}") for m in METHODS)
    out["experiments.polish_s"] = (tr.total_s("experiments.reference_point") / passes, "s")
    out["experiments.write_s"] = (tr.total_s("experiments.write_artifacts") / passes, "s")
    out["experiments.overhead_s"] = (
        (tr.total_s("experiments.run_experiment") - runs_s) / passes,
        "s",
    )
    return out


def timed_pass(cfgs, pins, clock):
    """One pass with only the optimizer runs wrapped, timed by ``clock``."""
    tr = tracer.Tracer(clock).install(full=False)
    try:
        result = bench.run_pass(cfgs, pins, workloads.instance_key, clock)
    finally:
        tr.uninstall()
    return result, tr


def report_gate(results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for problem in r.problems:
            print(f"gate: {problem}")
    digests = {bench.pass_digest(r) for r in results}
    mismatches = sum(r.digest_mismatches for r in results)
    print(f"trace_digest: {' '.join(sorted(digests))}")
    print(f"trace_digest_pinned_mismatches: {mismatches}")
    if len(digests) > 1:
        print("gate: trace digests differ between passes of one run")
        failed = max(failed, 1)
    return attempted, failed


def run_untraced(workload, seed, seconds, cfgs, pins):
    setup_s = bench.setup_seconds(workload, seed)
    workloads.warm_up(cfgs[0])
    clock = speed.ReferenceClock().install()
    deadline = time.perf_counter() + seconds
    passes = []
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(timed_pass(cfgs, pins, clock))
    finally:
        clock.uninstall()
    print(f"passes: {len(passes)}; probes: {len(clock.probes)}, "
          f"median {statistics.median(clock.probes) * 1e3:.3f} ms")
    rows = []
    for i, (result, tr) in enumerate(passes):
        newton_s = tr.total_s("optimizers.newton")
        row = {
            "wall_s": result.wall_s,
            "newton_s": newton_s,
            "baselines_s": sum(tr.total_s(f"optimizers.{m}") for m in BASELINES),
            "newton_ms_per_iter": 1e3 * _ratio(newton_s, tr.iterations["newton"]),
        }
        rows.append(row)
        print(f"pass {i}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    metrics["iterations"] = passes[0][0].iterations
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = report_gate([result for result, _ in passes])
    return attempted, failed, {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}


def run_traced(cfgs, pins, seconds):
    workloads.warm_up(cfgs[0])
    clock = speed.ReferenceClock().install()
    deadline = time.perf_counter() + seconds
    tr = tracer.Tracer(clock)
    try:
        plain = bench.run_pass(cfgs, pins, workloads.instance_key, clock)
        results, walls = [plain], []
        while not walls or time.perf_counter() < deadline:
            tr.install(full=True)
            try:
                result = bench.run_pass(cfgs, pins, workloads.instance_key, clock)
            finally:
                tr.uninstall()
            results.append(result)
            walls.append(result.wall_s)
    finally:
        clock.uninstall()
    metrics = layer_metrics(tr, len(walls))
    metrics["trace.overhead_s"] = (statistics.median(walls) - plain.wall_s, "s")
    print(f"untraced pass wall_s: {plain.wall_s:.6g}; traced passes: {len(walls)}")
    print("layer self time per pass (s):")
    for layer, secs in sorted(tr.layer_self_s().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {secs / len(walls):10.4f}")
    print("function          calls/pass  total_s  self_s  exceptions  repeats")
    for name, n, total, own, exc, rep in tr.table():
        k = len(walls)
        print(f"  {name:44s} {n / k:9.0f} {total / k:9.4f} {own / k:9.4f} {exc / k:6.0f} {rep / k:6.0f}")
    attempted, failed = report_gate(results)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bench.have_source():
        print(f"error: no dualnewton sources under {bench.SRC}", file=sys.stderr)
        return 2
    bench.use_source()
    cfgs = workloads.configs(args.workload, args.seed)
    pins = workloads.load_pools().get(args.workload, {}).get("pins", {})
    if args.trace:
        attempted, failed, metrics = run_traced(cfgs, pins, args.seconds)
    else:
        attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds, cfgs, pins
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
