"""Log-linear scaling report: Newton cost as the number of variables grows.

    python3 perfbench/scaling.py [--out perfbench/scaling_report.json]

Runs exp1 (seed 0, default lambda) with Newton alone at alpha 0, 1/2 and 1
for n = 4..9 under the tracer and records, per (n, alpha): status,
iterations, newton_ms_per_iter, and the calls of third_central_moment and
fisher_metric inside the Newton run.  Not gated; run once per change that
targets the log-linear geometry.  n = 10 is left out: one pass takes about
two minutes.
"""

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

bench.pin_threads()

NS = range(4, 10)
ALPHAS = (0.0, 0.5, 1.0)


def measure(n, alpha):
    from dualnewton import RunConfig

    import speed
    import tracer

    cfg = RunConfig.defaults("exp1", n=n, alphas=(alpha,), methods=("newton",))
    clock = speed.ReferenceClock().install()
    tr = tracer.Tracer(clock).install(full=True)
    try:
        wall, observed, _ = bench.run_instance(cfg, clock)
    finally:
        tr.uninstall()
        clock.uninstall()
    (label, status, iters), = observed["runs"]
    newton_s = tr.total_s("optimizers.newton")
    return {
        "n": n,
        "dim": n * (n + 1) // 2,
        "alpha": alpha,
        "status": status,
        "iterations": iters,
        "newton_ms_per_iter": 1e3 * newton_s / iters if iters else None,
        "third_central_moment_calls": tr.inside["newton", "loglinear.third_central_moment"],
        "fisher_metric_calls": tr.inside["newton", "loglinear.fisher_metric"],
        "pass_wall_s": wall,
    }


def main():
    parser = argparse.ArgumentParser(description="log-linear scaling report")
    parser.add_argument("--out", default=os.path.join(bench.HERE, "scaling_report.json"))
    args = parser.parse_args()
    bench.use_source()
    import numpy
    import scipy

    rows = []
    for n in NS:
        for alpha in ALPHAS:
            row = measure(n, alpha)
            rows.append(row)
            print(json.dumps(row), flush=True)
    singular = sorted(
        {(r["n"], r["alpha"]) for r in rows if r["status"] == "SingularHessian" and r["n"] >= 6}
    )
    report = {
        "note": (
            "traced timings (wrapper cost included) on the reference-speed "
            "clock of speed.py; counts are calls inside the Newton run, the "
            "reference polish excluded"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "measured": time.strftime("%Y-%m-%d"),
        },
        "singular_hessian_n_ge_6": [{"n": n, "alpha": a} for n, a in singular],
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
