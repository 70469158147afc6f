"""Screen experiment seeds into the benchmark's pools and pin their outcomes.

    python3 perfbench/screen.py survey WORKLOAD FIRST LAST   # seeds FIRST..LAST-1
    python3 perfbench/screen.py select WORKLOAD [--band 0.08]
    python3 perfbench/screen.py pin WORKLOAD SEED [SEED ...]

``survey`` runs each candidate seed once under the tracer and appends its
outcome, trace digest and the call count of the workload's dominant
primitive to ``survey/WORKLOAD.jsonl``.  ``select`` keeps the seeds whose
runs all pass the gate and whose work lies within ``band`` of the median
over passing seeds on each of three counts: dominant-primitive calls,
Newton iterations and baseline iterations.  These set wall_s, newton_s and
baselines_s, so pooled seeds give comparable end-to-end figures.  The pool
and each seed's pinned outcome go to ``pools.json``.  ``pin`` pins the
instances of given benchmark seeds of a workload without a pool
(gaussian_multistart).  Counts and outcomes do not depend on the machine,
so the pools reproduce anywhere.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

bench.pin_threads()

# the primitive that dominates each pooled workload's time
DOMINANT = {
    "boltzmann": "loglinear.log_partition",
    "boltzmann_newton8": "loglinear.third_central_moment",
    "betamix": "betamix.scores",
}
SURVEY_DIR = os.path.join(bench.HERE, "survey")


def _run(cfg):
    """(outcome with digest, passed gate, dominant-count tracer) of one instance."""
    import tracer

    tr = tracer.Tracer().install(full=True)
    try:
        _, observed, digest = bench.run_instance(cfg)
    finally:
        tr.uninstall()
    failed, problems = bench.gate(cfg, observed, None)
    pinned = None
    if observed is not None:
        pinned = {"exit": observed["exit"], "runs": observed["runs"], "digest": digest}
    return pinned, failed == 0 and not problems, tr


def survey(workload, first, last):
    import workloads

    os.makedirs(SURVEY_DIR, exist_ok=True)
    path = os.path.join(SURVEY_DIR, workload + ".jsonl")
    for seed in range(first, last):
        (cfg,) = workloads.candidate_configs(workload, seed)
        pinned, ok, tr = _run(cfg)
        row = {
            "seed": seed,
            "key": workloads.instance_key(cfg),
            "ok": ok,
            "dominant": tr.calls(DOMINANT[workload]),
            "pinned": pinned,
        }
        with open(path, "a") as fh:
            fh.write(json.dumps(row) + "\n")
        print(json.dumps({k: row[k] for k in ("seed", "ok", "dominant")}), flush=True)


def _save_pool(workload, entry):
    import workloads

    pools = workloads.load_pools() if os.path.exists(workloads.POOLS_PATH) else {}
    pools[workload] = entry
    with open(workloads.POOLS_PATH, "w") as fh:
        json.dump(pools, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _work(row):
    runs = row["pinned"]["runs"]
    return {
        "dominant": row["dominant"],
        "newton_iters": sum(r[2] for r in runs if r[0].startswith("newton")),
        "baseline_iters": sum(r[2] for r in runs if not r[0].startswith("newton")),
    }


def select(workload, band):
    with open(os.path.join(SURVEY_DIR, workload + ".jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    passing = [r for r in rows if r["ok"]]
    work = {r["seed"]: _work(r) for r in passing}
    medians = {k: statistics.median(w[k] for w in work.values()) for k in _work(passing[0])}
    chosen = [
        r
        for r in passing
        if all(abs(work[r["seed"]][k] / m - 1.0) <= band for k, m in medians.items())
    ]
    chosen.sort(key=lambda r: r["seed"])
    _save_pool(
        workload,
        {
            "criterion": (
                f"every run passes the gate, and {DOMINANT[workload]} calls, "
                f"Newton iterations and baseline iterations per pass each lie "
                f"within {band:.0%} of their medians {medians} over the "
                f"{len(passing)} passing of {len(rows)} surveyed seeds"
            ),
            "seeds": [r["seed"] for r in chosen],
            "pins": {r["key"]: r["pinned"] for r in chosen},
        },
    )
    print(f"{workload}: {len(chosen)} of {len(passing)} passing seeds in the pool")


def pin(workload, seeds):
    import workloads

    pins = {}
    for seed in seeds:
        for cfg in workloads.configs(workload, seed, pools={}):
            pinned, ok, _ = _run(cfg)
            if not ok:
                raise SystemExit(f"{workloads.instance_key(cfg)} fails the gate")
            pins[workloads.instance_key(cfg)] = pinned
    _save_pool(workload, {"pinned_seeds": list(seeds), "pins": pins})
    print(f"{workload}: pinned {len(pins)} instances")


def main():
    parser = argparse.ArgumentParser(description="screen seeds into pools")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("survey")
    p.add_argument("workload", choices=sorted(DOMINANT))
    p.add_argument("first", type=int)
    p.add_argument("last", type=int)
    p = sub.add_parser("select")
    p.add_argument("workload", choices=sorted(DOMINANT))
    p.add_argument("--band", type=float, default=0.08)
    p = sub.add_parser("pin")
    p.add_argument("workload")
    p.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    bench.use_source()
    if args.cmd == "survey":
        survey(args.workload, args.first, args.last)
    elif args.cmd == "select":
        select(args.workload, args.band)
    else:
        pin(args.workload, args.seeds)


if __name__ == "__main__":
    main()
