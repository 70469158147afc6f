"""Record the machine, library versions and a traced per-layer baseline.

    python3 perfbench/provenance.py [--seconds 1] [--out perfbench/baseline.json]

Runs each workload once with ``--trace 1 --seed 0`` and stores its
per-layer metrics next to nproc, the numpy and scipy versions, the
commit measured and why each workload was chosen.  Later changes compare
their own traced runs against this file to show where a saving appears.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

bench.pin_threads()


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description="record the traced baseline")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", default=os.path.join(bench.HERE, "baseline.json"))
    args = parser.parse_args()
    bench.use_source()
    import numpy
    import scipy

    import run
    import workloads

    traced = {}
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(bench.HERE, "run.py"),
                "--workload", workload,
                "--seed", "0",
                "--seconds", str(args.seconds),
                "--trace", "1",
            ],
            cwd=bench.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        traced[workload] = {
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
        print(workload, "correct" if result["correct"] else "INCORRECT", flush=True)
    report = {
        "commit": _commit(),
        "measured": time.strftime("%Y-%m-%d"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in bench.THREAD_VARS},
        "why": workloads.WHY,
        "traced_seed0": traced,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
