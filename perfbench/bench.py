"""Passes, the correctness gate and the metrics of one benchmark run.

Import this module only after ``pin_threads()``: BLAS and OpenMP read
their thread counts when numpy loads.
"""

import glob
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

FAILED_STATUSES = ("SingularHessian", "DomainFailure")
SETUP_REPS = 5


def pin_threads(env=os.environ):
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def have_source():
    return os.path.isfile(os.path.join(SRC, "dualnewton", "__init__.py"))


def use_source():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---- correctness ----------------------------------------------------------


def trace_digest(out_dir):
    """SHA-256 over the run's trace CSVs with the time_s column stripped."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        h.update(os.path.basename(path).encode())
        with open(path) as fh:
            for line in fh:
                h.update(line.rstrip("\n").rsplit(",", 1)[0].encode())
                h.update(b"\n")
    return h.hexdigest()


def expected_runs(cfg):
    return sum(len(cfg.alphas) if m == "newton" else 1 for m in cfg.methods)


def outcome(code, results):
    """What the gate and the pins compare: exit code and per-run status."""
    return {
        "exit": code,
        "runs": [[r.label, r.status, r.iterations] for r in results],
    }


def gate(cfg, observed, pinned):
    """Failed runs of one instance.

    A run fails on SingularHessian or DomainFailure, on a Converged
    status whose final gradient norm is not below grad_tol, or when it
    differs from the pinned status or iteration count.  A raised
    exception or an unexpected exit code fails every run.
    """
    if observed is None:
        return expected_runs(cfg), ["exception"]
    problems = []
    failed = 0
    pinned_runs = {p[0]: p[1:] for p in pinned["runs"]} if pinned else {}
    for label, status, iters, grad_l2 in observed["runs_detail"]:
        bad = status in FAILED_STATUSES
        if status == "Converged" and not grad_l2 < cfg.grad_tol:
            bad = True
            problems.append(f"{label}: grad_l2 {grad_l2} >= {cfg.grad_tol}")
        if pinned and pinned_runs.get(label) != [status, iters]:
            bad = True
            problems.append(f"{label}: {status}/{iters} != pinned {pinned_runs.get(label)}")
        failed += bad
    if len(observed["runs"]) != expected_runs(cfg):
        failed = expected_runs(cfg)
        problems.append("missing runs")
    expected_exit = pinned["exit"] if pinned else 0
    if observed["exit"] != expected_exit:
        failed = expected_runs(cfg)
        problems.append(f"exit {observed['exit']} != {expected_exit}")
    return failed, problems


# ---- one pass ---------------------------------------------------------------


def run_instance(cfg, clock=time.perf_counter):
    """One run_experiment call in a fresh artifact directory.

    Returns (wall seconds by ``clock``, observed outcome or None, trace
    digest or None).
    """
    from dualnewton import run_experiment

    os.makedirs(SCRATCH, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        start = clock()
        try:
            code, results = run_experiment(cfg, out_dir=out_dir)
        except Exception as exc:  # reported as failed runs, never as a timing
            print(f"run_experiment raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return clock() - start, None, None
        wall = clock() - start
        observed = outcome(code, results)
        observed["runs_detail"] = [
            [r.label, r.status, r.iterations, r.trace.grad_l2[-1] if r.trace.grad_l2 else 0.0]
            for r in results
        ]
        return wall, observed, trace_digest(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class PassResult:
    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.iterations = 0
        self.digests = []
        self.digest_mismatches = 0
        self.problems = []


def run_pass(cfgs, pins, key_fn, clock=time.perf_counter):
    result = PassResult()
    for cfg in cfgs:
        wall, observed, digest = run_instance(cfg, clock)
        pinned = pins.get(key_fn(cfg))
        failed, problems = gate(cfg, observed, pinned)
        result.wall_s += wall
        result.attempted += expected_runs(cfg)
        result.failed += failed
        result.problems += [f"{key_fn(cfg)} {p}" for p in problems]
        if observed is not None:
            result.iterations += sum(r[2] for r in observed["runs"])
        result.digests.append(digest)
        if pinned and digest != pinned.get("digest"):
            result.digest_mismatches += 1
    return result


def pass_digest(result):
    h = hashlib.sha256()
    for d in result.digests:
        h.update((d or "none").encode())
    return h.hexdigest()


# ---- set-up time --------------------------------------------------------------


def setup_seconds(workload, seed):
    """Median over fresh processes of importing dualnewton and building the
    workload's problem; each child times itself from before the import."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)
