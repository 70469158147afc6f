"""Tests of the benchmark itself: wrapper coverage, metric names, the gate.

Run from the repository root:  python3 -m pytest perfbench -q
(under a minute: each workload's pass runs once under the tracer).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

bench.pin_threads()
bench.use_source()

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# per workload: functions that must run (outside problem set-up, i.e. inside
# an optimizer run) and functions the workload must bypass
LOGLINEAR_NEWTON = [
    "loglinear.fisher_metric",
    "loglinear.third_central_moment",
    "loglinear.christoffel",
    "objectives.grad_field_jacobian",
]
GEOMETRY = [
    "geometry.dual_hessian_matrix",
    "geometry.newton_direction",
    "geometry.second_order_retract",
    "linalg.solve_spd",
    "linalg.solve_general",
    "linalg.is_spd",
    "objectives.value",
    "objectives.eucl_grad",
]
WOLFE = ["optimizers.wolfe_line_search"]
BETAMIX = [
    "betamix.scores",
    "betamix.log_density",
    "betamix.fisher_metric",
    "betamix.christoffel",
]
COVERAGE = {
    "boltzmann": (
        GEOMETRY
        + WOLFE
        + LOGLINEAR_NEWTON
        + ["loglinear.log_partition", "loglinear.moments", "loglinear.moment_to_natural"],
        BETAMIX + ["gaussian.fisher_metric", "linalg.fd_jacobian"],
    ),
    "boltzmann_newton8": (
        GEOMETRY + LOGLINEAR_NEWTON + ["loglinear.log_partition"],
        BETAMIX
        + WOLFE
        + ["gaussian.fisher_metric", "linalg.fd_jacobian", "loglinear.moment_to_natural"],
    ),
    "betamix": (
        GEOMETRY + WOLFE + BETAMIX + ["linalg.fd_jacobian"],
        LOGLINEAR_NEWTON
        + ["loglinear.log_partition", "loglinear.moment_to_natural", "gaussian.fisher_metric"],
    ),
    "gaussian_multistart": (
        GEOMETRY + WOLFE + ["gaussian.fisher_metric", "objectives.grad_field_jacobian"],
        BETAMIX
        + [
            "loglinear.log_partition",
            "loglinear.fisher_metric",
            "loglinear.moment_to_natural",
            "linalg.fd_jacobian",
        ],
    ),
}


def _traced_pass(workload):
    cfgs = workloads.configs(workload, 0)
    if workload == "gaussian_multistart":
        cfgs = cfgs[:2]
    pins = workloads.load_pools().get(workload, {}).get("pins", {})
    tr = tracer.Tracer().install(full=True)
    try:
        result = bench.run_pass(cfgs, pins, workloads.instance_key)
    finally:
        tr.uninstall()
    return tr, result


@pytest.fixture(scope="module", params=sorted(COVERAGE))
def traced(request):
    return (request.param,) + _traced_pass(request.param)


def test_wrappers_cover_each_layer_where_it_runs(traced):
    workload, tr, result = traced
    assert result.failed == 0, result.problems
    used, bypassed = COVERAGE[workload]
    missing = [name for name in used if tr.inside["run", name] == 0]
    assert not missing, f"{workload}: no calls recorded for {missing}"
    leaked = [name for name in bypassed if tr.inside["run", name] != 0]
    assert not leaked, f"{workload}: calls recorded for bypassed {leaked}"


def test_layer_metrics_match_benchmark_json(traced):
    _, tr, _ = traced
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(run.layer_metrics(tr, 1)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_install_rebinds_direct_imports_and_uninstall_restores():
    from dualnewton import geometry, linalg, optimizers
    from dualnewton.models import betamix, loglinear

    original = linalg.solve_spd
    tr = tracer.Tracer().install(full=True)
    try:
        for module in (geometry, optimizers, loglinear, betamix):
            assert module.solve_spd is linalg.solve_spd is not original
        assert optimizers.second_order_retract is geometry.second_order_retract
    finally:
        tr.uninstall()
    for module in (linalg, geometry, optimizers, loglinear, betamix):
        assert module.solve_spd is original


def test_self_time_excludes_wrapped_children():
    from dualnewton import linalg
    import numpy as np

    tr = tracer.Tracer().install(full=True)
    try:
        linalg.solve_spd(np.eye(3) * 2.0, np.ones(3))
    finally:
        tr.uninstall()
    spd, chol = tr.stats["linalg.solve_spd"], tr.stats["linalg.cholesky_lower"]
    assert spd.calls == chol.calls == 1
    assert spd.self_s == pytest.approx(spd.total_s - chol.total_s, abs=1e-9)


def _observed(runs, exit_code=0, grad=1e-9):
    return {
        "exit": exit_code,
        "runs": [list(r) for r in runs],
        "runs_detail": [list(r) + [grad] for r in runs],
    }


def test_gate_counts_pin_mismatch_and_bad_status():
    from dualnewton import RunConfig

    cfg = RunConfig.defaults("exp2", alphas=(0.0,), methods=("newton", "adam"))
    runs = [("newton_a+0.00", "Converged", 4), ("adam", "Converged", 300)]
    pinned = {"exit": 0, "runs": [list(r) for r in runs]}
    assert bench.gate(cfg, _observed(runs), pinned) == (0, [])
    moved = [runs[0], ("adam", "Converged", 301)]
    assert bench.gate(cfg, _observed(moved), pinned)[0] == 1
    singular = [("newton_a+0.00", "SingularHessian", 2), runs[1]]
    assert bench.gate(cfg, _observed(singular, exit_code=3), None)[0] == 2
    assert bench.gate(cfg, _observed(runs, grad=1.0), None)[0] == 2
    assert bench.gate(cfg, None, pinned)[0] == 2


def test_reference_clock_scales_by_probe_and_excludes_it(monkeypatch):
    import speed

    from dualnewton import optimizers

    monkeypatch.setattr(speed, "probe_seconds", lambda: 2 * speed.PROBE_REF_S)
    clock = speed.ReferenceClock()
    real, start = time.perf_counter(), clock()
    clock.probe()
    clock.probe()
    elapsed_real = time.perf_counter() - real
    # the machine reads as half the reference speed: half the real time passes
    assert 0.0 <= clock() - start <= 0.5 * elapsed_real + 1e-6
    record = optimizers.OptimizerTrace.record
    clock.install()
    assert optimizers.OptimizerTrace.record is not record
    clock.uninstall()
    assert optimizers.OptimizerTrace.record is record
