import csv
import hashlib
import json
import os
import py_compile
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualnewton import cli, experiments, objectives
from dualnewton.experiments import (
    ConfigError,
    RunConfig,
    TargetSpec,
    gen_dataset,
    gen_target,
    run_experiment,
    spd_failure_probe,
)
from dualnewton.errors import DivergenceUndefined, MomentInfeasible, QuadratureUnderflow
from dualnewton.models import loglinear
from dualnewton.models.loglinear import SubsetIndex

from helpers import run_python


# ---- target generation ------------------------------------------------------


def test_gen_target_coordinates_shrink_with_subset_size():
    spec = gen_target(4, base_scale=1.0, seed=3)
    for subset, theta in zip(spec.index.subsets, spec.theta):
        assert abs(theta) <= 1.0 / len(subset)


def test_gen_target_scale_zero_gives_uniform_moments():
    spec = gen_target(3, base_scale=0.0, seed=5)
    eta = spec.moments_for(SubsetIndex.boltzmann(3))
    for subset, value in zip(SubsetIndex.boltzmann(3).subsets, eta):
        expected = 0.5 if len(subset) == 1 else 0.25
        assert abs(value - expected) < 1e-12


def test_gen_target_deterministic_in_seed():
    a = gen_target(3, seed=11)
    b = gen_target(3, seed=11)
    c = gen_target(3, seed=12)
    assert a.theta == b.theta
    assert a.theta != c.theta


def test_gen_target_rejects_oversized_index():
    with pytest.raises(ConfigError):
        gen_target(13)


def test_target_spec_round_trip():
    spec = gen_target(3, base_scale=0.7, seed=9)
    payload = spec.to_dict()
    assert set(payload["theta"]) == set(SubsetIndex.full(3).keys())
    full = SubsetIndex.full(3)
    again = TargetSpec(
        n_vars=payload["n_vars"],
        theta=tuple(payload["theta"][key] for key in full.keys()),
        base_scale=payload["base_scale"],
        seed=payload["seed"],
    )
    assert again == spec


def test_target_moments_agree_with_direct_enumeration():
    spec = gen_target(2, seed=1)
    eta = spec.moments_for(spec.index)
    direct = np.zeros(len(spec.index.subsets))
    theta = np.array(spec.theta)
    # brute force over the 4 binary states
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]
    feats = np.array(
        [
            [all(x[v - 1] for v in subset) for subset in spec.index.subsets]
            for x in states
        ],
        dtype=float,
    )
    weights = np.exp(feats @ theta)
    weights /= weights.sum()
    direct = weights @ feats
    assert_allclose(eta, direct, atol=1e-12)


def test_gen_dataset_matches_mixture_support():
    model, data = gen_dataset(n_samples=50, seed=4, quad_nodes=24)
    assert data.shape == (50, 2)
    assert np.all((data > 0) & (data < 1))
    _, again = gen_dataset(n_samples=50, seed=4, quad_nodes=24)
    assert_allclose(data, again)


# ---- run configuration ------------------------------------------------------


def test_defaults_reflect_experiment():
    c1 = RunConfig.defaults("exp1")
    assert c1.alphas == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert c1.methods == ("newton", "natgrad", "mirror", "adam")
    assert c1.lambda1 == 0.5 and c1.lambda2 == 0.5 and c1.n == 4
    c2 = RunConfig.defaults("exp2")
    assert c2.alphas == (-0.4, -0.2, 0.0, 0.2, 0.4)
    assert "mirror" not in c2.methods
    c3 = RunConfig.defaults("exp3")
    assert c3.grad_tol == 1e-8
    assert c3.alphas == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_defaults_accept_overrides():
    cfg = RunConfig.defaults("exp1", alphas=(0.5,), seed=7, grad_tol=1e-4)
    assert cfg.alphas == (0.5,) and cfg.seed == 7 and cfg.grad_tol == 1e-4


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp9")
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp1", alphas=(2.0,))
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp1", methods=("sgd",))
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp2", methods=("mirror",))
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp1", grad_tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp1", max_iters=0)
    with pytest.raises(ConfigError):
        RunConfig.defaults("exp1", n=13)


# ---- experiment runner ------------------------------------------------------


def _quick_exp1(**overrides):
    values = dict(alphas=(0.0,), methods=("newton", "natgrad"), n=3, seed=0)
    values.update(overrides)
    return RunConfig.defaults("exp1", **values)


def test_run_writes_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    code, results = run_experiment(_quick_exp1(), out_dir=str(out))
    assert code == 0
    names = sorted(os.listdir(out))
    assert "run_config.json" in names
    assert "target.json" in names
    assert "plot.py" in names
    assert "newton_a+0.00.csv" in names and "newton_a+0.00.summary.json" in names
    assert "natgrad.csv" in names and "natgrad.summary.json" in names
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["experiment"] == "exp1"
    assert len(echo["init_point"]) == len(SubsetIndex.boltzmann(3).subsets)
    target = json.loads((out / "target.json").read_text())
    assert target["n_vars"] == 3


def _trace_rows(out):
    """Every trace CSV of a run directory without its time column."""
    rows = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), newline="") as fh:
                rows[name] = [row[:-1] for row in csv.reader(fh)]
    return rows


def test_exp1_traces_do_not_depend_on_the_point_memo(tmp_path, monkeypatch):
    # the log-linear readers share one pass per point through a cache;
    # with the cache off every reader makes its own pass, with the same bits
    cfg = RunConfig.defaults("exp1", seed=0)
    assert cfg.n == 4 and set(cfg.methods) == {"newton", "natgrad", "mirror", "adam"}
    kept = tmp_path / "kept"
    run_experiment(cfg, out_dir=str(kept))
    cache = loglinear._pass
    cached = cache.cache_info()
    assert cached.hits > 0
    monkeypatch.setattr(loglinear, "_pass", cache.__wrapped__)
    fresh = tmp_path / "fresh"
    run_experiment(cfg, out_dir=str(fresh))
    assert cache.cache_info() == cached
    expected = _trace_rows(kept)
    assert len(expected) == 5 + 3
    assert _trace_rows(fresh) == expected


def _openblas():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or not _openblas(),
    reason="needs OpenBLAS and two CPUs to run it on two threads",
)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="weighted_gram's GEMM (C * w)^T @ C, which builds G and the "
    "contracted cumulant, is split across OpenBLAS threads above a size "
    "threshold, so at n = 9 its summation order, and the trace's last "
    "bits, depend on the thread count",
)
def test_exp1_traces_do_not_depend_on_the_blas_thread_count(tmp_path):
    # exp1 n = 9, Newton at alpha = 1 (5 steps), in two fresh interpreters
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        args = ["--experiment", "exp1", "--n", "9", "--method", "newton"]
        args += ["--alpha", "1", "--seed", "0", "--out", str(out)]
        proc = run_python(
            ["-m", "dualnewton", "run", *args], tmp_path, OPENBLAS_NUM_THREADS=threads
        )
        # a failed run is an error, not the expected failure
        proc.check_returncode()
        rows.append(_trace_rows(out))
    assert rows[0] == rows[1]


def test_summary_iteration_count_matches_csv_rows(tmp_path):
    out = tmp_path / "run"
    run_experiment(_quick_exp1(), out_dir=str(out))
    for name in os.listdir(out):
        if not name.endswith(".summary.json"):
            continue
        summary = json.loads((out / name).read_text())
        with open(out / name.replace(".summary.json", ".csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["iterations"] == len(rows)
        assert summary["status"] == "Converged"
        if rows:
            assert summary["final_grad_l2"] == float(rows[-1]["grad_l2"])


def _rows_without_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("time_s")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def test_rerun_traces_identical_except_time(tmp_path):
    cfg = RunConfig.defaults("exp2", alphas=(0.2,), methods=("newton", "natgrad"))
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        if name.endswith(".csv"):
            assert _rows_without_time(tmp_path / "a" / name) == _rows_without_time(
                tmp_path / "b" / name
            )


def _trace_digest(out):
    """SHA-256 over a run directory's trace CSVs, file names included,
    with the last field (time_s) cut from every line."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            h.update(name.encode())
            with open(os.path.join(out, name)) as fh:
                for line in fh:
                    h.update(line.rstrip("\n").rsplit(",", 1)[0].encode())
                    h.update(b"\n")
    return h.hexdigest()


# The bits of every trace row: a change that keeps the arithmetic keeps
# these.  A change that moves them on purpose declares the digest change
# and re-derives the pin here; it does not delete it.  The digests are
# those of float64 arithmetic with the numpy, scipy and BLAS builds the
# suite runs on, which may round differently elsewhere.
TRACE_DIGESTS = {
    "exp2": (
        RunConfig.defaults("exp2"),
        "10160c917c576c63497021d1b49c3d3c64786e6c02d8954d56f8243e7878aa5f",
    ),
    "exp1_n3": (
        RunConfig.defaults("exp1", n=3),
        "6b8fc7445b04dc56c84da8ac67b0e352dd97331a17fb6331fe39d397bb127993",
    ),
    # Newton on the mixture's finite-difference Jacobian, 5 steps per alpha
    "exp3_small": (
        RunConfig.defaults(
            "exp3", n_samples=400, quad_nodes=16, methods=("newton", "natgrad")
        ),
        "f3bdbfd620ecb19453a47794e33dbbc57d7c6591e3fec6e3a9d637ca466ee590",
    ),
    # Adam on the mixture: a node pass and a data pass per iteration
    "exp3_adam_small": (
        RunConfig.defaults("exp3", n_samples=400, quad_nodes=16, methods=("adam",)),
        "9b8947b049460106828c0f9e7c90d89c91e817888993dbcb83a2cadde94fb5db",
    ),
    # mirror descent whose moment inversions stall: one spends its
    # 200-iteration budget and three stop at a fixed point
    "exp1_mirror_stalls": (
        RunConfig.defaults("exp1", seed=20, methods=("mirror",)),
        "a4e9ecb330bd8cda01d3686216f88b738ddacf22990c8ff234e4dc13fc9e27be",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_the_trace_digests_are_pinned(tmp_path, name):
    cfg, digest = TRACE_DIGESTS[name]
    code, _ = run_experiment(cfg, out_dir=str(tmp_path))
    assert code == 0
    assert _trace_digest(tmp_path) == digest


def test_plot_script_renders_png(tmp_path):
    out = tmp_path / "run"
    cfg = RunConfig.defaults("exp2", alphas=(0.0,), methods=("newton",))
    run_experiment(cfg, out_dir=str(out))
    assert (out / "plot.py").exists()
    py_compile.compile(
        str(out / "plot.py"), cfile=str(tmp_path / "plot.pyc"), doraise=True
    )
    pytest.importorskip("matplotlib", reason="plot extra not installed")
    env = dict(os.environ, MPLBACKEND="Agg")
    proc = subprocess.run(
        [sys.executable, str(out / "plot.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "convergence.png").exists()


def test_reference_polish_does_not_hide_foreign_errors(tmp_path, monkeypatch):
    # only package errors mean "polishing cannot improve the iterate"
    def broken(*args, **kwargs):
        raise RuntimeError("optimizer bug")

    monkeypatch.setattr(experiments, "dual_newton_run", broken)
    with pytest.raises(RuntimeError, match="optimizer bug"):
        run_experiment(_quick_exp1(methods=("natgrad",)), out_dir=str(tmp_path))


def test_reference_polish_takes_at_most_three_newton_steps(tmp_path, monkeypatch):
    # on exp3 the polish stalls at the rounding floor of the mixture's
    # gradient, above its 1e-12 tolerance, and falls back to the best iterate
    polishes = []
    newton = experiments.dual_newton_run

    def recorded(structure, obj, xi0, stop=None, **kwargs):
        trace = newton(structure, obj, xi0, stop, **kwargs)
        if stop.grad_tol < 1e-11:
            polishes.append(trace)
        return trace

    monkeypatch.setattr(experiments, "dual_newton_run", recorded)
    cfg = RunConfig.defaults("exp3", alphas=(0.0,), methods=("newton",))
    code, results = run_experiment(cfg, out_dir=str(tmp_path))
    assert code == 0
    assert results[0].status == "Converged"
    assert len(polishes) == 1
    assert polishes[0].n_iterations <= 3


def test_exp3_computes_one_jacobian_per_point(tmp_path, monkeypatch):
    # Newton at each of the five alphas starts from MIXTURE_INIT, and the
    # objective's Jacobian there does not depend on alpha: seed 0 asks
    # for 26 Jacobians, the polish's included, at 22 distinct points
    asked, computed = [], []
    jacobian = objectives.BetaMixtureNLL.grad_field_jacobian
    fd = objectives.fd_jacobian

    def asked_for(obj, xi):
        asked.append(xi.tobytes())
        return jacobian(obj, xi)

    def computed_at(field, xi):
        computed.append(xi.tobytes())
        return fd(field, xi)

    monkeypatch.setattr(objectives.BetaMixtureNLL, "grad_field_jacobian", asked_for)
    monkeypatch.setattr(objectives, "fd_jacobian", computed_at)
    code, _ = run_experiment(RunConfig.defaults("exp3", seed=0), out_dir=str(tmp_path))
    assert code == 0
    assert len(asked) == 26
    assert len(computed) == len(set(computed)) == len(set(asked)) == 22
    cached = objectives._mixture_jacobian.cache_info()
    assert (cached.hits, cached.misses) == (4, 22)


def test_singular_hessian_run_exits_3(tmp_path):
    cfg = RunConfig.defaults(
        "exp1",
        alphas=(-1.0,),
        methods=("newton",),
        lambda1=0.3,
        lambda2=0.8,
        n=3,
        seed=1,
    )
    code, results = run_experiment(cfg, out_dir=str(tmp_path))
    assert code == 3
    assert results[0].status == "SingularHessian"
    # artifacts still land so the failure can be inspected
    assert (tmp_path / "newton_a-1.00.csv").exists()
    summary = json.loads((tmp_path / "newton_a-1.00.summary.json").read_text())
    assert summary["status"] == "SingularHessian"


def test_expected_failure_downgrades_exit_code():
    cfg = RunConfig.defaults(
        "exp1",
        alphas=(-1.0,),
        methods=("newton",),
        lambda1=0.3,
        lambda2=0.8,
        n=3,
        seed=1,
        expect_failure=True,
    )
    code, _ = run_experiment(cfg)
    assert code == 0


def test_exp3_dataset_artifact(tmp_path):
    cfg = RunConfig.defaults(
        "exp3",
        alphas=(0.5,),
        methods=("newton",),
        n_samples=100,
        quad_nodes=24,
        grad_tol=1e-6,
    )
    code, _ = run_experiment(cfg, out_dir=str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "dataset.json").read_text())
    assert len(payload["points"]) == 100
    _, data = gen_dataset(100, 0, 24)
    assert_allclose(np.array(payload["points"]), data)


def test_probe_counts_certificate_failures():
    # exp1's projection at n = 3 with lambda = (0.3, 0.8), 20 starts per alpha
    report = spd_failure_probe()
    assert list(report) == [0.0, -1.0, 1.0]
    assert report == {
        0.0: {"runs": 20, "failures": 18, "all_spd": False},
        -1.0: {"runs": 20, "failures": 20, "all_spd": False},
        1.0: {"runs": 20, "failures": 0, "all_spd": True},
    }


# ---- command line -----------------------------------------------------------


def test_cli_choices_are_the_experiment_and_method_tuples():
    command = next(a for a in cli.build_parser()._actions if a.dest == "command")
    choices = {a.dest: a.choices for a in command.choices["run"]._actions}
    assert choices["experiment"] is experiments.EXPERIMENTS
    assert choices["methods"] is experiments.METHODS
    assert RunConfig.defaults("exp1").methods is experiments.METHODS


def test_cli_gen_target_stdout(capsys):
    assert cli.main(["gen-target", "--n", "2", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["theta"]) == {"1", "2", "1,2"}


def test_cli_gen_data_writes_file(tmp_path):
    out = tmp_path / "data.json"
    rc = cli.main(
        ["gen-data", "--n-samples", "8", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["points"]) == 8
    assert payload["weights"] == [0.35, 0.4, 0.25]


def test_cli_run_success(tmp_path):
    rc = cli.main(
        ["run", "--experiment", "exp2", "--alpha", "0.0", "--method", "newton",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    assert (tmp_path / "out" / "newton_a+0.00.csv").exists()


def test_cli_run_failure_and_expectation(tmp_path):
    argv = [
        "run", "--experiment", "exp1", "--alpha", "-1.0", "--method", "newton",
        "--lambda1", "0.3", "--lambda2", "0.8", "--n", "3", "--seed", "1",
        "--out", str(tmp_path / "f"),
    ]
    assert cli.main(argv) == 3
    assert cli.main(argv + ["--expect-failure"]) == 0


def test_cli_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "exp2",
                "alphas": [0.2],
                "methods": ["newton"],
                "grad_tol": 1e-5,
            }
        )
    )
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(config), "--tol", "1e-4",
                   "--out", str(out)])
    assert rc == 0
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["grad_tol"] == 1e-4
    assert echo["alphas"] == [0.2]
    # an experiment given both ways: the flag wins, as for every field
    rc = cli.main(["run", "--config", str(config), "--experiment", "exp2",
                   "--out", str(out)])
    assert rc == 0


def test_cli_bad_inputs_exit_4(tmp_path):
    assert cli.main(["run", "--experiment", "exp1", "--alpha", "7"]) == 4
    assert cli.main(["run", "--tol", "1e-6"]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 4
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"experiment": "exp2", "turbo": True}))
    assert cli.main(["run", "--config", str(unknown)]) == 4
    # values that pass a plain `<= 0` test, or have the wrong type
    for flags in (
        ["--experiment", "exp1", "--tol", "nan"],
        ["--experiment", "exp1", "--adam-lr", "nan"],
        ["--experiment", "exp1", "--lambda1", "nan"],
        ["--experiment", "exp1", "--seed", "-1"],
        ["--experiment", "exp2", "--sigma0", "-1"],
        ["--experiment", "exp2", "--mu0", "inf"],
    ):
        assert cli.main(["run", *flags, "--out", str(tmp_path / "o")]) == 4, flags
    for fields in (
        {"grad_tol": "x"},
        {"n": True},
        {"max_iters": 2.5},
        {"alphas": ["x"]},
        {"alphas": 0.5},
        {"methods": [["newton"]]},
        {"out": 5},
        {"experiment": {}},
    ):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({"experiment": "exp2", **fields}))
        assert cli.main(["run", "--config", str(typed)]) == 4, fields
    assert cli.main(["gen-target", "--base-scale", "nan"]) == 4
    assert cli.main(["gen-target", "--base-scale", "-1"]) == 4
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--bogus"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 4


@pytest.mark.parametrize(
    "overrides, shared",
    [
        # alpha labels carry two decimals
        (dict(alphas=(0.001, 0.004), methods=("newton",)), "['newton_a+0.00']"),
        (dict(alphas=(0.0,), methods=("adam", "adam")), "['adam']"),
    ],
)
def test_config_rejects_runs_that_share_a_label(overrides, shared):
    with pytest.raises(ConfigError, match=re.escape(shared)):
        RunConfig.defaults("exp2", **overrides)


def test_cli_runs_that_share_a_label_exit_4(tmp_path, capsys):
    out = str(tmp_path / "o")
    argv = ["run", "--experiment", "exp2", "--alpha", "0.001", "--alpha", "0.004"]
    assert cli.main([*argv, "--method", "newton", "--out", out]) == 4
    assert "newton_a+0.00" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_config_error_inside_a_run_exits_4(tmp_path, monkeypatch, capsys):
    # a ConfigError is a ValueError, not an optimizer failure, so it
    # passes the run's DualNewtonError handler and main maps it to 4
    def rejecting(cfg):
        raise ConfigError("rejected inside the run")

    monkeypatch.setattr(cli, "run_experiment", rejecting)
    out = str(tmp_path / "o")
    assert cli.main(["run", "--experiment", "exp1", "--out", out]) == 4
    assert "configuration error: rejected inside the run" in capsys.readouterr().err


def test_cli_exp2_start_outside_the_integrable_region_exits_4(tmp_path, capsys):
    # at sigma0 = 0.5 a variance factor of the divergence is negative, so
    # the start is rejected like an infeasible exp1 target, before any run
    out = str(tmp_path / "o")
    argv = ["run", "--experiment", "exp2", "--sigma0", "0.5", "--out", out]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "integrability fails" in err
    assert not os.path.exists(out)


def test_cli_exp2_start_off_the_gaussian_chart_exits_4(tmp_path, capsys):
    # sigma0 = 1e200 is positive, but its square overflows: the model's
    # check refuses the start as a configuration error, as at sigma0 = 0.5,
    # not as an optimizer failure inside the runs
    out = str(tmp_path / "o")
    argv = ["run", "--experiment", "exp2", "--sigma0", "1e200", "--out", out]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "sigma^2 overflows" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "experiment, builder, error",
    [
        ("exp1", "KLProjectionObjective", MomentInfeasible),
        ("exp2", "AlphaDivergenceObjective", DivergenceUndefined),
        ("exp3", "BetaMixtureNLL", QuadratureUnderflow),
    ],
)
def test_a_point_error_while_a_problem_is_built_is_a_config_error(
    monkeypatch, experiment, builder, error
):
    # the problem has no usable point, so the configuration cannot run
    def refusing(*args, **kwargs):
        raise error("planted in the problem's set-up")

    monkeypatch.setattr(experiments, builder, refusing)
    with pytest.raises(ConfigError, match=f"{experiment} problem: planted") as raised:
        run_experiment(RunConfig.defaults(experiment, n_samples=10))
    assert isinstance(raised.value.__cause__, error)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-target", "--seed", "-1"],
        ["gen-data", "--seed", "-1"],
        ["gen-data", "--n-samples", "-1"],
        ["gen-data", "--n-samples", "0"],
        ["validate", "--quad-nodes", "0"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[1][1:]}={argv[2]}",
)
def test_cli_generators_reject_out_of_range_counts(argv, capsys):
    # the bounds RunConfig.validate puts on seed, n_samples and quad_nodes
    assert cli.main(argv) == 4
    assert "configuration error" in capsys.readouterr().err


def test_cli_validate_reports_and_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["validate", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) >= 10
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
