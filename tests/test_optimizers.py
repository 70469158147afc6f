import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import geometry, linalg, optimizers as opt
from dualnewton.errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainViolation,
    InsufficientIterations,
    LineSearchFailure,
    MomentInfeasible,
    NonFiniteValue,
    NotPositiveDefinite,
    QuadratureUnderflow,
    SingularMatrix,
)
from dualnewton.experiments import MIXTURE_INIT, gen_dataset
from dualnewton.geometry import DualStructure
from dualnewton.linalg import solve_spd
from dualnewton.models import betamix, gaussian, loglinear
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

from helpers import (
    Evaluation,
    Objective,
    count_calls,
    euclidean_structure,
    point_check,
)

FIXED = dict(derandomize=True, deadline=None, database=None)


def scalar_problem(lam=0.5):
    index = loglinear.SubsetIndex.boltzmann(1)
    obj = KLProjectionObjective(index, np.array([0.5]), lam, 0.0)
    return index, obj, loglinear.dual_structure(index, 1.0)


def quadratic_objective(center):
    # the Jacobian is exact under the identity metric of the structures
    # these tests run it on, where the gradient field is x - center
    center = np.asarray(center, dtype=float)
    return Objective(
        dim=center.size,
        value=lambda x: 0.5 * float((x - center) @ (x - center)),
        eucl_grad=lambda x: x - center,
        grad_field_jacobian=lambda x: np.eye(center.size),
    )


def kl_problem(n=3, lam1=0.0, lam2=0.0, alpha=1.0, seed=2):
    rng = np.random.default_rng(seed)
    index = loglinear.SubsetIndex.boltzmann(n)
    eta_hat = loglinear.moments(index, rng.uniform(-0.5, 0.5, len(index)))
    obj = KLProjectionObjective(index, eta_hat, lam1, lam2)
    return index, obj, loglinear.dual_structure(index, alpha), rng


# ---- stop rule and trace ---------------------------------------------------


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        opt.StopRule(grad_tol=0.0)
    with pytest.raises(ValueError):
        opt.StopRule(max_iters=-1)
    rule = opt.StopRule()
    assert rule.grad_tol == 1e-6 and rule.max_iters == 10000


def test_trace_rejects_nonincreasing_iters():
    tr = opt.OptimizerTrace()
    tr.record(1, 1.0, 0.1, 0.1, 0.5, True, 0.1)
    with pytest.raises(ValueError):
        tr.record(1, 0.5, 0.05, 0.05, 0.2, True, 0.2)
    with pytest.raises(ValueError):
        tr.record(2, 0.5, 0.05, 0.05, 0.2, True, 0.05)


def test_trace_csv_round_trip(tmp_path):
    tr = opt.OptimizerTrace()
    tr.record(1, 0.125, 0.1, 0.2, 0.3, True, 0.01)
    tr.record(2, 0.0625, 0.05, 0.1, 0.15, False, 0.02)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "f", "grad_l2", "grad_gnorm", "step_norm", "spd", "time_s"]
    assert rows[1][0] == "1" and float(rows[1][1]) == 0.125 and rows[1][5] == "1"
    assert rows[2][5] == "0"
    assert len(rows) == 3


def test_trace_csv_writes_each_float_as_its_repr(tmp_path):
    tr = opt.OptimizerTrace()
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1 + 0.2]
    for it, v in enumerate(values, start=1):
        tr.record(it, v, v, v, v, it % 2 == 1, 0.1 * it)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    expected = ["iter,f,grad_l2,grad_gnorm,step_norm,spd,time_s"] + [
        ",".join([str(it)] + [repr(v)] * 4 + [str(it % 2), repr(0.1 * it)])
        for it, v in enumerate(values, start=1)
    ]
    with open(path, newline="") as fh:
        assert fh.read() == "\r\n".join(expected) + "\r\n"


TRACE_HEADER = ["iter", "f", "grad_l2", "grad_gnorm", "step_norm", "spd", "time_s"]


def _csv_writer_bytes(trace, path):
    """The trace written row by row through ``csv.writer``."""
    columns = (
        trace.iters,
        trace.f_values,
        trace.grad_l2,
        trace.grad_gnorm,
        trace.step_norms,
        map(int, trace.spd_flags),
        trace.times,
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(zip(*columns))
    return path.read_bytes()


# any float: every magnitude, subnormals, +-0.0, +-inf and NaN
any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, **FIXED)
@given(
    rows=st.lists(
        st.tuples(any_float, any_float, any_float, any_float, st.booleans(), any_float),
        max_size=30,
    ),
    first=st.integers(0, 10**12),
)
def test_trace_csv_has_the_bytes_of_csv_writer(tmp_path_factory, rows, first):
    # the columns are set directly, so no value is refused by record()
    tr = opt.OptimizerTrace()
    tr.iters = list(range(first, first + len(rows)))
    for name, column in zip(
        ("f_values", "grad_l2", "grad_gnorm", "step_norms", "spd_flags", "times"),
        zip(*rows) if rows else [()] * 6,
    ):
        setattr(tr, name, list(column))
    directory = tmp_path_factory.mktemp("csv")
    tr.write_csv(directory / "ours.csv")
    ours = (directory / "ours.csv").read_bytes()
    assert ours == _csv_writer_bytes(tr, directory / "theirs.csv")


def test_an_empty_trace_writes_the_header_alone(tmp_path):
    opt.OptimizerTrace().write_csv(tmp_path / "ours.csv")
    ours = (tmp_path / "ours.csv").read_bytes()
    assert ours == _csv_writer_bytes(opt.OptimizerTrace(), tmp_path / "theirs.csv")
    assert ours == b"iter,f,grad_l2,grad_gnorm,step_norm,spd,time_s\r\n"


def test_trace_summary_counts():
    tr = opt.OptimizerTrace()
    assert tr.summary()["iterations"] == 0
    tr.record(1, 1.0, 0.1, 0.1, 0.5, True, 0.1)
    s = tr.summary()
    assert s["iterations"] == 1 and s["final_f"] == 1.0
    json.dumps(s)


# ---- shared iteration loop -------------------------------------------------


def run_method(method, index, ds, obj, xi0, stop=None):
    """Run any of the four methods; mirror descent takes the index."""
    problem = index if method is opt.mirror_descent_run else ds
    return method(problem, obj, xi0, stop)


ALL_RUNS = pytest.mark.parametrize(
    "method",
    [
        opt.dual_newton_run,
        opt.natural_gradient_run,
        opt.mirror_descent_run,
        opt.adam_run,
    ],
    ids=lambda m: m.__name__,
)


@ALL_RUNS
def test_stationary_start_zero_iterations(method):
    index, obj, ds, _ = kl_problem(2)
    tr = run_method(method, index, ds, obj, obj._theta_hat)
    assert tr.status == opt.CONVERGED
    assert tr.n_iterations == 0
    assert len(tr.iterates) == 1


@ALL_RUNS
def test_rejects_start_outside_domain(method):
    # the start raises what the model's point check raises there
    if method is opt.mirror_descent_run:
        # the log-linear chart is all of R^m; only non-finite points leave it
        index, obj, ds, _ = kl_problem(2)
        xi0, error, cause = np.full(len(index), np.nan), NonFiniteValue, "finite"
    else:
        index = None
        ds = euclidean_structure(1, inside=lambda xi: xi[0] > 0)
        obj = quadratic_objective([2.0])
        xi0, error, cause = np.array([-1.0]), DomainViolation, "outside the domain"
    with pytest.raises(error, match=cause):
        run_method(method, index, ds, obj, xi0)


@ALL_RUNS
def test_a_start_of_the_wrong_length_is_a_dimension_mismatch(method):
    index, obj, ds, _ = kl_problem(2)
    with pytest.raises(DimensionMismatch):
        run_method(method, index, ds, obj, np.zeros(len(index) + 1))


@pytest.mark.parametrize(
    "method",
    [opt.dual_newton_run, opt.natural_gradient_run, opt.adam_run],
    ids=lambda m: m.__name__,
)
def test_a_start_off_the_gaussian_chart_names_its_cause(method):
    obj = Objective(dim=2, value=lambda x: 0.0, eucl_grad=lambda x: np.zeros(2))
    start = np.array([0.0, 1e200])
    with pytest.raises(DomainViolation, match="sigma\\^2 overflows at sigma = 1e\\+200"):
        method(gaussian.dual_structure(0.0), obj, start)


# the third inner iterate of a moment inversion near a vertex of the
# Boltzmann(4) polytope: f and grad are finite there, but the solve
# against G overflows a = G^{-1} grad
NON_FINITE_SOLVE_THETA = np.array(
    [3.1885503287566275, 3.2671012681152867, -1.5856652817161927,
     -1.4427850784689826, 6.809746741020713, -3.918662015565969,
     -4.190757740179853, -3.974144625577956, -4.277764279445162,
     -710.1431617234756]
)


@ALL_RUNS
def test_a_start_whose_gradient_coordinates_overflow_raises(method):
    # each method raises the solve's NonFiniteValue at the start; Newton
    # once ended there as SingularHessian, Adam as DomainFailure, and the
    # line searches raised a ValueError of their own
    index = loglinear.SubsetIndex.boltzmann(4)
    eta_hat = loglinear.moments(index, np.full(len(index), 0.1))
    obj = KLProjectionObjective(index, eta_hat, 0.0, 0.0)
    f, grad = obj.value_and_grad(NON_FINITE_SOLVE_THETA)
    assert math.isfinite(f) and np.isfinite(grad).all()
    ds = loglinear.dual_structure(index, 0.0)
    with pytest.raises(NonFiniteValue, match="infinite solution"):
        run_method(method, index, ds, obj, NON_FINITE_SOLVE_THETA)


@ALL_RUNS
@pytest.mark.parametrize("bad", ["value", "gradient"])
def test_a_non_finite_start_names_its_cause(method, bad):
    index, obj, ds, _ = kl_problem(2)
    value, grad = obj.value, obj.eucl_grad
    if bad == "value":
        value = lambda x: np.nan
    else:
        grad = lambda x: np.full(len(index), np.nan)
    broken = Objective(dim=obj.dim, value=value, eucl_grad=grad)
    with pytest.raises(NonFiniteValue, match=r"starting point \[0.1 0.1 0.1\]"):
        run_method(method, index, ds, broken, np.full(len(index), 0.1))


def counting_objective(obj):
    """Wrap obj so that its value and gradient calls are counted."""
    counts = {"value": 0, "eucl_grad": 0}

    def counted(name, fn):
        def call(x):
            counts[name] += 1
            return fn(x)

        return call

    wrapped = Objective(
        dim=obj.dim,
        value=counted("value", obj.value),
        eucl_grad=counted("eucl_grad", obj.eucl_grad),
    )
    return wrapped, counts


@pytest.mark.parametrize(
    "method, expected",
    [
        # the line searches take the value at the iterate from the loop's
        # record, and each trial point's value and gradient from one
        # value_and_grad call, which Objective makes as one of each
        (opt.natural_gradient_run, {"value": 24, "eucl_grad": 24}),
        (opt.mirror_descent_run, {"value": 18, "eucl_grad": 18}),
    ],
    ids=["natgrad", "mirror"],
)
def test_line_search_runs_reuse_the_iterate_value(method, expected):
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)
    counted, counts = counting_objective(obj)
    x0 = np.full(len(index), 0.2)
    tr = run_method(method, index, ds, counted, x0, opt.StopRule(max_iters=5))
    assert tr.n_iterations == 5
    assert counts == expected


class RecordingObjective:
    """Wraps obj and records which entry point evaluated which point."""

    def __init__(self, obj):
        self.obj = obj
        self.dim = obj.dim
        self.calls = []

    def _record(self, name, x):
        self.calls.append((name, np.asarray(x, dtype=float).tobytes()))

    def value(self, x):
        self._record("value", x)
        return self.obj.value(x)

    def eucl_grad(self, x):
        self._record("eucl_grad", x)
        return self.obj.eucl_grad(x)

    def value_and_grad(self, x):
        self._record("value_and_grad", x)
        return self.obj.value_and_grad(x)

    def grad_field_jacobian(self, x):
        self._record("grad_field_jacobian", x)
        return self.obj.grad_field_jacobian(x)


@ALL_RUNS
def test_runs_measure_the_start_with_one_value_and_grad_call(method):
    # the start is measured like every accepted point: one value_and_grad
    # call, whose value the line searches then read as phi(0); Newton
    # then takes the objective's Jacobian there for its first step
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)
    recorded = RecordingObjective(obj)
    x0 = np.full(len(index), 0.2)
    tr = run_method(method, index, ds, recorded, x0, opt.StopRule(max_iters=3))
    assert tr.n_iterations == 3
    jacobian = ["grad_field_jacobian"] if method is opt.dual_newton_run else []
    assert [name for name, x in recorded.calls if x == x0.tobytes()] == [
        "value_and_grad"
    ] + jacobian


def _assert_each_point_evaluated_once(recorded):
    """Each point is evaluated by one value_and_grad call, and Newton
    reads the objective's Jacobian once at each iterate it steps from,
    a point it has evaluated; returns those two lists of points."""
    names = {name for name, _ in recorded.calls}
    assert names <= {"value_and_grad", "grad_field_jacobian"}
    points = [x for name, x in recorded.calls if name == "value_and_grad"]
    jacobians = [x for name, x in recorded.calls if name == "grad_field_jacobian"]
    assert len(set(points)) == len(points)
    assert len(set(jacobians)) == len(jacobians)
    assert set(jacobians) <= set(points)
    return points, jacobians


@ALL_RUNS
def test_runs_evaluate_each_point_once_with_value_and_grad(method):
    # Wolfe trials, halvings and the accepted iterate each read one
    # record per point; Newton takes the exact Jacobian at each iterate
    # it steps from
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)
    recorded = RecordingObjective(obj)
    x0 = np.full(len(index), 0.2)
    tr = run_method(method, index, ds, recorded, x0, opt.StopRule(max_iters=5))
    assert tr.n_iterations >= 3
    _, jacobians = _assert_each_point_evaluated_once(recorded)
    steps = [p.tobytes() for p in tr.iterates[: tr.n_iterations]]
    assert jacobians == (steps if method is opt.dual_newton_run else [])


@pytest.mark.parametrize(
    "method",
    [opt.dual_newton_run, opt.natural_gradient_run],
    ids=["newton", "natgrad"],
)
def test_mixture_runs_evaluate_each_point_once_with_value_and_grad(monkeypatch, method):
    # the mixture's Jacobian is central differences of its own field:
    # each of its 2 dim probes makes one value_and_grad call and one pass
    # over the quadrature nodes, and is not a record of the run
    model, data = gen_dataset(200, 0, quad_nodes=16)
    calls = {}
    # a structure binds the model's node pass when it is built
    count_calls(monkeypatch, calls, "nodes", model)
    obj = BetaMixtureNLL(model, data)
    count_calls(monkeypatch, calls, "value_and_grad", obj)
    count_calls(monkeypatch, calls, "_factor", linalg)
    recorded = RecordingObjective(obj)
    ds = model.dual_structure(0.0)
    tr = method(ds, recorded, np.array(MIXTURE_INIT), opt.StopRule(max_iters=4))
    assert tr.n_iterations == 4
    points, jacobians = _assert_each_point_evaluated_once(recorded)
    probes = 2 * obj.dim * len(jacobians)
    assert len(jacobians) == (4 if method is opt.dual_newton_run else 0)
    assert calls["value_and_grad"] == len(points) + probes
    # the run's own node passes measure the iterates, here each once
    assert calls["nodes"] == len(tr.iterates) + probes
    # and each pass checks its metric once, where its factor is made,
    # however many solves and connections it then serves
    assert calls["_factor"] == calls["nodes"]


def test_mixture_jacobian_has_the_bits_of_probe_records():
    # central differences of the field as a run evaluates it at a point:
    # an evaluation record, measured, read for its gradient coordinates;
    # the same bits, and the same exception where a probe leaves the domain
    model, data = gen_dataset(200, 0, quad_nodes=16)
    obj = BetaMixtureNLL(model, data)
    ds = model.dual_structure(0.0)

    def probed(xi):
        point = ds.at(xi)
        field = lambda x: opt._Evaluation(point, obj, x).measure().a
        return linalg.fd_jacobian(field, point.xi)

    rng = np.random.default_rng(5)
    starts = [np.array(MIXTURE_INIT), model.generating_point()]
    starts += [np.array(MIXTURE_INIT) * rng.uniform(0.5, 2.0, obj.dim) for _ in range(3)]
    for xi in starts:
        assert obj.grad_field_jacobian(xi).tobytes() == probed(xi).tobytes()
    # a shape below the finite-difference step: the probe at xi - h is negative
    edge = np.array(MIXTURE_INIT)
    edge[2] = 1e-6
    for jacobian in (obj.grad_field_jacobian, probed):
        with pytest.raises(DomainViolation):
            jacobian(edge)


# ---- the trial guard -------------------------------------------------------


def _raising_once(fn, error, calls):
    """``fn``, except that its first call raises ``error``; ``calls``
    collects the positional arguments of every call."""

    def call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise error("planted in the trial's formation")
        return fn(*args, **kwargs)

    return call


TRIAL_ERRORS = pytest.mark.parametrize(
    "error", [NotPositiveDefinite, MomentInfeasible], ids=lambda e: e.__name__
)


@TRIAL_ERRORS
def test_newton_halves_a_step_whose_retraction_raises(monkeypatch, error):
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)
    calls = []
    retract = _raising_once(geometry.second_order_retract, error, calls)
    monkeypatch.setattr(opt, "second_order_retract", retract)
    tr = opt.dual_newton_run(ds, obj, np.full(len(index), 0.2))
    assert tr.status == opt.CONVERGED
    # the unit step raised while it was formed and was tried again at 1/2
    first, second = calls[0][2], calls[1][2]
    assert np.array_equal(second, 0.5 * first)
    assert len(calls) == tr.n_iterations + 1


@TRIAL_ERRORS
def test_mirror_rejects_a_trial_whose_pullback_raises(monkeypatch, error):
    index, obj, _, _ = kl_problem(3, 0.5, 0.5)
    theta0 = np.full(len(index), 0.2)
    eta, grad = loglinear.moments(index, theta0), obj.eucl_grad(theta0)
    calls = []
    invert = _raising_once(loglinear.moment_to_natural, error, calls)
    monkeypatch.setattr(loglinear, "moment_to_natural", invert)
    tr = opt.mirror_descent_run(index, obj, theta0)
    assert tr.status == opt.CONVERGED
    # the search's first length, 1, has no point, so it bisects to 1/2
    assert np.array_equal(calls[0][1], eta - 1.0 * grad)
    assert np.array_equal(calls[1][1], eta - 0.5 * grad)


@pytest.mark.parametrize("call, iterations", [(4, 147), (10, 95)])
def test_mirror_takes_a_probe_whose_geometry_raises_for_an_overshoot(
    monkeypatch, call, iterations
):
    # the slope at a Wolfe probe reads its geometry; where that raises a
    # point error the probe becomes the search's upper end, and the run
    # goes on instead of ending with the error
    index = loglinear.SubsetIndex.boltzmann(3)
    eta_hat = loglinear.moments(index, np.full(len(index), 0.3))
    obj = KLProjectionObjective(index, eta_hat, 0.5, 0.5)
    at, calls = DualStructure.at, []

    def spoiled(self, xi):
        calls.append(xi)
        if len(calls) == call:
            raise NotPositiveDefinite("planted in a probe's geometry")
        return at(self, xi)

    monkeypatch.setattr(DualStructure, "at", spoiled)
    stop = opt.StopRule(grad_tol=1e-8)
    tr = opt.mirror_descent_run(index, obj, np.zeros(len(index)), stop)
    assert tr.status == opt.CONVERGED and tr.n_iterations == iterations


@pytest.mark.parametrize(
    "error, status",
    [
        (DomainViolation, opt.DOMAIN_FAILURE),
        (DivergenceUndefined, opt.DOMAIN_FAILURE),
        (QuadratureUnderflow, opt.DOMAIN_FAILURE),
        (MomentInfeasible, opt.DOMAIN_FAILURE),
        (NonFiniteValue, opt.SINGULAR_HESSIAN),
        (NotPositiveDefinite, opt.SINGULAR_HESSIAN),
        (SingularMatrix, opt.SINGULAR_HESSIAN),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_newton_ends_in_the_status_of_its_jacobians_error(error, status):
    # a local model that cannot be built ends the run: in DomainFailure
    # for a point outside the model, in SingularHessian where the
    # arithmetic degenerates
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)

    def jacobian(xi):
        raise error("planted in the Jacobian")

    broken = Objective(obj.dim, obj.value, obj.eucl_grad, jacobian)
    tr = opt.dual_newton_run(ds, broken, np.full(len(index), 0.2))
    assert tr.status == status and tr.status in opt.FAILED
    assert tr.n_iterations == 0


def test_a_mirror_trial_whose_inversion_step_is_not_finite_is_rejected():
    # a Boltzmann(4) problem with its target near a vertex of the
    # polytope: a trial's inner Newton step comes out NaN, which once
    # escaped the run as NonFiniteValue in its first iteration
    index = loglinear.SubsetIndex.boltzmann(4)
    rng = np.random.default_rng(24)
    theta = rng.uniform(-6.0, 6.0, len(index))
    lam1, lam2 = rng.uniform(0.0, 0.5, 2)
    theta0 = rng.uniform(-15.0, 15.0, len(index))
    obj = KLProjectionObjective(index, loglinear.moments(index, theta), lam1, lam2)
    tr = opt.mirror_descent_run(index, obj, theta0, opt.StopRule(max_iters=2))
    assert tr.status == opt.MAX_ITERS and tr.n_iterations == 2


# ---- line search -----------------------------------------------------------


def test_wolfe_accepts_exact_quadratic_minimum():
    phi = lambda s: 0.5 * (1.0 - s) ** 2
    dphi = lambda s: s - 1.0
    assert opt.wolfe_line_search(phi, dphi) == 1.0


def test_wolfe_quartic_satisfies_both_conditions():
    phi = lambda s: (s - 2.0) ** 4
    dphi = lambda s: 4.0 * (s - 2.0) ** 3
    s = opt.wolfe_line_search(phi, dphi)
    assert phi(s) < phi(0.0)
    assert phi(s) <= phi(0.0) + 1e-4 * s * dphi(0.0)
    assert abs(dphi(s)) <= 0.9 * abs(dphi(0.0))


@settings(max_examples=200, **FIXED)
@given(
    b=st.floats(-10.0, -1e-3),
    a=st.floats(0.0, 10.0),
    d=st.floats(1e-3, 10.0),
)
def test_wolfe_step_meets_the_fixed_constants(b, a, d):
    # phi(s) = b s + a s^2/2 + d s^4/4 descends at 0 and has a minimizer
    phi = lambda s: b * s + 0.5 * a * s * s + 0.25 * d * s**4
    dphi = lambda s: b + a * s + d * s**3
    s = opt.wolfe_line_search(phi, dphi)
    assert s > 0.0
    assert phi(s) <= opt._WOLFE_C1 * s * b
    assert abs(dphi(s)) <= opt._WOLFE_C2 * abs(b)


def test_wolfe_handles_infinite_overshoot():
    # simulates a trial point outside the model domain
    phi = lambda s: np.inf if s > 0.75 else 0.5 * (1.0 - s) ** 2
    dphi = lambda s: s - 1.0
    s = opt.wolfe_line_search(phi, dphi)
    assert 0.0 < s <= 0.75
    assert phi(s) <= phi(0.0) + 1e-4 * s * dphi(0.0)


def test_wolfe_takes_a_non_finite_slope_for_an_overshoot():
    # the slope at a probe whose geometry cannot be read is NaN: the
    # probe at 1 becomes the upper end, and the search bisects below it
    phi = lambda s: 0.5 * (1.0 - s) ** 2
    dphi = lambda s: math.nan if s >= 1.0 else s - 1.0
    s = opt.wolfe_line_search(phi, dphi)
    assert 0.0 < s < 1.0
    assert abs(dphi(s)) <= opt._WOLFE_C2 * abs(dphi(0.0))


def test_wolfe_requires_descent_direction():
    with pytest.raises(ValueError):
        opt.wolfe_line_search(lambda s: s, lambda s: 1.0)


def test_wolfe_fails_on_unbounded_ray():
    with pytest.raises(LineSearchFailure):
        opt.wolfe_line_search(lambda s: -s, lambda s: -1.0)


def test_wolfe_with_slope_near_the_noise_floor():
    # slope at 0 three times the value noise allowance f_atol, minimizer
    # at s = 2e-4: with value noise inside the allowance the search finds
    # a strong Wolfe point; with noise above it, value tests steer the
    # zoom away from the minimizer and it fails, which the line-search
    # proposers then step over (exp3 seed 2 natgrad does this)
    f0 = 5000.0
    f_atol = opt._f_noise(f0)
    slope0 = -3.0 * f_atol
    curvature = -slope0 / 2e-4

    def dphi(s):
        return slope0 + curvature * s

    def phi_with_noise(amplitude):
        def phi(s):
            noise = amplitude * f_atol * np.sin(1e6 * s) if s else 0.0
            return f0 + slope0 * s + 0.5 * curvature * s * s + noise

        return phi

    s = opt.wolfe_line_search(phi_with_noise(0.5), dphi, f_atol=f_atol)
    assert abs(dphi(s)) <= 0.9 * -slope0
    with pytest.raises(LineSearchFailure, match="zoom interval degenerated"):
        opt.wolfe_line_search(phi_with_noise(1.5), dphi, f_atol=f_atol)


_WOLFE_C1, _WOLFE_C2 = opt._WOLFE_C1, opt._WOLFE_C2
_WOLFE_MAX_EVALS = opt._WOLFE_MAX_EVALS


def two_phase_wolfe_line_search(phi, dphi, f_atol=0.0):
    """Reference: the strong Wolfe search as a bracketing phase and a
    separate zoom, Nocedal & Wright Alg. 3.5 and 3.6 taken literally."""
    phi0 = float(phi(0.0))
    dphi0 = float(dphi(0.0))
    if not dphi0 < 0:
        raise ValueError(f"line derivative at 0 must be negative, got {dphi0}")

    evals = 0

    def take(s):
        nonlocal evals
        evals += 1
        if evals > _WOLFE_MAX_EVALS:
            raise LineSearchFailure(f"no Wolfe point in {_WOLFE_MAX_EVALS} evaluations")
        return float(phi(s))

    def zoom(lo, f_lo, hi):
        # invariant: lo satisfies Armijo, the Wolfe point lies between.
        # a trial only shrinks toward lo on value grounds when it is
        # resolvably worse than the start too; otherwise noise-level
        # fluctuations would steer the interval instead of the slope.
        while True:
            if abs(hi - lo) <= linalg.EPS * (1.0 + abs(lo)):
                raise LineSearchFailure(
                    f"zoom interval degenerated at s={lo} without a Wolfe point"
                )
            s = 0.5 * (lo + hi)
            fs = take(s)
            if not np.isfinite(fs) or fs > phi0 + _WOLFE_C1 * s * dphi0 + f_atol or (
                fs >= f_lo + f_atol and fs > phi0 + f_atol
            ):
                hi = s
                continue
            ds = float(dphi(s))
            if abs(ds) <= -_WOLFE_C2 * dphi0:
                return s
            if ds * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = s, fs

    prev_s, prev_f = 0.0, phi0
    s = 1.0
    first = True
    while True:
        fs = take(s)
        if not np.isfinite(fs) or fs > phi0 + _WOLFE_C1 * s * dphi0 + f_atol or (
            not first and fs >= prev_f + f_atol and fs > phi0 + f_atol
        ):
            return zoom(prev_s, prev_f, s)
        ds = float(dphi(s))
        if abs(ds) <= -_WOLFE_C2 * dphi0:
            return s
        if ds >= 0:
            return zoom(s, fs, prev_s)
        prev_s, prev_f = s, fs
        s *= 2.0
        first = False


def _line_problem(
    f0, noisy, slope_exp, minimizer_exp, quartic, amplitude, freq_exp, cut, bad
):
    """(phi, dphi, f_atol) of a drawn line problem.

    phi(s) = f0 + slope0 s + c s^2 / 2 + d s^4 / 4 + noise(s), with
    slope0 = -10^slope_exp, in units of the value noise f_atol when
    ``noisy``; c puts the quadratic's minimizer at 10^minimizer_exp, or
    is 0 for an unbounded ray (minimizer_exp None); the noise is
    amplitude f_atol sin(10^freq_exp s).  Beyond s = cut both phi and
    dphi return ``bad``, an overshoot out of the domain.
    """
    f_atol = opt._f_noise(f0) if noisy else 0.0
    slope0 = -(10.0**slope_exp) * (f_atol if noisy else 1.0)
    c = 0.0 if minimizer_exp is None else -slope0 / 10.0**minimizer_exp
    d = quartic * abs(slope0)
    freq = 10.0**freq_exp

    def phi(s):
        if s > cut:
            return bad
        noise = amplitude * f_atol * np.sin(freq * s) if s else 0.0
        return f0 + slope0 * s + 0.5 * c * s * s + 0.25 * d * s**4 + noise

    def dphi(s):
        return bad if s > cut else slope0 + c * s + d * s**3

    return phi, dphi, f_atol


def _search_outcome(search, phi, dphi, f_atol):
    """(the phi/dphi call sequence, the step or the failure message)."""
    calls = []

    def logged(name, fn):
        def call(s):
            calls.append((name, s))
            return fn(s)

        return call

    try:
        outcome = search(logged("phi", phi), logged("dphi", dphi), f_atol=f_atol)
    except LineSearchFailure as exc:
        outcome = str(exc)
    return calls, outcome


def test_one_loop_wolfe_search_matches_the_two_phase_reference():
    # same calls in the same order and the same step or failure message;
    # the draws cover value noise with f_atol, overshoots to inf and NaN,
    # unbounded rays and collapsing zooms
    outcomes = set()

    @settings(max_examples=600, **FIXED)
    @given(
        f0=st.sampled_from([0.0, 1.0, -1658.6, 5000.0]),
        noisy=st.booleans(),
        slope_exp=st.sampled_from([-3, -1, 0, 0.25, 0.5, 1, 2]),
        minimizer_exp=st.one_of(st.none(), st.sampled_from([-6, -3.7, -1, 0, 0.5, 2])),
        quartic=st.sampled_from([0.0, 0.0, 1e-3, 1.0]),
        amplitude=st.sampled_from([0.0, 0.5, 1.5, 3.0]),
        freq_exp=st.sampled_from([2, 4, 6]),
        # a ray cut at 64 spends the whole budget at the moment its
        # interval degenerates: the interval test comes first
        cut=st.sampled_from([np.inf, np.inf, 1e-5, 0.1, 1.0, 3.0, 64.0, 1e3]),
        bad=st.sampled_from([np.inf, np.nan]),
    )
    def check(**params):
        phi, dphi, f_atol = _line_problem(**params)
        reference = _search_outcome(two_phase_wolfe_line_search, phi, dphi, f_atol)
        assert _search_outcome(opt.wolfe_line_search, phi, dphi, f_atol) == reference
        outcome = reference[1]
        outcomes.add(outcome.split(" at s=")[0] if isinstance(outcome, str) else "step")

    check()
    assert outcomes == {
        "step",
        "zoom interval degenerated",
        f"no Wolfe point in {_WOLFE_MAX_EVALS} evaluations",
    }


# ---- dual newton -----------------------------------------------------------


def test_newton_scalar_first_iterate():
    # hand-checked: beta = -(grad/G) / (1 + (2 lam + G')/G) at theta=1
    _, obj, ds = scalar_problem(lam=0.5)
    tr = opt.dual_newton_run(ds, obj, np.array([1.0]), opt.StopRule(max_iters=1))
    assert tr.iterates[1][0] == pytest.approx(-0.028786814197323762, abs=1e-13)


def test_newton_scalar_converges_quadratically():
    _, obj, ds = scalar_problem(lam=0.5)
    tr = opt.dual_newton_run(
        ds, obj, np.array([4.0]), opt.StopRule(grad_tol=1e-13, max_iters=50)
    )
    assert tr.status == opt.CONVERGED
    assert tr.n_iterations >= 4
    assert opt.convergence_order(tr, np.zeros(1)) >= 1.8


def test_newton_projection_direction_matches_natural_gradient():
    # pure projection: the dual Hessian times the metric is the identity
    # map on gradient coordinates, so the Newton step is exactly -a
    index, obj, ds, rng = kl_problem(3, 0.0, 0.0)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for _ in range(10):
        theta = rng.uniform(-1.0, 1.0, len(index))
        grad = obj.eucl_grad(theta)
        a = solve_spd(loglinear.fisher_metric(index, theta), grad)
        hess = geometry.dual_hessian_matrix(
            ds, field, theta, jacobian=obj.grad_field_jacobian
        )
        beta, spd = geometry.newton_direction(ds, hess, grad, theta, a=a)
        assert spd
        assert np.linalg.norm(beta + a) <= 1e-8 * np.linalg.norm(a)


def test_newton_regularization_breaks_the_equivalence():
    index, obj, ds, rng = kl_problem(3, 0.5, 0.5)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, len(index))
        grad = obj.eucl_grad(theta)
        a = solve_spd(loglinear.fisher_metric(index, theta), grad)
        hess = geometry.dual_hessian_matrix(
            ds, field, theta, jacobian=obj.grad_field_jacobian
        )
        beta, _ = geometry.newton_direction(ds, hess, grad, theta, a=a)
        assert np.linalg.norm(beta + a) >= 1e-3 * np.linalg.norm(a)


def test_newton_trace_rows_match_iterations():
    _, obj, ds = scalar_problem(lam=0.5)
    tr = opt.dual_newton_run(ds, obj, np.array([1.0]))
    assert tr.n_iterations == len(tr.iterates) - 1
    assert tr.iters == list(range(1, tr.n_iterations + 1))
    assert all(t2 >= t1 for t1, t2 in zip(tr.times, tr.times[1:]))


def test_newton_halves_steps_at_domain_boundary():
    ds = euclidean_structure(1, inside=lambda xi: xi[0] > 0.0)
    obj = quadratic_objective([-3.0])
    tr = opt.dual_newton_run(ds, obj, np.array([0.5]), opt.StopRule(max_iters=8))
    assert tr.status == opt.MAX_ITERS
    assert all(p[0] > 0.0 for p in tr.iterates)


def test_newton_does_not_mutate_inputs():
    index, obj, ds, _ = kl_problem(2, 0.5, 0.5)
    xi0 = np.full(len(index), 0.3)
    xi0_copy = xi0.copy()
    eta_before = obj.eta_hat.copy()
    opt.dual_newton_run(ds, obj, xi0)
    np.testing.assert_array_equal(xi0, xi0_copy)
    np.testing.assert_array_equal(obj.eta_hat, eta_before)


def test_newton_evaluates_the_quadrature_once_per_iterate(monkeypatch):
    # the metric for the stopping norm, Gamma* for the Hessian and Gamma
    # for the retraction all come from the point built when the iterate
    # was accepted; finite-difference probes of the field are not iterates
    model, data = gen_dataset(200, 0, quad_nodes=16)
    nodes = model.nodes
    evaluated = []

    def counting_nodes(xi):
        evaluated.append(np.asarray(xi, dtype=float).tobytes())
        return nodes(xi)

    monkeypatch.setattr(model, "nodes", counting_nodes)
    tr = opt.dual_newton_run(
        model.dual_structure(0.0),
        BetaMixtureNLL(model, data),
        np.array(MIXTURE_INIT),
        opt.StopRule(max_iters=6),
    )
    assert tr.n_iterations >= 2
    assert [evaluated.count(p.tobytes()) for p in tr.iterates] == [1] * len(
        tr.iterates
    )


def test_natural_gradient_evaluates_the_quadrature_once_per_iterate(monkeypatch):
    # a Wolfe trial reads only the value and the gradient; the nodes are
    # evaluated when the loop accepts a point, for its stopping norm
    model, data = gen_dataset(200, 0, quad_nodes=16)
    nodes = model.nodes
    evaluated = []

    def counting_nodes(xi):
        evaluated.append(np.asarray(xi, dtype=float).tobytes())
        return nodes(xi)

    monkeypatch.setattr(model, "nodes", counting_nodes)
    tr = opt.natural_gradient_run(
        model.dual_structure(0.0),
        BetaMixtureNLL(model, data),
        np.array(MIXTURE_INIT),
        opt.StopRule(max_iters=6),
    )
    assert tr.n_iterations == 6
    assert evaluated == [p.tobytes() for p in tr.iterates]


def test_newton_takes_the_field_at_the_iterate_from_the_loop(monkeypatch):
    # the loop has evaluated grad f and a at the iterate; the dual
    # Hessian's gradient field answers there from them, and only its
    # finite-difference probes evaluate the gradient afresh.  A gradient
    # pass is a call of eucl_grad or of value_and_grad.
    model, data = gen_dataset(200, 0, quad_nodes=16)
    obj = BetaMixtureNLL(model, data)
    evaluated = []

    def counting(fn):
        def call(xi):
            evaluated.append(np.asarray(xi, dtype=float).tobytes())
            return fn(xi)

        return call

    monkeypatch.setattr(obj, "eucl_grad", counting(obj.eucl_grad))
    monkeypatch.setattr(obj, "value_and_grad", counting(obj.value_and_grad))
    tr = opt.dual_newton_run(
        model.dual_structure(0.0), obj, np.array(MIXTURE_INIT), opt.StopRule(max_iters=6)
    )
    assert tr.n_iterations >= 2
    assert [evaluated.count(p.tobytes()) for p in tr.iterates] == [1] * len(
        tr.iterates
    )


def test_evaluating_a_mixture_point_makes_one_pass_over_the_data(monkeypatch):
    # value and gradient at an evaluated point come from one pass of the
    # scores over the data; the quadrature nodes make their own pass
    model, data = gen_dataset(200, 0, quad_nodes=16)
    obj = BetaMixtureNLL(model, data)
    passes = []

    def counting(name, fn):
        def call(xi, sums):
            passes.append((name, sums[0].shape[0]))
            return fn(xi, sums)

        return call

    monkeypatch.setattr(model, "scores", counting("scores", model.scores))
    xi = np.array(MIXTURE_INIT)
    evaluation = opt._Evaluation(model.dual_structure(0.0), obj, xi)
    assert passes == [("scores", len(data))]
    # the geometry is evaluated on first need, once
    evaluation.measure().measure()
    assert passes == [("scores", len(data)), ("scores", len(model.quadrature.nodes) ** 2)]
    assert evaluation.f == obj.value(xi)
    assert evaluation.grad.tobytes() == obj.eucl_grad(xi).tobytes()


def test_newton_builds_each_connection_once_per_iterate_across_halvings():
    applied = []

    def evaluate(xi):
        def connection(alpha, a):
            applied.append((xi.tobytes(), alpha, np.array(a)))
            return np.zeros((2, 2))

        return Evaluation(np.eye(2), connection)

    # the minimizer (0, 2) lies outside the domain, so every unit step
    # overshoots and is halved several times
    ds = DualStructure(
        evaluate=evaluate, alpha=0.5, check=point_check(2, lambda xi: xi[1] < 0.7)
    )
    center = np.array([0.0, 2.0])
    tr = opt.dual_newton_run(
        ds, quadratic_objective(center), np.zeros(2), opt.StopRule(max_iters=4)
    )
    assert tr.status == opt.MAX_ITERS
    for p, step in zip(tr.iterates, tr.step_norms):
        assert step <= 0.25 * np.linalg.norm(center - p) + 1e-12
    # every map is applied at an iterate's own point, never at a trial:
    # Gamma* (-alpha) once per proposed step, to the gradient coordinates,
    # and Gamma (+alpha) once per retraction trial, to t beta for
    # t = 1, 1/2, ...; the last iterate proposes nothing
    calls = 0
    for p, nxt in zip(tr.iterates[:-1], tr.iterates[1:]):
        here = [(alpha, a) for x, alpha, a in applied if x == p.tobytes()]
        dual = [a for alpha, a in here if alpha == -0.5]
        primal = [a for alpha, a in here if alpha == 0.5]
        assert len(dual) == 1
        np.testing.assert_allclose(dual[0], p - center)
        assert len(primal) >= 3
        for halvings, t_beta in enumerate(primal):
            assert np.array_equal(t_beta, 0.5**halvings * primal[0])
        assert np.array_equal(nxt, p + primal[-1])
        calls += len(here)
    assert calls == len(applied)


def test_newton_builds_the_mixture_symbols_once_per_iterate_at_alpha_zero(monkeypatch):
    # at alpha = 0 the primal and dual connections are one tensor, and
    # the point builds it once for the Hessian and the retraction
    model, data = gen_dataset(200, 0, quad_nodes=16)
    first_kind = betamix._NodePass.first_kind
    built = []

    def counted(nodes, alpha):
        built.append(alpha)
        return first_kind(nodes, alpha)

    monkeypatch.setattr(betamix._NodePass, "first_kind", counted)
    tr = opt.dual_newton_run(
        model.dual_structure(0.0),
        BetaMixtureNLL(model, data),
        np.array(MIXTURE_INIT),
        opt.StopRule(max_iters=3),
    )
    assert tr.n_iterations == 3
    assert built == [0.0] * 3


@pytest.mark.parametrize("alpha", [0.0, 0.5, -1.0])
def test_newton_builds_no_third_moment_tensor(monkeypatch, alpha):
    # the dual Hessian, the KL Jacobian and the retraction read the
    # third cumulant only contracted, so no m x m x m tensor is built
    def unused(*args):
        raise AssertionError("third central moment built by a Newton run")

    index, obj, ds, _ = kl_problem(3, 0.5, 0.5, alpha=alpha)
    monkeypatch.setattr(loglinear, "third_central_moment", unused)
    tr = opt.dual_newton_run(ds, obj, np.full(len(index), 0.2), opt.StopRule())
    assert tr.status == opt.CONVERGED


def _factored_matrices(monkeypatch):
    """The bytes of every matrix handed to the Cholesky factorization,
    which only linalg's checked factor calls."""
    factored = []
    cholesky_lower = linalg.cholesky_lower

    def recorded(A):
        factored.append(np.asarray(A).tobytes())
        return cholesky_lower(A)

    monkeypatch.setattr(linalg, "cholesky_lower", recorded)
    return factored


def test_newton_step_on_kl_makes_one_pass_and_one_factorization(monkeypatch):
    # the value, the gradient, G, its factor, the exact Jacobian and both
    # connection contractions at an iterate come from one pass over the
    # states and one Python factorization of G; the descent certificate
    # of G H^T is LAPACK's and never reaches cholesky_lower
    index, obj, ds, _ = kl_problem(4, 0.5, 0.5, alpha=0.0)
    loglinear._memo.clear()
    calls = {}
    count_calls(monkeypatch, calls, "logsumexp", loglinear)
    count_calls(monkeypatch, calls, "is_spd", geometry)
    factored = _factored_matrices(monkeypatch)
    tr = opt.dual_newton_run(ds, obj, np.full(len(index), 0.2), opt.StopRule())
    assert tr.status == opt.CONVERGED and tr.n_iterations >= 3
    steps = tr.n_iterations
    # no step is halved on this problem, so the points evaluated are the
    # iterates: the start and one per step
    assert calls == {"logsumexp": steps + 1, "is_spd": steps}
    assert len(factored) == steps + 1
    metrics = {loglinear.fisher_metric(index, p).tobytes() for p in tr.iterates}
    assert set(factored) == metrics and len(metrics) == steps + 1


def test_mirror_wolfe_search_factors_the_iterate_metric_once(monkeypatch):
    # every trial's moment inversion starts at the iterate and takes its
    # first step from the iterate's kept factor
    index, obj, _, _ = kl_problem(4, 0.5, 0.5)
    theta0 = np.full(len(index), 0.2)
    loglinear._memo.clear()
    factored = _factored_matrices(monkeypatch)
    calls = {}
    count_calls(monkeypatch, calls, "cho_solve", loglinear)
    tr = opt.mirror_descent_run(index, obj, theta0, opt.StopRule(max_iters=1))
    assert tr.n_iterations == 1
    G0 = loglinear.fisher_metric(index, theta0).tobytes()
    # several trials, each with its inner inversion from theta0
    assert calls["cho_solve"] > 3
    assert factored.count(G0) == 1
    assert len(set(factored)) == len(factored)


# ---- natural gradient ------------------------------------------------------


def test_natural_gradient_solves_quadratic_in_one_step():
    ds = euclidean_structure(2)
    obj = quadratic_objective([0.0, 0.0])
    tr = opt.natural_gradient_run(ds, obj, np.array([1.0, 1.0]))
    assert tr.status == opt.CONVERGED
    assert tr.n_iterations == 1
    np.testing.assert_allclose(tr.iterates[-1], 0.0, atol=1e-14)


def test_natural_gradient_converges_on_projection():
    index, obj, ds, _ = kl_problem(3, 0.5, 0.5)
    tr = opt.natural_gradient_run(ds, obj, np.full(len(index), 0.2))
    assert tr.status == opt.CONVERGED
    assert tr.grad_l2[-1] < 1e-6


def test_natural_gradient_line_search_failure_is_domain_failure():
    ds = euclidean_structure(1)
    obj = Objective(dim=1, value=lambda x: -float(x[0]), eucl_grad=lambda x: -np.ones(1))
    tr = opt.natural_gradient_run(ds, obj, np.zeros(1), opt.StopRule(max_iters=5))
    assert tr.status == opt.DOMAIN_FAILURE


@pytest.mark.filterwarnings("error")
def test_natural_gradient_ends_where_the_line_slope_overflows(monkeypatch):
    # at this start f = 1.06e232, grad ~ 8.7e234 and a ~ 2.3e231 are
    # finite, but grad . a overflows: the step ends DomainFailure with no
    # warning and no line search, after the start's one evaluation
    obj = AlphaDivergenceObjective(
        -2.5742981355335544,
        -2.5533686616320486,
        0.1374612919794091,
        0.15129951409674902,
        alpha_bar=-3.0,
    )
    calls = {}
    count_calls(monkeypatch, calls, "value_and_grad", obj)
    count_calls(monkeypatch, calls, "wolfe_line_search", opt)
    tr = opt.natural_gradient_run(
        gaussian.dual_structure(0.0),
        obj,
        np.array([0.7123330206538334, 0.032684064523833364]),
        opt.StopRule(grad_tol=1e-8),
    )
    assert tr.status == opt.DOMAIN_FAILURE and tr.n_iterations == 0
    assert calls == {"value_and_grad": 1, "wolfe_line_search": 0}


def test_natural_gradient_continues_past_a_collapsed_line_search():
    # near the optimum of exp3 seed 2 the slope is a few times the value
    # noise and the Wolfe zoom collapses; after an accepted step the run
    # goes on at the last step length under the sub-noise test
    model, data = gen_dataset(5000, 2, 64)
    tr = opt.natural_gradient_run(
        model.dual_structure(0.0),
        BetaMixtureNLL(model, data),
        np.array(MIXTURE_INIT),
        opt.StopRule(grad_tol=1e-8),
    )
    assert tr.status == opt.CONVERGED
    assert tr.grad_l2[-1] < 1e-8


# ---- mirror descent --------------------------------------------------------


def test_mirror_step_exact_on_scalar_problem():
    # eta(1) = sigmoid(1), grad = sigmoid(1) - 0.5, so one unit step
    # lands the moment exactly on the target
    index, obj, _ = scalar_problem(lam=0.0)
    theta = np.array([1.0])
    eta = loglinear.moments(index, theta)
    theta1 = loglinear.moment_to_natural(index, eta - obj.eucl_grad(theta), theta0=theta)
    assert abs(theta1[0]) < 1e-10


def test_mirror_step_equals_natural_gradient_in_moment_coordinates():
    index, obj, ds, rng = kl_problem(3, 0.0, 0.0)
    for _ in range(5):
        theta = rng.uniform(-0.8, 0.8, len(index))
        s = 0.37
        eta = loglinear.moments(index, theta)
        step = loglinear.moment_to_natural(
            index, eta - s * obj.eucl_grad(theta), theta0=theta
        )
        eta_mirror = loglinear.moments(index, step)
        # steepest descent in the moment chart: the metric there is the
        # inverse Fisher matrix, so the direction collapses to -grad_theta
        G = loglinear.fisher_metric(index, theta)
        grad_eta = solve_spd(G, obj.eucl_grad(theta))
        eta_ng = eta - s * (G @ grad_eta)
        assert np.max(np.abs(eta_mirror - eta_ng)) < 1e-9


def test_mirror_descent_converges_on_projection():
    index, obj, _, _ = kl_problem(3, 0.5, 0.5)
    tr = opt.mirror_descent_run(index, obj, np.full(len(index), 0.2))
    assert tr.status == opt.CONVERGED
    assert tr.grad_l2[-1] < 1e-6


# ---- adam ------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    state = opt.AdamState(lr=0.01)
    g = np.array([3.0, -0.2, 0.0007])
    step = state.step(g)
    np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_zero_gradient_leaves_state_unchanged():
    state = opt.AdamState()
    step = state.step(np.zeros(3))
    np.testing.assert_array_equal(step, 0.0)
    np.testing.assert_array_equal(state.m, 0.0)
    np.testing.assert_array_equal(state.v, 0.0)


def test_adam_moments_stay_nonnegative():
    state = opt.AdamState()
    rng = np.random.default_rng(0)
    for _ in range(50):
        state.step(rng.normal(size=4))
    assert np.all(state.v >= 0.0)


@settings(max_examples=100, **FIXED)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    lr=st.sampled_from([1e-3, 0.01, 0.5]),
)
def test_adam_in_place_moments_have_the_bits_of_the_formula(seed, n, lr):
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g out of place, over
    # gradients whose magnitudes span 1e-8 to 1e8
    b1, b2, eps = opt._ADAM_BETA1, opt._ADAM_BETA2, opt._ADAM_EPS
    rng = np.random.default_rng(seed)
    state = opt.AdamState(lr=lr)
    m = v = np.zeros(n)
    for t in range(1, 41):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        step = state.step(g)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert step.tobytes() == (-lr * m_hat / (np.sqrt(v_hat) + eps)).tobytes()


@settings(max_examples=60, **FIXED)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(opt._ADAM_LOOP_MAX - 2, opt._ADAM_LOOP_MAX + 24),
)
def test_adam_steps_have_the_bits_of_the_formula_on_both_sides_of_the_loop_bound(
    seed, n
):
    # short gradients step on Python floats, long ones on arrays
    b1, b2, eps, lr = opt._ADAM_BETA1, opt._ADAM_BETA2, opt._ADAM_EPS, 0.01
    rng = np.random.default_rng(seed)
    state = opt.AdamState(lr=lr)
    m = v = np.zeros(n)
    for t in range(1, 21):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        step = state.step(g)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        expected = -lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert step.tobytes() == expected.tobytes()


def test_adam_run_descends_quadratic():
    ds = euclidean_structure(2)
    obj = quadratic_objective([0.3, -0.1])
    tr = opt.adam_run(ds, obj, np.zeros(2), opt.StopRule(max_iters=200))
    assert tr.f_values[-1] < obj.value(np.zeros(2))
    assert tr.n_iterations == 200 or tr.status == opt.CONVERGED


def test_adam_run_converges_on_projection():
    index, obj, ds, _ = kl_problem(2, 0.5, 0.5)
    tr = opt.adam_run(ds, obj, np.full(len(index), 0.2), opt.StopRule(max_iters=5000))
    assert tr.status == opt.CONVERGED


def test_adam_runs_start_from_zero_moments():
    # each run makes its own moments, so a second run repeats the first
    ds = euclidean_structure(2)
    obj = quadratic_objective([0.3, -0.1])
    runs = [
        opt.adam_run(ds, obj, np.zeros(2), opt.StopRule(max_iters=30), lr=0.05)
        for _ in range(2)
    ]
    assert [p.tobytes() for p in runs[0].iterates] == [
        p.tobytes() for p in runs[1].iterates
    ]
    # the first step is lr times the gradient's sign
    assert runs[0].iterates[1] == pytest.approx([0.05, -0.05], rel=1e-6)


def test_adam_respects_domain_by_halving():
    ds = euclidean_structure(1, inside=lambda xi: xi[0] > 0.0)
    obj = quadratic_objective([-2.0])
    tr = opt.adam_run(ds, obj, np.array([0.01]), opt.StopRule(max_iters=20))
    assert all(p[0] > 0.0 for p in tr.iterates)


# ---- norms -----------------------------------------------------------------


@settings(max_examples=300, **FIXED)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    exponent=st.integers(-200, 200),
    bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
)
def test_the_loops_norm_has_the_bits_of_numpys(seed, n, exponent, bad):
    # the record's l2, the step length and the convergence order's errors
    # read sqrt(v . v), which is what np.linalg.norm computes for a
    # 1-D float vector, also where the square overflows or underflows
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0**exponent
    if bad is not None:
        v[rng.integers(n)] = bad
    # the dot product warns of an overflowing square in both
    with np.errstate(over="ignore"):
        ours = np.float64(math.sqrt(v.dot(v)))
        theirs = np.linalg.norm(v)
    assert ours.tobytes() == theirs.tobytes()


def _record(grad, structure=None, xi=(0.0, 1.0)):
    # by default of the Gaussian at (0, 1), where G = diag(2, 4)
    obj = Objective(dim=2, value=lambda x: 1.0, eucl_grad=lambda x: np.array(grad))
    structure = structure or gaussian.dual_structure(0.0)
    return opt._Evaluation(structure, obj, np.array(xi))


def test_a_finite_gradient_whose_squares_overflow_has_finite_norms():
    # a = (0, -2.5e159): a . a and a G a overflow, the norms do not, and
    # the point stays usable
    evaluation = opt._usable(_record([0.0, -1e160]))
    assert evaluation is not None
    assert evaluation.a.tolist() == [0.0, -2.5e159]
    assert evaluation.l2 == 2.5e159 and evaluation.gnorm == 5e159


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150])
def test_norms_that_do_not_overflow_keep_their_bits(scale):
    evaluation = _record(np.array([3.0, -7.0]) * scale).measure()
    a, G = evaluation.a, evaluation.point.G
    assert evaluation.l2 == math.sqrt(a.dot(a))
    assert evaluation.gnorm == math.sqrt(max(a @ G @ a, 0.0))


@pytest.mark.parametrize(
    "grad, structure, xi",
    [
        # |a| = 1.5e308 sqrt(2) under the identity metric
        ([1.5e308, 1.5e308], euclidean_structure(2), (0.0, 1.0)),
        # G = diag(2e-300, 4e-300): the solve overflows a to (inf, 0),
        # which it refuses, so the record has no norm
        ([1e10, 0.0], None, (0.0, 1e150)),
    ],
)
def test_a_gradient_norm_beyond_the_float_range_is_not_finite(grad, structure, xi):
    record = _record(grad, structure, xi)
    if structure is None:
        with pytest.raises(NonFiniteValue, match="infinite solution"):
            record.measure()
    else:
        assert not math.isfinite(record.measure().l2)
    assert opt._usable(_record(grad, structure, xi)) is None


# ---- convergence order -----------------------------------------------------


def synthetic_trace(errors):
    tr = opt.OptimizerTrace()
    tr.iterates = [np.array([e]) for e in errors]
    return tr


def test_order_exact_quadratic_sequence():
    tr = synthetic_trace([10.0 ** -(2.0**k) for k in range(5)])
    assert opt.convergence_order(tr, np.zeros(1)) == pytest.approx(2.0, abs=1e-9)


def test_order_exact_linear_sequence():
    tr = synthetic_trace([10.0**-k for k in range(7)])
    assert opt.convergence_order(tr, np.zeros(1)) == pytest.approx(1.0, abs=1e-9)


def _reference_convergence_order(trace, xi_final):
    """``convergence_order`` with one subtraction per iterate."""
    xi_final = np.asarray(xi_final, dtype=float)
    iterates = [np.asarray(p, dtype=float) for p in trace.iterates]
    if len(iterates) < 4:
        raise InsufficientIterations(
            f"need at least 3 iterations, trace has {len(iterates) - 1}"
        )
    gaps = [p - xi_final for p in iterates]
    errors = np.array([math.sqrt(d.dot(d)) for d in gaps])
    floor = 100.0 * linalg.EPS
    orders = []
    for k in range(2, len(errors) - 1):
        e_prev, e_k, e_next = errors[k - 1], errors[k], errors[k + 1]
        if min(e_prev, e_k, e_next) <= floor:
            continue
        if e_k > 0.9 * e_prev or e_next > 0.9 * e_k:
            continue
        orders.append(np.log(e_next / e_k) / np.log(e_k / e_prev))
    if not orders:
        raise InsufficientIterations("no usable error triples above the noise floor")
    return float(np.mean(orders))


def _order_outcome(order, trace, xi_final):
    try:
        return np.float64(order(trace, xi_final)).tobytes()
    except InsufficientIterations as exc:
        return str(exc)


@settings(max_examples=200, **FIXED)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3, 6, 10, 21, 36]),
    length=st.integers(2, 80),
    rate=st.sampled_from([0.05, 0.3, 0.7, 0.95]),
    power=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_convergence_order_has_the_bits_of_the_per_iterate_loop(
    seed, dim, length, rate, power
):
    # errors that contract linearly or superlinearly, with noise, in
    # random directions about a random optimum, down to the noise floor
    rng = np.random.default_rng(seed)
    xi_final = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
    tr = opt.OptimizerTrace()
    error = 10.0 ** rng.uniform(-2, 0)
    for _ in range(length):
        direction = rng.standard_normal(dim)
        tr.iterates.append(xi_final + error * direction / np.linalg.norm(direction))
        error = min(rate * error**power * rng.uniform(0.5, 1.5), 1.0)
    assert _order_outcome(opt.convergence_order, tr, xi_final) == _order_outcome(
        _reference_convergence_order, tr, xi_final
    )


def test_order_requires_four_iterations():
    tr = synthetic_trace([1.0, 0.1, 0.01])
    with pytest.raises(InsufficientIterations):
        opt.convergence_order(tr, np.zeros(1))


def test_order_requires_triples_above_noise_floor():
    tr = synthetic_trace([1e-16, 1e-17, 1e-18, 1e-19, 1e-20])
    with pytest.raises(InsufficientIterations):
        opt.convergence_order(tr, np.zeros(1))
