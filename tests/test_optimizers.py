import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import geometry, linalg, optimizers as opt
from dualnewton.errors import (
    DomainViolation,
    InsufficientIterations,
    LineSearchFailure,
    NonFiniteValue,
)
from dualnewton.experiments import MIXTURE_INIT, gen_dataset
from dualnewton.geometry import DualPoint, DualStructure
from dualnewton.linalg import solve_spd
from dualnewton.models import betamix, loglinear
from dualnewton.objectives import BetaMixtureNLL, KLProjectionObjective

from helpers import Objective, count_calls, euclidean_structure

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
    if method is opt.mirror_descent_run:
        # the log-linear chart is all of R^m; only non-finite points leave it
        index, obj, ds, _ = kl_problem(2)
        xi0 = np.full(len(index), np.nan)
    else:
        index = None
        ds = euclidean_structure(1, in_domain=lambda xi: xi[0] > 0)
        obj = quadratic_objective([2.0])
        xi0 = np.array([-1.0])
    with pytest.raises(DomainViolation, match="outside the model domain"):
        run_method(method, index, ds, obj, xi0)


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
    obj = BetaMixtureNLL(model, data)
    calls = {}
    count_calls(monkeypatch, calls, "value_and_grad", obj)
    count_calls(monkeypatch, calls, "_node_eval", model)
    recorded = RecordingObjective(obj)
    ds = model.dual_structure(0.0)
    tr = method(ds, recorded, np.array(MIXTURE_INIT), opt.StopRule(max_iters=4))
    assert tr.n_iterations == 4
    points, jacobians = _assert_each_point_evaluated_once(recorded)
    probes = 2 * obj.dim * len(jacobians)
    assert len(jacobians) == (4 if method is opt.dual_newton_run else 0)
    assert calls["value_and_grad"] == len(points) + probes
    # the run's own node passes measure the iterates, here each once
    assert calls["_node_eval"] == len(tr.iterates) + probes


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
    ds = euclidean_structure(1, in_domain=lambda xi: xi[0] > 0.0)
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
    node_eval = model._node_eval
    evaluated = []

    def counting_node_eval(xi):
        evaluated.append(np.asarray(xi, dtype=float).tobytes())
        return node_eval(xi)

    monkeypatch.setattr(model, "_node_eval", counting_node_eval)
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
    node_eval = model._node_eval
    evaluated = []

    def counting_node_eval(xi):
        evaluated.append(np.asarray(xi, dtype=float).tobytes())
        return node_eval(xi)

    monkeypatch.setattr(model, "_node_eval", counting_node_eval)
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

    def point(structure, xi):
        def connection(alpha, a):
            applied.append((xi.tobytes(), alpha, np.array(a)))
            return np.zeros((2, 2))

        return DualPoint(structure, xi, np.eye(2), connection)

    # the minimizer (0, 2) lies outside the domain, so every unit step
    # overshoots and is halved several times
    ds = DualStructure(dim=2, point=point, alpha=0.5, in_domain=lambda xi: xi[1] < 0.7)
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
    first_kind = betamix._first_kind
    built = []

    def counted(ev, second, alpha):
        built.append(alpha)
        return first_kind(ev, second, alpha)

    monkeypatch.setattr(betamix, "_first_kind", counted)
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
    """The bytes of every matrix handed to the Cholesky factorization."""
    factored = []
    cholesky_lower = linalg.cholesky_lower

    def recorded(A):
        factored.append(np.asarray(A).tobytes())
        return cholesky_lower(A)

    for module in (linalg, geometry, loglinear):
        monkeypatch.setattr(module, "cholesky_lower", recorded)
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
    count_calls(monkeypatch, calls, "solve_spd", loglinear)
    tr = opt.mirror_descent_run(index, obj, theta0, opt.StopRule(max_iters=1))
    assert tr.n_iterations == 1
    G0 = loglinear.fisher_metric(index, theta0).tobytes()
    # several trials, each with its inner inversion from theta0
    assert calls["solve_spd"] > 3
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


def test_adam_respects_domain_by_halving():
    ds = euclidean_structure(1, in_domain=lambda xi: xi[0] > 0.0)
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


def test_order_requires_four_iterations():
    tr = synthetic_trace([1.0, 0.1, 0.01])
    with pytest.raises(InsufficientIterations):
        opt.convergence_order(tr, np.zeros(1))


def test_order_requires_triples_above_noise_floor():
    tr = synthetic_trace([1e-16, 1e-17, 1e-18, 1e-19, 1e-20])
    with pytest.raises(InsufficientIterations):
        opt.convergence_order(tr, np.zeros(1))
