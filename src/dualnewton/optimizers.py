"""Iterative methods sharing one iteration loop, trace format and stopping rule.

The four methods differ only in how they propose a step.  One loop,
``_iterate``, owns everything around that: the stopping test, halving
a step until its point is usable, the trace and the iterate path.
Each method contributes a proposer: Newton solves the dual-Hessian
system and retracts along the primal connection, natural gradient and
mirror descent run one strong Wolfe search along their descent curve
in the natural and the moment chart, and Adam takes its Euclidean
update.  Nothing here checks a point's domain: the model's own passes
do, and off the chart they raise the model's point check error.  The
per-point record raises NonFiniteValue where a value, gradient or norm
is not finite, so each refusal is a PointError raised at its record.

All four methods stop when the l2 norm of the Riemannian gradient
coordinates a = G^{-1} grad f drops below the tolerance, so iteration
counts are directly comparable.  A trace row is one completed step;
convergence at the starting point yields an empty trace.
"""

import math
import numbers
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InsufficientIterations,
    LineSearchFailure,
    NonFiniteValue,
    NumericalError,
    PointError,
)
from .geometry import newton_step, second_order_retract
from .linalg import EPS
from .linalg import solve_spd  # noqa: F401 (perfbench's tracer rebinds it)
from .models import loglinear

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
SINGULAR_HESSIAN = "SingularHessian"
DOMAIN_FAILURE = "DomainFailure"
# the statuses of a run that ended without a local model at its iterate
FAILED = (SINGULAR_HESSIAN, DOMAIN_FAILURE)

_MAX_HALVINGS = 30

# strong Wolfe constants (Nocedal & Wright, Numerical Optimization, ch. 3)
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_WOLFE_MAX_EVALS = 60

# Adam decay rates and denominator guard (Kingma & Ba, 2015)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# longest gradient whose Adam step runs on Python floats: the loop costs
# less than the ufuncs below about 16 coordinates and more above
_ADAM_LOOP_MAX = 16


@dataclass(frozen=True)
class StopRule:
    grad_tol: float = 1e-6
    max_iters: int = 10000

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        # range() takes no float, and a bool is no count
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"max_iters must be a nonnegative integer, got {n!r}")


@dataclass
class AdamState:
    """Bias-corrected Adam moments; the learning rate is the one setting.

    ``step`` runs m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    -lr m_hat / (sqrt(v_hat) + eps).  Up to ``_ADAM_LOOP_MAX``
    coordinates it runs them one coordinate at a time on Python floats,
    where the dozen ufunc calls of the array form cost more than their
    arithmetic.  Each operation there is one correctly rounded IEEE
    operation, as in the ufuncs, and ``math.sqrt`` rounds as
    ``np.sqrt`` does, so both forms give the same bits.  ``m`` and
    ``v`` stay arrays.
    """

    lr: float = 0.01
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def __post_init__(self):
        # written so that NaN fails it: a zero rate stalls, a negative
        # one climbs and NaN ends the run at its first step
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")

    def step(self, grad):
        """Advance the moments and return the raw update direction.

        A gradient whose shape is not the moments' raises
        DimensionMismatch and leaves the state as it was.
        """
        grad = np.asarray(grad, dtype=float)
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        elif grad.shape != self.m.shape:
            # the loop would zip the shorter, the ufuncs broadcast
            raise DimensionMismatch(
                f"gradient shape {grad.shape} is not the moments' {self.m.shape}"
            )
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        bias1, bias2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        if grad.size > _ADAM_LOOP_MAX:
            # in place, each product rounded as in b1 m + (1 - b1) g
            self.m *= b1
            self.m += (1.0 - b1) * grad
            self.v *= b2
            self.v += (1.0 - b2) * grad * grad
            return -self.lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + _ADAM_EPS)
        c1, c2 = 1.0 - b1, 1.0 - b2
        scale = -self.lr
        m, v, delta = [], [], []
        for mi, vi, gi in zip(self.m.tolist(), self.v.tolist(), grad.tolist()):
            mi = mi * b1 + c1 * gi
            vi = vi * b2 + c2 * gi * gi
            m.append(mi)
            v.append(vi)
            delta.append(scale * (mi / bias1) / (math.sqrt(vi / bias2) + _ADAM_EPS))
        self.m, self.v = np.array(m), np.array(v)
        return np.array(delta)


# one completed step; the fields are the trace CSV's columns, in order
Step = namedtuple("Step", "iter f grad_l2 grad_gnorm step_norm spd time_s")

_CSV_HEADER = ",".join(Step._fields) + "\r\n"


@dataclass
class OptimizerTrace:
    """A run's ending status, one ``Step`` row per completed step, and the
    iterate path: the start, then the point each row stepped to."""

    status: str = MAX_ITERS
    steps: list = field(default_factory=list)
    iterates: list = field(default_factory=list)

    @property
    def n_iterations(self):
        return len(self.steps)

    @property
    def grad_l2(self):
        """The rows' gradient norms, first step first."""
        return [s.grad_l2 for s in self.steps]

    def record(self, it, f, l2, gnorm, step_norm, spd, elapsed):
        if self.steps and it <= self.steps[-1].iter:
            raise ValueError("iteration numbers must increase strictly")
        if self.steps and elapsed < self.steps[-1].time_s:
            raise ValueError("times must be nondecreasing")
        values = float(f), float(l2), float(gnorm), float(step_norm)
        self.steps.append(Step(int(it), *values, bool(spd), float(elapsed)))

    def write_csv(self, path):
        """The trace as CSV, with the bytes ``csv.writer`` gives it: no
        field needs quoting, a float is written as its repr and a row
        ends in \\r\\n."""
        rows = [
            f"{it},{f!r},{l2!r},{gnorm!r},{step!r},{int(spd)},{elapsed!r}\r\n"
            for it, f, l2, gnorm, step, spd, elapsed in self.steps
        ]
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "".join(rows))

    def summary(self):
        last = self.steps[-1] if self.steps else None
        return {
            "status": self.status,
            "iterations": self.n_iterations,
            "final_f": last.f if last else None,
            "final_grad_l2": last.grad_l2 if last else None,
            "total_time_s": last.time_s if last else 0.0,
            "mean_iter_time_s": last.time_s / self.n_iterations if last else None,
        }


def _f_noise(f0):
    """Absolute rounding noise of one objective evaluation near value f0."""
    return 32.0 * EPS * (1.0 + abs(f0))


class _Evaluation:
    """Everything a run reads at one point xi, each part computed once.

    The constructor makes the one ``value_and_grad`` call (``f``,
    ``grad``).  ``measure()`` adds the geometry on first call and returns
    the record: ``point``, the DualPoint at xi, a = G^{-1} grad and its
    norms ``l2`` and ``gnorm``.  Both raise whatever their calls raise,
    and NonFiniteValue naming xi where the value, the gradient or ``l2``
    is not finite; a record that raised stays unmeasured.
    """

    __slots__ = ("structure", "xi", "f", "grad", "point", "a", "l2", "gnorm")

    def __init__(self, structure, obj, xi):
        f, grad = obj.value_and_grad(xi)
        f, grad = float(f), np.asarray(grad, dtype=float)
        if not (math.isfinite(f) and all(map(math.isfinite, grad.tolist()))):
            raise NonFiniteValue(f"value {f} or gradient {grad} at {xi} is not finite")
        self.structure, self.xi, self.f, self.grad = structure, xi, f, grad
        self.point = None

    def measure(self):
        if self.point is None:
            point = self.structure.at(self.xi)
            self.a = a = point.solve(self.grad)
            squares = _squares(a, point.G)
            if math.inf in squares:
                self.l2, self.gnorm = _rescaled_norms(a, point.G, squares)
            else:
                # the bits of np.linalg.norm(a): sqrt(a . a)
                self.l2 = math.sqrt(squares[0])
                self.gnorm = math.sqrt(max(squares[1], 0.0))
            if not math.isfinite(self.l2):
                raise NonFiniteValue(f"gradient norm at {self.xi} is not finite")
            self.point = point
        return self


# a finite a can overflow a . a and a G a, and an infinite entry of a G
# times a zero of a is NaN: the norms are then not finite, and no
# warning is raised
@np.errstate(over="ignore", invalid="ignore")
def _squares(a, G):
    """(a . a, a G a)."""
    return a.dot(a), a @ G @ a


@np.errstate(over="ignore", invalid="ignore")
def _slope(grad, direction):
    """grad . direction, not finite (and no warning) where it overflows."""
    return float(grad @ direction)


def _rescaled_norms(a, G, squares):
    """sqrt(a . a) and sqrt(a G a) from their ``squares``, where one of
    them overflowed: that one is taken again of a / max|a| (a solve
    returns only a finite a) and its root scaled back, so a gradient
    above 1e154 has a finite norm."""
    norms = [math.sqrt(max(q, 0.0)) for q in squares]
    scale = float(abs(a).max())
    again = _squares(a / scale, G)
    for i in (0, 1):
        if squares[i] == math.inf:
            norms[i] = scale * math.sqrt(max(again[i], 0.0))
    return norms


def _evaluate(structure, obj, form):
    """The record at the trial point ``form()``, or None where forming it
    (a retraction, or mirror descent's pullback) or making its record
    raises a PointError: the one guard around a candidate's making.  A
    trial off the chart is refused by the objective pass's point check,
    one with a non-finite value or gradient by the record."""
    try:
        return _Evaluation(structure, obj, form())
    except PointError:
        return None


def _usable(evaluation):
    """The record, measured; None where there is none or measuring it
    raises a PointError: its geometry cannot be read, or its norm is
    not finite."""
    try:
        return None if evaluation is None else evaluation.measure()
    except PointError:
        return None


def _iterate(structure, obj, xi0, stop, propose):
    """Retraction-based descent loop shared by the four methods.

    Every point is evaluated once, as an ``_Evaluation`` record, and the
    start and the trials follow the record's one rule.  At the start
    the record's error ends the run: the model's point check error off
    the chart, or NonFiniteValue where the value, the gradient or its
    norm is not finite.  ``propose(here)`` reads the iterate's measured
    record and returns a final status or ``(trial, spd)``: ``trial(t)``
    is the ``_evaluate`` record of the candidate for t = 1, 1/2, 1/4,
    ... or None when there is none, and never raises; ``spd`` is the
    step's descent certificate.  The first candidate that ``_usable``
    measures within 30 halvings becomes the next iterate.
    """
    stop = stop or StopRule()
    xi = np.array(xi0, dtype=float)
    trace = OptimizerTrace()
    trace.iterates.append(xi.copy())
    start = time.perf_counter()

    here = _Evaluation(structure, obj, xi).measure()
    if here.l2 < stop.grad_tol:
        trace.status = CONVERGED
        return trace

    for it in range(1, stop.max_iters + 1):
        proposal = propose(here)
        if isinstance(proposal, str):
            trace.status = proposal
            return trace
        trial, spd = proposal

        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            evaluation = _usable(trial(t))
            if evaluation is not None:
                break
            t *= 0.5
        else:
            trace.status = DOMAIN_FAILURE
            return trace

        d = evaluation.xi - here.xi
        step = math.sqrt(d.dot(d))
        here = evaluation
        elapsed = time.perf_counter() - start
        trace.record(it, here.f, here.l2, here.gnorm, step, spd, elapsed)
        trace.iterates.append(here.xi.copy())
        if here.l2 < stop.grad_tol:
            trace.status = CONVERGED
            return trace

    trace.status = MAX_ITERS
    return trace


def dual_newton_run(structure, obj, xi0, stop=None):
    """Newton iteration on the dual Hessian with quadratic retraction.

    Each step solves the Newton equation posed with the dual connection,
    in its symmetric form (``geometry.newton_step``) from the objective's
    ``hessian``, and retracts along the primal one with unit length.  A
    step whose retraction (or objective value) leaves the domain is
    halved up to 30 times.
    """

    def propose(here):
        point = here.point
        try:
            beta, spd = newton_step(point, obj.hessian(point.xi), here.grad, here.a)
        except NumericalError:
            return SINGULAR_HESSIAN
        except DomainError:
            # the Hessian's pass left the domain: no local model here
            return DOMAIN_FAILURE

        def trial(t):
            form = lambda: second_order_retract(point, t * beta)
            return _evaluate(structure, obj, form)

        return trial, spd

    return _iterate(structure, obj, xi0, stop, propose)


def _line_proposer(structure, obj, line):
    """Proposer for a strong Wolfe search along a descent curve.

    ``line(here)`` returns ``(curve, slope)``: ``curve(s)`` is the point
    at length s, raising where it cannot be formed, and ``slope(record)``
    the derivative of f along the curve at that point's record.  The
    curve leaves the iterate with slope grad . (-a), and where that is not
    finite the step ends DomainFailure.  A step keeps one ``_evaluate``
    record per length, which phi, phi' and the halving trials all read.
    Where the slope at the iterate is below the value noise, or the
    search finds no Wolfe point after an accepted step, the step keeps
    the last length and a trial counts only if f rises by no more than
    the noise.
    """
    last_s = None

    def propose(here):
        nonlocal last_s
        f = here.f
        slope0 = _slope(here.grad, -here.a)
        if not math.isfinite(slope0):
            return DOMAIN_FAILURE
        curve, slope = line(here)
        records = {0.0: here}

        def record(s):
            if s not in records:
                records[s] = _evaluate(structure, obj, lambda: curve(s))
            return records[s]

        def phi(s):
            evaluation = record(s)
            return np.inf if evaluation is None else evaluation.f

        def dphi(s):
            # the search reads the slope only where phi is finite
            return slope0 if s == 0.0 else slope(record(s))

        f_atol = _f_noise(f)
        sub_noise = abs(slope0) <= f_atol
        if not sub_noise:
            try:
                s = wolfe_line_search(phi, dphi, f_atol=f_atol)
            except LineSearchFailure:
                if last_s is None:
                    return DOMAIN_FAILURE
                # a slope only a few times the value noise: the zoom can
                # collapse without a Wolfe point, so go on as below
                sub_noise = True
        if sub_noise:
            # slope below the value resolution: a line search cannot
            # certify progress, so continue at the last working scale
            s = last_s if last_s is not None else 1.0

        def trial(t):
            # the last trial made is the accepted one
            nonlocal last_s
            last_s = s * t
            evaluation = record(last_s)
            if sub_noise and evaluation is not None and evaluation.f > f + f_atol:
                return None
            return evaluation

        return trial, True

    return propose


def natural_gradient_run(structure, obj, xi0, stop=None):
    """Steepest descent in the metric with a strong Wolfe step length."""

    def line(here):
        xi, direction = here.xi, -here.a
        return (lambda s: xi + s * direction), (lambda e: _slope(e.grad, direction))

    return _iterate(structure, obj, xi0, stop, _line_proposer(structure, obj, line))


def wolfe_line_search(phi, dphi, f_atol=0.0):
    """Strong Wolfe step by bracketing and bisection zoom.

    ``phi`` and ``dphi`` evaluate the line restriction and its
    derivative; ``dphi(0)`` must be negative.  The constants are
    ``_WOLFE_C1`` and ``_WOLFE_C2``.  One loop (Nocedal & Wright, Alg.
    3.5-3.6) narrows the interval between lo, the last Armijo step, and
    hi: the trial doubles from 1 while hi is infinite, then bisects.  A
    trial that fails Armijo, whose value or slope is non-finite (an
    overshoot) or that is worse than lo becomes hi; one whose slope
    points back past lo turns the interval around.

    ``f_atol`` is the rounding noise of one phi evaluation.  Near a
    minimizer of a large-magnitude objective the true decrease can sit
    below that noise; the value comparisons then carry this allowance,
    and a trial only counts as worse than lo when it is resolvably
    worse than the start too, so the zoom is steered by the derivative
    alone, which is still computed accurately.
    """
    phi0 = float(phi(0.0))
    dphi0 = float(dphi(0.0))
    if not dphi0 < 0:
        raise ValueError(f"line derivative at 0 must be negative, got {dphi0}")

    lo, f_lo, hi = 0.0, phi0, np.inf
    evals = 0
    while True:
        if hi == np.inf:
            s = max(2.0 * lo, 1.0)
        elif abs(hi - lo) <= EPS * (1.0 + abs(lo)):
            raise LineSearchFailure(
                f"zoom interval degenerated at s={lo} without a Wolfe point"
            )
        else:
            s = 0.5 * (lo + hi)
        evals += 1
        if evals > _WOLFE_MAX_EVALS:
            raise LineSearchFailure(f"no Wolfe point in {_WOLFE_MAX_EVALS} evaluations")
        fs = float(phi(s))
        if not math.isfinite(fs) or fs > phi0 + _WOLFE_C1 * s * dphi0 + f_atol or (
            fs >= f_lo + f_atol and fs > phi0 + f_atol
        ):
            hi = s
            continue
        ds = float(dphi(s))
        if not math.isfinite(ds):
            hi = s
            continue
        if abs(ds) <= -_WOLFE_C2 * dphi0:
            return s
        if ds * (hi - lo) >= 0:
            hi = lo
        lo, f_lo = s, fs


def mirror_descent_run(index, obj, theta0, stop=None):
    """Bregman proximal descent for the log-linear family.

    The step is taken in moment coordinates (where it is plain
    subtraction) and pulled back through the Legendre inverse; the step
    length comes from a Wolfe search on that pullback.  Infeasible
    moment vectors show up as failed inversions and shrink the step.
    """
    structure = loglinear.dual_structure(index, 0.0)

    def line(here):
        # d theta/d eta = G^{-1}, so the pullback leaves theta with
        # slope -grad^T G^{-1} grad = grad . (-a)
        theta, grad = here.xi, here.grad
        eta = here.point.evaluation.eta
        direction = -grad

        def pullback(s):
            return loglinear.moment_to_natural(index, eta - s * grad, theta0=theta)

        def slope(evaluation):
            # the geometry at the trial, which the loop reuses if it is
            # accepted; where it cannot be measured the slope is NaN,
            # which the search takes for an overshoot
            try:
                point = evaluation.measure().point
                return _slope(evaluation.grad, point.solve(direction))
            except PointError:
                return math.nan

        return pullback, slope

    return _iterate(structure, obj, theta0, stop, _line_proposer(structure, obj, line))


def adam_run(structure, obj, xi0, stop=None, lr=0.01):
    """Euclidean Adam baseline with learning rate ``lr``.

    The update is plain bias-corrected Adam on the coordinate gradient,
    from moments the run starts at zero; only the stopping test uses the
    metric, so convergence is declared by the same norm as the other
    methods.  Steps leaving the domain are halved back toward the
    current point.
    """
    state = AdamState(lr=lr)

    def propose(here):
        delta = state.step(here.grad)
        return (lambda t: _evaluate(structure, obj, lambda: here.xi + t * delta)), True

    return _iterate(structure, obj, xi0, stop, propose)


_MAX_RATIO = 0.9


def convergence_order(trace, xi_final):
    """Mean empirical convergence order of a trace's iterate path.

    Uses q_k = log(e_{k+1}/e_k) / log(e_k/e_{k-1}) over triples of
    consecutive errors e_k = ||xi_k - xi_final||.  A triple is usable
    when all three errors sit above 100 machine epsilons, the first
    step (whose length reflects the starting point, not the local map)
    is not involved, and both legs contract by at least ten percent so
    the log ratios carry information rather than plateau noise.  Each
    step is one array operation with the bits of a loop over the
    triples; a NaN error fails no filter, so a NaN xi_final gives NaN.

    xi_final is the reference optimum; passing a point converged beyond
    the trace's own tolerance makes the last recorded steps measurable.
    """
    if len(trace.iterates) < 4:
        raise InsufficientIterations(
            f"need at least 3 iterations, trace has {len(trace.iterates) - 1}"
        )
    gaps = np.asarray(trace.iterates, dtype=float) - np.asarray(xi_final, dtype=float)
    # each stacked 1 x n by n x 1 product is one ddot: the bits of d.dot(d)
    errors = np.sqrt(np.matmul(gaps[:, None, :], gaps[:, :, None]).ravel())
    e_prev, e_k, e_next = errors[1:-2], errors[2:-1], errors[3:]  # k >= 2
    # the loop's senses, so a NaN passes, and Python's first-biased min
    least = np.where(e_k < e_prev, e_k, e_prev)
    least = np.where(e_next < least, e_next, least)
    usable = ~(least <= 100.0 * EPS) & ~(e_k > _MAX_RATIO * e_prev)
    usable &= ~(e_next > _MAX_RATIO * e_k)
    # the usable triples' ratios, which warn only where a NaN meets a 0
    e_prev, e_k, e_next = e_prev[usable], e_k[usable], e_next[usable]
    orders = np.log(e_next / e_k) / np.log(e_k / e_prev)
    if not orders.size:
        raise InsufficientIterations("no usable error triples above the noise floor")
    return float(np.mean(orders))
