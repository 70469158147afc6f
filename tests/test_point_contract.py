"""Each model's domain contract, on vectors drawn to the edges of float64.

A model states its domain once, in its point check (``gaussian.check``,
the log-linear theta check, the mixture's shape check).  A structure's
``at(x)`` starts with it, so it raises DimensionMismatch or
DomainViolation exactly where ``check(x)`` does, and the same class; the
log-linear chart refuses a non-finite theta with NonFiniteValue as
well.  Where ``check(x)`` passes, the geometry ``at(x)``, its solve
``at(x).solve(b)`` and the objective's ``value_and_grad`` each return or
raise one of the six point errors below, never a numpy warning: every warning
is an error here.  A ``value_and_grad`` that returns gives a finite
value.  The draws mix NaN, infinities, signed zeros, negatives,
subnormals, magnitudes up to 1.8e308 and wrong lengths with ordinary
in-domain entries.

Off its chart, an objective names the cause as its model does:
``value_and_grad`` and ``hessian`` raise the very exception
class that the model's check raises at that point.

Each pass checks its point once, and nothing else checks it: a run of
each method makes exactly one point check per model pass, and none
from the optimizers or the geometry.  The mixture's Hessian is one
more score pass over the data, with its one check.

On its chart, a point has the bits of its model's public metric reader
and is one evaluation of its structure.  It checks its metric once, and
every solve there never reads G again and has the bits of ``cho_solve``
on the package's Cholesky factor of G: the log-linear and mixture passes
solve with their checked factor ``L``, the Gaussian with two divisions
per entry on the roots of its diagonal G.
"""

import dataclasses
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import linalg
from dualnewton import optimizers as opt
from dualnewton.errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainViolation,
    NonFiniteValue,
    NotPositiveDefinite,
    QuadratureUnderflow,
    SingularMatrix,
)
from dualnewton.experiments import MIXTURE_INIT
from dualnewton.linalg import cholesky_lower
from dualnewton.models import betamix, gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

from helpers import count_calls

# what a point on the chart may raise: the PointError classes apart from
# MomentInfeasible, which only the moment inversion raises
POINT_ERRORS = (
    DomainViolation,
    DivergenceUndefined,
    NonFiniteValue,
    NotPositiveDefinite,
    QuadratureUnderflow,
    SingularMatrix,
)
FIXED = dict(derandomize=True, deadline=None, database=None)

_MAX = sys.float_info.max
_SIGMA_MAX = math.sqrt(_MAX)
EDGES = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    -1.0,
    5e-324,
    -5e-324,
    sys.float_info.min,
    1e-300,
    1e-160,
    _SIGMA_MAX,
    math.nextafter(_SIGMA_MAX, math.inf),
    1e300,
    1e308,
    -1e308,
    _MAX,
    -_MAX,
)

# positive finite entries, from ordinary values down to the subnormals
# and up to the largest float; a few of them are swapped for any entry
positive = st.one_of(
    st.floats(0.05, 20.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
anything = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(EDGES), st.floats())


@st.composite
def vectors(draw, dim):
    """Mostly of the model's length, some one entry short or long."""
    n = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
    x = draw(st.lists(positive, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        x[i] = draw(anything)
    return np.array(x)


REFUSED = (DimensionMismatch, DomainViolation)


def assert_contract(ds, check, x, objective, refused=REFUSED):
    try:
        check(x)
    except refused as exc:
        checked = type(exc)
    else:
        checked = None

    def value_and_grad():
        # a value that is not finite is raised as NonFiniteValue
        f, _ = objective.value_and_grad(x)
        assert math.isfinite(f)

    reads = [value_and_grad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            point = ds.at(x)
        except refused as exc:
            assert type(exc) is checked
            return
        except POINT_ERRORS:
            pass
        else:
            reads.append(lambda: point.solve(np.ones(len(x))))
        assert checked is None
        for read in reads:
            try:
                read()
            except POINT_ERRORS:
                pass


GAUSSIAN_TARGETS = {
    abar: AlphaDivergenceObjective(0.5, -0.3, 1.2, 0.8, alpha_bar=abar)
    for abar in (-0.5, 0.5, 3.0)
}


@settings(max_examples=400, **FIXED)
@given(x=vectors(2), abar=st.sampled_from(sorted(GAUSSIAN_TARGETS)))
def test_gaussian_contains_exactly_the_points_its_check_passes(x, abar):
    ds = gaussian.dual_structure(0.5)
    assert_contract(ds, gaussian.check, x, GAUSSIAN_TARGETS[abar])


BOLTZMANN = loglinear.SubsetIndex.boltzmann(3)
KL = KLProjectionObjective(
    BOLTZMANN, loglinear.moments(BOLTZMANN, np.full(6, 0.1)), 0.5, 0.5
)
THETA_CHECK = functools.partial(loglinear._check_theta, BOLTZMANN)


@settings(max_examples=300, **FIXED)
@given(x=vectors(len(BOLTZMANN)))
def test_loglinear_contains_exactly_the_points_its_check_passes(x):
    ds = loglinear.dual_structure(BOLTZMANN, 1.0)
    assert_contract(ds, THETA_CHECK, x, KL, refused=(*REFUSED, NonFiniteValue))


MIXTURE = BetaMixtureModel(
    weights=[0.35, 0.40, 0.25],
    alphas=[2.0, 3.0, 5.0],
    betas=[5.0, 2.0, 3.5],
    quadrature=QuadratureRule.gauss_legendre(16),
)
NLL = BetaMixtureNLL(MIXTURE, MIXTURE.sample(40, seed=3))
SHAPE_CHECK = functools.partial(betamix._check_shapes, n_components=MIXTURE.dim // 2)


@settings(max_examples=300, **FIXED)
@given(x=vectors(MIXTURE.dim))
def test_mixture_contains_exactly_the_points_its_check_passes(x):
    assert_contract(MIXTURE.dual_structure(0.5), SHAPE_CHECK, x, NLL)


# one entry of an off-chart point: not finite, not positive, or a sigma
# whose square overflows
off_chart_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(max_value=0.0),
    st.floats(math.nextafter(_SIGMA_MAX, math.inf), 1e300),
)


@st.composite
def off_chart(draw, dim):
    """An in-domain point with one entry made bad, or of the wrong length."""
    n = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
    x = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    if n == dim:
        x[draw(st.integers(0, n - 1))] = draw(off_chart_entries)
    return np.array(x)


# each objective with its model's point check
OBJECTIVES = {
    "alpha-divergence": (gaussian.check, GAUSSIAN_TARGETS[3.0]),
    "kl-projection": (THETA_CHECK, KL),
    "beta-mixture": (SHAPE_CHECK, NLL),
}


@settings(max_examples=600, **FIXED)
@given(name=st.sampled_from(sorted(OBJECTIVES)), data=st.data())
def test_off_its_chart_an_objective_raises_what_its_check_raises(name, data):
    check, objective = OBJECTIVES[name]
    x = data.draw(off_chart(objective.dim))
    try:
        check(x)
    except (DimensionMismatch, DomainViolation, NonFiniteValue) as exc:
        expected = type(exc)
    else:
        # on this model's chart: a large shape or theta is a point of it
        return
    for read in (objective.value_and_grad, objective.hessian):
        with pytest.raises(expected) as raised:
            read(x)
        assert type(raised.value) is expected


# each model's structure, its public metric reader and a point of its chart
POINTS = {
    "loglinear": (
        loglinear.dual_structure(BOLTZMANN, 0.5),
        lambda x: loglinear.fisher_metric(BOLTZMANN, x),
        np.linspace(-0.6, 0.4, len(BOLTZMANN)),
    ),
    "gaussian": (
        gaussian.dual_structure(0.5),
        gaussian.fisher_metric,
        np.array([0.3, 1.7]),
    ),
    "beta-mixture": (
        MIXTURE.dual_structure(0.5),
        MIXTURE.fisher_metric,
        MIXTURE.generating_point(),
    ),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_a_point_has_the_bits_of_its_model(name):
    structure, metric, xi = POINTS[name]
    evaluated = []

    def evaluate(x):
        evaluated.append(x.tobytes())
        return structure.evaluate(x)

    counted = dataclasses.replace(structure, evaluate=evaluate)
    point = counted.at(xi)
    assert point.G.tobytes() == metric(xi).tobytes()
    b = np.linspace(-1.0, 2.0, len(xi))
    expected = linalg.cho_solve(cholesky_lower(point.G), b)
    assert point.solve(b).tobytes() == expected.tobytes()
    assert evaluated == [xi.tobytes()]


@pytest.mark.parametrize("name", sorted(POINTS))
def test_a_point_checks_its_metric_once_and_solves_with_its_factor(name, monkeypatch):
    # linalg checks a metric only where it makes the checked factor, and
    # solves with that factor; the Gaussian checks its closed-form G where
    # it takes the roots of G's two entries, and solves with those alone
    structure, _, xi = POINTS[name]
    calls = {}
    count_calls(monkeypatch, calls, "_factor", linalg)
    count_calls(monkeypatch, calls, "_solve", linalg)
    rng = np.random.default_rng(4)
    point = structure.at(xi)
    n = len(xi)
    b = rng.normal(size=n)
    first = point.solve(b)
    # the paper form's symbols are raised by the point's own solve, and
    # lowering them reads G where the Gaussian's closed form lowers by it
    point.dual_dot(rng.normal(size=n))
    # G is not read again: a metric spoiled after the first solve changes
    # no solve, factor or quadratic form at the point
    beta = rng.normal(size=n)
    quad = point.quad(beta)
    monkeypatch.setitem(point.evaluation.__dict__, "G", np.full((n, n), math.nan))
    assert point.solve(b).tobytes() == first.tobytes()
    if name != "gaussian":
        assert np.isfinite(point.evaluation.L).all()
    assert point.quad(beta).tobytes() == quad.tobytes()
    if name == "gaussian":
        assert calls == {"_factor": 0, "_solve": 0}
    else:
        assert calls["_factor"] == 1 and calls["_solve"] >= 3


def _near(x0):
    """x0 with each entry moved by up to half of itself."""
    moves = st.lists(st.floats(-0.5, 0.5), min_size=len(x0), max_size=len(x0))
    return moves.map(lambda u: x0 * (1.0 + np.array(u)))


EXP1_INDEX = loglinear.SubsetIndex.boltzmann(4)
# each experiment's model (exp3's mixture on a coarser rule) and points
# near its start: exp1 draws theta from U(-0.25, 0.2), exp2 starts at
# (mu, sigma) = (0.5, 2.0) and exp3 at the shapes MIXTURE_INIT
NEAR_STARTS = {
    "loglinear": (
        loglinear.dual_structure(EXP1_INDEX, 0.5),
        st.lists(
            st.floats(-0.25, 0.2), min_size=len(EXP1_INDEX), max_size=len(EXP1_INDEX)
        ).map(np.array),
    ),
    "gaussian": (gaussian.dual_structure(0.5), _near(np.array([0.5, 2.0]))),
    "beta-mixture": (MIXTURE.dual_structure(0.5), _near(np.array(MIXTURE_INIT))),
}
# right-hand side entries of either sign and magnitudes 1e-8..1e8
rhs_entries = st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-8.0, 8.0)
)


@pytest.mark.parametrize("name", sorted(NEAR_STARTS))
@settings(max_examples=100, **FIXED)
@given(data=st.data())
def test_a_point_solves_with_the_bits_of_cho_solve_on_its_factor(name, data):
    structure, near_start = NEAR_STARTS[name]
    point = structure.at(data.draw(near_start))
    n = len(point.G)
    b = np.array(data.draw(st.lists(rhs_entries, min_size=n, max_size=n)))
    expected = linalg.cho_solve(cholesky_lower(point.G), b)
    assert point.solve(b).tobytes() == expected.tobytes()


def test_a_gaussian_point_whose_sigma_squared_underflows_refuses_its_factor():
    # G = diag(2, 4) / sigma^2 is infinite; the solve's check of G names it
    point = gaussian.dual_structure(0.5).at(np.array([0.3, 1e-160]))
    assert np.isinf(np.diag(point.G)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="Fisher metric not finite"):
            point.solve(np.ones(2))


# The per-method ledger.  Each model pass is counted where it starts, so
# the counts do not overlap: the Gaussian's objective pass (its
# ``value_and_grad`` and its Hessian) and its evaluation (the metric);
# the log-linear pass over the states, which every objective pass,
# evaluation and moment-inversion probe is; and the mixture's score pass,
# which each ``value_and_grad``, Hessian and evaluation makes.  A run's
# structure is built after the counters are in place, so it holds no
# uncounted function.
MIXTURE_START = np.array([2.0, 4.0, 3.0, 2.0, 4.0, 3.0])
LEDGER = {
    "gaussian": (
        lambda: gaussian.dual_structure(0.5),
        GAUSSIAN_TARGETS[3.0],
        np.array([0.3, 1.5]),
        (gaussian, "check"),
        [(AlphaDivergenceObjective, "_pass"), (gaussian, "fisher_metric")],
    ),
    "loglinear": (
        lambda: loglinear.dual_structure(BOLTZMANN, 0.5),
        KL,
        np.full(len(BOLTZMANN), 0.8),
        (loglinear, "_check_theta"),
        [(loglinear, "evaluate")],
    ),
    "beta-mixture": (
        lambda: MIXTURE.dual_structure(0.5),
        NLL,
        MIXTURE_START,
        (betamix, "_check_shapes"),
        [(BetaMixtureModel, "scores")],
    ),
}
RUNS = {
    "newton": opt.dual_newton_run,
    "natgrad": opt.natural_gradient_run,
    "adam": opt.adam_run,
    "mirror": lambda structure, obj, x0, stop: opt.mirror_descent_run(
        obj.index, obj, x0, stop
    ),
}
LEDGER_CASES = [
    (model, method)
    for model in sorted(LEDGER)
    for method in sorted(RUNS)
    if method != "mirror" or model == "loglinear"
]


def _count(monkeypatch, owner, name, calls):
    """Append to ``calls`` the module of the caller of each call of
    ``owner.name``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("model, method", LEDGER_CASES)
def test_a_run_checks_each_point_once_per_model_pass(model, method, monkeypatch):
    build, objective, x0, (module, check), starts = LEDGER[model]
    checks, passes = [], []
    _count(monkeypatch, module, check, checks)
    for owner, name in starts:
        _count(monkeypatch, owner, name, passes)
    trace = RUNS[method](build(), objective, x0, opt.StopRule(max_iters=4))
    assert trace.n_iterations >= 1
    assert len(checks) == len(passes) > 0
    # only the model and the objectives check a point
    assert set(checks) <= {module.__name__, "dualnewton.objectives"}
