"""Every run ends in one of the four statuses or raises a named library error.

Whole runs of each (model, method) pair are drawn over random problems
and starts, from boxes that reach where the arithmetic overflows: a
Gaussian start with sigma from 0.01 to 100 against targets with
alpha_bar = -3, log-linear starts with |theta| up to 100, mixture shapes
from 0.1 to 50.  Each runs with numpy warnings raised as errors and a
small budget.  A run returns a trace whose status is Converged,
MaxIters, SingularHessian or DomainFailure, or raises a DualNewtonError
(a start the method cannot use names its own cause).  It never raises a
numpy warning, a ValueError, a ZeroDivisionError or an OverflowError.
Examples are derandomized, so every run draws the same problems.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import optimizers as opt
from dualnewton.errors import DualNewtonError
from dualnewton.experiments import gen_dataset, gen_target
from dualnewton.models import gaussian, loglinear
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

FIXED = dict(derandomize=True, deadline=None, database=None)
STATUSES = (opt.CONVERGED, opt.MAX_ITERS, opt.SINGULAR_HESSIAN, opt.DOMAIN_FAILURE)
STOP = opt.StopRule(grad_tol=1e-8, max_iters=25)

RUNS = {
    "newton": lambda ds, obj, x0: opt.dual_newton_run(ds, obj, x0, STOP),
    "natgrad": lambda ds, obj, x0: opt.natural_gradient_run(ds, obj, x0, STOP),
    "adam": lambda ds, obj, x0: opt.adam_run(ds, obj, x0, STOP),
}


def assert_ends_in_a_status(run):
    """``run()`` returns a trace with one of the four statuses or raises
    a DualNewtonError; a warning is an error here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            trace = run()
        except DualNewtonError:
            return
    assert trace.status in STATUSES


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


alphas = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


# a Gaussian run costs about a millisecond, so it draws the most: at
# 200 draws the natural gradient meets a start whose line slope overflows
@pytest.mark.parametrize("method", sorted(RUNS))
@settings(max_examples=200, **FIXED)
@given(
    mu=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    sigma=st.tuples(log_uniform(0.1, 10.0), log_uniform(0.1, 10.0)),
    alpha_bar=st.sampled_from([-3.0, -0.5, 0.5, 3.0]),
    start=st.tuples(st.floats(-20.0, 20.0), log_uniform(0.01, 100.0)),
    alpha=alphas,
)
def test_gaussian_runs_end_in_a_status(method, mu, sigma, alpha_bar, start, alpha):
    obj = AlphaDivergenceObjective(*mu, *sigma, alpha_bar=alpha_bar)
    ds = gaussian.dual_structure(alpha)
    assert_ends_in_a_status(lambda: RUNS[method](ds, obj, np.array(start)))


@pytest.mark.parametrize("method", ["newton", "natgrad", "mirror", "adam"])
@settings(max_examples=15, **FIXED)
@given(
    n=st.integers(2, 3),
    base_scale=st.floats(0.1, 6.0),
    seed=st.integers(0, 2**16),
    radius=st.sampled_from([0.25, 5.0, 100.0]),
    lam=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    alpha=alphas,
    data=st.data(),
)
def test_loglinear_runs_end_in_a_status(
    method, n, base_scale, seed, radius, lam, alpha, data
):
    index = loglinear.SubsetIndex.boltzmann(n)
    m = len(index)
    start = np.array(data.draw(st.lists(st.floats(-radius, radius), min_size=m, max_size=m)))

    def run():
        eta_hat = gen_target(n, base_scale, seed).moments_for(index)
        obj = KLProjectionObjective(index, eta_hat, *lam)
        if method == "mirror":
            return opt.mirror_descent_run(index, obj, start, STOP)
        return RUNS[method](loglinear.dual_structure(index, alpha), obj, start)

    assert_ends_in_a_status(run)


MIXTURE, DATA = gen_dataset(300, 0, quad_nodes=16)
NLL = BetaMixtureNLL(MIXTURE, DATA)


@pytest.mark.parametrize("method", sorted(RUNS))
@settings(max_examples=10, **FIXED)
@given(
    shapes=st.lists(log_uniform(0.1, 50.0), min_size=6, max_size=6),
    alpha=alphas,
)
def test_mixture_runs_end_in_a_status(method, shapes, alpha):
    ds = MIXTURE.dual_structure(alpha)
    assert_ends_in_a_status(lambda: RUNS[method](ds, NLL, np.array(shapes)))
