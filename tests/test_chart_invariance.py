"""A Newton step is a tangent vector: it maps under affine changes of chart.

Under a chart xi = A zeta + b the metric, the connection's two maps, the
gradient and the Hessian transform as tensors, and the inhomogeneous
term d^2 xi / d zeta^2 vanishes, so the run in zeta steps to the image
of the run in xi's steps, to rounding:

    G_zeta = A^T G A,                solve_zeta(v) = A^{-1} solve(A^{-T} v),
    lowered_zeta(alpha, a) = A^T lowered(alpha, A a) A,
    quad_zeta(alpha, beta) = A^{-1} quad(alpha, A beta),
    grad_zeta f = A^T grad f,        hess_zeta f = A^T hess f A.

The wrappers below take a model's evaluation and its objective into
zeta.  The first steps of Newton and of natural gradient are compared
under a general A, with singular values in [1/e, e], at random points
near each experiment's start; a general A is needed, since an index
slip that transposes a term commutes with an orthogonal similarity.
Adam's update is coordinate-wise and not a tangent vector, so it is the
negative control that must miss.  ``grad_l2 = |G^{-1} grad f|`` is
invariant only under an orthogonal A, so whole runs are compared under
a rotation.  Examples are derandomized, so every run checks the same
points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import optimizers as opt
from dualnewton.experiments import MIXTURE_INIT, gen_dataset, gen_target
from dualnewton.geometry import DualStructure
from dualnewton.models import gaussian, loglinear
from dualnewton.models.loglinear import SubsetIndex
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

FIXED = dict(derandomize=True, deadline=None, database=None)


class ChartEvaluation:
    """A model's evaluation at xi = A zeta + b, read in zeta."""

    def __init__(self, evaluation, A, A_inv):
        self.evaluation, self.A, self.A_inv = evaluation, A, A_inv
        self.G = A.T @ evaluation.G @ A

    def solve(self, v):
        return self.A_inv @ self.evaluation.solve(self.A_inv.T @ v)

    def lowered(self, alpha, a):
        return self.A.T @ self.evaluation.lowered(alpha, self.A @ a) @ self.A

    def quad(self, alpha, beta):
        return self.A_inv @ self.evaluation.quad(alpha, self.A @ beta)


def chart_structure(structure, A, b):
    A_inv = np.linalg.inv(A)
    evaluate = lambda zeta: ChartEvaluation(structure.evaluate(A @ zeta + b), A, A_inv)
    return DualStructure(evaluate, structure.alpha)


class ChartObjective:
    """An objective read in zeta, with xi = A zeta + b."""

    def __init__(self, objective, A, b):
        self.objective, self.A, self.b = objective, A, b
        self.dim = objective.dim

    def value_and_grad(self, zeta):
        f, grad = self.objective.value_and_grad(self.A @ zeta + self.b)
        return f, self.A.T @ grad

    def hessian(self, zeta):
        return self.A.T @ self.objective.hessian(self.A @ zeta + self.b) @ self.A


EXP1_INDEX = SubsetIndex.boltzmann(3)
EXP3_MODEL, EXP3_DATA = gen_dataset(n_samples=400, quad_nodes=16)
# each experiment's objective, its structure at alpha and a box around its start
PROBLEMS = {
    "exp1": (
        KLProjectionObjective(EXP1_INDEX, gen_target(3).moments_for(EXP1_INDEX), 0.5, 0.5),
        lambda alpha: loglinear.dual_structure(EXP1_INDEX, alpha),
        (np.full(len(EXP1_INDEX), -0.25), np.full(len(EXP1_INDEX), 0.2)),
    ),
    "exp2": (
        AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0),
        gaussian.dual_structure,
        (np.array([0.0, 1.5]), np.array([1.0, 2.5])),
    ),
    "exp3": (
        BetaMixtureNLL(EXP3_MODEL, EXP3_DATA),
        EXP3_MODEL.dual_structure,
        (0.9 * np.array(MIXTURE_INIT), 1.1 * np.array(MIXTURE_INIT)),
    ),
}
METHODS = {
    "newton": opt.dual_newton_run,
    "natgrad": opt.natural_gradient_run,
    "adam": opt.adam_run,
}


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(r.diagonal())


def general_chart(rng, n):
    """A = Q1 diag(e^u) Q2 with u in [-1, 1], and a shift b."""
    singular = np.exp(rng.uniform(-1.0, 1.0, n))
    A = _orthogonal(rng, n) @ np.diag(singular) @ _orthogonal(rng, n)
    return A, 0.1 * rng.normal(size=n)


def in_both_charts(name, alpha, A, b, zeta0):
    """(structure, objective, start) in xi and in zeta; the xi start is
    the zeta one's image, with the bits the zeta chart evaluates at."""
    objective, structure_at, _ = PROBLEMS[name]
    structure = structure_at(alpha)
    xi0 = A @ zeta0 + b
    return (
        (structure, objective, xi0),
        (chart_structure(structure, A, b), ChartObjective(objective, A, b), zeta0),
    )


def step_gap(method, name, alpha, A, b, zeta0):
    """|xi_1 - (A zeta_1 + b)| / |xi_1 - xi_0| after one step in each chart."""
    (ds, obj, xi0), (ds_z, obj_z, z0) = in_both_charts(name, alpha, A, b, zeta0)
    stop = opt.StopRule(max_iters=1)
    xi1 = METHODS[method](ds, obj, xi0, stop).iterates[1]
    zeta1 = METHODS[method](ds_z, obj_z, z0, stop).iterates[1]
    return np.linalg.norm(xi1 - (A @ zeta1 + b)) / np.linalg.norm(xi1 - xi0)


@st.composite
def chart_cases(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = PROBLEMS[name][2]
    A, b = general_chart(rng, lo.size)
    xi = lo + (hi - lo) * rng.uniform(size=lo.size)
    return name, draw(st.floats(-1.0, 1.0)), A, b, np.linalg.solve(A, xi - b)


@settings(max_examples=30, **FIXED)
@given(case=chart_cases())
def test_newton_and_natural_gradient_steps_are_tangent_vectors(case):
    name, alpha, A, b, zeta0 = case
    assert step_gap("newton", name, alpha, A, b, zeta0) <= 1e-9
    assert step_gap("natgrad", name, alpha, A, b, zeta0) <= 1e-9


@settings(max_examples=15, **FIXED)
@given(case=chart_cases())
def test_adams_step_is_no_tangent_vector(case):
    # the negative control: a coordinate-wise update misses the image
    name, alpha, A, b, zeta0 = case
    assert step_gap("adam", name, alpha, A, b, zeta0) > 1e-3


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_a_rotated_newton_run_is_the_run_rotated(name):
    # an orthogonal A keeps grad_l2, so the whole run keeps its status,
    # its count and its rows' norms, and its iterates map, to rounding
    rng = np.random.default_rng(23)
    lo, hi = PROBLEMS[name][2]
    A = _orthogonal(rng, lo.size)
    zeta0 = A.T @ (0.5 * (lo + hi))
    (ds, obj, xi0), (ds_z, obj_z, z0) = in_both_charts(name, 0.5, A, np.zeros(lo.size), zeta0)
    run, rotated = opt.dual_newton_run(ds, obj, xi0), opt.dual_newton_run(ds_z, obj_z, z0)
    assert run.status == rotated.status == opt.CONVERGED
    assert run.n_iterations == rotated.n_iterations > 0
    norms, rotated_norms = np.array(run.grad_l2), np.array(rotated.grad_l2)
    assert np.abs(norms - rotated_norms).max() <= 1e-9 * norms.max()
    gaps = [np.abs(x - A @ z).max() for x, z in zip(run.iterates, rotated.iterates)]
    assert max(gaps) <= 1e-9 * np.abs(run.iterates[-1]).max()
