"""Property tests of the geometry at random points of each model's domain.

Each model must satisfy the duality identity d_k g_ij = Gamma_{ki,j} +
GammaDual_{kj,i} within the acceptance tolerances, and its point
evaluation ``structure.at(xi)`` must reproduce, bit for bit, the
structure's metric reader.  The full symbols, which the structure's
``gamma`` raises from the lowered map (the dual ones at -alpha), must
equal an evaluation of the Christoffel symbols that reads neither of a
run's two contractions: the Gaussian's closed form, the log-linear third
central moment and the mixture's d^3 node sum of its second
log-derivatives, each raised by G, to rounding.  What a run reads of the
Gaussian, ``lowered`` and ``quad``, has the closed form's bits.  The
contractions a point gives Newton, ``dual_dot``, ``lowered`` and
``quad``, must agree to rounding with the same contractions of those
full symbols, which ties a run's ``quad`` to its ``lowered``.  On the
Boltzmann family the analytic Jacobian of the KL gradient field is
checked against finite differences as well.

The paper's pairing, a retraction by the alpha-connection and a Newton
equation posed with its dual, is checked where it bites: at every point
near each experiment's start, the paper form G H^T is the symmetric K =
hess f - lowered(a) that a run solves, and beta^T K beta is the second
derivative of f along the second-order retraction R(t beta) at t = 0.
The mismatched pairing, whose dual Hessian reads the retraction's own
connection, is hess f - lowered(-alpha, a), and it misses the
curvature.  Examples are derandomized, so every run checks the same
points.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualnewton.experiments import MIXTURE_INIT, gen_dataset, gen_target
from dualnewton.geometry import (
    DualStructure,
    dual_hessian_matrix,
    duality_residual,
    gradient_field,
    lower_index,
    raise_index,
)
from dualnewton.linalg import fd_jacobian, spd_factor
from dualnewton.models import betamix, gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.models.loglinear import SubsetIndex
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)
from dualnewton.validation import curvature_gap

FIXED = dict(derandomize=True, deadline=None, database=None)

alphas = st.floats(-1.0, 1.0)


def coordinates(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


def relative_error(x, reference):
    # exact zeros (a coefficient of 0, or a zero vector) must stay exact
    return np.max(np.abs(x - reference)) / max(np.max(np.abs(reference)), 1e-300)


def dual(ds):
    """The structure at -alpha, whose symbols are the dual ones."""
    return DualStructure(ds.evaluate, -ds.alpha)


def assert_point_is_exact(ds, xi, metric, christoffel, rtol=0.0):
    point = ds.at(xi)
    assert np.array_equal(point.G, ds.metric(xi))
    assert np.array_equal(point.G, metric(xi))
    assert relative_error(ds.gamma(xi), christoffel(xi, ds.alpha)) <= rtol
    assert relative_error(dual(ds).gamma(xi), christoffel(xi, -ds.alpha)) <= rtol


def assert_contractions_match_the_einsum(ds, xi, a, beta):
    point = ds.at(xi)
    dual_dot = np.einsum("k,ikj->ij", a, dual(ds).gamma(xi))
    lowered = lower_index(ds.gamma(xi), point.G) @ a
    quad = np.einsum("jki,j,k->i", ds.gamma(xi), beta, beta)
    assert relative_error(point.dual_dot(a), dual_dot) <= 1e-12
    assert relative_error(point.lowered(a), lowered) <= 1e-12
    assert relative_error(point.quad(beta), quad) <= 1e-12


@settings(max_examples=50, **FIXED)
@given(alpha=alphas, mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 3.0))
def test_gaussian_geometry(alpha, mu, sigma):
    ds = gaussian.dual_structure(alpha)
    xi = np.array([mu, sigma])
    assert duality_residual(ds, xi) < 1e-5
    # the symbols, raised from the lowered map by the solve, to rounding
    # of the closed form at the point's sigma
    closed = lambda x, a: gaussian._christoffel(float(x[1]), a)
    assert_point_is_exact(ds, xi, gaussian.fisher_metric, closed, rtol=1e-15)
    # and what a run reads, bit for bit: the closed form lowered by G and
    # contracted with a, and its quadratic form in beta
    point, gamma = ds.at(xi), closed(xi, alpha)
    a, beta = np.array([0.7, -1.3]), np.array([-0.4, 0.9])
    assert point.lowered(a).tobytes() == (gamma @ (point.G @ a)).tobytes()
    quad = beta @ np.einsum("k,ikj->ij", beta, gamma)
    assert point.quad(beta).tobytes() == quad.tobytes()


@settings(max_examples=30, **FIXED)
@given(
    alpha=alphas,
    mu=st.floats(-2.0, 2.0),
    sigma=st.floats(0.3, 3.0),
    a=coordinates(-3.0, 3.0, 2),
    beta=coordinates(-3.0, 3.0, 2),
)
def test_gaussian_contractions_are_the_einsum(alpha, mu, sigma, a, beta):
    ds = gaussian.dual_structure(alpha)
    assert_contractions_match_the_einsum(ds, np.array([mu, sigma]), a, beta)


BOLTZMANN3 = SubsetIndex.boltzmann(3)


@settings(max_examples=30, **FIXED)
@given(alpha=alphas, theta=coordinates(-1.0, 1.0, len(BOLTZMANN3)))
def test_loglinear_geometry(alpha, theta):
    ds = loglinear.dual_structure(BOLTZMANN3, alpha)
    assert duality_residual(ds, theta) < 1e-5
    # the symbols against the third central moment raised by the metric
    assert_point_is_exact(
        ds,
        theta,
        lambda t: loglinear.fisher_metric(BOLTZMANN3, t),
        lambda t, a: raise_index(
            loglinear.christoffel_first_kind(BOLTZMANN3, t, a),
            spd_factor(loglinear.fisher_metric(BOLTZMANN3, t)),
        ),
        rtol=1e-12,
    )


BOLTZMANN4 = SubsetIndex.boltzmann(4)


@st.composite
def boltzmann_contraction_cases(draw):
    index = draw(st.sampled_from([BOLTZMANN3, BOLTZMANN4]))
    m = len(index)
    alpha = draw(st.sampled_from([-1.0, -0.3, 0.0, 0.5, 1.0]))
    vectors = [draw(coordinates(-1.0, 1.0, m)) for _ in range(3)]
    return index, alpha, *vectors


@settings(max_examples=40, **FIXED)
@given(case=boltzmann_contraction_cases())
def test_loglinear_contractions_match_the_einsum(case):
    index, alpha, theta, a, beta = case
    ds = loglinear.dual_structure(index, alpha)
    assert_contractions_match_the_einsum(ds, theta, a, beta)


KL_TARGET = loglinear.moments(BOLTZMANN3, np.linspace(-0.6, 0.6, len(BOLTZMANN3)))


@settings(max_examples=20, **FIXED)
@given(
    theta=coordinates(-1.0, 1.0, len(BOLTZMANN3)),
    lam1=st.floats(0.0, 1.0),
    lam2=st.floats(0.0, 1.0),
)
def test_kl_grad_field_jacobian(theta, lam1, lam2):
    obj = KLProjectionObjective(BOLTZMANN3, KL_TARGET, lam1, lam2)
    field = gradient_field(loglinear.dual_structure(BOLTZMANN3, 1.0), obj.eucl_grad)
    J = obj.grad_field_jacobian(theta)
    J_fd = fd_jacobian(field, theta)
    assert np.max(np.abs(J - J_fd)) < 1e-7 * max(1.0, np.max(np.abs(J_fd)))


MIXTURE = BetaMixtureModel(
    weights=[0.35, 0.40, 0.25],
    alphas=[2.0, 3.0, 5.0],
    betas=[5.0, 2.0, 3.5],
    quadrature=QuadratureRule.gauss_legendre(64),
)


def mixture_symbols(xi, alpha):
    """The mixture's symbols as a d^3 tensor: the first-kind node sum
    Gamma_{ij,k} = sum_n wp_n (second_n + c s_n s_n^T)_ij s_nk, c =
    (1 - alpha)/2, of the (N, d, d) second log-derivatives at the nodes,
    raised by G; it reads neither of the pass's contractions."""
    nodes = MIXTURE.nodes(xi)
    wp, s = nodes.wp, nodes.s
    second = betamix._second_derivatives(s, nodes.resp, nodes.u, nodes.curv)
    second += 0.5 * (1.0 - alpha) * s[:, :, None] * s[:, None, :]
    first = np.einsum("n,nij,nk->ijk", wp, second, s)
    return raise_index(first, spd_factor(nodes.G))


# Where two components coincide the mixture is not identifiable and its
# metric singular, so the shapes are drawn from a box around the
# generating point, (0.8 to 1.25) times each shape, in which the three
# components stay apart.
@settings(max_examples=12, **FIXED)
@given(alpha=alphas, scale=coordinates(0.8, 1.25, MIXTURE.dim))
def test_beta_mixture_geometry(alpha, scale):
    ds = MIXTURE.dual_structure(alpha)
    xi = MIXTURE.generating_point() * scale
    assert duality_residual(ds, xi) < 1e-3
    assert_point_is_exact(ds, xi, MIXTURE.fisher_metric, mixture_symbols, rtol=1e-12)


@settings(max_examples=6, **FIXED)
@given(
    alpha=alphas,
    scale=coordinates(0.8, 1.25, MIXTURE.dim),
    a=coordinates(-3.0, 3.0, MIXTURE.dim),
    beta=coordinates(-3.0, 3.0, MIXTURE.dim),
)
def test_beta_mixture_contractions_are_the_einsum(alpha, scale, a, beta):
    ds = MIXTURE.dual_structure(alpha)
    assert_contractions_match_the_einsum(ds, MIXTURE.generating_point() * scale, a, beta)


# ---- the certificate is the curvature of f along the retraction ----------
#
# By duality g(nabla*_X grad f, Y) = XYf - (nabla_X Y)f, and the retraction
# R(t beta) = xi + t beta - t^2/2 Gamma(beta, beta) has d^2/dt^2 f(R(t beta))
# = beta^T Hess f beta - df Gamma(beta, beta) at t = 0: the same form.
# The second derivative is a central difference with h = 1e-4, and the gap
# is measured against the form's size, ||K||_2, for a unit beta.  The
# mixture's value sums 5,000 data points, whose rounding the difference
# divides by h^2, hence its wider tolerance.

EXP1_INDEX = SubsetIndex.boltzmann(3)
EXP3_MODEL, EXP3_DATA = gen_dataset()
# each experiment's objective, its structure at alpha, a box around its
# start, and the tolerance of the identity there
PAIRING = {
    "exp1": (
        KLProjectionObjective(
            EXP1_INDEX, gen_target(3).moments_for(EXP1_INDEX), 0.5, 0.5
        ),
        lambda alpha: loglinear.dual_structure(EXP1_INDEX, alpha),
        (np.full(len(EXP1_INDEX), -0.25), np.full(len(EXP1_INDEX), 0.2)),
        1e-6,
    ),
    "exp2": (
        AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0),
        gaussian.dual_structure,
        (np.array([0.0, 1.5]), np.array([1.0, 2.5])),
        1e-6,
    ),
    "exp3": (
        BetaMixtureNLL(EXP3_MODEL, EXP3_DATA),
        EXP3_MODEL.dual_structure,
        (0.9 * np.array(MIXTURE_INIT), 1.1 * np.array(MIXTURE_INIT)),
        1e-4,
    ),
}


def paper_form(objective, structure, xi, dual_alpha):
    """G H^T with H the dual Hessian J + connection(dual_alpha, a) at xi:
    the paper's pairing at dual_alpha = -alpha, the mismatched one at
    alpha.  J is the KL objective's exact Jacobian, or else central
    differences of the gradient field."""
    point = structure.at(xi)
    field = gradient_field(structure, objective.eucl_grad)
    if isinstance(objective, KLProjectionObjective):
        jacobian = objective.grad_field_jacobian
    else:
        jacobian = lambda x: fd_jacobian(field, x)
    paired = DualStructure(structure.evaluate, -dual_alpha)
    return point.G @ dual_hessian_matrix(paired, field, xi, jacobian).T


def symmetric_form(objective, structure, xi, alpha):
    """hess f - lowered(alpha, a) at xi."""
    point = structure.at(xi)
    a = point.solve(objective.eucl_grad(xi))
    return objective.hessian(xi) - point.evaluation.lowered(alpha, a)


# the identity's tolerance, relative to max|K|: J is exact on exp1 and
# a central difference elsewhere
IDENTITY_RTOL = {"exp1": 1e-12, "exp2": 1e-7, "exp3": 1e-7}


class DualLowered:
    """A model's evaluation whose lowered connection answers the dual's,
    at -alpha, whatever alpha it is asked for: K is then the paper form
    of the mismatched pairing, whose dual Hessian reads the retraction's
    own connection instead of its dual."""

    def __init__(self, evaluation, alpha):
        self.evaluation, self.alpha = evaluation, alpha

    def __getattr__(self, name):
        return getattr(self.evaluation, name)

    def lowered(self, alpha, a):
        return self.evaluation.lowered(-self.alpha, a)


def mismatched(structure):
    evaluate = lambda xi: DualLowered(structure.evaluate(xi), structure.alpha)
    return DualStructure(evaluate, structure.alpha)


@st.composite
def pairing_cases(draw):
    name = draw(st.sampled_from(sorted(PAIRING)))
    lo, hi = PAIRING[name][2]
    xi = lo + (hi - lo) * draw(coordinates(0.0, 1.0, lo.size))
    beta = draw(coordinates(-1.0, 1.0, lo.size))
    assume(np.linalg.norm(beta) > 0.1)
    return name, draw(alphas), xi, beta / np.linalg.norm(beta)


@settings(max_examples=45, **FIXED)
@given(case=pairing_cases())
def test_the_paper_form_is_the_symmetric_system(case):
    # G H^T = K = hess f - lowered(a), the system a run solves
    name, alpha, xi, _ = case
    objective, structure_at, _, _ = PAIRING[name]
    structure = structure_at(alpha)
    K = symmetric_form(objective, structure, xi, alpha)
    assert relative_error(paper_form(objective, structure, xi, -alpha), K) <= IDENTITY_RTOL[name]


@settings(max_examples=90, **FIXED)
@given(case=pairing_cases())
def test_the_certificate_is_the_curvature_of_f_along_the_retraction(case):
    name, alpha, xi, beta = case
    objective, structure_at, _, tol = PAIRING[name]
    assert curvature_gap(structure_at(alpha), objective, xi, beta) <= tol


def test_the_mismatched_pairing_misses_the_curvature():
    # the same identity with the dual Hessian from the retraction's own
    # connection, which in the symmetric form lowers the dual connection;
    # at alpha = 0 the two are one, so alpha is away from it
    rng = np.random.default_rng(19)
    for name, (objective, structure_at, (lo, hi), _) in sorted(PAIRING.items()):
        gaps = []
        for alpha in (-1.0, 0.5, 1.0):
            xi = lo + (hi - lo) * rng.uniform(size=lo.size)
            beta = rng.normal(size=lo.size)
            beta /= np.linalg.norm(beta)
            structure = structure_at(alpha)
            K = symmetric_form(objective, structure, xi, -alpha)
            paper = paper_form(objective, structure, xi, alpha)
            assert relative_error(paper, K) <= IDENTITY_RTOL[name]
            gaps.append(curvature_gap(mismatched(structure), objective, xi, beta))
            assert curvature_gap(structure, objective, xi, beta) <= 1e-4
        assert max(gaps) > 1e-2, name
