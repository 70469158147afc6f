"""Property tests of the geometry at random points of each model's domain.

Each model must satisfy the duality identity d_k g_ij = Gamma_{ki,j} +
GammaDual_{kj,i} within the acceptance tolerances, and its point
evaluation ``structure.at(xi)`` must reproduce, bit for bit, the
structure's per-quantity readers.  The full symbols, stacked from the
point's connection map, must equal a direct evaluation of the
Christoffel symbols: bit for bit where the map contracts a tensor
(Gaussian, Beta mixture), to rounding where the log-linear map contracts
the third cumulant over the states.  The contractions Newton reads,
``dual_dot`` and ``quad``, must agree to rounding with the same
contractions of the full symbols.  On the Boltzmann family the analytic
Jacobian of the KL gradient field is checked against finite differences
as well.  Examples are derandomized, so every run checks the same points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton.geometry import duality_residual, gradient_field, raise_index
from dualnewton.linalg import fd_jacobian, spd_factor
from dualnewton.models import gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.models.loglinear import SubsetIndex
from dualnewton.objectives import KLProjectionObjective

FIXED = dict(derandomize=True, deadline=None, database=None)

alphas = st.floats(-1.0, 1.0)


def coordinates(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


def relative_error(x, reference):
    # exact zeros (a coefficient of 0, or a zero vector) must stay exact
    return np.max(np.abs(x - reference)) / max(np.max(np.abs(reference)), 1e-300)


def assert_point_is_exact(ds, xi, metric, christoffel, rtol=0.0):
    point = ds.at(xi)
    assert np.array_equal(point.G, ds.metric(xi))
    assert np.array_equal(point.gamma, ds.gamma(xi))
    assert np.array_equal(point.gamma_dual, ds.at(xi).gamma_dual)
    assert np.array_equal(point.G, metric(xi))
    assert relative_error(point.gamma, christoffel(xi, ds.alpha)) <= rtol
    assert relative_error(point.gamma_dual, christoffel(xi, -ds.alpha)) <= rtol


def einsum_dual_dot(point, a):
    return np.einsum("k,ikj->ij", a, point.gamma_dual)


def einsum_quad(point, beta):
    return np.einsum("jki,j,k->i", point.gamma, beta, beta)


def assert_contractions_match_the_einsum(point, a, beta):
    assert relative_error(point.dual_dot(a), einsum_dual_dot(point, a)) <= 1e-12
    assert relative_error(point.quad(beta), einsum_quad(point, beta)) <= 1e-12


@settings(max_examples=50, **FIXED)
@given(alpha=alphas, mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 3.0))
def test_gaussian_geometry(alpha, mu, sigma):
    ds = gaussian.dual_structure(alpha)
    xi = np.array([mu, sigma])
    assert duality_residual(ds, xi) < 1e-5
    assert_point_is_exact(ds, xi, gaussian.fisher_metric, gaussian.christoffel)


@settings(max_examples=30, **FIXED)
@given(
    alpha=alphas,
    mu=st.floats(-2.0, 2.0),
    sigma=st.floats(0.3, 3.0),
    a=coordinates(-3.0, 3.0, 2),
    beta=coordinates(-3.0, 3.0, 2),
)
def test_gaussian_contractions_are_the_einsum(alpha, mu, sigma, a, beta):
    point = gaussian.dual_structure(alpha).at(np.array([mu, sigma]))
    assert_contractions_match_the_einsum(point, a, beta)


BOLTZMANN3 = SubsetIndex.boltzmann(3)


@settings(max_examples=30, **FIXED)
@given(alpha=alphas, theta=coordinates(-1.0, 1.0, len(BOLTZMANN3)))
def test_loglinear_geometry(alpha, theta):
    ds = loglinear.dual_structure(BOLTZMANN3, alpha)
    assert duality_residual(ds, theta) < 1e-5
    # the point's symbols against the third central moment raised by
    # the metric
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
    point = loglinear.dual_structure(index, alpha).at(theta)
    assert_contractions_match_the_einsum(point, a, beta)


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
    assert_point_is_exact(
        ds, xi, MIXTURE.fisher_metric, lambda x, a: MIXTURE.dual_structure(a).gamma(x)
    )


@settings(max_examples=6, **FIXED)
@given(
    alpha=alphas,
    scale=coordinates(0.8, 1.25, MIXTURE.dim),
    a=coordinates(-3.0, 3.0, MIXTURE.dim),
    beta=coordinates(-3.0, 3.0, MIXTURE.dim),
)
def test_beta_mixture_contractions_are_the_einsum(alpha, scale, a, beta):
    point = MIXTURE.dual_structure(alpha).at(MIXTURE.generating_point() * scale)
    assert_contractions_match_the_einsum(point, a, beta)
