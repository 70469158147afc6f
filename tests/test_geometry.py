import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualnewton import geometry
from dualnewton.errors import DomainViolation, SingularMatrix
from dualnewton.geometry import (
    dual_hessian_matrix,
    duality_residual,
    gradient_field,
    levi_civita_from_metric,
    newton_direction,
    second_order_retract,
)
from dualnewton.linalg import fd_jacobian
from dualnewton.models import gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.models.loglinear import SubsetIndex

from helpers import euclidean_structure


def test_riemannian_gradient_identity_metric():
    ds = euclidean_structure(3)
    g = np.array([1.0, -2.0, 0.5])
    assert_allclose(ds.at(np.zeros(3)).solve(g), g)


def test_riemannian_gradient_gaussian_diagonal():
    ds = gaussian.dual_structure(0.0)
    a = ds.at(np.array([0.0, 2.0])).solve(np.array([1.0, 2.0]))
    assert_allclose(a, [2.0, 2.0], rtol=1e-14)


def test_dual_hessian_linear_field_flat():
    # gamma* = 0 and a = A xi gives H = A^T under the row convention
    ds = euclidean_structure(2)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    field = lambda xi: A @ xi
    H = dual_hessian_matrix(
        ds, field, np.array([0.3, -0.7]), jacobian=lambda x: fd_jacobian(field, x)
    )
    assert_allclose(H, A.T, atol=1e-8)


def test_dual_hessian_zero_field():
    ds = gaussian.dual_structure(0.5)
    field = lambda xi: np.zeros(2)
    H = dual_hessian_matrix(
        ds, field, np.array([0.1, 1.2]), jacobian=lambda x: fd_jacobian(field, x)
    )
    assert_allclose(H, np.zeros((2, 2)), atol=1e-12)


def test_dual_hessian_analytic_callback_used():
    ds = euclidean_structure(2)
    marker = np.array([[5.0, 0.0], [0.0, 5.0]])
    H = dual_hessian_matrix(
        ds, lambda xi: xi, np.zeros(2), jacobian=lambda xi: marker
    )
    assert_allclose(H, marker)


def test_newton_direction_scalar_boltzmann():
    # single binary variable, moment target 0.5, ridge weight 0.5, theta = 1:
    # all quantities reduce to sigmoid arithmetic
    idx = SubsetIndex.boltzmann(1)
    ds = loglinear.dual_structure(idx, 1.0)
    theta = np.array([1.0])
    eta = loglinear.moments(idx, theta)
    assert_allclose(eta, [0.7310585786300049], rtol=1e-14)
    G = ds.metric(theta)
    assert_allclose(G, [[0.19661193324148185]], rtol=1e-13)

    grad_fn = lambda t: loglinear.moments(idx, t) - 0.5 + 2.0 * 0.5 * t
    assert_allclose(grad_fn(theta), [1.2310585786300049], rtol=1e-13)

    field = gradient_field(ds, grad_fn)
    H = dual_hessian_matrix(ds, field, theta, jacobian=lambda x: fd_jacobian(field, x))
    assert_allclose(H, [[6.086161269630487]], rtol=1e-6)

    beta, spd = newton_direction(ds, H, grad_fn(theta), theta)
    assert spd
    assert_allclose(beta, [-1.0287868141973238], rtol=1e-6)


def test_newton_direction_zero_gradient_is_exactly_zero():
    ds = euclidean_structure(3)
    H = np.eye(3)
    beta, spd = newton_direction(ds, H, np.zeros(3), np.zeros(3))
    assert spd
    assert np.all(beta == 0.0)


def test_newton_direction_descent_for_spd_certificate():
    rng = np.random.default_rng(8)
    ds = euclidean_structure(4)
    for _ in range(10):
        M = rng.standard_normal((4, 4))
        hess_e = M @ M.T + 4 * np.eye(4)  # Euclidean Hessian, metric = I
        grad = rng.standard_normal(4)
        beta, spd = newton_direction(ds, hess_e.T, grad, np.zeros(4))
        assert spd
        assert grad @ beta < 0


def test_newton_direction_singular_hessian():
    ds = euclidean_structure(2)
    H = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        newton_direction(ds, H, np.array([1.0, 0.0]), np.zeros(2))


def test_retract_flat_is_translation():
    ds = euclidean_structure(3)
    xi = np.array([1.0, 2.0, 3.0])
    beta = np.array([0.1, -0.2, 0.3])
    assert_allclose(second_order_retract(ds, xi, beta), xi + beta)


def test_retract_gaussian_quadratic_correction():
    # mean step of 0.1 at sigma = 1 pulls sigma down by half
    # Gamma^sigma_mumu * 0.01 = 0.0025
    ds = gaussian.dual_structure(0.0)
    out = second_order_retract(ds, np.array([0.0, 1.0]), np.array([0.1, 0.0]))
    assert_allclose(out, [0.1, 0.9975], rtol=0, atol=1e-15)


def test_retract_zero_step_fixed_point():
    ds = gaussian.dual_structure(0.3)
    xi = np.array([0.4, 0.9])
    assert_allclose(second_order_retract(ds, xi, np.zeros(2)), xi)


def test_retract_domain_violation():
    guarded = euclidean_structure(2, in_domain=lambda xi: xi[1] > 0)
    with pytest.raises(DomainViolation):
        second_order_retract(guarded, np.array([0.0, 1.0]), np.array([0.0, -2.0]))


def test_retract_tangency():
    # the retraction curve leaves xi with velocity beta
    ds = gaussian.dual_structure(-0.5)
    xi = np.array([0.2, 1.3])
    beta = np.array([0.4, -0.3])
    for t in (1e-3, 1e-4):
        drift = (second_order_retract(ds, xi, t * beta) - xi) / t - beta
        gamma = ds.gamma(xi)
        bound = 0.5 * t * abs(np.einsum("jki,j,k->i", gamma, beta, beta)).max()
        assert np.max(np.abs(drift)) <= bound + 1e-12


def test_levi_civita_constant_metric_vanishes():
    lc = levi_civita_from_metric(lambda xi: np.diag([2.0, 3.0]), np.array([0.5, 0.5]))
    assert np.max(np.abs(lc)) < 1e-9


def test_levi_civita_matches_gaussian_alpha_zero():
    xi = np.array([0.7, 1.4])
    lc = levi_civita_from_metric(gaussian.fisher_metric, xi)
    assert_allclose(lc, gaussian.christoffel(xi, 0.0), atol=1e-6)


def test_levi_civita_matches_scalar_boltzmann_alpha_zero():
    idx = SubsetIndex.boltzmann(1)
    theta = np.array([0.8])
    lc = levi_civita_from_metric(lambda t: loglinear.fisher_metric(idx, t), theta)
    assert_allclose(lc, loglinear.dual_structure(idx, 0.0).gamma(theta), atol=1e-7)
    # closed form for one Bernoulli: T / (2 g)
    g = loglinear.fisher_metric(idx, theta)[0, 0]
    T = loglinear.third_central_moment(idx, theta)[0, 0, 0]
    assert_allclose(lc, [[[T / (2 * g)]]], atol=1e-7)


def test_duality_residual_gaussian():
    rng = np.random.default_rng(31)
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        ds = gaussian.dual_structure(alpha)
        for _ in range(4):
            xi = np.array([rng.uniform(-2, 2), rng.uniform(0.3, 3.0)])
            assert duality_residual(ds, xi) < 1e-5


def test_duality_residual_gaussian_sigma_one_component():
    # d_sigma g_mumu = -4 splits as -2(1+alpha) - 2(1-alpha)
    ds = gaussian.dual_structure(0.35)
    xi = np.array([0.0, 1.0])
    G = ds.metric(xi)
    low = geometry.lower_index(ds.gamma(xi), G)
    low_dual = geometry.lower_index(ds.at(xi).gamma_dual, G)
    assert_allclose(low[1, 0, 0], -2.0 * (1.0 + 0.35), rtol=1e-12)
    assert_allclose(low_dual[1, 0, 0], -2.0 * (1.0 - 0.35), rtol=1e-12)
    assert duality_residual(ds, xi) < 1e-6


def test_duality_residual_loglinear():
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(5)
    for alpha in (1.0, 0.5, 0.0):
        ds = loglinear.dual_structure(idx, alpha)
        for _ in range(3):
            theta = rng.uniform(-1, 1, size=len(idx))
            assert duality_residual(ds, theta) < 1e-6


def test_duality_residual_beta_mixture():
    model = BetaMixtureModel(
        weights=[0.35, 0.40, 0.25],
        alphas=[2.0, 3.0, 5.0],
        betas=[5.0, 2.0, 3.5],
        quadrature=QuadratureRule.gauss_legendre(64),
    )
    ds = model.dual_structure(0.5)
    assert duality_residual(ds, model.generating_point()) < 1e-3


def test_self_adjoint_certificate_symmetry():
    # G @ H^T is symmetric for any dual pair; exercised on all models
    idx = SubsetIndex.boltzmann(2)
    rng = np.random.default_rng(23)

    def check(ds, field, xi, rtol=1e-6):
        H = dual_hessian_matrix(ds, field, xi, jacobian=lambda x: fd_jacobian(field, x))
        C = ds.metric(xi) @ H.T
        scale = np.max(np.abs(C))
        assert np.max(np.abs(C - C.T)) < rtol * max(1.0, scale)

    theta_hat = np.array([0.55, 0.45, 0.3])
    gradfn = lambda t: loglinear.moments(idx, t) - theta_hat
    for alpha in (-1.0, 0.3, 1.0):
        ds = loglinear.dual_structure(idx, alpha)
        field = gradient_field(ds, gradfn)
        check(ds, field, rng.uniform(-0.5, 0.5, size=3))

    ds = gaussian.dual_structure(-0.4)
    target = np.array([1.0, 0.8])
    gfn = lambda xi: xi - target
    check(ds, gradient_field(ds, gfn), np.array([0.5, 1.5]))


def _domain_case(model):
    """(structure, a point inside, points the model's inequality rejects)."""
    if model == "loglinear":
        idx = SubsetIndex.boltzmann(3)
        return loglinear.dual_structure(idx, 0.5), np.full(len(idx), 0.2), []
    if model == "gaussian":
        return gaussian.dual_structure(0.5), np.array([0.3, 1.2]), [
            np.array([0.3, 0.0]),
            np.array([0.3, -1.2]),
            # sigma^2 overflows
            np.array([0.3, 1e200]),
        ]
    mixture = BetaMixtureModel(
        weights=[0.35, 0.40, 0.25], alphas=[2.0, 3.0, 5.0], betas=[5.0, 2.0, 3.5]
    )
    inside = mixture.generating_point()
    outside = []
    for i, bad in ((0, 0.0), (3, -1.0), (5, -1e-300)):
        x = inside.copy()
        x[i] = bad
        outside.append(x)
    return mixture.dual_structure(0.5), inside, outside


@pytest.mark.parametrize("model", ["loglinear", "gaussian", "betamix"])
def test_contains_is_the_one_domain_test(model):
    # shape and finiteness are tested by contains alone; the model's
    # hook adds only its inequality
    ds, inside, outside = _domain_case(model)
    assert ds.contains(inside)
    assert not ds.contains(inside[:-1])
    assert not ds.contains(np.append(inside, 1.0))
    assert not ds.contains(inside.reshape(1, -1))
    for i in range(ds.dim):
        for bad in (np.nan, np.inf, -np.inf):
            x = inside.copy()
            x[i] = bad
            assert not ds.contains(x), (i, bad)
    for x in outside:
        assert not ds.contains(x), x
