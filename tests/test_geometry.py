import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualnewton import geometry
from dualnewton.errors import (
    DimensionMismatch,
    DomainViolation,
    NonFiniteValue,
    PointError,
    SingularMatrix,
)
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
from dualnewton.objectives import AlphaDivergenceObjective, KLProjectionObjective
from dualnewton.optimizers import _evaluate

from helpers import Objective, euclidean_structure, point_check


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


@pytest.mark.parametrize("shift, certified", [(5.0, True), (-5.0, False), (0.3, None)])
def test_newton_step_solves_the_symmetric_system(shift, certified):
    # K = hessian - lowered(a) is shift I plus a small symmetric term: the
    # factor of a positive definite K solves K beta = -grad, and where it
    # fails, H^T = G^{-1} K is solved instead, which is the same system
    ds = gaussian.dual_structure(0.5)
    point = ds.at(np.array([0.3, 0.8]))
    rng = np.random.default_rng(4)
    grad = rng.normal(size=2)
    a = point.solve(grad)
    M = rng.normal(size=(2, 2))
    K = shift * np.eye(2) + 0.1 * (M + M.T)
    if certified is None:
        # indefinite: one eigenvalue of each sign
        K = np.diag([1.0, -1.0]) + 0.1 * (M + M.T)
    beta, spd = geometry.newton_step(point, K + point.lowered(a), grad, a)
    assert spd is (certified is True)
    assert_allclose(K @ beta, -grad, rtol=1e-12, atol=1e-12)
    assert spd == bool(np.all(np.linalg.eigvalsh(K) > 0))


def test_newton_step_matches_the_paper_form():
    # on the KL projection, whose field Jacobian is exact, the symmetric
    # system and the paper's dual Hessian give one step and one certificate
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(6)
    eta_hat = loglinear.moments(idx, rng.uniform(-0.5, 0.5, len(idx)))
    obj = KLProjectionObjective(idx, eta_hat, 0.3, 0.8)
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        ds = loglinear.dual_structure(idx, alpha)
        for _ in range(4):
            theta = rng.uniform(-2.0, 2.0, len(idx))
            point = ds.at(theta)
            grad = obj.eucl_grad(theta)
            a = point.solve(grad)
            field = lambda _: a
            H = dual_hessian_matrix(ds, field, theta, obj.grad_field_jacobian)
            expected, expected_spd = newton_direction(ds, H, grad, theta, a=a)
            beta, spd = geometry.newton_step(point, obj.hessian(theta), grad, a)
            assert spd == expected_spd
            assert_allclose(beta, expected, rtol=1e-10, atol=1e-12)


def test_newton_step_zero_gradient_is_exactly_zero():
    ds = euclidean_structure(3)
    beta, spd = geometry.newton_step(ds.at(np.zeros(3)), np.eye(3), np.zeros(3), np.zeros(3))
    assert spd
    assert np.all(beta == 0.0) and not np.signbit(beta).any()


def test_newton_step_refuses_a_singular_or_non_finite_system():
    point = euclidean_structure(2).at(np.zeros(2))
    grad = np.array([1.0, 0.0])
    with pytest.raises(SingularMatrix):
        geometry.newton_step(point, np.array([[1.0, 1.0], [1.0, 1.0]]), grad, grad)
    # checked before it is symmetrized, where inf - inf would warn
    with pytest.raises(NonFiniteValue):
        geometry.newton_step(point, np.array([[1.0, np.inf], [-np.inf, 1.0]]), grad, grad)


# each model's structure and a point of its chart
SHAPE_CASES = {
    "gaussian": (gaussian.dual_structure(0.5), np.array([0.0, 1.0])),
    "loglinear": (loglinear.dual_structure(SubsetIndex.boltzmann(3), 0.5), np.zeros(6)),
    "beta-mixture": (
        BetaMixtureModel(
            weights=[0.5, 0.5],
            alphas=[2.0, 3.0],
            betas=[3.0, 2.0],
            quadrature=QuadratureRule.gauss_legendre(8),
        ).dual_structure(0.5),
        np.array([2.0, 3.0, 3.0, 2.0]),
    ),
}


@pytest.mark.parametrize("model", sorted(SHAPE_CASES))
@pytest.mark.parametrize("wrong", [-1, 1])
def test_a_vector_of_the_wrong_length_is_named_at_a_point(model, wrong):
    # each contraction and the retraction refuse it with both shapes,
    # not with numpy's broadcast or matmul error
    ds, xi = SHAPE_CASES[model]
    point = ds.at(xi)
    v = np.ones(xi.size + wrong)
    named = f"{re.escape(str(v.shape))}.*{re.escape(str(xi.shape))}"
    for contract in (point.dual_dot, point.lowered, point.quad):
        with pytest.raises(DimensionMismatch, match=named):
            contract(v)
    with pytest.raises(DimensionMismatch, match=named):
        second_order_retract(point, v)
    H = np.eye(xi.size + wrong)
    with pytest.raises(DimensionMismatch, match=re.escape(str(H.shape))):
        newton_direction(ds, H, np.ones(xi.size), xi)
    with pytest.raises(DimensionMismatch, match=re.escape(str((2, 3)))):
        newton_direction(ds, np.ones((2, 3)), np.ones(xi.size), xi)


def test_retract_flat_is_translation():
    ds = euclidean_structure(3)
    xi = np.array([1.0, 2.0, 3.0])
    beta = np.array([0.1, -0.2, 0.3])
    assert_allclose(second_order_retract(ds.at(xi), beta), xi + beta)


def test_retract_gaussian_quadratic_correction():
    # mean step of 0.1 at sigma = 1 pulls sigma down by half
    # Gamma^sigma_mumu * 0.01 = 0.0025
    ds = gaussian.dual_structure(0.0)
    out = second_order_retract(ds.at(np.array([0.0, 1.0])), np.array([0.1, 0.0]))
    assert_allclose(out, [0.1, 0.9975], rtol=0, atol=1e-15)


def test_retract_zero_step_fixed_point():
    ds = gaussian.dual_structure(0.3)
    xi = np.array([0.4, 0.9])
    assert_allclose(second_order_retract(ds.at(xi), np.zeros(2)), xi)


def test_retract_domain_violation():
    # the retraction returns its formula's point off the chart too; the
    # trial's objective pass raises the model's check error there, and
    # the run loop's guard refuses the trial
    inside = lambda xi: xi[1] > 0
    check = point_check(2, inside)
    guarded = euclidean_structure(2, inside=inside)
    # an objective whose pass starts with the model's check, as the
    # package's objectives do
    obj = Objective(
        dim=2,
        value=lambda x: float(check(x) @ x),
        eucl_grad=lambda x: 2.0 * check(x),
    )
    xi = np.array([0.0, 1.0])
    form = lambda: second_order_retract(guarded.at(xi), np.array([0.0, -2.0]))
    assert form().tolist() == [0.0, -1.0]
    with pytest.raises(DomainViolation, match="outside the domain"):
        obj.value_and_grad(form())
    assert _evaluate(guarded, obj, form) is None
    # at alpha = -1/2 the symbol Gamma^sigma_sigma,sigma is 0, so the step
    # lands at sigma = 1e200, where sigma^2 overflows
    ds = gaussian.dual_structure(-0.5)
    divergence = AlphaDivergenceObjective(0.5, -0.3, 1.2, 0.8)
    form = lambda: second_order_retract(ds.at(xi), np.array([0.0, 1e200]))
    assert form().tolist() == [0.0, 1e200]
    with pytest.raises(DomainViolation, match="sigma\\^2 overflows"):
        divergence.value_and_grad(form())
    assert _evaluate(ds, divergence, form) is None


def test_retract_tangency():
    # the retraction curve leaves xi with velocity beta
    ds = gaussian.dual_structure(-0.5)
    xi = np.array([0.2, 1.3])
    beta = np.array([0.4, -0.3])
    for t in (1e-3, 1e-4):
        drift = (second_order_retract(ds.at(xi), t * beta) - xi) / t - beta
        gamma = ds.gamma(xi)
        bound = 0.5 * t * abs(np.einsum("jki,j,k->i", gamma, beta, beta)).max()
        assert np.max(np.abs(drift)) <= bound + 1e-12


def test_levi_civita_constant_metric_vanishes():
    lc = levi_civita_from_metric(lambda xi: np.diag([2.0, 3.0]), np.array([0.5, 0.5]))
    assert np.max(np.abs(lc)) < 1e-9


def test_levi_civita_matches_gaussian_alpha_zero():
    xi = np.array([0.7, 1.4])
    lc = levi_civita_from_metric(gaussian.fisher_metric, xi)
    assert_allclose(lc, gaussian.dual_structure(0.0).gamma(xi), atol=1e-6)


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
    low_dual = geometry.lower_index(gaussian.dual_structure(-0.35).gamma(xi), G)
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
    # the structure's evaluation starts with the model's own point check,
    # which refuses a wrong shape as a DimensionMismatch, and a non-finite
    # entry and a point outside the chart as a PointError
    ds, inside, outside = _domain_case(model)
    ds.at(inside)
    for x in (inside[:-1], np.append(inside, 1.0), inside.reshape(1, -1)):
        with pytest.raises(DimensionMismatch):
            ds.at(x)
    for i in range(len(inside)):
        for bad in (np.nan, np.inf, -np.inf):
            x = inside.copy()
            x[i] = bad
            with pytest.raises(PointError):
                ds.at(x)
    for x in outside:
        with pytest.raises(DomainViolation):
            ds.at(x)


def test_a_lazy_attribute_is_computed_once_and_kept_in_the_instance():
    calls = []

    class Record:
        @geometry.lazy
        def value(self):
            """the doc"""
            calls.append(self)
            return len(calls)

    first, second = Record(), Record()
    assert (first.value, first.value, second.value) == (1, 1, 2)
    assert calls == [first, second]
    assert vars(first) == {"value": 1}
    assert Record.value.__doc__ == "the doc"


def test_a_point_factors_its_metric_once():
    # the Gaussian's roots are G's one check and the diagonal of its factor
    point = gaussian.dual_structure(0.0).at(np.array([0.5, 2.0]))
    roots = point.evaluation.roots
    point.solve(np.ones(2))
    assert point.evaluation.roots is roots
