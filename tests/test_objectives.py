import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualnewton import geometry
from dualnewton.errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainViolation,
    MomentInfeasible,
    NonFiniteValue,
)
from dualnewton.experiments import MIXTURE_INIT, RunConfig
from dualnewton.linalg import EPS, fd_jacobian
from dualnewton.models import betamix, gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.models.gaussian import dual_structure as gaussian_structure
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

from helpers import Objective, count_calls, fd_gradient, fd_hessian


def make_kl(n=3, lam1=0.0, lam2=0.0, seed=7):
    rng = np.random.default_rng(seed)
    index = loglinear.SubsetIndex.boltzmann(n)
    eta_hat = loglinear.moments(index, rng.uniform(-0.6, 0.6, len(index)))
    return index, KLProjectionObjective(index, eta_hat, lam1, lam2), rng


def test_generic_objective_holds_callables():
    obj = Objective(
        dim=2,
        value=lambda x: float(x @ x),
        eucl_grad=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(2),
    )
    assert obj.value(np.array([1.0, 2.0])) == 5.0
    assert obj.value_and_grad(np.array([1.0, 2.0]))[1].tolist() == [2.0, 4.0]
    assert obj.hessian(np.zeros(2)).tolist() == [[2.0, 0.0], [0.0, 2.0]]
    # only Newton reads the Hessian; an objective built without one says so
    bare = Objective(dim=2, value=obj.value, eucl_grad=obj.eucl_grad)
    with pytest.raises(AssertionError, match="without a Hessian"):
        bare.hessian(np.zeros(2))


def test_kl_value_zero_when_model_matches_target():
    index = loglinear.SubsetIndex.boltzmann(1)
    obj = KLProjectionObjective(index, np.array([0.5]))
    assert abs(obj.value(np.zeros(1))) < 1e-14


def test_kl_gradient_sigmoid_oracle():
    # d/dtheta at theta=1 is sigmoid(1) - 0.5
    index = loglinear.SubsetIndex.boltzmann(1)
    obj = KLProjectionObjective(index, np.array([0.5]))
    assert obj.eucl_grad(np.ones(1))[0] == pytest.approx(0.2310585786300049, abs=1e-14)


def test_kl_regularizer_gradient_vanishes_at_zero():
    index, obj, _ = make_kl(3, 0.5, 0.5)
    expected = loglinear.moments(index, np.zeros(len(index))) - obj.eta_hat
    np.testing.assert_allclose(obj.eucl_grad(np.zeros(len(index))), expected, atol=1e-14)


def test_kl_value_is_divergence_plus_penalty():
    index, obj, rng = make_kl(3, 0.3, 0.8)
    theta = rng.uniform(-1.0, 1.0, len(index))
    p_hat = loglinear.probabilities(index, obj._theta_hat)
    p = loglinear.probabilities(index, theta)
    kl = float(np.sum(p_hat * (np.log(p_hat) - np.log(p))))
    penalty = float(obj.lam @ (theta * theta))
    assert obj.value(theta) == pytest.approx(kl + penalty, rel=1e-12)


def test_kl_lambda_vector_by_interaction_order():
    index = loglinear.SubsetIndex.full(3)
    eta_hat = loglinear.moments(index, np.zeros(len(index)))
    obj = KLProjectionObjective(index, eta_hat, 0.3, 0.8)
    orders = np.array([len(A) for A in index.subsets])
    np.testing.assert_array_equal(obj.lam[orders == 1], 0.3)
    np.testing.assert_array_equal(obj.lam[orders == 2], 0.8)
    np.testing.assert_array_equal(obj.lam[orders == 3], 0.0)


def test_kl_target_outside_polytope_rejected():
    index = loglinear.SubsetIndex.boltzmann(2)
    with pytest.raises(MomentInfeasible):
        KLProjectionObjective(index, np.array([0.9, 0.9, 0.05]))


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_kl_value_that_is_not_finite_raises_without_a_warning(scale):
    # the value overflows to inf at 1e200 and to NaN at 1e308
    _, obj, _ = make_kl(3, 0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="not finite"):
            obj.value_and_grad(np.full(obj.dim, scale))


def test_kl_value_and_grad_reads_one_pass(monkeypatch):
    # one loglinear.evaluate call per point, with the bits of the formula
    # written through the model's log-partition and moments readers
    _, obj, rng = make_kl(3, 0.3, 0.8)
    thetas = [rng.uniform(-1.0, 1.0, obj.dim) for _ in range(20)]
    expected = [
        (
            float(
                float(loglinear.evaluate(obj.index, theta).lse)
                + obj._phi_hat
                - theta @ obj.eta_hat
                + obj.lam @ (theta * theta)
            ),
            loglinear.moments(obj.index, theta) - obj.eta_hat + 2.0 * obj.lam * theta,
        )
        for theta in thetas
    ]
    calls = {}
    count_calls(monkeypatch, calls, "evaluate", loglinear)
    for theta, (f, grad) in zip(thetas, expected):
        before = calls["evaluate"]
        got_f, got_grad = obj.value_and_grad(theta)
        assert calls["evaluate"] - before == 1
        assert type(got_f) is float and got_f == f
        assert got_grad.tobytes() == grad.tobytes()


def test_kl_gradient_matches_fd():
    index, obj, rng = make_kl(3, 0.3, 0.8)
    for _ in range(20):
        theta = rng.uniform(-1.2, 1.2, len(index))
        g = obj.eucl_grad(theta)
        g_fd = fd_gradient(obj.value, theta)
        assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))) < 1e-6


def test_kl_grad_field_jacobian_matches_fd():
    index, obj, rng = make_kl(3, 0.5, 0.5)
    ds = loglinear.dual_structure(index, 1.0)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, len(index))
        J = obj.grad_field_jacobian(theta)
        J_fd = fd_jacobian(field, theta)
        assert np.max(np.abs(J - J_fd)) < 1e-7 * max(1.0, np.max(np.abs(J_fd)))


def test_kl_hessian_is_the_metric_plus_the_penalty_and_the_fd_of_its_gradient():
    index, obj, rng = make_kl(3, 0.3, 0.8)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, len(index))
        H = obj.hessian(theta)
        expected = loglinear.fisher_metric(index, theta) + 2.0 * np.diag(obj.lam)
        assert H.tobytes() == expected.tobytes()
        H_fd = fd_jacobian(obj.eucl_grad, theta)
        assert np.abs(H - H_fd).max() < 1e-8 * max(1.0, np.abs(H).max())


@pytest.mark.parametrize("lam", [(0.0, 0.0), (0.5, 0.5)])
def test_affine_coordinate_hessian_identity(lam):
    # in flat coordinates the metric times the transposed dual Hessian
    # is the plain coordinate Hessian of the objective
    index, obj, rng = make_kl(3, *lam)
    ds = loglinear.dual_structure(index, 1.0)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for _ in range(10):
        theta = rng.uniform(-1.0, 1.0, len(index))
        H = geometry.dual_hessian_matrix(ds, field, theta, jacobian=obj.grad_field_jacobian)
        GH = loglinear.fisher_metric(index, theta) @ H.T
        H_fd = fd_hessian(obj.value, theta)
        assert np.max(np.abs(GH - H_fd)) / np.max(np.abs(H_fd)) < 1e-5


@pytest.mark.parametrize("lam1,lam2", [(0.5, 0.5), (0.3, 0.8), (1.0, 1.0)])
def test_regularizer_shifts_hessian_by_diagonal(lam1, lam2):
    index, obj, rng = make_kl(3, lam1, lam2)
    ds = loglinear.dual_structure(index, 1.0)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, len(index))
        H = geometry.dual_hessian_matrix(ds, field, theta, jacobian=obj.grad_field_jacobian)
        G = loglinear.fisher_metric(index, theta)
        shift = G @ H.T - G
        np.testing.assert_allclose(shift, 2.0 * np.diag(obj.lam), atol=1e-6)
        if lam1 == lam2 == 1.0:
            np.testing.assert_allclose(shift, 2.0 * np.eye(len(index)), atol=1e-6)


def test_alpha_divergence_zero_on_itself():
    obj = AlphaDivergenceObjective(0.7, 0.7, 1.2, 1.2)
    assert abs(obj.value(np.array([0.7, 1.2]))) < 1e-14


def test_alpha_divergence_matches_quadrature_oracle():
    # frozen value of the two-dimensional power integral at (1.75, 1.0),
    # computed by adaptive quadrature of target^2/model per coordinate
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    assert obj.value(np.array([1.75, 1.0])) == pytest.approx(
        0.5239869638816754, rel=1e-6
    )


def test_alpha_divergence_nonnegative_on_grid():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    for mu in np.linspace(-1.0, 4.0, 7):
        for sigma in np.linspace(1.0, 3.0, 7):
            assert obj.value(np.array([mu, sigma])) >= 0.0


def test_alpha_divergence_integrability_failure():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    # 2 sigma^2 <= max(sigma_i^2) = 1.69 breaks the variance factor
    with pytest.raises(DivergenceUndefined):
        obj.value(np.array([1.75, 0.9]))
    with pytest.raises(DomainViolation):
        obj.value(np.array([1.75, -1.0]))


def test_alpha_divergence_rejects_kl_limit_order():
    with pytest.raises(ValueError):
        AlphaDivergenceObjective(0.0, 0.0, 1.0, 1.0, alpha_bar=1.0)


# each constructor's parameters at a usable value, and the infinity
# that replaces each one besides a NaN
_USABLE = {
    KLProjectionObjective: dict(
        index=loglinear.SubsetIndex.boltzmann(2),
        eta_hat=[0.5, 0.5, 0.25],
        lam1=0.1,
        lam2=0.1,
    ),
    AlphaDivergenceObjective: dict(
        mu1=2.0, mu2=1.5, sigma1=1.3, sigma2=0.7, alpha_bar=3.0
    ),
    BetaMixtureModel: dict(weights=[0.4, 0.6], alphas=[2.0, 3.0], betas=[5.0, 2.0]),
}
_INFINITE = {
    KLProjectionObjective: dict(lam1=np.inf, lam2=np.inf),
    AlphaDivergenceObjective: dict(
        mu1=-np.inf, mu2=np.inf, sigma1=np.inf, sigma2=-np.inf, alpha_bar=np.inf
    ),
    BetaMixtureModel: dict(weights=np.inf, alphas=-np.inf, betas=np.inf),
}


@pytest.mark.parametrize(
    "build, name, bad",
    [
        (build, name, bad)
        for build, infinite in _INFINITE.items()
        for name in infinite
        for bad in (np.nan, infinite[name])
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_constructors_reject_a_non_finite_parameter_by_name(build, name, bad):
    # each comparison fails on NaN, so a NaN parameter is refused as an
    # infinite one is, and the message names the parameter; a vector
    # parameter gets the bad value in its first entry
    usable = _USABLE[build][name]
    value = [bad, *usable[1:]] if isinstance(usable, list) else bad
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(**dict(_USABLE[build], **{name: value}))


def test_alpha_divergence_gradient_matches_fd():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = np.array([rng.uniform(0.0, 3.0), rng.uniform(1.0, 2.5)])
        g = obj.eucl_grad(xi)
        g_fd = fd_gradient(obj.value, xi)
        assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))) < 1e-6


def test_alpha_divergence_analytic_grad_matches_fd_grad():
    rng = np.random.default_rng(5)
    for alpha_bar in (3.0, 0.5, -0.6):
        obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
        for _ in range(20):
            xi = np.array([rng.uniform(-1.0, 3.0), rng.uniform(1.1, 3.0)])
            g = obj.analytic_grad(xi)
            g_fd = fd_gradient(obj.value, xi)
            assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g))) < 1e-6


def _reference_derivs(obj, xi):
    """The alpha-divergence's exact gradient and Hessian in numpy: the
    closed-form Hessian -K e^S (grad S grad S^T + hess S) over Python
    floats, then assembled as numpy 2 x 2 products, the formula that
    ``hessian`` folds into one pass over Python floats."""
    mu, sigma, _, scale, ds_mu, ds_sigma = obj._pass(xi)
    half, w = obj._half, obj._w
    dc = 2.0 * half * sigma
    h_mm = h_ms = h_ss = 0.0
    for mu_i, share, _ in obj._targets:
        c = half * (sigma * sigma) + share
        d = mu_i - mu
        h_mm += 2.0 * w / c
        h_ms += 2.0 * w * d * dc / (c * c)
        h_ss += (
            -half / (sigma * sigma)
            - half / c
            + 0.5 * dc * dc / (c * c)
            - w * (d * d) * (2.0 * half / (c * c) - 2.0 * dc * dc / (c * c * c))
        )
    grad_s = np.array([ds_mu, ds_sigma])
    hess_s = np.array([[h_mm, h_ms], [h_ms, h_ss]])
    return scale * grad_s, scale * (np.outer(grad_s, grad_s) + hess_s)


def test_alpha_divergence_analytic_hessian_matches_fd():
    # the reference's Hessian is the Hessian of value, and its gradient
    # the one value_and_grad returns
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    for pt in [(1.75, 1.0), (0.5, 2.0), (2.0, 1.1)]:
        xi = np.array(pt)
        grad, H = _reference_derivs(obj, xi)
        assert grad.tobytes() == obj.eucl_grad(xi).tobytes()
        assert H[0, 1] == H[1, 0]
        H_fd = fd_hessian(obj.value, xi)
        assert np.max(np.abs(H - H_fd)) / np.max(np.abs(H)) < 1e-5


def test_alpha_divergence_hessian_near_fd_of_its_gradient():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    for pt in [(1.75, 1.0), (0.5, 2.0), (2.0, 1.1)]:
        xi = np.array(pt)
        H = obj.hessian(xi)
        H_fd = fd_jacobian(obj.eucl_grad, xi)
        assert np.max(np.abs(H - H_fd)) / np.max(np.abs(H_fd)) < 1e-5


@pytest.mark.parametrize("alpha_bar", [3.0, 0.5, -0.6])
def test_alpha_divergence_hessian_evaluates_the_integral_once(monkeypatch, alpha_bar):
    # one closed-form pass per Hessian, with the bytes of the numpy
    # reference inside the integrable box
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    closed_form = obj._pass
    calls = []
    monkeypatch.setattr(obj, "_pass", lambda xi: calls.append(1) or closed_form(xi))
    rng = np.random.default_rng(13)
    for _ in range(50):
        xi = np.array([rng.uniform(-1.0, 3.0), rng.uniform(1.0, 3.0)])
        expected = _reference_derivs(obj, xi)[1]
        before = len(calls)
        H = obj.hessian(xi)
        assert len(calls) - before == 1
        assert H.tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", RunConfig.defaults("exp2").alphas)
def test_alpha_divergence_newton_operator_is_symmetric(alpha):
    # K = hess f - lowered(a) is symmetric bit for bit at the exp2 start
    # and elsewhere, and it is the paper form's G H^T, whose field
    # Jacobian is taken here by central differences
    cfg = RunConfig.defaults("exp2")
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0)
    ds = gaussian_structure(alpha)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for pt in [(cfg.mu0, cfg.sigma0), (1.75, 1.0), (0.0, 1.5), (2.5, 3.0)]:
        xi = np.array(pt)
        point = ds.at(xi)
        K = obj.hessian(xi) - point.lowered(point.solve(obj.eucl_grad(xi)))
        assert K.tobytes() == K.T.tobytes()
        jacobian = lambda x: fd_jacobian(field, x)
        GH = point.G @ geometry.dual_hessian_matrix(ds, field, xi, jacobian).T
        assert np.abs(GH - K).max() / np.abs(K).max() < 1e-7


def make_mixture(seed=11, n_points=200):
    model = BetaMixtureModel(
        weights=np.array([0.35, 0.4, 0.25]),
        alphas=np.array([2.0, 3.0, 5.0]),
        betas=np.array([5.0, 2.0, 3.5]),
    )
    data = model.sample(n_points, seed=seed)
    return model, BetaMixtureNLL(model, data)


def test_beta_nll_uniform_component_is_zero():
    model = BetaMixtureModel(
        weights=np.array([1.0]), alphas=np.array([1.0]), betas=np.array([1.0])
    )
    data = np.random.default_rng(0).uniform(0.05, 0.95, size=(50, 2))
    obj = BetaMixtureNLL(model, data)
    assert abs(obj.value(np.array([1.0, 1.0]))) < 1e-12


def test_beta_nll_is_a_sum_over_points():
    model, obj = make_mixture(n_points=60)
    doubled = BetaMixtureNLL(model, np.vstack([obj.data, obj.data]))
    xi = model.generating_point()
    assert doubled.value(xi) == pytest.approx(2.0 * obj.value(xi), rel=1e-12)


def test_beta_nll_gradient_matches_fd():
    _, obj = make_mixture()
    xi = obj.model.generating_point()
    g = obj.eucl_grad(xi)
    g_fd = fd_gradient(obj.value, xi)
    assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))) < 1e-6


def test_beta_nll_gradient_matches_fd_away_from_truth():
    _, obj = make_mixture()
    rng = np.random.default_rng(5)
    for _ in range(5):
        xi = rng.uniform(0.8, 6.0, obj.dim)
        g = obj.eucl_grad(xi)
        g_fd = fd_gradient(obj.value, xi)
        assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))) < 1e-6


def test_beta_nll_rejects_boundary_data():
    model = BetaMixtureModel(
        weights=np.array([1.0]), alphas=np.array([2.0]), betas=np.array([2.0])
    )
    with pytest.raises(ValueError):
        BetaMixtureNLL(model, np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        BetaMixtureNLL(model, np.array([[0.0, 0.5]]))



# ---- the mixture's Hessian ---------------------------------------------------


def small_mixture():
    model = BetaMixtureModel(
        weights=np.array([0.35, 0.4, 0.25]),
        alphas=np.array([2.0, 3.0, 5.0]),
        betas=np.array([5.0, 2.0, 3.5]),
        quadrature=QuadratureRule.gauss_legendre(16),
    )
    return BetaMixtureNLL(model, model.sample(200, seed=11))


@pytest.mark.parametrize("scale", [1.0, 0.4, 2.5])
def test_mixture_hessian_is_the_derivative_of_its_gradient(scale):
    # exact, so central differences of the analytic gradient meet it to
    # their own truncation, and symmetric bit for bit
    obj = small_mixture()
    xi = np.array(MIXTURE_INIT) * scale
    H = obj.hessian(xi)
    assert H.tobytes() == H.T.tobytes()
    H_fd = fd_jacobian(obj.eucl_grad, xi)
    assert np.abs(H - H_fd).max() < 1e-8 * np.abs(H).max()


def test_mixture_hessian_is_one_score_pass_over_the_data(monkeypatch):
    # no node pass: the Hessian sums the second log-derivatives of the
    # data's own score pass, by the formula the node pass uses
    obj = small_mixture()
    calls = {}
    count_calls(monkeypatch, calls, "scores", obj.model)
    count_calls(monkeypatch, calls, "nodes", obj.model)
    xi = np.array(MIXTURE_INIT)
    H = obj.hessian(xi)
    assert calls == {"scores": 1, "nodes": 0}
    s, resp, u, _ = obj.model.scores(xi, obj._log_sums)
    curv = obj.model._component_curvature(xi)
    second = betamix._second_derivatives(s, resp, u, curv)
    assert H.tobytes() == (-second.sum(axis=0)).tobytes()


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.ones(5), DimensionMismatch),
        (np.ones(7), DimensionMismatch),
        (np.ones((2, 3)), DimensionMismatch),
        (np.array([2.0, 4.0, 3.0, 0.0, 4.0, 3.0]), DomainViolation),
        (np.array([2.0, 4.0, -3.0, 2.0, 4.0, 3.0]), DomainViolation),
        (np.array([2.0, 4.0, 3.0, 2.0, np.nan, 3.0]), DomainViolation),
        (np.array([np.inf, 4.0, 3.0, 2.0, 4.0, 3.0]), DomainViolation),
    ],
)
def test_a_point_off_the_chart_is_refused_by_the_mixture_hessian(bad, error):
    obj = small_mixture()
    with pytest.raises(error) as raised:
        obj.hessian(bad)
    assert type(raised.value) is error


FIXED = dict(derandomize=True, deadline=None, database=None)
_KL = make_kl(3, 0.3, 0.8)[1]
_ALPHA = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
_MIXTURE = make_mixture(n_points=300)[1]
# a test objective built from another objective's callables
_GENERIC = Objective(dim=2, value=_ALPHA.value, eucl_grad=_ALPHA.analytic_grad)


def _point_in(obj, u):
    """A point of obj's domain from unit-interval draws u."""
    if obj is _KL:
        return -1.0 + 2.0 * u[: obj.dim]
    if obj is _MIXTURE:
        return 0.5 + 7.5 * u[: obj.dim]
    # alpha-divergence: mu in [-1, 3], sigma in [1, 3] keeps c_i > 0
    return np.array([-1.0 + 4.0 * u[0], 1.0 + 2.0 * u[1]])


@settings(max_examples=30, **FIXED)
@given(
    obj=st.sampled_from([_KL, _ALPHA, _MIXTURE, _GENERIC]),
    u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(np.array),
)
def test_value_and_grad_is_value_then_eucl_grad_bit_for_bit(obj, u):
    xi = _point_in(obj, u)
    f, grad = obj.value_and_grad(xi)
    assert type(f) is float
    assert f == obj.value(xi)
    assert grad.tobytes() == obj.eucl_grad(xi).tobytes()


def _reference_alpha_value(obj, xi):
    """AlphaDivergenceObjective.value as a lone evaluation over Python
    floats: the closed form summed per coordinate, with libm's log and
    exp, which numpy's vectorized log and exp need not match bit for
    bit."""
    mu, sigma = np.asarray(xi, dtype=float).tolist()
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainViolation(f"sigma must be positive, got {sigma}")
    ab = obj.alpha_bar
    log_integral = 0.0
    for mu_i, sigma_i in zip(obj.mu_targets.tolist(), obj.sigma_targets.tolist()):
        c = 0.5 * (1.0 + ab) * (sigma * sigma) + 0.5 * (1.0 - ab) * (sigma_i * sigma_i)
        if c <= 0:
            raise DivergenceUndefined(f"variance factor {c}")
        log_integral += (
            0.5 * (1.0 - ab) * math.log(sigma_i)
            + 0.5 * (1.0 + ab) * math.log(sigma)
            - 0.5 * math.log(c)
            - 0.125 * (1.0 - ab * ab) * (mu_i - mu) ** 2 / c
        )
    try:
        integral = math.exp(log_integral)
    except OverflowError:
        raise NonFiniteValue(f"divergence overflowed at {xi}") from None
    f = 4.0 / (1.0 - ab * ab) * (1.0 - integral)
    if not np.isfinite(f):
        raise NonFiniteValue(f"divergence overflowed at {xi}")
    return f


def _outcome(fn, xi):
    try:
        return fn(xi)
    except (DomainViolation, DivergenceUndefined, NonFiniteValue) as exc:
        return type(exc)


@settings(max_examples=300, **FIXED)
@given(
    alpha_bar=st.sampled_from([3.0, 0.5, -0.6]),
    mu=st.floats(-1e3, 1e3),
    log_sigma=st.floats(-3.0, 3.0),
)
def test_alpha_divergence_value_matches_reference_bit_for_bit(alpha_bar, mu, log_sigma):
    # same bits or the same exception class; an exp that overflows ends in
    # NonFiniteValue without a RuntimeWarning
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    xi = np.array([mu, 10.0**log_sigma])
    with np.errstate(over="ignore"):
        expected = _outcome(lambda x: _reference_alpha_value(obj, x), xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(obj.value, xi)
    if isinstance(expected, float):
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    else:
        assert got is expected


def test_alpha_divergence_overflow_raises_without_a_warning():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            obj.value(np.array([1000.0, 1.0]))


def _reference_alpha(obj, xi):
    """f and its gradient -K e^S grad S, K = 4 / (1 - abar^2), from the
    closed form of S = log(J1 J2) in numpy, over both target coordinates
    at once."""
    mu, sigma = np.asarray(xi, dtype=float)
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainViolation(f"sigma must be positive, got {sigma}")
    ab = obj.alpha_bar
    mu_t, sigma_t = obj.mu_targets, obj.sigma_targets
    c = 0.5 * (1.0 + ab) * sigma**2 + 0.5 * (1.0 - ab) * sigma_t**2
    if np.any(c <= 0):
        raise DivergenceUndefined(f"variance factors {c}")
    w = -0.125 * (1.0 - ab * ab)
    d = mu_t - mu
    dc = (1.0 + ab) * sigma
    log_j = (
        0.5 * (1.0 - ab) * np.log(sigma_t)
        + 0.5 * (1.0 + ab) * np.log(sigma)
        - 0.5 * np.log(c)
        + w * d**2 / c
    )
    grad_s = np.array(
        [
            np.sum(-2.0 * w * d / c),
            np.sum(0.5 * (1.0 + ab) / sigma - 0.5 * dc / c - w * d**2 * dc / c**2),
        ]
    )
    k = 4.0 / (1.0 - ab * ab)
    integral = np.exp(log_j.sum())
    f = k * (1.0 - integral)
    if not np.isfinite(f):
        raise NonFiniteValue(f"divergence overflowed at {xi}")
    return float(f), -k * integral * grad_s


# at abar = 3 the factor c_1 = 2 sigma^2 - 1.3^2 vanishes here
_SIGMA_EDGE = 1.3 * np.sqrt((3.0 - 1.0) / (3.0 + 1.0))
# a point whose value (about 8e307) is finite but whose gradient overflows
_GRADIENT_OVERFLOW = (-4.366765459597842, 0.9352815477270064)


def _overflow_edge_mu(sigma, log_integral):
    """The mu < 0 at which log(J1 J2) = log_integral at abar = 3, where
    log J_i = -log sigma_i + 2 log sigma - log(c_i) / 2 + (mu_i - mu)^2 / c_i.
    Near log_integral = 710 the value f = (J1 J2 - 1) / 2 meets the
    float64 overflow."""
    c = 2.0 * sigma**2 - _ALPHA.sigma_targets**2
    rest = log_integral - np.sum(
        -np.log(_ALPHA.sigma_targets) + 2.0 * np.log(sigma) - 0.5 * np.log(c)
    )
    # sum (mu_i - mu)^2 / c_i = rest, a quadratic in mu
    a, b = np.sum(1.0 / c), np.sum(_ALPHA.mu_targets / c)
    disc = b * b - a * (np.sum(_ALPHA.mu_targets**2 / c) - rest)
    return (b - np.sqrt(max(disc, 0.0))) / a


def _alpha_point(family, u, v):
    if family == "inside":
        # mu in [-1, 3], sigma in [1.1, 3]: every c_i > 0, and f not so
        # steep that central differences lose their sixth digit
        return np.array([-1.0 + 4.0 * u, 1.1 + 1.9 * v])
    if family == "wide":
        return np.array([-1e3 + 2e3 * u, 10.0 ** (-3.0 + 6.0 * v)])
    if family == "zero":
        # sigma within 2 sqrt(EPS) of 0: outside the domain, or inside it
        # where the variance factors fail integrability (abar = 3)
        return np.array([-5.0 + 10.0 * u, (4.0 * v - 2.0) * np.sqrt(EPS)])
    if family == "edge":
        # sigma within 2 sqrt(EPS) of the integrability edge, on either
        # side; mu near mu_1 keeps (mu_1 - mu)^2 / c_1 from overflowing
        return np.array(
            [2.0 + 1e-3 * (2.0 * u - 1.0), _SIGMA_EDGE + (4.0 * v - 2.0) * np.sqrt(EPS)]
        )
    # values from about e^700 up to past the float64 overflow
    sigma = 0.93 + 2.0 * v
    return np.array([_overflow_edge_mu(sigma, 700.0 + 12.0 * u), sigma])


@settings(max_examples=400, **FIXED)
@given(
    alpha_bar=st.sampled_from([3.0, 0.5, -0.6]),
    family=st.sampled_from(["inside", "wide", "zero", "edge", "overflow"]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
@example(alpha_bar=0.5, family="zero", u=0.5, v=0.5)
@example(alpha_bar=3.0, family="zero", u=0.5, v=0.6)
def test_alpha_divergence_pass_matches_closed_form_reference(alpha_bar, family, u, v):
    # value_and_grad against the numpy closed form: the same exception
    # class, or f and the gradient to 1e-13 relative, and no RuntimeWarning;
    # inside the integrable box the gradient is the derivative of value
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    xi = _alpha_point(family, u, v)
    with np.errstate(all="ignore"):
        expected = _outcome(lambda x: _reference_alpha(obj, x), xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(obj.value_and_grad, xi)
    if isinstance(expected, type):
        assert got is expected
        return
    (f, grad), (f_ref, grad_ref) = got, expected
    assert type(f) is float
    assert abs(f - f_ref) <= 1e-13 * abs(f_ref)
    # a gradient entry past the float64 range overflows as the reference's does
    finite = np.isfinite(grad_ref)
    scale = np.abs(grad_ref[finite]).max(initial=0.0)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-13, atol=1e-13 * scale)
    if family == "inside":
        g_fd = fd_gradient(obj.value, xi)
        assert np.abs(grad - g_fd).max() < 1e-6 * max(1.0, np.abs(g_fd).max())


def test_alpha_divergence_draws_reach_every_outcome():
    # the draws above cover the boundary and the overflow, not only the
    # interior: each family below meets the outcome it is drawn for
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, 3.0)
    grid = np.linspace(0.0, 1.0, 21)
    outcomes = {
        family: {
            o if isinstance(o, type) else bool(np.isfinite(o[1]).all())
            for o in (
                _outcome(obj.value_and_grad, _alpha_point(family, u, v))
                for u in grid
                for v in grid
            )
        }
        for family in ("zero", "edge", "overflow")
    }
    # near sigma = 0: outside the domain, or inside it and not integrable
    assert {DivergenceUndefined, DomainViolation} <= outcomes["zero"]
    # within two steps of the edge, some sigma fall below it
    assert {DivergenceUndefined, True} <= outcomes["edge"]
    # along the overflow edge: finite, an overflowing gradient, an
    # overflowing value
    assert {NonFiniteValue, True, False} <= outcomes["overflow"]


@pytest.mark.parametrize("alpha_bar", [3.0, 0.5, -0.6])
def test_alpha_divergence_evaluates_one_pass_per_call(monkeypatch, alpha_bar):
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    closed_form = obj._pass
    passes = []
    monkeypatch.setattr(obj, "_pass", lambda xi: passes.append(1) or closed_form(xi))
    xi = np.array([1.75, 1.2])
    for method in (obj.value, obj.eucl_grad, obj.value_and_grad, obj.analytic_grad):
        before = len(passes)
        method(xi)
        assert len(passes) - before == 1


def test_alpha_divergence_gradient_overflow_raises_no_warning():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    xi = np.array(_GRADIENT_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = obj.value(xi)
        grad = obj.eucl_grad(xi)
        pair = obj.value_and_grad(xi)
    assert 1e307 < f < np.finfo(float).max
    np.testing.assert_array_equal(grad, [-np.inf, -np.inf])
    assert pair[0] == f
    np.testing.assert_array_equal(pair[1], grad)


@pytest.mark.parametrize("shape", [(3,), (2, 1), ()])
@pytest.mark.parametrize("method", ["value", "eucl_grad", "value_and_grad"])
def test_alpha_divergence_names_a_bad_shape(method, shape):
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    with pytest.raises(DimensionMismatch, match=re.escape(str(shape))):
        getattr(obj, method)(np.ones(shape))


def _analytic_outcome(fn, xi):
    """The exception class fn raises at xi, or None when it returns."""
    try:
        fn(xi)
    except (DimensionMismatch, DomainViolation, DivergenceUndefined, NonFiniteValue) as exc:
        return type(exc)
    return None


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=300, **FIXED)
@given(
    alpha_bar=st.sampled_from([3.0, 0.5, -0.6]),
    family=st.sampled_from(["wide", "zero", "edge", "overflow", "mu", "sigma", "shape"]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    bad=_NON_FINITE,
    size=st.sampled_from([1, 3]),
)
@example(alpha_bar=3.0, family="sigma", u=0.5, v=0.5, bad=np.nan, size=1)
@example(alpha_bar=3.0, family="sigma", u=0.5, v=0.5, bad=np.inf, size=1)
@example(alpha_bar=3.0, family="zero", u=0.5, v=0.25, bad=np.nan, size=1)
def test_alpha_divergence_analytics_fail_like_value(alpha_bar, family, u, v, bad, size):
    # value_and_grad, eucl_grad, analytic_grad and hessian raise the
    # exception class value raises at the same point, and return wherever
    # value returns, except that the Hessian raises NonFiniteValue where
    # an entry overflows; none warns first
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    if family == "mu":
        xi = np.array([bad, 0.5 + 2.0 * v])
    elif family == "sigma":
        xi = np.array([-1.0 + 4.0 * u, bad])
    elif family == "shape":
        xi = np.full(size, 1.0 + u)
    else:
        xi = _alpha_point(family, u, v)
    expected = _analytic_outcome(obj.value, xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in (obj.value_and_grad, obj.eucl_grad, obj.analytic_grad):
            assert _analytic_outcome(method, xi) is expected
        hessian = _analytic_outcome(obj.hessian, xi)
    assert hessian is expected or (expected is None and hessian is NonFiniteValue)


@settings(max_examples=400, **FIXED)
@given(
    alpha_bar=st.sampled_from([3.0, 2.0, 0.5, -0.6, -3.0]),
    family=st.sampled_from(["inside", "wide", "zero", "edge", "overflow"]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
@example(alpha_bar=0.5, family="wide", u=0.0, v=0.0)
def test_alpha_divergence_hessian_matches_numpy_reference(alpha_bar, family, u, v):
    # the float pass against the numpy reference: the same exception
    # class, or NonFiniteValue where the reference divides by zero or has
    # a non-finite entry, or the same bits, with no warning
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    xi = _alpha_point(family, u, v)
    try:
        with np.errstate(all="ignore"):
            expected = _outcome(lambda x: _reference_derivs(obj, x)[1], xi)
    except ZeroDivisionError:
        expected = NonFiniteValue
    if not isinstance(expected, type) and not np.isfinite(expected).all():
        expected = NonFiniteValue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(obj.hessian, xi)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "alpha_bar, xi",
    [
        # sigma^2 underflows to 0: the reference divides by zero
        (0.5, (0.0, 1e-170)),
        # sigma^2 overflows: the point is off the Gaussian chart
        (3.0, (0.0, 1e200)),
        (0.5, (0.0, 1e200)),
        # the value is finite near the float64 overflow, the Hessian is not
        (3.0, (-3.038275290016984, 0.9291766713084724)),
        # off the chart, where a pass without the check returned the
        # finite value -0.5 and a zero gradient
        (3.0, (0.5, 1e155)),
    ],
)
def test_alpha_divergence_hessian_overflow_is_non_finite_value(alpha_bar, xi):
    # on the chart, a finite value whose Hessian overflows raises
    # NonFiniteValue; where sigma^2 overflows, the model's check refuses
    # the point before the value is formed
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    xi = np.array(xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            gaussian.check(xi)
        except DomainViolation:
            for method in (obj.value, obj.hessian):
                with pytest.raises(DomainViolation, match="sigma\\^2 overflows"):
                    method(xi)
        else:
            assert math.isfinite(obj.value(xi))
            with pytest.raises(NonFiniteValue, match="Hessian"):
                obj.hessian(xi)


@pytest.mark.parametrize(
    "xi, error",
    [
        ([1.0, np.nan], DomainViolation),
        # a mu that is not finite is off the chart, named by the check
        ([np.nan, 1.0], DomainViolation),
        ([1.0, np.inf], DomainViolation),
        ([1.0, 1.0, 1.0], DimensionMismatch),
        ([1.0, -1.0], DomainViolation),
        ([-np.inf, 1.0], DomainViolation),
        ([1.0, -np.inf], DomainViolation),
        ([1.0, 0.0], DomainViolation),
    ],
)
def test_alpha_divergence_hessian_names_a_bad_point(xi, error):
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    with pytest.raises(error):
        obj.value(np.array(xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            obj.hessian(np.array(xi))
