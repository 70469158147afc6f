import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton import geometry
from dualnewton.errors import (
    DivergenceUndefined,
    DomainViolation,
    MomentInfeasible,
    NonFiniteValue,
)
from dualnewton.linalg import fd_jacobian
from dualnewton.models import loglinear
from dualnewton.models.betamix import BetaMixtureModel
from dualnewton.models.gaussian import dual_structure as gaussian_structure
from dualnewton.objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
    Objective,
)

from helpers import fd_gradient, fd_hessian


def make_kl(n=3, lam1=0.0, lam2=0.0, seed=7):
    rng = np.random.default_rng(seed)
    index = loglinear.SubsetIndex.boltzmann(n)
    eta_hat = loglinear.moments(index, rng.uniform(-0.6, 0.6, len(index)))
    return index, KLProjectionObjective(index, eta_hat, lam1, lam2), rng


def test_generic_objective_holds_callables():
    obj = Objective(dim=2, value=lambda x: float(x @ x), eucl_grad=lambda x: 2.0 * x)
    assert obj.value(np.array([1.0, 2.0])) == 5.0
    assert obj.grad_field_jacobian is None


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


def test_alpha_divergence_gradient_matches_fd():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = np.array([rng.uniform(0.0, 3.0), rng.uniform(1.0, 2.5)])
        g = obj.eucl_grad(xi)
        g_fd = fd_gradient(obj.value, xi)
        assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))) < 1e-6


def test_alpha_divergence_analytic_grad_matches_fd_grad():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi = np.array([rng.uniform(-1.0, 3.0), rng.uniform(1.0, 3.0)])
        g = obj.analytic_grad(xi)
        g_fd = obj.eucl_grad(xi)
        assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g))) < 1e-6


def test_alpha_divergence_analytic_hessian_matches_fd():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    for pt in [(1.75, 1.0), (0.5, 2.0), (2.0, 1.1)]:
        xi = np.array(pt)
        H = obj.analytic_hessian(xi)
        assert H[0, 1] == H[1, 0]
        H_fd = fd_hessian(obj.value, xi)
        assert np.max(np.abs(H - H_fd)) / np.max(np.abs(H)) < 1e-5


def test_alpha_divergence_grad_field_jacobian_near_fd():
    # the FD-of-FD oracle itself carries ~1e-3 noise, so the bound is loose
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    ds = gaussian_structure(0.2)
    field = geometry.gradient_field(ds, obj.eucl_grad)
    for pt in [(1.75, 1.0), (0.5, 2.0), (2.0, 1.1)]:
        xi = np.array(pt)
        J = obj.grad_field_jacobian(xi)
        J_fd = fd_jacobian(field, xi)
        assert np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd)) < 2e-3
        exact_field = geometry.gradient_field(ds, obj.analytic_grad)
        J_exact_fd = fd_jacobian(exact_field, xi)
        assert np.max(np.abs(J - J_exact_fd)) / np.max(np.abs(J_exact_fd)) < 1e-5


@pytest.mark.parametrize("alpha_bar", [3.0, 0.5, -0.6])
def test_alpha_divergence_jacobian_evaluates_the_integral_once(monkeypatch, alpha_bar):
    # one closed-form evaluation per Jacobian, and the same bits as the
    # composition of analytic_hessian and analytic_grad
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    derivs = obj._log_integral_derivs
    calls = []
    monkeypatch.setattr(
        obj, "_log_integral_derivs", lambda xi: calls.append(1) or derivs(xi)
    )
    rng = np.random.default_rng(13)
    for _ in range(50):
        xi = np.array([rng.uniform(-1.0, 3.0), rng.uniform(1.0, 3.0)])
        sigma = xi[1]
        g_inv = np.diag([0.5 * sigma**2, 0.25 * sigma**2])
        expected = (g_inv @ obj.analytic_hessian(xi)).T
        expected[1, :] += np.array([sigma, 0.5 * sigma]) * obj.analytic_grad(xi)
        before = len(calls)
        J = obj.grad_field_jacobian(xi)
        assert len(calls) - before == 1
        np.testing.assert_array_equal(J, expected)


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


FIXED = dict(derandomize=True, deadline=None, database=None)
_KL = make_kl(3, 0.3, 0.8)[1]
_ALPHA = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
_MIXTURE = make_mixture(n_points=300)[1]
# the generic objective as experiment exp2 builds it: callables of another
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
    """AlphaDivergenceObjective.value as first written, with the target
    term recomputed at every call."""
    mu, sigma = np.asarray(xi, dtype=float)
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainViolation(f"sigma must be positive, got {sigma}")
    ab = obj.alpha_bar
    c = obj._factors(sigma)
    if np.any(c <= 0):
        raise DivergenceUndefined(f"variance factors {c}")
    log_j = (
        0.5 * (1.0 - ab) * np.log(obj.sigma_targets)
        + 0.5 * (1.0 + ab) * np.log(sigma)
        - 0.5 * np.log(c)
        - 0.125 * (1.0 - ab * ab) * (obj.mu_targets - mu) ** 2 / c
    )
    integral = np.exp(log_j.sum())
    f = 4.0 / (1.0 - ab * ab) * (1.0 - integral)
    if not np.isfinite(f):
        raise NonFiniteValue(f"divergence overflowed at {xi}")
    return float(f)


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
