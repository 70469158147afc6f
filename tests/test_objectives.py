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
from dualnewton.linalg import EPS, fd_jacobian
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
    c = 0.5 * (1.0 + ab) * sigma**2 + 0.5 * (1.0 - ab) * obj.sigma_targets**2
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


def _reference_alpha_grad(obj, xi):
    """AlphaDivergenceObjective.eucl_grad as the per-probe loop it was:
    four lone evaluations of the reference value."""
    xi = np.asarray(xi, dtype=float)
    grad = np.empty(2)
    for i in range(2):
        h = np.sqrt(EPS) * max(1.0, abs(xi[i]))
        lo, hi = xi.copy(), xi.copy()
        lo[i] -= h
        hi[i] += h
        f_hi = _reference_alpha_value(obj, hi)
        f_lo = _reference_alpha_value(obj, lo)
        grad[i] = (f_hi - f_lo) / (hi[i] - lo[i])
    return grad


# at abar = 3 the factor c_1 = 2 sigma^2 - 1.3^2 vanishes here
_SIGMA_EDGE = 1.3 * np.sqrt((3.0 - 1.0) / (3.0 + 1.0))
# a point whose value (about 8e307) is finite but whose central-difference
# quotients overflow
_QUOTIENT_OVERFLOW = (-4.366765459597842, 0.9352815477270064)


def _overflow_edge_mu(sigma, log_integral):
    """The mu < 0 at which log(J1 J2) = log_integral at abar = 3, where
    log J_i = log_target_i + 2 log sigma - log(c_i) / 2 + (mu_i - mu)^2 / c_i.
    Near log_integral = 710 the value f = (J1 J2 - 1) / 2 meets the
    float64 overflow."""
    c = 2.0 * sigma**2 - _ALPHA.sigma_targets**2
    rest = log_integral - np.sum(_ALPHA._log_target + 2.0 * np.log(sigma) - 0.5 * np.log(c))
    # sum (mu_i - mu)^2 / c_i = rest, a quadratic in mu
    a, b = np.sum(1.0 / c), np.sum(_ALPHA.mu_targets / c)
    disc = b * b - a * (np.sum(_ALPHA.mu_targets**2 / c) - rest)
    return (b - np.sqrt(max(disc, 0.0))) / a


def _alpha_point(family, u, v):
    if family == "wide":
        return np.array([-1e3 + 2e3 * u, 10.0 ** (-3.0 + 6.0 * v)])
    if family == "zero":
        # sigma within two steps of 0: some probes leave the domain while
        # others fail the integrability check first (abar = 3)
        return np.array([-5.0 + 10.0 * u, (4.0 * v - 2.0) * np.sqrt(EPS)])
    if family == "edge":
        # sigma within two steps h = sqrt(EPS) of the integrability edge,
        # so the sigma probes straddle it when the offset is below one
        # step; mu near mu_1 keeps (mu_1 - mu)^2 / c_1 from overflowing
        return np.array(
            [2.0 + 1e-3 * (2.0 * u - 1.0), _SIGMA_EDGE + (4.0 * v - 2.0) * np.sqrt(EPS)]
        )
    # values from about e^700 up to past the float64 overflow
    sigma = 0.93 + 2.0 * v
    return np.array([_overflow_edge_mu(sigma, 700.0 + 12.0 * u), sigma])


def _bits(outcome):
    """An outcome as comparable bytes, or the exception class it raised."""
    if isinstance(outcome, type):
        return outcome
    if isinstance(outcome, tuple):
        f, grad = outcome
        assert type(f) is float
        return np.float64(f).tobytes() + grad.tobytes()
    if isinstance(outcome, float):
        return np.float64(outcome).tobytes()
    return outcome.tobytes()


@settings(max_examples=400, **FIXED)
@given(
    alpha_bar=st.sampled_from([3.0, 0.5, -0.6]),
    family=st.sampled_from(["wide", "zero", "edge", "overflow"]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
@example(alpha_bar=3.0, family="point", u=None, v=None)
@example(alpha_bar=0.5, family="zero", u=0.5, v=0.5)
@example(alpha_bar=3.0, family="zero", u=0.5, v=0.6)
def test_alpha_divergence_stencil_matches_per_probe_loop(alpha_bar, family, u, v):
    # value, eucl_grad and value_and_grad against lone reference values
    # (four per gradient): the same bits or the same exception class, and
    # no RuntimeWarning
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    xi = np.array(_QUOTIENT_OVERFLOW) if family == "point" else _alpha_point(family, u, v)
    references = {
        obj.value: lambda x: _reference_alpha_value(obj, x),
        obj.eucl_grad: lambda x: _reference_alpha_grad(obj, x),
        obj.value_and_grad: lambda x: (
            _reference_alpha_value(obj, x),
            _reference_alpha_grad(obj, x),
        ),
    }
    for method, reference in references.items():
        with np.errstate(all="ignore"):
            expected = _bits(_outcome(reference, xi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _bits(_outcome(method, xi))
        assert got == expected


def test_alpha_divergence_stencil_draws_reach_every_outcome():
    # the draws above cover the boundary and the overflow, not only the
    # interior: each family below meets the outcome it is drawn for
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, 3.0)
    grid = np.linspace(0.0, 1.0, 21)
    outcomes = {
        family: {
            o if isinstance(o, type) else bool(np.isfinite(o).all())
            for o in (
                _outcome(obj.eucl_grad, _alpha_point(family, u, v)) for u in grid for v in grid
            )
        }
        for family in ("zero", "edge", "overflow")
    }
    # near sigma = 0 the first failing probe fails integrability, a later
    # one leaves the domain
    assert {DivergenceUndefined, DomainViolation} <= outcomes["zero"]
    # within two steps of the edge, some sigma probes fall below it
    assert {DivergenceUndefined, True} <= outcomes["edge"]
    # along the overflow edge: finite, overflowing quotients, overflowing probes
    assert {NonFiniteValue, True, False} <= outcomes["overflow"]


@pytest.mark.parametrize("alpha_bar", [3.0, 0.5, -0.6])
def test_alpha_divergence_rows_square_sigma_like_a_lone_evaluation(alpha_bar):
    # the numpy scalar sigma**2 (libm pow) and the array square x*x differ
    # in the last bit on some sigma; at those sigma every row of one pass
    # still has the bits of a lone reference evaluation
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    sigma = np.random.default_rng(17).uniform(1.0, 3.0, 20000)
    sigma = sigma[np.array([s**2 for s in sigma]) != sigma * sigma]
    assert sigma.size >= 5
    X = np.column_stack([np.linspace(-1.0, 3.0, sigma.size), sigma])
    expected = [_reference_alpha_value(obj, x) for x in X]
    assert obj._values(X).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("alpha_bar", [3.0, 0.5, -0.6])
def test_alpha_divergence_evaluates_one_stencil_pass_per_call(monkeypatch, alpha_bar):
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar)
    values = obj._values
    passes = []
    monkeypatch.setattr(obj, "_values", lambda X: passes.append(X.copy()) or values(X))
    xi = np.array([1.75, 1.2])
    h = np.sqrt(EPS) * np.maximum(1.0, np.abs(xi))
    hi_lo = [
        [xi[0] + h[0], xi[1]],
        [xi[0] - h[0], xi[1]],
        [xi[0], xi[1] + h[1]],
        [xi[0], xi[1] - h[1]],
    ]
    obj.value(xi)
    obj.eucl_grad(xi)
    obj.value_and_grad(xi)
    assert len(passes) == 3
    np.testing.assert_array_equal(passes[0], [xi])
    np.testing.assert_array_equal(passes[1], hi_lo)
    np.testing.assert_array_equal(passes[2], [xi] + hi_lo)


def test_alpha_divergence_quotient_overflow_raises_no_warning():
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    xi = np.array(_QUOTIENT_OVERFLOW)
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
