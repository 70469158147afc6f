import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualnewton import geometry, linalg, optimizers as opt
from dualnewton.errors import DimensionMismatch, DomainViolation
from dualnewton.linalg import cholesky_lower
from dualnewton.models import gaussian
from dualnewton.objectives import AlphaDivergenceObjective

from helpers import count_calls


def test_fisher_values():
    assert_allclose(gaussian.fisher_metric([0.0, 1.0]), np.diag([2.0, 4.0]))
    assert_allclose(gaussian.fisher_metric([5.0, 2.0]), np.diag([0.5, 1.0]))


def test_fisher_mu_independent():
    assert_allclose(
        gaussian.fisher_metric([-3.0, 0.7]), gaussian.fisher_metric([9.0, 0.7])
    )


def test_fisher_domain():
    with pytest.raises(DomainViolation):
        gaussian.fisher_metric([0.0, 0.0])
    with pytest.raises(DomainViolation):
        gaussian.fisher_metric([0.0, -1.0])


@pytest.mark.parametrize(
    "xi, cause",
    [
        ([np.nan, 1.0], "mu must be finite, got nan"),
        ([np.inf, 1.0], "mu must be finite, got inf"),
        ([0.0, np.nan], "sigma must be positive and finite, got nan"),
        ([0.0, np.inf], "sigma must be positive and finite, got inf"),
    ],
)
def test_a_point_outside_the_domain_names_its_cause(xi, cause):
    with pytest.raises(DomainViolation) as raised:
        gaussian.fisher_metric(xi)
    assert str(raised.value) == cause


@pytest.mark.parametrize("xi", [[1.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]])
def test_a_point_of_the_wrong_shape_is_a_dimension_mismatch(xi):
    # as in the other models and the objectives' own shape check
    for evaluate in (gaussian.fisher_metric, lambda x: gaussian.christoffel(x, 0.0)):
        with pytest.raises(DimensionMismatch):
            evaluate(xi)


def test_christoffel_levi_civita_values():
    # alpha = 0 at sigma = 1: mixed mu symbol -1, sigma symbols (1/2, -1)
    gamma = gaussian.christoffel([0.3, 1.0], 0.0)
    plane_mu = np.array([[0.0, -1.0], [-1.0, 0.0]])
    plane_sigma = np.array([[0.5, 0.0], [0.0, -1.0]])
    assert_allclose(gamma[:, :, 0], plane_mu)
    assert_allclose(gamma[:, :, 1], plane_sigma)


def test_christoffel_mixture_connection_values():
    # alpha = -1 kills the mixed symbol and flips the sigma ones
    gamma = gaussian.christoffel([0.0, 1.0], -1.0)
    assert_allclose(gamma[:, :, 0], np.zeros((2, 2)))
    assert_allclose(gamma[:, :, 1], np.eye(2))


def test_christoffel_scaling_in_sigma():
    g1 = gaussian.christoffel([0.0, 1.0], 0.4)
    g2 = gaussian.christoffel([0.0, 2.0], 0.4)
    assert_allclose(g2, g1 / 2.0)


def test_christoffel_symmetric_lower_indices():
    for alpha in (-1.0, -0.3, 0.0, 0.7, 1.0):
        gamma = gaussian.christoffel([1.0, 0.5], alpha)
        assert_allclose(gamma, np.transpose(gamma, (1, 0, 2)))


def test_dual_structure_pairs_alphas():
    ds = gaussian.dual_structure(0.6)
    xi = np.array([0.2, 1.4])
    assert_allclose(ds.gamma(xi), gaussian.christoffel(xi, 0.6))
    assert_allclose(ds.at(xi).gamma_dual, gaussian.christoffel(xi, -0.6))
    assert ds.contains(xi)
    assert not ds.contains(np.array([0.2, -1.4]))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    mu=st.floats(allow_nan=False, allow_infinity=False),
    sigma=st.floats(1e-150, 1e150),
)
def test_the_closed_form_factor_is_the_python_cholesky_bit_for_bit(mu, sigma):
    # G = diag(2, 4) / sigma^2: the Python loop's pivots are G_jj - 0.0
    # and its off-diagonal entry 0.0 / L_00
    xi = np.array([mu, sigma])
    L = gaussian.dual_structure(0.5).at(xi).L
    assert L.tobytes() == cholesky_lower(gaussian.fisher_metric(xi)).tobytes()


@pytest.mark.parametrize(
    "run", [opt.dual_newton_run, opt.natural_gradient_run], ids=["newton", "natgrad"]
)
def test_exp2_runs_make_no_python_cholesky(monkeypatch, run):
    # every solve against G reads the point's closed-form factor, and
    # Newton's descent certificate is LAPACK's
    calls = {}
    count_calls(monkeypatch, calls, "cholesky_lower", linalg, geometry)
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    tr = run(gaussian.dual_structure(0.0), obj, np.array([0.5, 2.0]))
    assert tr.status == opt.CONVERGED and tr.n_iterations >= 3
    assert calls == {"cholesky_lower": 0}
