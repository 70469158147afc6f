"""Property tests of the geometry at random points of each model's domain.

Each model must satisfy the duality identity d_k g_ij = Gamma_{ki,j} +
GammaDual_{kj,i} within the acceptance tolerances, and its point
evaluation ``structure.at(xi)`` must reproduce, bit for bit, both the
structure's per-quantity readers and the model's own metric and
Christoffel functions.  Examples are derandomized, so every run checks
the same points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnewton.geometry import duality_residual
from dualnewton.models import gaussian, loglinear
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.models.loglinear import SubsetIndex

FIXED = dict(derandomize=True, deadline=None, database=None)

alphas = st.floats(-1.0, 1.0)


def coordinates(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


def assert_point_is_exact(ds, xi, metric, christoffel):
    point = ds.at(xi)
    assert np.array_equal(point.G, ds.metric(xi))
    assert np.array_equal(point.gamma, ds.gamma(xi))
    assert np.array_equal(point.gamma_dual, ds.gamma_dual(xi))
    assert np.array_equal(point.G, metric(xi))
    assert np.array_equal(point.gamma, christoffel(xi, ds.alpha))
    assert np.array_equal(point.gamma_dual, christoffel(xi, -ds.alpha))


@settings(max_examples=50, **FIXED)
@given(alpha=alphas, mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 3.0))
def test_gaussian_geometry(alpha, mu, sigma):
    ds = gaussian.dual_structure(alpha)
    xi = np.array([mu, sigma])
    assert duality_residual(ds, xi) < 1e-5
    assert_point_is_exact(ds, xi, gaussian.fisher_metric, gaussian.christoffel)


BOLTZMANN3 = SubsetIndex.boltzmann(3)


@settings(max_examples=30, **FIXED)
@given(alpha=alphas, theta=coordinates(-1.0, 1.0, len(BOLTZMANN3)))
def test_loglinear_geometry(alpha, theta):
    ds = loglinear.dual_structure(BOLTZMANN3, alpha)
    assert duality_residual(ds, theta) < 1e-5
    assert_point_is_exact(
        ds,
        theta,
        lambda t: loglinear.fisher_metric(BOLTZMANN3, t),
        lambda t, a: loglinear.christoffel(BOLTZMANN3, t, a),
    )


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
    assert_point_is_exact(ds, xi, MIXTURE.fisher_metric, MIXTURE.christoffel)
