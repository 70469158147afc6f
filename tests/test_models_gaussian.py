import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualnewton import linalg, optimizers as opt
from dualnewton.errors import DimensionMismatch, DomainViolation, NonFiniteValue
from dualnewton.linalg import cholesky_lower
from dualnewton.models import gaussian
from dualnewton.objectives import AlphaDivergenceObjective

from helpers import Objective, count_calls


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_is_refused_where_its_square_overflows():
    # sqrt of the largest float64 still squares to a finite number and
    # G keeps its formula; the next float up, or 1e155, is outside
    edge = math.sqrt(np.finfo(float).max)
    sigma = np.float64(edge)
    G = gaussian.fisher_metric([0.0, edge])
    expected = np.diag([2.0 / sigma**2, 4.0 / sigma**2])
    assert G.tobytes() == expected.tobytes() and np.all(np.diag(G) > 0.0)
    for beyond in (math.nextafter(edge, math.inf), 1e155):
        for evaluate in (gaussian.fisher_metric, gaussian.dual_structure(0.0).gamma):
            with pytest.raises(DomainViolation, match="sigma"):
                evaluate([0.0, beyond])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(sigma=st.floats(5e-324, math.sqrt(np.finfo(float).max)))
def test_the_metric_keeps_its_numpy_arithmetic_below_the_threshold(sigma):
    # 2 / sigma^2 and 4 / sigma^2 as numpy scalars, down to the sigmas
    # whose square underflows, where G is infinite
    s = np.float64(sigma)
    with np.errstate(all="ignore"):
        expected = np.diag([2.0 / s**2, 4.0 / s**2])
        G = gaussian.fisher_metric([0.0, sigma])
    assert G.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_trial_where_sigma_squared_overflows_is_halved():
    # f = 1 / sigma, whose gradient -1 / sigma^2 keeps G^{-1} grad near
    # (0, -1/4) at every sigma.  Adam's first step raises sigma by its
    # learning rate; the trials at t = 1, 1/2 and 1/4 land beyond the
    # threshold, where the objective (which holds no check) is finite
    # but the structure's evaluation refuses them, and t = 1/8 is taken
    evaluated, refused = [], []

    def value(x):
        evaluated.append(float(x[1]))
        return 1.0 / float(x[1])

    def grad(x):
        sigma = float(x[1])
        # Python floats: sigma * sigma overflows to inf silently
        return np.array([0.0, -1.0 / (sigma * sigma)])

    ds = gaussian.dual_structure(0.0)

    def evaluate(xi):
        try:
            return ds.evaluate(xi)
        except DomainViolation as exc:
            refused.append((float(xi[1]), str(exc)))
            raise

    obj = Objective(dim=2, value=value, eucl_grad=grad)
    lr = 1e155
    assert lr / 8 < math.sqrt(np.finfo(float).max) < lr / 4
    tr = opt.adam_run(
        dataclasses.replace(ds, evaluate=evaluate),
        obj,
        np.array([0.0, 1.0]),
        opt.StopRule(max_iters=1),
        lr=lr,
    )
    assert tr.status == opt.MAX_ITERS and tr.n_iterations == 1
    assert tr.iterates[1][1] == pytest.approx(lr / 8)
    # the start, the three trials beyond the threshold and the accepted one
    beyond = [pytest.approx(lr / 2**k) for k in range(3)]
    assert evaluated == [1.0, *beyond, tr.iterates[1][1]]
    # each of the three was refused by its geometry, with the model's cause
    assert [sigma for sigma, _ in refused] == beyond
    assert all("sigma^2 overflows" in message for _, message in refused)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_domain_test_and_the_point_check_agree_at_the_sigma_bound():
    # the structure's evaluation, the objective's pass and the metric
    # refuse the same sigmas, with the model's check's message
    ds = gaussian.dual_structure(0.0)
    obj = AlphaDivergenceObjective(0.5, -0.3, 1.2, 0.8)
    top = math.sqrt(np.finfo(float).max)
    for sigma in (np.nextafter(top, 0.0), top, np.nextafter(top, np.inf), 1e200):
        xi = np.array([0.0, sigma])
        try:
            gaussian.fisher_metric(xi)
        except DomainViolation as exc:
            assert sigma > top
            for read in (ds.at, obj.value_and_grad):
                with pytest.raises(DomainViolation, match=re.escape(str(exc))):
                    read(xi)
        else:
            assert sigma <= top
            ds.at(xi)


@pytest.mark.parametrize("xi", [[1.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]])
def test_a_point_of_the_wrong_shape_is_a_dimension_mismatch(xi):
    # as in the other models and the objectives' own shape check
    for evaluate in (gaussian.fisher_metric, gaussian.dual_structure(0.0).gamma):
        with pytest.raises(DimensionMismatch):
            evaluate(xi)


def test_christoffel_levi_civita_values():
    # alpha = 0 at sigma = 1: mixed mu symbol -1, sigma symbols (1/2, -1)
    gamma = gaussian.dual_structure(0.0).gamma([0.3, 1.0])
    plane_mu = np.array([[0.0, -1.0], [-1.0, 0.0]])
    plane_sigma = np.array([[0.5, 0.0], [0.0, -1.0]])
    assert_allclose(gamma[:, :, 0], plane_mu)
    assert_allclose(gamma[:, :, 1], plane_sigma)


def test_christoffel_mixture_connection_values():
    # alpha = -1 kills the mixed symbol and flips the sigma ones
    gamma = gaussian.dual_structure(-1.0).gamma([0.0, 1.0])
    assert_allclose(gamma[:, :, 0], np.zeros((2, 2)))
    assert_allclose(gamma[:, :, 1], np.eye(2))


def test_christoffel_scaling_in_sigma():
    ds = gaussian.dual_structure(0.4)
    g1, g2 = ds.gamma([0.0, 1.0]), ds.gamma([0.0, 2.0])
    assert_allclose(g2, g1 / 2.0)


def test_christoffel_symmetric_lower_indices():
    for alpha in (-1.0, -0.3, 0.0, 0.7, 1.0):
        gamma = gaussian.dual_structure(alpha).gamma([1.0, 0.5])
        assert_allclose(gamma, np.transpose(gamma, (1, 0, 2)))


def test_dual_structure_pairs_alphas():
    ds = gaussian.dual_structure(0.6)
    xi = np.array([0.2, 1.4])
    dual = dataclasses.replace(ds, alpha=-ds.alpha)
    assert_allclose(ds.gamma(xi), gaussian._christoffel(1.4, 0.6))
    assert_allclose(dual.gamma(xi), gaussian._christoffel(1.4, -0.6))
    assert (ds.evaluate(xi).G == gaussian.fisher_metric(xi)).all()
    with pytest.raises(DomainViolation, match="sigma must be positive"):
        ds.at(np.array([0.2, -1.4]))


_SIGMA_MAX = math.sqrt(np.finfo(float).max)
# b's entries: either sign, magnitudes 1e-300..1e300, signed zeros
rhs_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300, 300)
    ),
)
# sigma across the chart: ordinary, up to the bound where sigma^2 still
# fits, and down where sigma^2 underflows and G overflows to infinity
chart_sigmas = st.one_of(
    st.floats(0.05, 20.0),
    st.floats(1e-150, 1e150),
    st.floats(_SIGMA_MAX / 4.0, _SIGMA_MAX),
    st.floats(1e-170, 1e-150),
)


def _solved(solve, b):
    """The bytes of ``solve(b)``, or the class and message it raised."""
    try:
        return solve(b).tobytes()
    except (DimensionMismatch, NonFiniteValue) as exc:
        return type(exc), str(exc)


def _cho_solved(point, b):
    """``_solved`` for ``cho_solve`` on the Python Cholesky factor of the
    point's G, whose pivots are G_jj - 0.0 and whose off-diagonal entry
    is 0.0 / L_00; where sigma^2 underflows and G is infinite, the
    closed form's own refusal of G."""
    if not np.isfinite(point.G).all():
        return NonFiniteValue, f"Fisher metric not finite at sigma = {point.xi[1]}"
    return _solved(lambda b: linalg.cho_solve(cholesky_lower(point.G), b), b)


@pytest.mark.filterwarnings("error")
@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(
    mu=st.floats(allow_nan=False, allow_infinity=False),
    sigma=chart_sigmas,
    b=st.lists(rhs_entries, min_size=2, max_size=2),
)
@example(mu=0.3, sigma=1.7, b=[-0.0, -2.0])  # back substitution: -0.0 turns 0.0
@example(mu=0.3, sigma=1.7, b=[-0.0, -0.0])
def test_the_closed_form_solve_is_cho_solve_bit_for_bit(mu, sigma, b):
    # dtrtrs on the diagonal factor: U^T y = b, then U x = y, is two
    # divisions per entry, and its errors are cho_solve's.  A BLAS whose
    # one-column triangular solve multiplies by 1 / l instead fails here.
    point = gaussian.dual_structure(0.5).at(np.array([mu, sigma]))
    b = np.array(b)
    assert _solved(point.solve, b) == _cho_solved(point, b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sigma, b",
    [
        (1.7, [math.nan, 1.0]),
        (1.7, [1.0, -math.inf]),
        (1e150, [1e300, 1.0]),
        (1e150, [-1.0, 1e300]),
        (1e-160, [1.0, 1.0]),
    ],
    ids=["nan-b", "infinite-b", "x0-overflows", "x1-overflows", "infinite-G"],
)
def test_the_closed_form_solve_raises_what_cho_solve_raises(sigma, b):
    point = gaussian.dual_structure(0.5).at(np.array([0.3, sigma]))
    expected = _cho_solved(point, np.array(b))
    assert expected[0] is NonFiniteValue
    assert _solved(point.solve, np.array(b)) == expected


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 1), ()])
def test_the_closed_form_solve_takes_a_vector_of_two(shape):
    # several right-hand sides would round as b * (1/l) * (1/l) in the BLAS
    point = gaussian.dual_structure(0.5).at(np.array([0.3, 1.7]))
    with pytest.raises(DimensionMismatch):
        point.solve(np.ones(shape))


@pytest.mark.parametrize(
    "run", [opt.dual_newton_run, opt.natural_gradient_run], ids=["newton", "natgrad"]
)
def test_exp2_runs_make_no_python_cholesky(monkeypatch, run):
    # every solve against G reads the roots of the point's diagonal G, and
    # Newton's descent certificate is the 2x2 factor's
    calls = {}
    count_calls(monkeypatch, calls, "cholesky_lower", linalg)
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    tr = run(gaussian.dual_structure(0.0), obj, np.array([0.5, 2.0]))
    assert tr.status == opt.CONVERGED and tr.n_iterations >= 3
    assert calls == {"cholesky_lower": 0}


# the connection's alphas: -1, -0.5 and 1 each zero a symbol (-1 and
# -0.5 to -0.0), 0 is the metric's own connection; and any between
connection_alphas = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)
)
# a vector's entries: either sign over 1e-6..1e6, and signed zeros
vector_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-6, 6)
    ),
)


def _assert_contractions_are_the_tensor_forms(alpha, xi, a, beta):
    """``lowered`` and ``quad`` at xi, byte for byte, against the numpy
    contractions of the closed-form tensor that they replace."""
    point = gaussian.dual_structure(alpha).at(xi)
    gamma = gaussian._christoffel(float(xi[1]), alpha)
    assert point.lowered(a).tobytes() == (gamma @ (point.G @ a)).tobytes()
    quad = beta @ np.einsum("k,ikj->ij", beta, gamma)
    assert point.quad(beta).tobytes() == quad.tobytes()


@pytest.mark.filterwarnings("error")
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(
    alpha=connection_alphas,
    mu=st.floats(-10.0, 10.0),
    sigma=st.floats(1e-3, 1e3),
    a=st.lists(vector_entries, min_size=2, max_size=2),
    beta=st.lists(vector_entries, min_size=2, max_size=2),
)
def test_lowered_and_quad_are_the_tensor_contractions_bit_for_bit(
    alpha, mu, sigma, a, beta
):
    _assert_contractions_are_the_tensor_forms(
        alpha, np.array([mu, sigma]), np.array(a), np.array(beta)
    )


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_lowered_and_quad_keep_the_tensor_forms_signed_zeros(alpha):
    # numpy adds each product to +0.0, so a -0.0 product comes out 0.0;
    # every pair of entries from signed zeros and either sign
    entries = [0.0, -0.0, 1.3, -0.7]
    for a, beta in itertools.product(itertools.product(entries, repeat=2), repeat=2):
        _assert_contractions_are_the_tensor_forms(
            alpha, np.array([0.3, 1.7]), np.array(a), np.array(beta)
        )


def test_an_exp2_newton_run_builds_no_symbol_tensor_and_calls_no_dpotrf(monkeypatch):
    # K reads the three symbols through lowered, and its 2x2 factor is
    # potf2's arithmetic on Python floats; the retraction reads quad
    calls = {}
    count_calls(monkeypatch, calls, "_christoffel", gaussian)
    count_calls(monkeypatch, calls, "dpotrf", linalg.lapack)
    obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7)
    tr = opt.dual_newton_run(gaussian.dual_structure(0.5), obj, np.array([0.5, 2.0]))
    assert tr.status == opt.CONVERGED and tr.n_iterations >= 3
    assert calls == {"_christoffel": 0, "dpotrf": 0}
