import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import betaln, digamma, polygamma

from dualnewton.errors import (
    DimensionMismatch,
    DomainViolation,
    DualNewtonError,
    NonFiniteValue,
    QuadratureUnderflow,
)
from dualnewton.geometry import DualStructure, raise_index
from dualnewton.linalg import cho_solve, fd_jacobian, spd_factor
from dualnewton.models import betamix
from dualnewton.models.betamix import BetaMixtureModel, QuadratureRule
from dualnewton.objectives import BetaMixtureNLL


def paper_mixture(nodes=64):
    return BetaMixtureModel(
        weights=[0.35, 0.40, 0.25],
        alphas=[2.0, 3.0, 5.0],
        betas=[5.0, 2.0, 3.5],
        quadrature=QuadratureRule.gauss_legendre(nodes),
    )


def single_beta(nodes=64):
    return BetaMixtureModel(
        weights=[1.0],
        alphas=[1.0],
        betas=[1.0],
        quadrature=QuadratureRule.gauss_legendre(nodes),
    )


def test_quadrature_weights_sum_to_one():
    for n in (8, 32, 64, 128):
        rule = QuadratureRule.gauss_legendre(n)
        assert abs(sum(rule.weights) - 1.0) < 1e-12
        nodes = np.array(rule.nodes)
        assert np.all((nodes > 0) & (nodes < 1))


def test_quadrature_grid_shapes():
    rule = QuadratureRule.gauss_legendre(5)
    points, w = rule.grid()
    assert points.shape == (25, 2)
    assert abs(w.sum() - 1.0) < 1e-12


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=(0.0, 0.5), weights=(0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        QuadratureRule(nodes=(0.5,), weights=(0.5, 0.5))


@pytest.mark.parametrize(
    "nodes, weights, cause",
    [
        ((), (), "at least one node"),
        ((0.5, np.nan), (0.5, 0.5), "inside"),
        ((0.0, 0.5), (0.5, 0.5), "inside"),
        ((-0.5, 0.5), (0.5, 0.5), "inside"),
        ((0.5, -np.inf), (0.5, 0.5), "inside"),
        ((0.5, 0.7), (0.5, np.inf), "positive and finite"),
        ((0.5, 0.7), (0.5, -np.inf), "positive and finite"),
        ((0.5, 0.7), (0.5, np.nan), "positive and finite"),
        ((0.5, 0.7), (1.0, 0.0), "positive and finite"),
        ((0.5, 0.7), (1.5, -0.5), "positive and finite"),
    ],
    ids=[
        "empty",
        "nan-node",
        "zero-node",
        "negative-node",
        "-inf-node",
        "inf-weight",
        "-inf-weight",
        "nan-weight",
        "zero-weight",
        "negative-weight",
    ],
)
def test_quadrature_rejects_a_rule_that_cannot_integrate(nodes, weights, cause):
    with pytest.raises(ValueError, match=cause):
        QuadratureRule(nodes=nodes, weights=weights)


def test_model_validation():
    with pytest.raises(ValueError):
        BetaMixtureModel(weights=[0.5, 0.4], alphas=[1, 1], betas=[1, 1])
    with pytest.raises(DimensionMismatch):
        BetaMixtureModel(weights=[1.0], alphas=[1, 2], betas=[1])


def test_uniform_component_fisher_trigamma():
    # flat Beta(1,1)^2: Fisher is twice the single-Beta trigamma form
    model = single_beta()
    G = model.fisher_metric(np.array([1.0, 1.0]))
    t1, t2 = polygamma(1, 1.0), polygamma(1, 2.0)
    expected = 2.0 * np.array([[t1 - t2, -t2], [-t2, t1 - t2]])
    assert_allclose(expected, [[2.0, -1.2898681336964528], [-1.2898681336964528, 2.0]])
    assert_allclose(G, expected, atol=1e-4)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
# and 10^5 points across the shapes the mixture meets
@example(x=np.linspace(0.05, 50.0, 100_000).tolist())
@given(
    x=st.lists(
        st.one_of(
            st.floats(0.05, 50.0),
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_the_mixtures_special_functions_have_the_bits_of_scipy_special(x):
    # trigamma as zeta(2, x), as polygamma(1, x) computes it with the
    # factors (-1)^2 gamma(2) = 1.0; psi and betaln are scipy's own
    model = single_beta(4)
    x = np.array(x)
    for at in (x, x[0]):
        assert np.asarray(model._zeta(2.0, at)).tobytes() == np.asarray(
            polygamma(1, at)
        ).tobytes()
    assert model._digamma is digamma and model._betaln is betaln


def test_single_component_fisher_matches_log_normalizer_hessian():
    # K=1 is an exponential family: Fisher = Hessian of 2 log B(a, b)
    model = single_beta()
    xi = np.array([2.4, 3.1])
    grad = lambda z: np.array(
        [
            fd_jacobian(lambda y: np.array([2.0 * betaln(y[0], y[1])]), z)[i, 0]
            for i in range(2)
        ]
    )
    H = fd_jacobian(grad, xi)
    G = model.fisher_metric(xi)
    assert_allclose(G, 0.5 * (H + H.T), atol=1e-4)


def test_fisher_node_doubling_stable():
    xi = paper_mixture().generating_point()
    G64 = paper_mixture(64).fisher_metric(xi)
    G128 = paper_mixture(128).fisher_metric(xi)
    assert np.max(np.abs(G64 - G128)) < 1e-6


def test_score_expectation_vanishes():
    model = paper_mixture()
    xi = model.generating_point()
    nodes = model.nodes(xi)
    mean_score = nodes.wp @ nodes.s
    assert np.max(np.abs(mean_score)) < 1e-8
    # densities integrate to one on the square
    assert abs(nodes.wp.sum() - 1.0) < 1e-10


def test_christoffel_symmetry_and_doubling():
    xi = paper_mixture().generating_point()
    gamma = paper_mixture(64).dual_structure(0.5).gamma(xi)
    assert_allclose(gamma, np.transpose(gamma, (1, 0, 2)), atol=1e-12)
    gamma2 = paper_mixture(96).dual_structure(0.5).gamma(xi)
    assert np.max(np.abs(gamma - gamma2)) < 1e-6


def test_mixture_density_integrates_to_one():
    model = paper_mixture()
    rng = np.random.default_rng(2)
    xi = model.generating_point() * rng.uniform(0.8, 1.2, size=6)
    points, w = model.quadrature.grid()
    logp = model.scores(xi, betamix.log_sums(points))[3]
    assert abs(w @ np.exp(logp) - 1.0) < 1e-10


def test_domain_checks():
    model = paper_mixture()
    with pytest.raises(DomainViolation):
        model.fisher_metric(np.array([1.0, 1.0, -0.5, 1.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        model.fisher_metric(np.ones(4))
    # the structure's evaluation starts with the model's shape check
    at = model.dual_structure(0.0).at
    at(np.ones(6))
    for xi in ([1, 1, 1, 1, 1, -1.0], [1, 1, 1, np.inf, 1, 1]):
        with pytest.raises(DomainViolation, match="positive and finite"):
            at(np.array(xi))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 0.0, -0.0, -0.5])
def test_a_bad_shape_parameter_is_a_domain_violation(entry):
    model = paper_mixture(16)
    obj = BetaMixtureNLL(model, model.sample(20, seed=1))
    xi = model.generating_point().copy()
    xi[3] = entry
    at = model.dual_structure(0.5).at
    for read in (model.fisher_metric, obj.value_and_grad, at):
        with pytest.raises(DomainViolation, match="positive and finite"):
            read(xi)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_a_non_finite_log_likelihood_is_named(entry, monkeypatch):
    model = paper_mixture(16)
    obj = BetaMixtureNLL(model, model.sample(20, seed=1))
    scores = BetaMixtureModel.scores

    def spoiled(self, xi, sums):
        s, resp, u, logp = scores(self, xi, sums)
        logp[0] = entry
        return s, resp, u, logp

    monkeypatch.setattr(BetaMixtureModel, "scores", spoiled)
    with pytest.raises(NonFiniteValue, match="log-likelihood overflowed"):
        obj.value_and_grad(model.generating_point())


def test_quadrature_underflow():
    rule = QuadratureRule(nodes=(0.3, 0.7), weights=(0.5, 0.5))
    model = BetaMixtureModel(
        weights=[1.0], alphas=[2.0], betas=[2.0], quadrature=rule
    )
    with pytest.raises(QuadratureUnderflow):
        model.fisher_metric(np.array([5000.0, 2.0]))


def test_sampling_deterministic_and_in_square():
    model = paper_mixture()
    x1 = model.sample(500, seed=42)
    x2 = model.sample(500, seed=42)
    assert np.array_equal(x1, x2)
    assert x1.shape == (500, 2)
    assert np.all((x1 > 0) & (x1 < 1))
    assert np.any(x1 != model.sample(500, seed=43))


def test_sampling_matches_mixture_mean():
    model = paper_mixture()
    x = model.sample(40000, seed=7)
    mean = model.weights @ (model.alphas / (model.alphas + model.betas))
    # both coordinates share the component, so both have the same mean
    assert np.max(np.abs(x.mean(axis=0) - mean)) < 0.01


def test_dual_structure_wiring():
    model = paper_mixture()
    ds = model.dual_structure(0.25)
    xi = model.generating_point()
    with pytest.raises(DimensionMismatch):
        ds.at(xi[:-2])
    dual = DualStructure(ds.evaluate, -ds.alpha)
    assert_allclose(dual.gamma(xi), model.dual_structure(-0.25).gamma(xi))
    # the structure is the model's node pass and alpha, nothing more
    assert (ds.evaluate, ds.alpha) == (model.nodes, 0.25)


def test_metric_reads_build_no_second_derivatives(monkeypatch):
    model = paper_mixture(16)
    xi = model.generating_point()
    calls = []
    curvature = BetaMixtureModel._component_curvature

    def counted(self, xi):
        calls.append(1)
        return curvature(self, xi)

    monkeypatch.setattr(BetaMixtureModel, "_component_curvature", counted)
    model.fisher_metric(xi)
    ds = model.dual_structure(0.5)
    ds.at(xi).G
    assert len(calls) == 0
    # the connection reads the curvature blocks once per evaluation
    ds.gamma(xi)
    assert len(calls) == 1


def test_a_point_is_freed_without_the_cycle_collector():
    # a point holds its node arrays (about 1 MB at 64 nodes); a reference
    # cycle through its connection map would keep every point a run
    # evaluates alive until the cyclic collector runs, which raised the
    # peak memory of exp3 by half
    model = paper_mixture(16)
    point = model.dual_structure(0.5).at(model.generating_point())
    point.dual_dot(np.ones(model.dim))
    point.solve(np.ones(model.dim))
    freed = weakref.ref(point)
    gc.disable()
    try:
        del point
        assert freed() is None
    finally:
        gc.enable()


def test_quadrature_grid_built_once_per_model(monkeypatch):
    built = []
    grid = QuadratureRule.grid

    def counted(rule):
        built.append(len(rule.nodes))
        return grid(rule)

    monkeypatch.setattr(QuadratureRule, "grid", counted)
    model = paper_mixture(16)
    xi = model.generating_point()
    for scale in (1.0, 1.1, 0.9):
        model.fisher_metric(scale * xi)
    model.dual_structure(0.5).gamma(xi)
    assert built == [16]
    paper_mixture(8).fisher_metric(xi)
    assert built == [16, 8]


class _LogCountingNumpy:
    """numpy, with the log and log1p calls on arrays of ``n`` rows counted."""

    def __init__(self, n):
        self.n = n
        self.logs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _counted(self, fn, x, *args, **kwargs):
        if np.ndim(x) and np.shape(x)[0] == self.n:
            self.logs += 1
        return fn(x, *args, **kwargs)

    def log(self, x, *args, **kwargs):
        return self._counted(np.log, x, *args, **kwargs)

    def log1p(self, x, *args, **kwargs):
        return self._counted(np.log1p, x, *args, **kwargs)


def test_objective_takes_no_log_of_its_data(monkeypatch):
    model = paper_mixture(16)
    data = model.sample(300, seed=3)
    obj = BetaMixtureNLL(model, data)
    counting = _LogCountingNumpy(len(data))
    monkeypatch.setattr(betamix, "np", counting)
    xi = model.generating_point()
    for scale in (1.0, 1.2):
        obj.value(scale * xi)
        obj.eucl_grad(scale * xi)
    assert counting.logs == 0
    # the counter does see the logs that log_sums takes of points
    betamix.log_sums(data)
    assert counting.logs > 0


def test_objective_value_is_one_score_pass(monkeypatch):
    # a pass over the data is one log-sum-exp over its N columns; the
    # value takes its log-density from the score pass and makes no other
    model = paper_mixture(16)
    data = model.sample(300, seed=3)
    obj = BetaMixtureNLL(model, data)
    passes = []
    scores, logsumexp = model.scores, betamix.logsumexp

    def counted_scores(xi, sums):
        passes.append("scores")
        return scores(xi, sums)

    def counted_logsumexp(u, axis=None):
        if np.shape(u)[-1] == len(data):
            passes.append("logsumexp")
        return logsumexp(u, axis=axis)

    monkeypatch.setattr(model, "scores", counted_scores)
    monkeypatch.setattr(betamix, "logsumexp", counted_logsumexp)
    xi = model.generating_point()
    f = obj.value(xi)
    assert passes == ["scores", "logsumexp"]
    assert f == obj.value_and_grad(xi)[0]


def _reference_components(model, xi, x):
    """Row sums of log x and log(1 - x) from raw logs, and the weighted
    component log-densities log w_k + log p_k(x), shape (N, K)."""
    a, b = xi[0::2], xi[1::2]
    lx = np.log(x).sum(axis=1)
    l1x = np.log1p(-x).sum(axis=1)
    comp = (
        np.outer(lx, a - 1.0) + np.outer(l1x, b - 1.0) - 2.0 * betaln(a, b)[None, :]
    ) + np.log(model.weights)[None, :]
    return lx, l1x, comp


def _reference_scores(model, xi, x):
    """The score pass in row-major arithmetic, from raw logs of x and
    scipy's logsumexp: scores (N, 2K), responsibilities (N, K), the raw
    component score pair, each (N, K), and the log-density (N,)."""
    a, b = xi[0::2], xi[1::2]
    lx, l1x, comp = _reference_components(model, xi, x)
    logp = scipy.special.logsumexp(comp, axis=1)
    resp = np.exp(comp - logp[:, None])
    dig_ab = digamma(a + b)
    u_a = lx[:, None] - 2.0 * digamma(a)[None, :] + 2.0 * dig_ab[None, :]
    u_b = l1x[:, None] - 2.0 * digamma(b)[None, :] + 2.0 * dig_ab[None, :]
    s = np.empty((x.shape[0], xi.size))
    s[:, 0::2] = resp * u_a
    s[:, 1::2] = resp * u_b
    return s, resp, (u_a, u_b), logp


REFERENCE_MODEL = paper_mixture(16)
REFERENCE_DATA = REFERENCE_MODEL.sample(400, seed=11)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(shapes=st.lists(st.floats(0.3, 12.0), min_size=6, max_size=6).map(np.array))
def test_objective_and_metric_match_raw_log_reference(shapes):
    model, data = REFERENCE_MODEL, REFERENCE_DATA
    obj = BetaMixtureNLL(model, data)
    s, _, _, logp = _reference_scores(model, shapes, data)
    assert obj.value(shapes) == -float(np.sum(logp))
    assert obj.eucl_grad(shapes).tobytes() == (-s.sum(axis=0)).tobytes()
    points, w = model.quadrature.grid()
    s, _, _, logp = _reference_scores(model, shapes, points)
    G = np.einsum("n,ni,nj->ij", w * np.exp(logp), s, s)
    assert model.fisher_metric(shapes).tobytes() == G.tobytes()


# the data and node counts of the tests and of exp3, one larger N, and K up to 8
@pytest.mark.parametrize("n", [1, 2, 7, 400, 4096, 5000, 20000])
@pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
def test_the_data_sum_adds_the_score_rows_in_order(n, dim):
    # the gradient sums the C-order (N, 2K) scores down their columns with
    # einsum, which must give the bits of sum(axis=0), signed zeros,
    # infinities and NaN included
    rng = np.random.default_rng(n * 17 + dim)
    s = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 8, size=(n, dim))
    s[:, 0] = -0.0
    s[rng.integers(n), 1] = 0.0
    if dim >= 4:
        s[rng.integers(n), 2] = np.inf
        s[rng.integers(n), 2] = -np.inf
        s[rng.integers(n), 3] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.einsum("nj->j", s).tobytes() == s.sum(axis=0).tobytes()


def _reference_second(model, xi):
    """Density weights, scores and the second log-derivatives at the
    nodes, from the row-major score pass and row-major blocks."""
    points, w = model.quadrature.grid()
    s, resp, (u_a, u_b), logp = _reference_scores(model, xi, points)
    tri_ab = polygamma(1, xi[0::2] + xi[1::2])
    c_aa = -2.0 * polygamma(1, xi[0::2]) + 2.0 * tri_ab
    c_bb = -2.0 * polygamma(1, xi[1::2]) + 2.0 * tri_ab
    c_ab = 2.0 * tri_ab
    second = np.zeros((s.shape[0], xi.size, xi.size))
    for k in range(model.n_components):
        i = 2 * k
        ua, ub, r = u_a[:, k], u_b[:, k], resp[:, k]
        second[:, i, i] = r * (ua * ua + c_aa[k])
        second[:, i + 1, i + 1] = r * (ub * ub + c_bb[k])
        cross = r * (ua * ub + c_ab[k])
        second[:, i, i + 1] = cross
        second[:, i + 1, i] = cross
    second -= s[:, :, None] * s[:, None, :]
    return w * np.exp(logp), s, second


def _term_scales(wp, s, second, a):
    """Node sums of absolute terms that bound, for every alpha in [-1, 1]
    and in either form, the node terms of lowered(alpha, a) and of
    v = G quad(alpha, a): two sums that cancel differ at the scale of
    their terms, not of their value."""
    terms = np.abs(second) + 2.0 * np.abs(s)[:, :, None] * np.abs(s)[:, None, :]
    terms *= wp[:, None, None]
    lowered = np.einsum("nij,n->ij", terms, np.abs(s) @ np.abs(a))
    v = np.einsum("nik,i,k,nj->j", terms, np.abs(a), np.abs(a), np.abs(s))
    return lowered, v


def _assert_lowered_matches_the_symbols(nodes, wp, s, second, alpha, a):
    """The pass's lowered(alpha, a) against the d^3 first-kind symbols of
    the (N, d, d) second log-derivatives, contracted with a, to 1e-12 of
    its term scale."""
    first = _three_operand_first_kind(wp, s, second, alpha)
    scale = _term_scales(wp, s, second, a)[0]
    assert np.abs(nodes.lowered(alpha, a) - first @ a).max() <= 1e-12 * scale.max()


def _assert_quad_matches_the_symbols(nodes, wp, s, second, alpha, beta):
    """The pass's quad(alpha, beta) against the same symbols raised by G:
    an error in v reaches quad = G^{-1} v through |G^{-1}|."""
    first = _three_operand_first_kind(wp, s, second, alpha)
    L = spd_factor(_three_operand_metric(wp, s))
    expected = np.einsum("ikj,i,k->j", raise_index(first, L), beta, beta)
    scale = np.abs(cho_solve(L, np.eye(len(L)))) @ _term_scales(wp, s, second, beta)[1]
    assert np.abs(nodes.quad(alpha, beta) - expected).max() <= 1e-12 * scale.max()


# Points at the corners of the square, where a component far from the
# others underflows to a zero responsibility.
_CORNERS = np.array([[1e-300, 0.5], [0.5, 1e-300], [1e-150, 1e-150], [0.999999, 0.3]])


@st.composite
def mixtures(draw):
    """A K = 1..4 mixture, its shape vector and its data.  With tie set,
    components 0 and 1 are one component twice, so wherever they lead a
    row the log-sum-exp counts two entries at the maximum."""
    k = draw(st.integers(1, 4))
    shapes = np.array(draw(st.lists(st.floats(0.3, 12.0), min_size=2 * k, max_size=2 * k)))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    if k >= 2 and draw(st.booleans()):
        shapes[2:4] = shapes[0:2]
        weights[1] = weights[0]
    model = BetaMixtureModel(
        weights=weights / weights.sum(),
        alphas=np.full(k, 2.0),
        betas=np.full(k, 3.0),
        quadrature=QuadratureRule.gauss_legendre(12),
    )
    data = np.vstack([model.sample(100, seed=draw(st.integers(0, 2**16))), _CORNERS])
    return model, shapes, data


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mixture=mixtures())
def test_component_major_pass_matches_row_major_reference(mixture):
    model, shapes, data = mixture
    s, resp, u, logp = model.scores(shapes, betamix.log_sums(data))
    ref_s, ref_resp, ref_u, ref_logp = _reference_scores(model, shapes, data)
    assert s.shape == (len(data), model.dim) and s.flags.c_contiguous
    assert s.tobytes() == ref_s.tobytes()
    assert logp.tobytes() == ref_logp.tobytes()
    assert resp.shape == (model.n_components, len(data))
    # tobytes reads the transposed reference in C order, row by row
    assert resp.tobytes() == ref_resp.T.tobytes()
    assert [r.tobytes() for r in u] == [r.T.tobytes() for r in ref_u]
    obj = BetaMixtureNLL(model, data)
    f, grad = obj.value_and_grad(shapes)
    assert f == obj.value(shapes) == -float(np.sum(ref_logp))
    assert grad.tobytes() == obj.eucl_grad(shapes).tobytes()
    assert grad.tobytes() == (-ref_s.sum(axis=0)).tobytes()
    points, w = model.quadrature.grid()
    ref_s, _, _, ref_logp = _reference_scores(model, shapes, points)
    G = np.einsum("ni,nj->ij", ref_s * (w * np.exp(ref_logp))[:, None], ref_s)
    assert model.fisher_metric(shapes).tobytes() == G.tobytes()
    # the two contractions sum over the nodes in their own order: the
    # symbols of the row-major pass, contracted, to rounding
    nodes = model.nodes(shapes)
    wp, s, second = _reference_second(model, shapes)
    a = np.linspace(-1.0, 1.0, model.dim)
    try:
        spd_factor(G)
    except DualNewtonError as exc:
        # two identical components leave the metric singular
        singular = type(exc)
    else:
        singular = None
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        _assert_lowered_matches_the_symbols(nodes, wp, s, second, alpha, a)
        if singular:
            with pytest.raises(singular):
                nodes.quad(alpha, a)
        else:
            _assert_quad_matches_the_symbols(nodes, wp, s, second, alpha, a)


def test_reference_inputs_reach_ties_and_underflow():
    # the corner points zero a responsibility, and a doubled component
    # puts two entries at the maximum of most rows
    model = BetaMixtureModel(
        weights=[0.3, 0.3, 0.4],
        alphas=[2.0, 2.0, 9.0],
        betas=[3.0, 3.0, 0.5],
        quadrature=QuadratureRule.gauss_legendre(12),
    )
    xi = model.generating_point()
    data = np.vstack([model.sample(100, seed=0), _CORNERS])
    _, resp, _, _ = model.scores(xi, betamix.log_sums(data))
    assert np.any(resp == 0.0)
    comp = _reference_components(model, xi, data)[2]
    assert np.mean(np.count_nonzero(comp.T == comp.max(axis=1), axis=0) == 2) > 0.5


def test_mixture_pass_checks_its_shapes_once(monkeypatch):
    model = paper_mixture(16)
    obj = BetaMixtureNLL(model, model.sample(200, seed=1))
    checked = []
    check = betamix._check_shapes

    def counted(xi, n_components):
        checked.append(1)
        return check(xi, n_components)

    monkeypatch.setattr(betamix, "_check_shapes", counted)
    xi = model.generating_point()
    obj.value_and_grad(xi)
    assert len(checked) == 1
    point = model.dual_structure(0.5).at(xi)
    assert len(checked) == 2
    point.dual_dot(np.ones(model.dim))
    assert len(checked) == 2
    for read in (obj.value, obj.eucl_grad, model.fisher_metric):
        read(xi)
    assert len(checked) == 5
    # the score pass still names the cause of a bad point
    sums = betamix.log_sums(obj.data)
    with pytest.raises(DomainViolation):
        model.scores(np.array([1.0, 1.0, -0.5, 1.0, 1.0, 1.0]), sums)
    with pytest.raises(DimensionMismatch):
        model.scores(np.ones(4), sums)
    with pytest.raises(DomainViolation):
        model.dual_structure(0.5).at(np.array([1.0, np.inf, 1, 1, 1, 1]))


def _three_operand_metric(wp, s):
    return np.einsum("n,ni,nj->ij", wp, s, s)


def _three_operand_first_kind(wp, s, second, alpha):
    c = 0.5 * (1.0 - alpha)
    integrand = second + c * s[:, :, None] * s[:, None, :]
    return np.einsum("n,nij,nk->ijk", wp, integrand, s)


def _blockwise_second(model, xi, s, resp, u):
    """Second log-derivatives as zeros, each component's block assigned,
    then s s^T subtracted from the whole tensor."""
    u_a, u_b = u
    curv = model._component_curvature(xi)
    second = np.zeros((s.shape[0], model.dim, model.dim))
    for k in range(model.n_components):
        i = 2 * k
        ua, ub, r = u_a[k], u_b[k], resp[k]
        second[:, i, i] = r * (ua * ua + curv[k, 0, 0])
        second[:, i + 1, i + 1] = r * (ub * ub + curv[k, 1, 1])
        cross = r * (ua * ub + curv[k, 0, 1])
        second[:, i, i + 1] = cross
        second[:, i + 1, i] = cross
    second -= s[:, :, None] * s[:, None, :]
    return second


def _node_pass_draw(k, n_nodes, seed):
    """A node pass over n_nodes synthetic nodes: responsibilities of which
    about a fifth underflow to exactly zero, raw scores of both signs,
    and scores filled as the score pass fills them."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.0, k)
    model = BetaMixtureModel(
        weights=weights / weights.sum(),
        alphas=rng.uniform(0.5, 8.0, k),
        betas=rng.uniform(0.5, 8.0, k),
    )
    xi = rng.uniform(0.3, 12.0, 2 * k)
    comp = rng.normal(scale=3.0, size=(k, n_nodes))
    comp[rng.random((k, n_nodes)) < 0.2] = -800.0
    comp[0, comp.max(axis=0) == -800.0] = 0.0
    resp = np.exp(comp - np.log(np.exp(comp).sum(axis=0)))
    u_a, u_b = rng.normal(size=(2, k, n_nodes))
    s = np.empty((n_nodes, 2 * k))
    np.multiply(resp, u_a, out=s[:, 0::2].T)
    np.multiply(resp, u_b, out=s[:, 1::2].T)
    wp = rng.uniform(0.0, 1e-3, n_nodes)
    return betamix._NodePass(model, xi, wp, s, resp, (u_a, u_b))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    k=st.integers(1, 4),
    n_nodes=st.integers(16, 4096),
    alpha=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_contractions_match_the_three_operand_einsums(k, n_nodes, alpha, seed):
    # the metric folds the density weights into one operand before
    # contracting, with the bits of the weighted three-operand sum; the
    # lowered connection and its quadratic form are node contractions
    # that meet the d^3 symbols of the (N, d, d) second log-derivatives
    # to rounding
    nodes = _node_pass_draw(k, n_nodes, seed)
    wp, s = nodes.wp, nodes.s
    assert nodes.G.tobytes() == _three_operand_metric(wp, s).tobytes()
    second = _blockwise_second(nodes.model, nodes.xi, s, nodes.resp, nodes.u)
    a = np.random.default_rng(seed).normal(size=2 * k)
    _assert_lowered_matches_the_symbols(nodes, wp, s, second, alpha, a)
    _assert_quad_matches_the_symbols(nodes, wp, s, second, alpha, a)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    k=st.integers(1, 4),
    shapes=st.lists(st.floats(0.3, 12.0), min_size=8, max_size=8),
    alpha=st.floats(-1.0, 1.0),
    a=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
)
def test_the_node_contractions_keep_the_skewness_and_the_raising(k, shapes, alpha, a):
    # lowered(alpha) - lowered(-alpha) = -alpha T(a), the skewness tensor
    # T_ijk = E[s_i s_j s_k] contracted with a; and the quadratic form is v
    # raised by G, v_j = sum_ik a_i a_k Gamma_{ik,j} = a^T lowered(alpha, e_j) a
    model = BetaMixtureModel(
        weights=np.full(k, 1.0 / k),
        alphas=np.full(k, 2.0),
        betas=np.full(k, 3.0),
        quadrature=QuadratureRule.gauss_legendre(16),
    )
    xi, a = np.array(shapes[: 2 * k]), np.array(a[: 2 * k])
    nodes = model.nodes(xi)
    wp, s = nodes.wp, nodes.s
    second = betamix._second_derivatives(s, nodes.resp, nodes.u, nodes.curv)
    lowered_scale, v_scale = _term_scales(wp, s, second, a)
    skew = np.einsum("n,ni,nj->ij", wp * (s @ a), s, s)
    gap = nodes.lowered(alpha, a) - nodes.lowered(-alpha, a) + alpha * skew
    assert np.abs(gap).max() <= 1e-12 * lowered_scale.max()
    try:
        quad = nodes.quad(alpha, a)
    except DualNewtonError:
        # shapes drawn equal make components equal and the metric singular
        assert len(set(map(tuple, xi.reshape(k, 2)))) < k
        return
    v = np.array([a @ nodes.lowered(alpha, e) @ a for e in np.eye(2 * k)])
    # the solve's backward error is relative to |G| |quad|
    scale = v_scale + np.abs(nodes.G) @ np.abs(quad)
    assert np.abs(nodes.G @ quad - v).max() <= 1e-12 * scale.max()


def test_the_mixture_connection_allocates_no_node_tensor():
    # K's lowered connection and the retraction's Gamma(beta, beta) at the
    # 64^2 nodes of exp3 peak below four (N, d) arrays; the d^3 symbols
    # of the (N, d, d) second log-derivatives took 2.4 MB
    model = paper_mixture(64)
    point = model.dual_structure(0.5).at(model.generating_point())
    n, d = point.evaluation.s.shape
    a = point.solve(np.linspace(-1.0, 1.0, d))
    tracemalloc.start()
    try:
        point.lowered(a)
        point.quad(np.linspace(0.5, -0.3, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * d * 8


def test_the_mixture_quadratic_form_allocates_no_coordinate_array():
    # Gamma(beta, beta) at the 64^2 nodes of exp3 sums a node vector tau,
    # built from the component-major (K, N) rows, and solves once: it
    # peaks below four (K, N) arrays
    model = paper_mixture(64)
    point = model.dual_structure(0.5).at(model.generating_point())
    k, n = point.evaluation.resp.shape
    beta = np.linspace(0.5, -0.3, model.dim)
    point.quad(beta)
    tracemalloc.start()
    try:
        point.quad(beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * k * n * 8


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(k=st.integers(1, 4), n_nodes=st.integers(16, 4096), seed=st.integers(0, 2**32 - 1))
def test_second_log_derivatives_have_the_bits_of_the_blockwise_form(k, n_nodes, seed):
    # -s s^T first, then each block as its term minus s_i s_j: every
    # entry, signed zeros included, as the blockwise-then-subtract form
    nodes = _node_pass_draw(k, n_nodes, seed)
    expected = _blockwise_second(nodes.model, nodes.xi, nodes.s, nodes.resp, nodes.u)
    second = betamix._second_derivatives(nodes.s, nodes.resp, nodes.u, nodes.curv)
    assert second.tobytes() == expected.tobytes()


def test_second_log_derivative_draws_reach_both_signed_zeros():
    # an underflowed responsibility zeroes its scores, -0.0 where the raw
    # score is negative; a block whose term is then -0.0 keeps it, every
    # other zero product gives +0.0
    nodes = _node_pass_draw(3, 256, 0)
    assert np.any((nodes.resp == 0.0) & (nodes.u[0] < 0.0))
    second = betamix._second_derivatives(nodes.s, nodes.resp, nodes.u, nodes.curv)
    zeros = second == 0.0
    assert np.any(zeros & np.signbit(second)) and np.any(zeros & ~np.signbit(second))
