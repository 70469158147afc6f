import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualnewton import linalg
from dualnewton.errors import (
    DimensionMismatch,
    DualNewtonError,
    MomentInfeasible,
    NonFiniteValue,
    NotPositiveDefinite,
)
from dualnewton.linalg import fd_jacobian, logsumexp, solve_spd
from dualnewton.models import loglinear
from dualnewton.models.loglinear import SubsetIndex, feature_matrix, weighted_gram
from dualnewton.objectives import KLProjectionObjective

from helpers import count_calls


@pytest.fixture(autouse=True)
def fresh_memo():
    # every test starts with no point evaluated, so counts do not depend
    # on the tests that ran before it
    loglinear._memo.clear()


def test_boltzmann_index_order():
    idx = SubsetIndex.boltzmann(3)
    assert idx.subsets == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    assert len(idx) == 6
    assert len(SubsetIndex.boltzmann(8)) == 8 + 28


def test_full_index_order():
    idx = SubsetIndex.full(3)
    assert idx.subsets == (
        (1,), (2,), (3,),
        (1, 2), (1, 3), (2, 3),
        (1, 2, 3),
    )


def test_index_validation():
    with pytest.raises(ValueError):
        SubsetIndex(2, ((2, 1),))
    with pytest.raises(ValueError):
        SubsetIndex(2, ((1,), (1,)))
    with pytest.raises(ValueError):
        SubsetIndex(2, ((3,),))


def test_index_keys_round_trip():
    idx = SubsetIndex.boltzmann(4)
    keys = idx.keys()
    assert keys[0] == "1"
    assert keys[4] == "1,2"
    assert [tuple(int(i) for i in k.split(",")) for k in keys] == list(idx.subsets)


def test_uniform_moments():
    idx = SubsetIndex.boltzmann(2)
    eta = loglinear.moments(idx, np.zeros(3))
    assert_allclose(eta, [0.5, 0.5, 0.25], atol=1e-14)


def test_scalar_moment_is_sigmoid():
    idx = SubsetIndex.boltzmann(1)
    eta = loglinear.moments(idx, np.array([1.0]))
    assert_allclose(eta, [0.7310585786300049], rtol=1e-14)


def test_moment_monotone_under_union():
    rng = np.random.default_rng(7)
    idx = SubsetIndex.full(3)
    theta = rng.uniform(-1, 1, size=len(idx))
    eta = dict(zip(idx.subsets, loglinear.moments(idx, theta)))
    for A, B in itertools.combinations(idx.subsets, 2):
        union = tuple(sorted(set(A) | set(B)))
        assert eta[union] <= min(eta[A], eta[B]) + 1e-14


def test_fisher_uniform_two_vars():
    idx = SubsetIndex.boltzmann(2)
    G = loglinear.fisher_metric(idx, np.zeros(3))
    expected = np.array(
        [
            [0.25, 0.0, 0.125],
            [0.0, 0.25, 0.125],
            [0.125, 0.125, 0.1875],
        ]
    )
    assert_allclose(G, expected, atol=1e-14)


def test_fisher_matches_moment_map_jacobian():
    # the Fisher matrix is the Jacobian of theta -> eta
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-0.8, 0.8, size=len(idx))
    J = fd_jacobian(lambda t: loglinear.moments(idx, t), theta)
    assert_allclose(J, loglinear.fisher_metric(idx, theta), atol=1e-6)


def test_fisher_positive_definite_random():
    idx = SubsetIndex.boltzmann(4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = rng.uniform(-1.5, 1.5, size=len(idx))
        G = loglinear.fisher_metric(idx, theta)
        assert np.all(np.linalg.eigvalsh(G) > 0)


def test_christoffel_flat_at_alpha_one(monkeypatch):
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(9)
    theta = rng.uniform(-1, 1, size=len(idx))
    flat = loglinear.dual_structure(idx, 1.0)
    assert np.all(flat.gamma(theta) == 0.0)

    # the flat connection needs no third-moment tensor at all
    def unused(*args):
        raise AssertionError("third central moment built at alpha = 1")

    monkeypatch.setattr(loglinear, "third_central_moment", unused)
    assert np.all(flat.gamma(theta) == 0.0)


def test_point_builds_metric_and_third_moment_once(monkeypatch):
    # a pass over the states is one log-sum-exp of the energies
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1, 1, size=len(idx))
    calls = {}
    count_calls(monkeypatch, calls, "logsumexp", loglinear)
    count_calls(monkeypatch, calls, "spd_factor", loglinear)
    count_calls(monkeypatch, calls, "cholesky_lower", linalg)
    count_calls(monkeypatch, calls, "third_central_moment", loglinear)
    point = loglinear.dual_structure(idx, 0.5).at(theta)
    point.G
    assert calls == {
        "logsumexp": 1, "spd_factor": 0, "cholesky_lower": 0, "third_central_moment": 0
    }
    # the contractions Newton reads and the full symbols, stacked from
    # the connection map, all come from the point's pass and one checked
    # factor
    point.dual_dot(rng.normal(size=len(idx)))
    point.quad(rng.normal(size=len(idx)))
    point.gamma
    point.gamma_dual
    point.solve(rng.normal(size=len(idx)))
    assert calls == {
        "logsumexp": 1, "spd_factor": 1, "cholesky_lower": 1, "third_central_moment": 0
    }


def test_scalar_third_moment():
    # Bernoulli third central moment eta(1-eta)(1-2 eta) at theta = 1
    idx = SubsetIndex.boltzmann(1)
    T = loglinear.third_central_moment(idx, np.array([1.0]))
    assert_allclose(T, [[[-0.09085774767294842]]], rtol=1e-12)
    first = loglinear.christoffel_first_kind(idx, np.array([1.0]), -1.0)
    assert_allclose(first, T, rtol=0, atol=0)


def test_christoffel_first_kind_enumeration_oracle():
    # recompute E[(d_i d_j l + (1-alpha)/2 d_i l d_j l) d_k l] from raw
    # state enumeration and compare with the cumulant shortcut
    idx = SubsetIndex.boltzmann(2)
    rng = np.random.default_rng(13)
    theta = rng.uniform(-1, 1, size=len(idx))
    alpha = 0.25
    p = loglinear.probabilities(idx, theta)
    F = loglinear.feature_matrix(idx)
    eta = p @ F
    G = loglinear.fisher_metric(idx, theta)
    centered = F - eta
    m = len(idx)
    expected = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                integrand = (
                    -G[i, j] + 0.5 * (1 - alpha) * centered[:, i] * centered[:, j]
                ) * centered[:, k]
                expected[i, j, k] = p @ integrand
    assert_allclose(
        loglinear.christoffel_first_kind(idx, theta, alpha), expected, atol=1e-13
    )


def test_christoffel_symmetric_lower_indices():
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(21)
    theta = rng.uniform(-1, 1, size=len(idx))
    gamma = loglinear.dual_structure(idx, -0.5).gamma(theta)
    assert_allclose(gamma, np.transpose(gamma, (1, 0, 2)), atol=1e-12)


def test_moment_inversion_round_trip():
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(17)
    theta = rng.uniform(-1, 1, size=len(idx))
    eta = loglinear.moments(idx, theta)
    back = loglinear.moment_to_natural(idx, eta)
    assert_allclose(back, theta, atol=1e-9)
    assert_allclose(loglinear.moments(idx, back), eta, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=MomentInfeasible,
    reason="near the solution the potential is flat to rounding and the "
    "damped search stalls short of the 1e-12 residual",
)
def test_moment_inversion_round_trip_at_box_corner():
    # a feasible eta from theta in the |theta| <= 1 box; the damped
    # Newton residual creeps from 2e-11 and never reaches 1e-12
    idx = SubsetIndex.boltzmann(3)
    theta = np.array([1.0, 0.0, 1.0, 0.09391203880183929, 1.0, 0.0])
    back = loglinear.moment_to_natural(idx, loglinear.moments(idx, theta))
    assert_allclose(back, theta, atol=1e-9)


def test_moment_inversion_stops_at_its_fixed_point(monkeypatch):
    # the box corner of the strict xfail above: once the damped search
    # accepts a candidate equal to theta, the inversion gives up at once
    # instead of repeating that iteration until the budget is spent
    idx = SubsetIndex.boltzmann(3)
    theta = np.array([1.0, 0.0, 1.0, 0.09391203880183929, 1.0, 0.0])
    eta = loglinear.moments(idx, theta)
    calls = {}
    count_calls(monkeypatch, calls, "logsumexp", loglinear)
    with pytest.raises(MomentInfeasible):
        loglinear.moment_to_natural(idx, eta)
    assert calls["logsumexp"] <= 2000


def reference_moment_to_natural(index, eta, theta0=None):
    """The damped Newton inversion written with the public primitives:
    the residual from ``moments``, the step from ``fisher_metric`` and
    the damping from the log-partition ``evaluate(...).lse``."""
    theta = np.zeros(len(index)) if theta0 is None else np.array(theta0, dtype=float)

    def potential(t):
        return float(loglinear.evaluate(index, t).lse) - float(t @ eta)

    value = potential(theta)
    for _ in range(200):
        residual = loglinear.moments(index, theta) - eta
        if float(np.max(np.abs(residual))) < 1e-12:
            return theta
        try:
            step = solve_spd(loglinear.fisher_metric(index, theta), -residual)
        except DualNewtonError as exc:
            raise MomentInfeasible(str(exc)) from exc
        t = 1.0
        for _ in range(60):
            candidate = theta + t * step
            cand_value = potential(candidate)
            if np.isfinite(cand_value) and cand_value <= value:
                theta, value = candidate, cand_value
                break
            t *= 0.5
        else:
            raise MomentInfeasible("no progress")
    raise MomentInfeasible("iteration budget spent")


def _inverted(invert, *args):
    try:
        return invert(*args)
    except MomentInfeasible:
        return MomentInfeasible


box = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(np.array)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(theta=box, start=box, shift=st.one_of(st.none(), box), scale=st.floats(0.0, 0.3))
def test_moment_inversion_matches_reference_loop(theta, start, shift, scale):
    # eta = moments(theta) of Boltzmann(3), or a step away from it as in
    # mirror descent's trials, some of which leave the marginal polytope
    idx = SubsetIndex.boltzmann(3)
    eta = loglinear.moments(idx, theta)
    if shift is not None:
        eta = eta + scale * shift
    ours = _inverted(loglinear.moment_to_natural, idx, eta, start)
    reference = _inverted(reference_moment_to_natural, idx, eta, start)
    if reference is MomentInfeasible:
        assert ours is MomentInfeasible
    else:
        assert ours is not MomentInfeasible
        assert ours.tobytes() == reference.tobytes()


def test_moment_inversion_reads_probabilities_once_per_iteration(monkeypatch):
    idx = SubsetIndex.boltzmann(3)
    eta = loglinear.moments(idx, np.random.default_rng(8).uniform(-1, 1, size=len(idx)))
    loglinear._memo.clear()
    calls = {}
    for name in ("probabilities", "moments", "fisher_metric"):
        count_calls(monkeypatch, calls, name, loglinear)
    count_calls(monkeypatch, calls, "cho_solve", loglinear)
    count_calls(monkeypatch, calls, "spd_factor", loglinear)
    count_calls(monkeypatch, calls, "cholesky_lower", linalg)
    count_calls(monkeypatch, calls, "logsumexp", loglinear)
    points = []
    evaluate = loglinear.evaluate

    def recorded(index, theta):
        points.append(np.asarray(theta).tobytes())
        return evaluate(index, theta)

    monkeypatch.setattr(loglinear, "evaluate", recorded)
    loglinear.moment_to_natural(idx, eta)
    # the start and every trial point make one pass each, which gives
    # the potential there and, once the trial is accepted, the next
    # iteration's moments, metric and the one checked factor its step
    # solves with
    solves = calls.pop("cho_solve")
    assert solves >= 2
    assert calls.pop("spd_factor") == calls.pop("cholesky_lower") == solves
    assert calls.pop("logsumexp") == len(points) == len(set(points)) >= solves + 1
    # the public readers each make their own call; the inversion reads
    # the pass directly
    assert calls == {"probabilities": 0, "moments": 0, "fisher_metric": 0}


def test_moment_inversion_scalar():
    idx = SubsetIndex.boltzmann(1)
    assert_allclose(loglinear.moment_to_natural(idx, np.array([0.5])), [0.0], atol=1e-12)


def test_moment_inversion_infeasible():
    # marginals 0.9/0.9 with joint 0.05 need total mass > 1
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(MomentInfeasible):
        loglinear.moment_to_natural(idx, np.array([0.9, 0.9, 0.05]))


def test_moment_inversion_stops_where_a_state_probability_is_zero(monkeypatch):
    # the first accepted step for the infeasible eta above sends theta
    # out to where a state's probability underflows to 0
    idx = SubsetIndex.boltzmann(2)
    loglinear._memo.clear()
    calls = {}
    count_calls(monkeypatch, calls, "evaluate", loglinear)
    with pytest.raises(
        MomentInfeasible, match=r"a state probability is 0 at max\|theta\| = \d"
    ):
        loglinear.moment_to_natural(idx, np.array([0.9, 0.9, 0.05]))
    assert calls["evaluate"] <= 3


def test_a_diverging_moment_inversion_stops_at_the_first_zero_probability(monkeypatch):
    # a mirror-descent trial of the Boltzmann(4) benchmark: the reference
    # loop spends its 200 iterations (6,115 passes) as theta runs off to
    # 3e14, where some state probability has been 0 since the 5th pass
    idx = SubsetIndex.boltzmann(4)
    eta = np.array(
        [0.39803171977468826, 0.49876712971940074, 0.29063865238068104,
         0.639640192364151, 0.11438534306279596, 0.027251762346763797,
         0.12287615480719143, 0.1910464009948904, 0.27321183801858384,
         0.19358094609169993]
    )
    theta0 = np.array(
        [-0.09811979243612212, 0.023333101909376517, 0.03606729099415325,
         -0.1604264612963361, 0.03230510080171088, 0.05087931726256286,
         -0.006151433952314784, -0.0001724052102059704, -0.020342836277054327,
         -0.0486498955491379]
    )
    assert _inverted(reference_moment_to_natural, idx, eta, theta0) is MomentInfeasible
    loglinear._memo.clear()
    calls = {}
    count_calls(monkeypatch, calls, "evaluate", loglinear)
    with pytest.raises(MomentInfeasible, match="a state probability is 0"):
        loglinear.moment_to_natural(idx, eta, theta0)
    assert calls["evaluate"] <= 6


def test_moment_inversion_does_not_hide_foreign_errors(monkeypatch):
    # only package errors in the inner solve mean "infeasible"
    def broken(*args, **kwargs):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(loglinear, "cho_solve", broken)
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(RuntimeError, match="solver bug"):
        loglinear.moment_to_natural(idx, np.array([0.3, 0.4, 0.1]))


# a mirror-descent trial of a Boltzmann(4) problem whose target sits near
# a vertex of the polytope: the third Newton step of the inversion is
# solved against a metric with a pivot of 2e-158 and comes out NaN
SUBNORMAL_PIVOT_ETA = np.array(
    [0.99995199132566193, 0.99995543172612544, 7.6927806417424174e-05,
     5.0024500460990148e-05, 0.99990964370030722, 7.6627068003422754e-05,
     4.9737902927257337e-05, 7.6631645835578991e-05, 4.9739039292750503e-05,
     -2.3003366751069656e-07]
)
SUBNORMAL_PIVOT_THETA0 = np.array(
    [3.059323611333809, 3.143432220726458, -2.947769747412013,
     -3.106538273906703, 6.987080502330327, -3.2880920366386968,
     -3.4392819529310703, -3.2848188700409073, -3.4335026133742974,
     1.7707679085162231]
)


def test_a_non_finite_inversion_step_ends_in_moment_infeasible(monkeypatch):
    # no candidate theta + t step can be finite, so the inversion names
    # the step at once instead of halving it: the solve refuses its NaN
    # solution, and the start and the two accepted iterates are the
    # inversion's only passes
    idx = SubsetIndex.boltzmann(4)
    loglinear._memo.clear()
    calls = {}
    count_calls(monkeypatch, calls, "evaluate", loglinear)
    with pytest.raises(MomentInfeasible, match="solve failed: .* infinite solution"):
        loglinear.moment_to_natural(idx, SUBNORMAL_PIVOT_ETA, SUBNORMAL_PIVOT_THETA0)
    assert calls["evaluate"] <= 3


B4 = SubsetIndex.boltzmann(4)
wide = st.lists(st.floats(-8.0, 8.0), min_size=10, max_size=10).map(np.array)


@st.composite
def near_polytope(draw):
    """The moments of a Boltzmann(4) theta, or those moments moved by up
    to 1e-2 per coordinate, which can leave the marginal polytope."""
    eta = loglinear.moments(B4, draw(wide))
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
    scale = draw(st.sampled_from([0.0, 1e-8, 1e-5, 1e-2]))
    return eta + scale * np.array(shift)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(eta=near_polytope(), theta0=wide)
@example(eta=SUBNORMAL_PIVOT_ETA, theta0=SUBNORMAL_PIVOT_THETA0)
def test_moment_inversion_returns_theta_or_raises_moment_infeasible(eta, theta0):
    try:
        theta = loglinear.moment_to_natural(B4, eta, theta0)
    except MomentInfeasible:
        return
    assert abs(loglinear.moments(B4, theta) - eta).max() < 1e-12


def test_log_partition_uniform():
    idx = SubsetIndex.boltzmann(2)
    assert_allclose(loglinear.evaluate(idx, np.zeros(3)).lse, np.log(4.0), rtol=1e-14)


def test_negative_entropy():
    assert_allclose(
        loglinear.negative_entropy(np.full(4, 0.25)), -np.log(4.0), rtol=1e-14
    )
    assert loglinear.negative_entropy(np.array([1.0, 0.0])) == 0.0


def test_theta_validation():
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(DimensionMismatch):
        loglinear.moments(idx, np.zeros(2))
    with pytest.raises(NonFiniteValue):
        loglinear.moments(idx, np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_a_non_finite_theta_entry_is_refused(entry):
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(NonFiniteValue, match="theta must be finite"):
        loglinear.evaluate(idx, np.array([0.1, entry, 0.0]))


@pytest.mark.parametrize("entry", [0.0, -0.0, -2.5])
def test_zero_and_negative_theta_entries_are_in_the_domain(entry):
    idx = SubsetIndex.boltzmann(2)
    eta = loglinear.moments(idx, np.array([0.1, entry, 0.0]))
    assert np.isfinite(eta).all()


# ---- one pass per point ----------------------------------------------------


def _reference_readers(index, theta):
    """Every reader's result as the expressions that computed it before the
    readers shared a pass: each reader made its own pass over the states."""
    F = feature_matrix(index)
    u = F @ theta
    log_p = u - logsumexp(u)
    p = np.exp(log_p)
    C = F - p @ F
    return {
        "log_partition": float(logsumexp(F @ theta)),
        "log_p": log_p,
        "probabilities": p,
        "moments": p @ F,
        "moments_full": p @ feature_matrix(SubsetIndex.full(index.n_vars)),
        "C": C,
        "fisher_metric": weighted_gram(C, p),
        "third_central_moment": np.einsum("x,xa,xb,xc->abc", p, C, C, C),
    }


def _readers(index, theta):
    full = SubsetIndex.full(index.n_vars)
    return {
        "log_partition": lambda: float(loglinear.evaluate(index, theta).lse),
        "log_p": lambda: loglinear.evaluate(index, theta).log_p,
        "probabilities": lambda: loglinear.probabilities(index, theta),
        "moments": lambda: loglinear.moments(index, theta),
        "moments_full": lambda: loglinear.moments(index, theta, query=full),
        "C": lambda: loglinear.evaluate(index, theta).C,
        "fisher_metric": lambda: loglinear.fisher_metric(index, theta),
        "third_central_moment": lambda: loglinear.third_central_moment(index, theta),
    }


def _as_bytes(value):
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return (value.shape, value.tobytes())


def _solve_outcome(solve):
    try:
        return solve().tobytes()
    except NotPositiveDefinite:
        return NotPositiveDefinite


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 5),
    full=st.booleans(),
    scale=st.sampled_from([0.5, 3.0, 800.0]),
    data=st.data(),
)
def test_readers_return_the_bits_of_their_own_pass(n, full, scale, data):
    # at scale 800 most state probabilities underflow to zero; the
    # readers are called in a drawn order, so whichever derives a
    # quantity first, every reader sees the same bits
    index = SubsetIndex.full(n) if full else SubsetIndex.boltzmann(n)
    theta = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(index), max_size=len(index)))
    ) * scale
    reference = _reference_readers(index, theta)
    readers = _readers(index, theta)
    order = data.draw(st.permutations(sorted(readers)))
    for name in order + order:
        assert _as_bytes(readers[name]()) == _as_bytes(reference[name]), name
    # the point hook, its solves through the pass's one factor, and the
    # KL objective's exact Jacobian
    b = np.linspace(-1.0, 1.0, len(index))
    point = loglinear.dual_structure(index, 0.0).at(theta)
    assert point.G.tobytes() == reference["fisher_metric"].tobytes()
    assert _solve_outcome(lambda: point.solve(b)) == _solve_outcome(
        lambda: solve_spd(reference["fisher_metric"], b)
    )
    if scale < 800.0:
        eta_hat = loglinear.moments(index, np.full(len(index), 0.1))
        obj = KLProjectionObjective(index, eta_hat, 0.5, 0.5)
        p, C = reference["probabilities"], reference["C"]
        G = reference["fisher_metric"]
        a = solve_spd(G, reference["moments"] - eta_hat + 2.0 * obj.lam * theta)
        TA = weighted_gram(C, p * (C @ a))
        expected = solve_spd(G, G + 2.0 * np.diag(obj.lam) - TA).T
        assert obj.grad_field_jacobian(theta).tobytes() == expected.tobytes()


def test_memo_off_gives_the_same_bits(monkeypatch):
    idx = SubsetIndex.boltzmann(4)
    theta = np.random.default_rng(3).uniform(-1, 1, size=len(idx))
    kept = {name: _as_bytes(read()) for name, read in _readers(idx, theta).items()}
    monkeypatch.setattr(loglinear, "_MEMO_SIZE", 0)
    loglinear._memo.clear()
    for name, read in _readers(idx, theta).items():
        assert _as_bytes(read()) == kept[name]
    assert not loglinear._memo


def test_memo_keeps_the_last_points():
    idx = SubsetIndex.boltzmann(2)
    thetas = [np.full(len(idx), 0.1 * k) for k in range(loglinear._MEMO_SIZE + 1)]
    for theta in thetas:
        loglinear.evaluate(idx, theta)
    assert len(loglinear._memo) == loglinear._MEMO_SIZE
    first, last = (loglinear.evaluate(idx, t) for t in (thetas[1], thetas[-1]))
    # a kept point answers from the same record, whatever array holds theta
    assert loglinear.evaluate(idx, list(thetas[1])) is first
    assert loglinear.evaluate(idx, thetas[-1].copy()) is last
    assert (idx, thetas[0].tobytes()) not in loglinear._memo


def test_returned_arrays_are_read_only():
    idx = SubsetIndex.boltzmann(3)
    theta = np.random.default_rng(4).uniform(-1, 1, size=len(idx))
    at = loglinear.evaluate(idx, theta)
    for array in (
        at.log_p,
        loglinear.probabilities(idx, theta),
        loglinear.moments(idx, theta),
        at.p,
        at.C,
        loglinear.fisher_metric(idx, theta),
        at.L,
        loglinear.dual_structure(idx, 0.0).at(theta).G,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # the arrays the memo keeps are unchanged by the attempts
    assert loglinear.probabilities(idx, theta).tobytes() == (
        _reference_readers(idx, theta)["probabilities"].tobytes()
    )
