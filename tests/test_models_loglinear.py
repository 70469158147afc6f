import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualnewton.errors import (
    DimensionMismatch,
    DualNewtonError,
    MomentInfeasible,
    NonFiniteValue,
)
from dualnewton.linalg import fd_jacobian, solve_spd
from dualnewton.models import loglinear
from dualnewton.models.loglinear import SubsetIndex


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
    assert all(SubsetIndex.parse_key(k) == A for k, A in zip(keys, idx.subsets))


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
    assert np.all(loglinear.christoffel(idx, theta, 1.0) == 0.0)

    # the flat connection needs no third-moment tensor at all
    def unused(*args):
        raise AssertionError("third central moment built at alpha = 1")

    monkeypatch.setattr(loglinear, "third_central_moment", unused)
    assert np.all(loglinear.christoffel(idx, theta, 1.0) == 0.0)


def test_point_builds_metric_and_third_moment_once(monkeypatch):
    idx = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1, 1, size=len(idx))
    calls = {"probabilities": 0, "third_central_moment": 0}

    def counted(name):
        original = getattr(loglinear, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(loglinear, name, wrapper)

    counted("probabilities")
    counted("third_central_moment")
    point = loglinear.dual_structure(idx, 0.5).at(theta)
    point.G
    assert calls == {"probabilities": 1, "third_central_moment": 0}
    # the contractions Newton reads and the full symbols, stacked from
    # the connection map, all come from the point's probabilities
    point.dual_dot(rng.normal(size=len(idx)))
    point.quad(rng.normal(size=len(idx)))
    point.gamma
    point.gamma_dual
    assert calls == {"probabilities": 1, "third_central_moment": 0}


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
    gamma = loglinear.christoffel(idx, theta, -0.5)
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
    calls = []
    log_partition = loglinear.log_partition

    def counted(*args):
        calls.append(None)
        return log_partition(*args)

    monkeypatch.setattr(loglinear, "log_partition", counted)
    with pytest.raises(MomentInfeasible):
        loglinear.moment_to_natural(idx, eta)
    assert len(calls) <= 2000


def reference_moment_to_natural(index, eta, theta0=None):
    """The damped Newton inversion written with the public primitives:
    the residual from ``moments``, the step from ``fisher_metric`` and
    the damping from ``log_partition``."""
    theta = np.zeros(len(index)) if theta0 is None else np.array(theta0, dtype=float)

    def potential(t):
        return loglinear.log_partition(index, t) - float(t @ eta)

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
    calls = {"probabilities": 0, "moments": 0, "fisher_metric": 0, "log_partition": 0}
    solves = []

    for name in calls:
        original = getattr(loglinear, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(loglinear, name, counted)

    def counted_solve(*args):
        solves.append(1)
        return solve_spd(*args)

    monkeypatch.setattr(loglinear, "solve_spd", counted_solve)
    loglinear.moment_to_natural(idx, eta)
    # one Newton step per solve plus the final converged residual; every
    # trial point and the start still go through the log partition
    assert len(solves) >= 2
    assert calls["probabilities"] == len(solves) + 1
    assert calls["moments"] == calls["fisher_metric"] == 0
    assert calls["log_partition"] >= len(solves) + 1


def test_moment_inversion_scalar():
    idx = SubsetIndex.boltzmann(1)
    assert_allclose(loglinear.moment_to_natural(idx, np.array([0.5])), [0.0], atol=1e-12)


def test_moment_inversion_infeasible():
    # marginals 0.9/0.9 with joint 0.05 need total mass > 1
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(MomentInfeasible):
        loglinear.moment_to_natural(idx, np.array([0.9, 0.9, 0.05]))


def test_moment_inversion_does_not_hide_foreign_errors(monkeypatch):
    # only package errors in the inner solve mean "infeasible"
    def broken(*args):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(loglinear, "solve_spd", broken)
    idx = SubsetIndex.boltzmann(2)
    with pytest.raises(RuntimeError, match="solver bug"):
        loglinear.moment_to_natural(idx, np.array([0.3, 0.4, 0.1]))


def test_log_partition_uniform():
    idx = SubsetIndex.boltzmann(2)
    assert_allclose(loglinear.log_partition(idx, np.zeros(3)), np.log(4.0), rtol=1e-14)


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
