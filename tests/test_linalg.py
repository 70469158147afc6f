import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from dualnewton.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    SingularMatrix,
)
from dualnewton.linalg import (
    cholesky_lower,
    fd_jacobian,
    is_spd,
    logsumexp,
    solve_general,
    solve_spd,
)

FIXED = dict(derandomize=True, deadline=None, database=None)


def test_solve_spd_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert_allclose(solve_spd(np.eye(3), b), b, rtol=0, atol=0)


def test_solve_spd_small_system():
    # hand elimination: inv([[4,2],[2,3]]) = [[3,-2],[-2,4]]/8
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    b = np.array([2.0, 5.0])
    assert_allclose(solve_spd(A, b), [-0.5, 2.0], atol=1e-14)


def test_solve_spd_rejects_indefinite():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        solve_spd(A, np.ones(2))


def test_solve_spd_rejects_asymmetric():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(2))


def test_solve_spd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        solve_spd(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda A: solve_spd(A, np.empty(0)),
        lambda A: solve_general(A, np.empty(0)),
        is_spd,
        cholesky_lower,
    ],
    ids=["solve_spd", "solve_general", "is_spd", "cholesky_lower"],
)
def test_an_empty_matrix_is_a_dimension_mismatch(call):
    # one named error, not a reduction's ValueError, a True certificate,
    # an empty factor or a "zero matrix"
    with pytest.raises(DimensionMismatch, match="nonempty square"):
        call(np.empty((0, 0)))


def _is_asymmetric(A):
    """The symmetry guard as a scaled bound alone:
    max|A - A^T| > 1e-12 max(1, max|A|)."""
    scale = max(1.0, float(np.max(np.abs(A))))
    return float(np.max(np.abs(A - A.T))) > 1e-12 * scale


@settings(max_examples=300, **FIXED)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e8]),
    ratio=st.sampled_from(
        [0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e6, np.inf, np.nan]
    ),
)
def test_solve_spd_rejects_asymmetry_exactly_where_the_scaled_bound_does(
    n, seed, magnitude, ratio
):
    # one off-diagonal entry moves by ratio times the bound, on either
    # side of it, or becomes infinite or NaN, which the bound never rejects
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = magnitude * (M @ M.T + n * np.eye(n))
    L = cholesky_lower(A)
    b = rng.standard_normal(n)
    i, j = rng.choice(n, 2, replace=False)
    with np.errstate(invalid="ignore"):
        A[i, j] += ratio * 1e-12 * max(1.0, float(np.max(np.abs(A))))
        rejected = _is_asymmetric(A)
    if rejected:
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(A, b, L=L)
        return
    # the two triangular solves scipy would make against L, L^T
    y = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
    x = scipy.linalg.solve_triangular(L, y, lower=True, trans="T", check_finite=False)
    assert solve_spd(A, b, L=L).tobytes() == x.tobytes()


def test_solve_spd_rejects_a_non_finite_factor_or_right_hand_side():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = cholesky_lower(A)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteValue):
            solve_spd(A, np.array([1.0, bad]), L=L)
        broken = L.copy()
        broken[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            solve_spd(A, np.ones(2), L=broken)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_solve_spd_residual_random(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_solve_general_permutation():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([7.0, -3.0])
    assert_allclose(solve_general(P, b), [-3.0, 7.0], atol=0)


def test_solve_general_singular():
    # LAPACK's dgetrf reports the exact zero pivot of the first matrix
    # (info 2), on which scipy's lu_factor would warn; the ratio test
    # raises instead, with no warning, for a vector or a matrix b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (np.ones(2), np.ones((2, 3))):
            with pytest.raises(SingularMatrix):
                solve_general(np.array([[1.0, 1.0], [1.0, 1.0]]), b)
            with pytest.raises(SingularMatrix):
                solve_general(np.zeros((2, 2)), b)


def test_solve_general_nonfinite():
    # a NaN or infinity fails as the package's NonFiniteValue, which the
    # Newton step catches, and not as a bare ValueError from LAPACK's check
    with pytest.raises(NonFiniteValue):
        solve_general(np.array([[2.0, 0.0], [0.0, np.nan]]), np.ones(2))
    with pytest.raises(NonFiniteValue):
        solve_general(np.eye(2), np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteValue):
        solve_general(np.eye(2), np.array([[1.0], [np.nan]]))


@pytest.mark.parametrize("n", [2, 7, 33])
def test_solve_general_residual_random(n):
    rng = np.random.default_rng(100 + n)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x = solve_general(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


@settings(max_examples=100, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    n_rhs=st.sampled_from([None, 1, 3]),
)
def test_solve_general_has_the_bits_of_scipys_lu(n, seed, n_rhs):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    b = rng.standard_normal(n if n_rhs is None else (n, n_rhs))
    # the Newton step solves against H^T, a transposed view
    for M in (A, A.T):
        lu_and_piv = scipy.linalg.lu_factor(M, check_finite=False)
        expected = scipy.linalg.lu_solve(lu_and_piv, b, check_finite=False)
        x = solve_general(M, b)
        assert x.shape == expected.shape
        assert x.tobytes() == expected.tobytes()


def _fails_the_pivot_test(A):
    """The singularity guard on its own: the zero matrix, or an LU pivot
    below 1e-14 times the row-sum infinity norm."""
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    if norm == 0.0:
        return True
    with warnings.catch_warnings():
        # an exactly zero pivot, which lu_factor reports by a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(A, check_finite=False)
    return bool(np.any(np.abs(np.diag(lu)) < 1e-14 * norm))


@settings(max_examples=300, **FIXED)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    rank_drop=st.integers(0, 3),
    noise=st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12]),
)
def test_solve_general_raises_singular_exactly_where_the_pivot_test_fails(
    n, seed, rank_drop, noise
):
    # low-rank matrices plus noise around the 1e-14 pivot ratio
    rng = np.random.default_rng(seed)
    rank = max(n - rank_drop, 0)
    A = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    A += noise * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    if _fails_the_pivot_test(A):
        with pytest.raises(SingularMatrix):
            solve_general(A, b)
    else:
        lu_and_piv = scipy.linalg.lu_factor(A, check_finite=False)
        expected = scipy.linalg.lu_solve(lu_and_piv, b, check_finite=False)
        assert solve_general(A, b).tobytes() == expected.tobytes()


def test_fd_jacobian_convention():
    # field(xi) = (xi0^2, xi1): rows differentiate, columns index outputs
    field = lambda xi: np.array([xi[0] ** 2, xi[1]])
    J = fd_jacobian(field, np.array([3.0, 1.0]))
    assert_allclose(J, [[6.0, 0.0], [0.0, 1.0]], atol=1e-6)


def test_fd_jacobian_quadratic_exact():
    # central differences are exact on degree <= 2 up to roundoff
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 4
        Q = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        field = lambda xi: Q @ xi * (xi @ xi) * 0 + Q @ xi + c + 0.5 * xi * xi
        xi = rng.standard_normal(n)
        J = fd_jacobian(field, xi)
        expected = Q.T + np.diag(xi)
        assert_allclose(J, expected, atol=1e-6)


def test_fd_jacobian_rectangular_output():
    field = lambda xi: np.array([xi[0] + xi[1], xi[0] - xi[1], 2.0 * xi[0]])
    J = fd_jacobian(field, np.zeros(2))
    assert J.shape == (2, 3)
    assert_allclose(J, [[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]], atol=1e-8)


def test_fd_jacobian_nonfinite():
    # sqrt goes NaN on the negative probe point
    field = lambda xi: np.array([np.sqrt(xi[0])])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteValue):
            fd_jacobian(field, np.array([0.0]))


def test_is_spd_cases():
    assert is_spd(np.eye(3))
    assert not is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    fisher_like = M @ M.T + 1e-3 * np.eye(6)
    assert is_spd(fisher_like + 2.0 * np.eye(6))


def test_is_spd_symmetrization_jitter():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 5))
    A = M @ M.T + 5 * np.eye(5)
    jitter = 1e-14 * rng.standard_normal((5, 5))
    assert is_spd(A + jitter) == is_spd(A)


def _python_is_spd(A):
    """The certificate's earlier definition: the Python Cholesky loop over
    the symmetrized matrix."""
    try:
        cholesky_lower(0.5 * (A + A.T))
    except NotPositiveDefinite:
        return False
    return True


@settings(max_examples=200, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    shift=st.floats(-2.0, 4.0),
)
def test_is_spd_matches_the_python_cholesky_on_random_matrices(
    n, seed, symmetric, shift
):
    # Gaussian entries, shifted along the diagonal so that both outcomes occur
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = (M + M.T if symmetric else M) + shift * np.sqrt(n) * np.eye(n)
    assert is_spd(A) == _python_is_spd(A)


@settings(max_examples=200, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    definite=st.booleans(),
    scale=st.floats(1e-100, 1e100),
)
def test_is_spd_matches_the_python_cholesky_off_the_rounding_band(
    n, seed, definite, scale
):
    # Q diag(lam) Q^T with every |lam| in [1e-8, 1] relative to the
    # largest, so no eigenvalue lies within rounding of zero
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-8.0, 0.0, n)
    lam[0] = 1.0
    if not definite:
        lam *= rng.choice([-1.0, 1.0], n)
        lam[0] = -1.0
    A = scale * (Q * lam) @ Q.T
    assert is_spd(A) == _python_is_spd(A) == bool(np.all(lam > 0))


@settings(max_examples=100, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_is_spd_is_false_on_a_non_finite_entry(n, seed, bad):
    # a NaN or an infinity anywhere, even in an otherwise SPD matrix
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    A[rng.integers(n), rng.integers(n)] = bad
    assert is_spd(A) is False


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), (0, 1)])
def test_is_spd_rejects_a_non_square_input(shape):
    with pytest.raises(DimensionMismatch):
        is_spd(np.ones(shape))


# ---- logsumexp: the same bits as scipy.special.logsumexp ----------------

@st.composite
def lse_inputs(draw, shape):
    """Entries up to +-700 in magnitude, some tied at the maximum and some
    -inf, with at least one finite entry per reduced slice (the last axis)."""
    u = draw(hnp.arrays(float, shape, elements=st.floats(-700.0, 700.0)))
    tie = draw(hnp.arrays(bool, shape))
    drop = draw(hnp.arrays(bool, shape))
    rows = u.reshape(-1, shape[-1])
    keep = draw(hnp.arrays(int, rows.shape[:1], elements=st.integers(0, shape[-1] - 1)))
    u = np.where(tie, rows.max(axis=1).reshape(shape[:-1] + (1,)), u)
    drop.reshape(-1, shape[-1])[np.arange(rows.shape[0]), keep] = False
    return np.where(drop, -np.inf, u)


def assert_same_bits(ours, theirs):
    ours = np.asarray(ours, dtype=float)
    theirs = np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=300, **FIXED)
@given(data=st.data(), n=st.integers(1, 300))
def test_logsumexp_matches_scipy_on_vectors(data, n):
    u = data.draw(lse_inputs((n,)))
    ours = logsumexp(u)
    assert isinstance(ours, np.float64)
    assert_same_bits(ours, scipy.special.logsumexp(u))


@settings(max_examples=200, **FIXED)
@given(data=st.data(), shape=st.tuples(st.integers(1, 60), st.integers(1, 12)))
def test_logsumexp_matches_scipy_along_rows(data, shape):
    u = data.draw(lse_inputs(shape))
    assert_same_bits(logsumexp(u, axis=1), scipy.special.logsumexp(u, axis=1))


def test_logsumexp_ties_and_nonfinite_maxima():
    # k entries at the maximum enter as log(k); a row whose maximum is
    # -inf, +inf or NaN gives what scipy gives, without warnings
    cases = [
        [2.0, 2.0, 2.0, -1.0],
        [-np.inf, 3.0],
        [-np.inf, -np.inf],
        [np.inf, 1.0],
        [np.nan, 1.0],
    ]
    with np.errstate(all="raise"):
        rows = [logsumexp(np.array(c)) for c in cases]
    assert rows[0] == np.log1p(np.exp(-3.0) / 3.0) + np.log(3.0) + 2.0
    for ours, c in zip(rows, cases):
        with np.errstate(all="ignore"):
            assert_same_bits(ours, scipy.special.logsumexp(np.array(c)))
    table = np.array([[0.0, -np.inf], [-np.inf, -np.inf], [1.0, 1.0]])
    assert_same_bits(logsumexp(table, axis=1), scipy.special.logsumexp(table, axis=1))
