import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from dualnewton import linalg
from dualnewton.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    SingularMatrix,
)
from dualnewton.linalg import (
    cho_solve,
    cholesky_lower,
    fd_jacobian,
    is_spd,
    logsumexp,
    solve_general,
    solve_spd,
    spd_factor,
    symmetric_factor,
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


SOLVES = {"solve_spd": solve_spd, "solve_general": solve_general, "cho_solve": cho_solve}


@pytest.mark.parametrize("shape", [(2,), (4,), (2, 2), (), (3, 3, 3)])
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_spd_dimension_mismatch(name, shape):
    # b is a vector or a matrix of right-hand sides, with A's n rows
    solve = SOLVES[name]
    with pytest.raises(DimensionMismatch, match="right-hand side"):
        solve(np.eye(3), np.ones(shape))
    for rows in ((3,), (3, 2)):
        assert solve(np.eye(3), np.ones(rows)).shape == rows


@pytest.mark.parametrize("solve", [solve_spd, solve_general], ids=["spd", "general"])
def test_a_non_square_matrix_is_a_dimension_mismatch(solve):
    with pytest.raises(DimensionMismatch, match="square"):
        solve(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda A: solve_spd(A, np.empty(0)),
        lambda A: solve_general(A, np.empty(0)),
        is_spd,
        cholesky_lower,
        spd_factor,
    ],
    ids=["solve_spd", "solve_general", "is_spd", "cholesky_lower", "spd_factor"],
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


def _kernel_solve(A, b):
    """``solve_spd`` as a point makes it: the checked factor of A, then
    the solve against that factor."""
    return cho_solve(spd_factor(A), b)


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
    # side of it, or becomes infinite or NaN, which the bound never
    # rejects and the finiteness guard does; the checked factor decides
    # for both solve forms
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = magnitude * (M @ M.T + n * np.eye(n))
    b = rng.standard_normal(n)
    i, j = rng.choice(n, 2, replace=False)
    with np.errstate(invalid="ignore"):
        A[i, j] += ratio * 1e-12 * max(1.0, float(np.max(np.abs(A))))
        rejected = _is_asymmetric(A)
    for solve in (solve_spd, _kernel_solve):
        if not np.isfinite(A).all():
            assert not rejected
            with pytest.raises(NonFiniteValue, match="in A"):
                solve(A, b)
        elif rejected:
            with pytest.raises(ValueError, match="symmetric"):
                solve(A, b)
        else:
            # the two triangular solves scipy would make against L, L^T
            L = cholesky_lower(A)
            y = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
            x = scipy.linalg.solve_triangular(
                L, y, lower=True, trans="T", check_finite=False
            )
            assert solve(A, b).tobytes() == x.tobytes()


def _reference_solve_spd(A, b):
    """A solve against ``L = cholesky_lower(A)`` with every guard written
    plainly: ``np.isfinite`` over A, A - A^T formed and scaled, A
    factored only after both, and ``np.isfinite`` over the factor and b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteValue("solve_spd met a NaN or infinite entry in A")
    asymmetry = A - A.T
    if asymmetry.any() and float(abs(asymmetry).max()) > 1e-12 * max(
        1.0, float(abs(A).max())
    ):
        raise ValueError("solve_spd expects a symmetric matrix")
    L = cholesky_lower(A)
    U = L.T
    if not (np.isfinite(U).all() and np.isfinite(b).all()):
        raise NonFiniteValue("solve_spd met a NaN or infinite entry")
    y, info = lapack.dtrtrs(U, b, lower=0, trans=1)
    if info == 0:
        x, info = lapack.dtrtrs(U, y, lower=0)
    if info != 0:
        raise SingularMatrix(f"triangular solve failed with LAPACK info {info}")
    return x


def _solve_outcome(solve, A, b):
    """The solution's bytes, or the type of what it raised."""
    # an infinite entry makes A - A^T warn; only the outcome is compared
    with np.errstate(all="ignore"):
        try:
            return solve(A, b).tobytes()
        except (ValueError, NonFiniteValue, NotPositiveDefinite, SingularMatrix) as exc:
            return type(exc)


@settings(max_examples=500, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e8]),
    ratio=st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, -1.0 - 1e-6]),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf, -0.0]),
    where=st.sampled_from(["A", "A pair", "A against +0", "A diagonal", "b"]),
    order=st.sampled_from("CF"),
    n_rhs=st.sampled_from([None, 1, 3]),
)
def test_solve_spd_accepts_rejects_and_solves_as_the_plain_guards_do(
    n, seed, magnitude, ratio, special, where, order, n_rhs
):
    # one off-diagonal entry moves by ratio times the symmetry bound,
    # just inside or outside it, and one entry of A or of b may be NaN,
    # infinite or -0.0: the checked factor and the solve against it,
    # run in turn or inside solve_spd, must accept, reject and solve
    # exactly as the plain guards do
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = magnitude * (M @ M.T + n * np.eye(n))
    b = rng.standard_normal(n if n_rhs is None else (n, n_rhs))
    i, j = (int(k) for k in rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
    if i != j:
        A[i, j] += ratio * 1e-12 * max(1.0, float(abs(A).max()))
    if special is not None:
        if where == "A":
            A[i, j] = special
        elif where == "A pair":
            A[i, j] = A[j, i] = special
        elif where == "A against +0":
            A[i, j], A[j, i] = special, 0.0
        elif where == "A diagonal":
            A[i, i] = special
        else:
            b[i] = special
    A = np.asarray(A, order=order)
    expected = _solve_outcome(_reference_solve_spd, A, b)
    assert _solve_outcome(solve_spd, A, b) == expected
    assert _solve_outcome(_kernel_solve, A, b) == expected


@settings(max_examples=200, **FIXED)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.sampled_from(["pair", "diagonal", "upper", "lower", "against +0"]),
)
def test_solve_spd_rejects_a_non_finite_matrix_with_a_finite_factor(
    n, seed, bad, where
):
    # A is symmetric to the bit before one entry, or a mirrored pair,
    # turns NaN or infinite; the factor refuses it before factoring,
    # also where its lower triangle alone would factor ("upper")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    i, j = (int(k) for k in rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
    if where == "pair":
        A[i, j] = A[j, i] = bad
    elif where == "diagonal":
        A[i, i] = bad
    elif where == "upper":
        A[min(i, j), max(i, j)] = bad
    elif where == "lower":
        A[max(i, j), min(i, j)] = bad
    else:
        A[j, i] = 0.0
        A[i, j] = bad
    with np.errstate(invalid="ignore"):
        assert not _is_asymmetric(A)

    def unused(A):
        raise AssertionError("a non-finite matrix reached the factorization")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "cholesky_lower", unused)
        for refuse in (spd_factor, lambda A: solve_spd(A, b)):
            with pytest.raises(NonFiniteValue, match="in A"):
                refuse(A)


def test_solve_spd_and_cho_solve_reject_a_non_finite_right_hand_side():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = spd_factor(A)
    for bad in (np.nan, np.inf):
        b = np.array([1.0, bad])
        with pytest.raises(NonFiniteValue):
            solve_spd(A, b)
        with pytest.raises(NonFiniteValue):
            cho_solve(L, b)


def test_cho_solve_rejects_a_right_hand_side_of_another_length():
    with pytest.raises(DimensionMismatch):
        cho_solve(spd_factor(np.eye(3)), np.ones(2))


@settings(max_examples=300, **FIXED)
@given(
    A=hnp.arrays(
        float,
        st.integers(1, 5).map(lambda n: (n, n)),
        elements=st.one_of(
            st.floats(-1e308, 1e308),
            st.sampled_from([1e-300, 1e-160, 5e-324, 1e154, 1e200, 1.7e308]),
        ),
    )
)
def test_a_finite_matrix_factors_to_a_finite_factor_or_is_refused(A):
    # so spd_factor, which refuses a non-finite A, need not scan its
    # factor: a NaN or infinity in row i of L reaches pivot i
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            L = cholesky_lower(A)
        except NotPositiveDefinite:
            return
    assert np.isfinite(L).all()


def test_spd_factor_is_the_factor_of_the_plain_loop():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((6, 6))
    A = M @ M.T + 6 * np.eye(6)
    assert spd_factor(A).tobytes() == cholesky_lower(A).tobytes()
    with pytest.raises(NotPositiveDefinite):
        spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


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


# ---- symmetric_factor: dpotrf's bits, and potf2's on 2x2 -----------------

def _dpotrf_factor(A):
    """The reference: dpotrf of the symmetrized A, the whole array it
    returns, or None where its info is not 0."""
    factor, info = lapack.dpotrf(0.5 * (A + A.T), lower=1, clean=0)
    return factor.tobytes() if info == 0 else None


def _factor_bytes(A):
    factor = symmetric_factor(A)
    return None if factor is None else factor.tobytes()


SPECIAL_ENTRIES = [
    0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-10,
    0.5, 1.0, 2.0, -1.0, -2.5, 3.0, 1e160, 1e300,
]


def test_the_2x2_factor_is_dpotrfs_on_every_tuple_of_special_entries():
    # signed zeros, subnormals and entries whose squares and reciprocals
    # underflow or overflow, in every position: 14^4 matrices, with the
    # upper entry s01 and the refusals compared too
    refused = 0
    for entries in itertools.product(SPECIAL_ENTRIES, repeat=4):
        A = np.array(entries).reshape(2, 2)
        expected = _dpotrf_factor(A)
        assert _factor_bytes(A) == expected, entries
        refused += expected is None
    assert 0 < refused < len(SPECIAL_ENTRIES) ** 4


def _random_2x2(rng, kind):
    """A 2x2 matrix with entries over 1e-6..1e6: independent entries, a
    Gram matrix plus a small asymmetric term, or a symmetric matrix
    whose determinant is within a few roundings of zero."""
    if kind == 0:
        return rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-6, 6, (2, 2))
    if kind == 1:
        B = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-6, 6, (2, 1))
        return B @ B.T + 1e-12 * (B @ B.T).max() * rng.standard_normal((2, 2))
    p = 10.0 ** rng.uniform(-6, 6)
    q = rng.standard_normal() * 10.0 ** rng.uniform(-6, 6)
    r = q * q / p * (1.0 + rng.integers(-4, 5) * linalg.EPS)
    return np.array([[p, q], [q, r]])


def test_the_2x2_factor_is_dpotrfs_on_random_matrices():
    rng = np.random.default_rng(44)
    refused = 0
    for i in range(100_000):
        A = _random_2x2(rng, i % 3)
        expected = _dpotrf_factor(A)
        assert _factor_bytes(A) == expected, A.tolist()
        refused += expected is None
    assert 20_000 < refused < 80_000


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1e308, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 1e308], [1e308, 1.0]]),
        np.array([[2.0, 0.0, -1e308], [0.0, 2.0, 0.0], [-1e308, 0.0, 2.0]]),
        np.diag([1.0, 1.0, 1.7e308]),
    ],
    ids=["2x2-diagonal", "2x2-off-diagonal", "3x3-off-diagonal", "3x3-diagonal"],
)
def test_a_symmetric_part_that_overflows_is_a_non_finite_value(A):
    # finite entries whose sum in 0.5 (A + A^T) overflows: the named
    # error, on the 2x2 path and on LAPACK's, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            symmetric_factor(A)
        assert is_spd(A) is False


# ---- cholesky_lower: the bits of the plain column loop -------------------

def _reference_cholesky_lower(A):
    """The column loop written plainly: both inner products read from L
    afresh, np.sqrt of the pivot and a new quotient per column.  Its
    ddot and dgemv fix the bits that ``cholesky_lower`` keeps."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0.0:
            raise NotPositiveDefinite(f"pivot {pivot} at column {j}")
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _spd_with_noise_above_the_diagonal(n, rng):
    """M M^T + n I, with small noise added to the upper triangle only:
    the factor reads only the lower triangle."""
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    A[np.triu_indices(n, 1)] += 1e-3 * rng.standard_normal(n * (n - 1) // 2)
    return A


@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_lower_has_the_bits_of_the_plain_column_loop(order):
    # a Fortran-order input gives a Fortran-order factor, whose rows the
    # BLAS reads with a stride
    rng = np.random.default_rng(2)
    for n in range(1, 41):
        for scale in (1e-3, 1.0, 1e3):
            A = np.asarray(scale * _spd_with_noise_above_the_diagonal(n, rng), order=order)
            ours = cholesky_lower(A)
            assert ours.tobytes() == _reference_cholesky_lower(A).tobytes()
            lower = np.asarray(np.tril(A), order=order)
            assert ours.tobytes() == cholesky_lower(lower).tobytes()


def test_cholesky_lower_raises_at_the_column_of_the_plain_loop():
    rng = np.random.default_rng(3)
    for n in range(1, 41):
        A = _spd_with_noise_above_the_diagonal(n, rng)
        L = _reference_cholesky_lower(A)
        k = int(rng.integers(n))
        # a diagonal entry below the squared norm of its row of L leaves a
        # negative pivot at column k (a zero one at column 0); a NaN at or
        # left of the diagonal in row k reaches the pivot there
        low = A.copy()
        low[k, k] = rng.uniform(0.0, 1.0) * (L[k, :k] @ L[k, :k])
        nan = A.copy()
        nan[k, rng.integers(k + 1)] = np.nan
        for bad, column in ((low, k), (nan, k), (-A, 0)):
            with pytest.raises(NotPositiveDefinite) as expected:
                _reference_cholesky_lower(bad)
            with pytest.raises(NotPositiveDefinite) as raised:
                cholesky_lower(bad)
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).endswith(f"at column {column}")


# ---- logsumexp: the same bits as scipy.special.logsumexp ----------------

@st.composite
def lse_inputs(draw, shape, bulk=None):
    """Entries up to +-700 in magnitude, some tied at the maximum and some
    -inf, with at least one finite entry per slice along the last axis.
    ``bulk``, an array of ``shape``, stands in for the drawn entries."""
    u = bulk
    if u is None:
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


@st.composite
def lse_columns(draw):
    """C-contiguous (K, N) inputs with K from 1 to 8 and N up to 3,000:
    seeded normal entries at a drawn scale, with lse_inputs' ties and
    -inf entries down each column, and +inf or NaN maxima in a few
    columns."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3000))
    scale = draw(st.sampled_from([0.5, 5.0, 50.0, 700.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = np.clip(scale * rng.standard_normal((n, k)), -700.0, 700.0)
    u = np.ascontiguousarray(draw(lse_inputs((n, k), bulk=bulk)).T)
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        u[draw(st.integers(0, k - 1)), j] = draw(st.sampled_from([np.inf, np.nan]))
    return u


@settings(max_examples=200, **FIXED)
@given(data=st.data(), shape=st.tuples(st.integers(1, 60), st.integers(1, 12)))
def test_logsumexp_matches_scipy_along_rows(data, shape):
    # axis 0 of the transpose, in C order: the call shape of the mixture
    u = np.ascontiguousarray(data.draw(lse_inputs(shape)).T)
    assert_same_bits(logsumexp(u, axis=0), scipy.special.logsumexp(u, axis=0))


@settings(max_examples=150, **FIXED)
@given(u=lse_columns())
def test_logsumexp_matches_scipy_down_the_columns_of_a_c_order_matrix(u):
    # numpy sums axis 0 of a C-contiguous array row by row, which the
    # column path repeats; along a contiguous axis it sums pairwise
    assert u.flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = logsumexp(u, axis=0)
    with np.errstate(all="ignore"):
        assert_same_bits(ours, scipy.special.logsumexp(u, axis=0))


def test_logsumexp_reads_a_matrix_in_c_order_and_reduces_no_other_axis():
    u = np.arange(12.0).reshape(4, 3) % 5
    fortran = np.asfortranarray(u)
    assert_same_bits(logsumexp(fortran, axis=0), logsumexp(u, axis=0))
    for bad, axis in ((u, 1), (u[0], 0), (u[None], 0)):
        with pytest.raises(DimensionMismatch):
            logsumexp(bad, axis=axis)


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
    table = np.ascontiguousarray(table.T)
    assert_same_bits(logsumexp(table, axis=0), scipy.special.logsumexp(table, axis=0))


def _lse_table():
    """All-entries cases: one finite maximum takes the path without the
    count of maxima; ties and non-finite maxima take the path with it."""
    rng = np.random.default_rng(4)
    states16 = rng.standard_normal(16)
    states256 = 5.0 * rng.standard_normal(256)
    tied256 = states256.copy()
    tied256[[3, 200]] = states256.max()
    return {
        "one maximum": [0.5, -1.0, 2.0, 1.5],
        "tie of 2": [2.0, -1.0, 2.0],
        "tie of 3": [2.0, 2.0, 2.0, -1.0],
        "-inf entries": [-np.inf, 3.0, -np.inf, 1.0],
        "-inf entries and a tie": [-np.inf, 3.0, 3.0],
        "all -inf": [-np.inf, -np.inf, -np.inf],
        "+inf maximum": [np.inf, 1.0, -np.inf],
        "+inf tie": [np.inf, 1.0, np.inf],
        "NaN maximum": [1.0, np.nan, 2.0],
        "length 1": [3.0],
        "length 1, -inf": [-np.inf],
        "length 1, +inf": [np.inf],
        "length 1, NaN": [np.nan],
        "16 states": states16,
        "16 states at -700": states16 - 700.0,
        "256 states": states256,
        "256 states, tie of 3": tied256,
    }


LSE_TABLE = _lse_table()


@pytest.mark.parametrize("case", sorted(LSE_TABLE))
def test_logsumexp_over_all_entries_has_scipys_bits(case):
    u = np.array(LSE_TABLE[case], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = logsumexp(u)
    assert isinstance(ours, np.float64)
    with np.errstate(all="ignore"):
        assert_same_bits(ours, scipy.special.logsumexp(u))
