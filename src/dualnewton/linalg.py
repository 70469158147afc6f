"""Dense solves, finite differences and the log-sum-exp kernel used by
the model and geometry layers.

Matrices here are small (tens of rows); everything is float64.  A
metric G is factored by the Python loop ``cholesky_lower``, whose bits
reach every solve against G and the pinned runs.  ``is_spd`` (dpotrf) and
``solve_general`` (dgetrf, dgetrs) call LAPACK without scipy's wrappers.
The BLAS picks its own thread count; on small systems threads cost more
than they save, so pin them (e.g. OPENBLAS_NUM_THREADS=1) when timing.

``logsumexp`` is the one log-sum-exp of the package: over all entries
for the log-partition and the log-probabilities, and along axis 0 of the
Beta mixture's (K, N) component rows for its log-density and scores.
It reproduces the arithmetic of ``scipy.special.logsumexp`` (scipy
1.17) bit for bit: the entries equal to the maximum are taken out of
the shifted sum and counted, so the result is log1p(s) + log(k) + max,
with s the sum of the other shifted exponentials divided by the count
k.  It skips scipy's array-API dispatch, which costs several times the
arithmetic on the short vectors used here.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    SingularMatrix,
)

EPS = float(np.finfo(np.float64).eps)

# FD step for first derivatives: error balance of central differences,
# scaled per coordinate by max(1, |xi_i|).
_FD_STEP = EPS ** (1.0 / 3.0)

# An LU pivot below this fraction of the infinity norm counts as singular.
_SINGULAR_RTOL = 1e-14


def _as_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(
            f"expected a nonempty square matrix, got shape {A.shape}"
        )
    return A


def _check_rhs(A, b):
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"matrix of size {A.shape[0]} against right-hand side of shape {b.shape}"
        )
    return b


def cholesky_lower(A):
    """Lower Cholesky factor of A, reading only the lower triangle.

    Raises NotPositiveDefinite as soon as a pivot is not positive.
    """
    A = _as_square(A)
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


def solve_spd(A, b, L=None):
    """Solve A x = b for symmetric positive definite A via Cholesky.

    ``L``, when given, is the lower Cholesky factor of A that the caller
    already holds (``cholesky_lower(A)``); only the factorization is
    skipped, every check below still runs.  The two triangular solves
    call LAPACK's dtrtrs with the operands
    ``scipy.linalg.solve_triangular`` would pass it, so the bits are the
    same without that wrapper's per-call overhead.  Raises ValueError
    when max|A - A^T| > 1e-12 max(1, max|A|), and NonFiniteValue on a
    NaN or infinity in the factor or in b.
    """
    A = _as_square(A)
    b = _check_rhs(A, b)
    # the scaled bound is read only where A - A^T has a nonzero (or NaN)
    # entry; an exactly symmetric A passes it anyway
    asymmetry = A - A.T
    if asymmetry.any() and float(abs(asymmetry).max()) > 1e-12 * max(
        1.0, float(abs(A).max())
    ):
        raise ValueError("solve_spd expects a symmetric matrix")
    if L is None:
        L = cholesky_lower(A)
    elif L.shape != A.shape:
        raise DimensionMismatch(
            f"factor of shape {L.shape} for a matrix of shape {A.shape}"
        )
    # U^T y = b, then U x = y, with U = L^T read in place by LAPACK
    U = L.T
    if not (np.isfinite(U).all() and np.isfinite(b).all()):
        raise NonFiniteValue("solve_spd met a NaN or infinite entry")
    y, info = lapack.dtrtrs(U, b, lower=0, trans=1)
    if info == 0:
        x, info = lapack.dtrtrs(U, y, lower=0)
    if info != 0:
        raise SingularMatrix(f"triangular solve failed with LAPACK info {info}")
    return x


def solve_general(A, b):
    """Solve A x = b by LU with partial pivoting, the bits of scipy's
    ``lu_factor`` and ``lu_solve`` from the dgetrf and dgetrs they call.

    Raises NonFiniteValue when A or b holds a NaN or infinity, and
    SingularMatrix, not a warning, when some pivot falls below
    1e-14 * ||A||_inf.
    """
    A = _as_square(A)
    b = _check_rhs(A, b)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFiniteValue("solve_general received a NaN or infinite entry")
    norm = float(abs(A).sum(axis=1).max())
    if norm == 0.0:
        raise SingularMatrix("zero matrix")
    lu, piv, _ = lapack.dgetrf(A)
    pivots = abs(lu.diagonal())
    if (pivots < _SINGULAR_RTOL * norm).any():
        raise SingularMatrix(
            f"pivot ratio {pivots.min() / norm:.3e} below {_SINGULAR_RTOL:.0e}"
        )
    return lapack.dgetrs(lu, piv, b)[0]


def logsumexp(u, axis=None):
    """log sum exp(u) over all entries of a nonempty u, or along ``axis``.

    Same bits as ``scipy.special.logsumexp(u, axis=axis)``: the entries
    at the maximum are zeroed out of the shifted exponentials and
    counted, and the count enters as log(k).  A maximum of -inf gives
    -inf, +inf gives inf and NaN gives NaN, without warnings.
    """
    u = np.asarray(u, dtype=float)
    keep = axis is not None
    with np.errstate(invalid="ignore", divide="ignore"):
        u_max = np.max(u, axis=axis, keepdims=keep)
        at_max = u == u_max
        shifted = np.where(at_max, 0.0, np.exp(u - u_max))
        # k >= 1 unless the maximum is NaN, and 0 / k = 0 keeps an empty sum
        k = np.count_nonzero(at_max, axis=axis, keepdims=keep)
        s = np.sum(shifted, axis=axis, keepdims=keep) / k
        out = np.log1p(s) + np.log(k) + u_max
    return np.squeeze(out, axis=axis) if keep else out


def is_spd(A):
    """True when LAPACK's dpotrf factors 0.5 (A + A^T): all Cholesky
    pivots positive.  False on a NaN or infinite entry."""
    A = _as_square(A)
    if not np.isfinite(A).all():
        return False
    return lapack.dpotrf(0.5 * (A + A.T), lower=1, clean=0, overwrite_a=1)[1] == 0


def fd_jacobian(field, xi):
    """Jacobian of a vector field by central differences.

    Entry (i, j) holds d field_j / d xi_i, i.e. rows index the
    differentiation direction.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1:
        raise DimensionMismatch(f"expected a coordinate vector, got shape {xi.shape}")
    h = _FD_STEP * np.maximum(1.0, np.abs(xi))
    rows = []
    for i in range(xi.size):
        step = np.zeros_like(xi)
        step[i] = h[i]
        f_plus = np.asarray(field(xi + step), dtype=float)
        f_minus = np.asarray(field(xi - step), dtype=float)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteValue(f"field evaluation not finite at offset {i}")
        rows.append((f_plus - f_minus) / (2.0 * h[i]))
    return np.array(rows)
