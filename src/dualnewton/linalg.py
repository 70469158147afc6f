"""Dense solves, finite differences and the log-sum-exp kernel used by
the model and geometry layers.

Matrices here are small (tens of rows); everything is float64.  A
metric G is factored by the Python loop ``cholesky_lower``, whose bits
reach every solve against G and the pinned runs.  Each column makes two
BLAS calls, ddot for the pivot and dgemv for the column below it.  Their
blocked, fused sums differ from a sequential sum (on random vectors, at
every length from 2 to 40), so the loop keeps them and trims only the
work around them: one slice of the row, ``math.sqrt`` of the pivot
(correctly rounded, as ``np.sqrt`` is) and the column formed and divided
in place.  ``symmetric_factor`` (dpotrf) and ``solve_general`` (dgetrf,
dgetrs) call LAPACK without scipy's wrappers.  The BLAS picks its own thread
count; on small systems threads cost more than they save, so pin them
(e.g. OPENBLAS_NUM_THREADS=1) when timing.

``symmetric_factor`` of a 2x2 matrix (exp2's Newton K) skips the f2py
call and numpy's temporaries (about 1.8 against 3.9 us per call, timeit
with one BLAS thread): it runs OpenBLAS potf2's operations on Python
floats, in its order.  The first pivot is
s00 - 0.0 (the same float as s00), and the column below it is scaled by
the pivot's reciprocal, l10 = s10 * (1 / l00), which rounds differently
from s10 / l00; then l11 = sqrt(s11 - l10 * l10).  It returns the array
dpotrf returns, with the upper entry s01 in place, so ``cho_solve``
reads the same factor.  The solve stays on LAPACK: dtrtrs fuses its
back substitution, x0 = fma(-l10, x1, y0) / l00, which matched it on
5,000 random 2x2 systems where the unfused form missed 973, and Python
3.11 has no ``math.fma``.  0.5 (A + A^T) is formed with numpy's warnings
off and then scanned, so a NaN or an infinity in A and a sum that
overflows each raise NonFiniteValue.

``load_compiled`` loads scipy's compiled ``scipy.linalg._flapack`` (and
the mixture's ``scipy.special._special_ufuncs``) from its file.  ``from
scipy.linalg import lapack`` would run the package import, whose
array-API layer imports ``numpy.f2py``, ``numpy.testing`` and
``unittest``: about 350 modules and a quarter of a second that no run
reads.  A loaded module is registered under its own name, so a later
``import scipy.linalg`` takes the same module object, and
``scipy.linalg.lapack.dtrtrs`` is the very routine this module calls.
A scipy that moves the file fails with an ImportError naming it.

A metric is checked once, where ``spd_factor`` makes its factor.
``cho_solve`` reads nothing of A: it scans b, makes the two dtrtrs
calls and scans x.  A point keeps its factor, so its solves make only
these; ``solve_spd`` runs both steps for a caller with no factor.  The
scans read up to 36 entries as Python floats, cheaper than
``np.isfinite`` there.

``logsumexp`` is the one log-sum-exp of the package, with one path per
call shape: over all entries for the log-partition, and along axis 0 of
the Beta mixture's C-contiguous (K, N) component rows for its
log-density and scores.  Both reproduce the arithmetic of
``scipy.special.logsumexp`` (scipy 1.17) bit for bit: the entries equal
to the maximum are taken out of the shifted sum and counted, so the
result is log1p(s) + log(k) + max, with s the sum of the other shifted
exponentials divided by the count k.  Both skip scipy's array-API
dispatch, which costs several times the arithmetic on short vectors.

Both paths take the count only where it can change a bit, at a tie or
a non-finite maximum.  Where the maximum is finite and taken once, u -
max is +0.0 at it and exp(+0.0) is exactly 1.0, so subtracting the mask
zeroes that entry, and s / 1 and + log(1) change no bit.  The
all-entries path is the log-linear pass's, 16 states at n = 4, where
numpy's Python-level wrappers (``np.max``, ``np.sum``, ``np.where``)
cost more than the arithmetic; it calls the array methods instead.

The axis-0 path is a loop over the K rows, which works in place on one
(K, N) buffer.  The loop is exact because numpy reduces axis 0 of a
C-contiguous array row by row, the order of a running maximum and a
running +=.  Along a contiguous axis numpy sums pairwise, with 8-way
unrolling, so the loop would not give its bits there; no other axis is
taken.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    SingularMatrix,
)


def load_compiled(name):
    """scipy's compiled module of dotted ``name``, e.g.
    ``scipy.linalg._flapack``, loaded from its file without running the
    package imports above it (see the module notes); a module already
    imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"dualnewton needs {name}", name="scipy")
    *packages, leaf = name.split(".")[1:]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(scipy.submodule_search_locations[0], *packages, leaf + suffix)
    spec = importlib.util.spec_from_file_location(name, path)
    # raises an ImportError naming the path where the file is missing
    module = importlib.util.module_from_spec(spec)
    # registered under its own name, so a later ``import scipy.linalg``
    # finds this module object and re-exports its routines
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = load_compiled("scipy.linalg._flapack")

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
    # a vector or a matrix of right-hand sides, n rows either way
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"matrix of size {A.shape[0]} against right-hand side of shape {b.shape}"
        )
    return b


def _all_finite(x):
    """No NaN or infinity in x.  Up to 36 entries x is scanned as Python
    floats, which costs less than ``np.isfinite`` there; ``ravel("K")``
    reads x in its memory order, without a copy."""
    if x.size <= 36:
        return all(map(math.isfinite, x.ravel("K").tolist()))
    return np.isfinite(x).all()


def cholesky_lower(A):
    """Lower Cholesky factor of A, reading only the lower triangle.

    Raises NotPositiveDefinite as soon as a pivot is not positive.
    """
    A = _as_square(A)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        # ddot and dgemv fix the bits (see the module notes)
        row = L[j, :j]
        pivot = A[j, j] - row.dot(row)
        if not pivot > 0.0:
            raise NotPositiveDefinite(f"pivot {pivot} at column {j}")
        d = L[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            col = L[j + 1 :, j]
            np.subtract(A[j + 1 :, j], L[j + 1 :, :j] @ row, out=col)
            col /= d
    return L


def _factor(A):
    # max|A| propagates a NaN, so it is finite exactly where A is
    scale = float(abs(A).max())
    if not math.isfinite(scale):
        raise NonFiniteValue("met a NaN or infinite entry in A")
    if float(abs(A - A.T).max()) > 1e-12 * max(1.0, scale):
        raise ValueError("expected a symmetric matrix")
    # a finite A gives a finite factor: a NaN or infinity in row i of L
    # makes pivot i NaN or -inf, which cholesky_lower refuses
    return cholesky_lower(A)


def _solve(L, b):
    if not _all_finite(b):
        raise NonFiniteValue("met a NaN or infinite entry in b")
    # U^T y = b, then U x = y, with U = L^T read in place by LAPACK
    U = L.T
    y, info = lapack.dtrtrs(U, b, lower=0, trans=1)
    if info == 0:
        x, info = lapack.dtrtrs(U, y, lower=0)
    if info != 0:
        raise SingularMatrix(f"triangular solve failed with LAPACK info {info}")
    if not _all_finite(x):
        # a factor with a tiny pivot can overflow the solution
        raise NonFiniteValue("produced a NaN or infinite solution")
    return x


def spd_factor(A):
    """The lower Cholesky factor of a metric A, checked once: NonFiniteValue
    on a NaN or infinity in A, ValueError where max|A - A^T| > 1e-12
    max(1, max|A|), NotPositiveDefinite at a pivot that is not positive."""
    return _factor(_as_square(A))


def cho_solve(L, b):
    """x with A x = b from the lower triangle of L = ``spd_factor(A)`` (or
    ``symmetric_factor(A)``), by dtrtrs with the bits of
    ``scipy.linalg.solve_triangular``; NonFiniteValue on a non-finite b or x."""
    return _solve(L, _check_rhs(L, b))


def solve_spd(A, b):
    """Solve A x = b for symmetric positive definite A: ``spd_factor``,
    then ``cho_solve``, with b's shape checked first."""
    A = _as_square(A)
    b = _check_rhs(A, b)
    return _solve(_factor(A), b)


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


# np.errstate as a decorator costs about half its with-statement form
# (about 1 against 2 us per call with numpy 2.4)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def logsumexp(u, axis=None):
    """log sum exp(u) over all entries of a nonempty u, or, with
    ``axis=0``, down the columns of a 2-D u.

    Same bits as ``scipy.special.logsumexp(u, axis=axis)``: the entries
    at the maximum are zeroed out of the shifted exponentials and
    counted, and the count enters as log(k).  A maximum of -inf gives
    -inf, +inf gives inf and NaN gives NaN, without warnings.  Along
    axis 0, u is read in C order (copied to it if need be), the layout
    whose bits the row loop of ``_logsumexp_columns`` reproduces.
    """
    if axis is None:
        u = np.asarray(u, dtype=float)
        u_max = u.max()
        at_max = u == u_max
        shifted = u - u_max
        np.exp(shifted, out=shifted)
        finite = math.isfinite(u_max)
        if finite:
            shifted -= at_max
        else:
            shifted[at_max] = 0.0
        s = shifted.sum()
        # k >= 1 unless the maximum is NaN, and 0 / k = 0 keeps an empty sum
        k = np.count_nonzero(at_max)
        if finite and k == 1:
            return np.log1p(s) + u_max
        return np.log1p(s / k) + np.log(k) + u_max
    u = np.ascontiguousarray(u, dtype=float)
    if axis != 0 or u.ndim != 2:
        raise DimensionMismatch(
            f"logsumexp reduces all entries or axis 0 of a matrix, "
            f"not axis {axis} of shape {u.shape}"
        )
    return _logsumexp_columns(u)


def _logsumexp_columns(u):
    """``logsumexp(u, axis=0)`` of a C-contiguous (K, N) u, one pass per
    row: the running ``maximum`` and ``+=`` give the bits of numpy's
    ``max(axis=0)`` and ``sum(axis=0)`` (see the module notes)."""
    u_max = u[0].copy()
    for row in u[1:]:
        np.maximum(u_max, row, out=u_max)
    shifted = u - u_max
    np.exp(shifted, out=shifted)
    at_max = u == u_max
    finite = np.isfinite(u_max).all()
    if finite:
        # u - u_max is +0.0 at the maximum, whose exp is exactly 1.0, so
        # subtracting the mask zeroes those entries: a masked store costs
        # several times this on scattered maxima
        shifted -= at_max
    else:
        shifted[at_max] = 0.0
    total = shifted[0]
    for row in shifted[1:]:
        total += row
    if finite and np.count_nonzero(at_max) == u_max.size:
        # k = 1 in every column, where s / 1 and + log(1) change no bit
        out = np.log1p(total)
        out += u_max
        return out
    k = np.count_nonzero(at_max, axis=0)
    return np.log1p(total / k) + np.log(k) + u_max


def symmetric_factor(A):
    """dpotrf's factor of S = 0.5 (A + A^T), for ``cho_solve``: its lower
    triangle, with S's upper entries left in place, or None at a pivot
    that is not positive.  NonFiniteValue, and no numpy warning, where S
    is not finite: on a NaN or infinity in A, or where the sum overflows.
    A 2x2 A takes potf2's arithmetic on Python floats (module notes)."""
    A = _as_square(A)
    if A.shape == (2, 2):
        return _factor_2x2(A)
    S = _symmetric_part(A)
    if not _all_finite(S):
        raise NonFiniteValue("met a NaN or infinite entry in 0.5 (A + A^T)")
    factor, info = lapack.dpotrf(S, lower=1, clean=0, overwrite_a=1)
    return factor if info == 0 else None


@np.errstate(over="ignore", invalid="ignore")
def _symmetric_part(A):
    # a NaN or an infinity in A, or an overflow of the sum, each leaves a
    # non-finite entry, which the caller refuses
    return 0.5 * (A + A.T)


def _factor_2x2(A):
    """``symmetric_factor`` of a 2x2 A: OpenBLAS potf2's operations, in its
    order, on Python floats, which warn on nothing."""
    (a00, a01), (a10, a11) = A.tolist()
    s00, s10, s11 = 0.5 * (a00 + a00), 0.5 * (a10 + a01), 0.5 * (a11 + a11)
    if not (math.isfinite(s00) and math.isfinite(s10) and math.isfinite(s11)):
        raise NonFiniteValue("met a NaN or infinite entry in 0.5 (A + A^T)")
    # potf2 refuses a pivot <= 0 (NaN cannot arise from a finite S); its
    # first pivot is s00 - 0.0, the same float as s00
    if s00 <= 0.0:
        return None
    l00 = math.sqrt(s00)
    # the column below a pivot is scaled by the pivot's reciprocal
    l10 = s10 * (1.0 / l00)
    pivot = s11 - l10 * l10
    if pivot <= 0.0:
        return None
    # s01 = s10: addition commutes, bit for bit
    return np.array([[l00, s10], [l10, math.sqrt(pivot)]])


def is_spd(A):
    """True when ``symmetric_factor`` factors A; False where 0.5 (A + A^T)
    is not finite."""
    try:
        return symmetric_factor(A) is not None
    except NonFiniteValue:
        return False


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
        if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
            raise NonFiniteValue(f"field evaluation not finite at offset {i}")
        rows.append((f_plus - f_minus) / (2.0 * h[i]))
    return np.array(rows)
