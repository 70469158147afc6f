"""Metric and connection plumbing for dual (torsion-free) connection pairs.

Conventions used throughout:

* ``structure.at(xi)`` evaluates the geometry once at a point and
  returns a DualPoint, which wraps the model's evaluation at xi.  An
  evaluation is what a model implements, and all a run reads of it:
  the SPD Gram matrix ``G``, the solve ``solve(b)`` = G^{-1} b, which
  checks G once and then never reads it again, the alpha-connection
  applied to a vector and lowered, for Newton's K,
  ``lowered(alpha, a)[i, j] = sum_k a_k Gamma^(alpha)_{ij,k}``, and its
  quadratic form, for the retraction,
  ``quad(alpha, beta)^j = sum_ik beta_i beta_k Gamma^(alpha)j_ik``;
* ``structure.gamma(xi)`` gives the full symbols, indexed (i, j, k) =
  Gamma^k_ij, raised from ``lowered(alpha, e_k)[i, j] = Gamma_{ij,k}``
  by the point's own solve, so the checks hold ``quad`` to ``lowered``;
* the Riemannian gradient is stored by its coordinates a = G^{-1} grad f.

The model's evaluation checks a point, and a point each vector it
contracts.

The paper poses Newton's equation H^T beta = -a with the dual Hessian
H[i, j] = d a_j / d xi_i + sum_k a_k GammaDual^j_ik, whose certificate
G H^T is positive definite exactly when beta is a descent direction.
By the duality relation (Amari & Nagaoka 2000, section 3.1), G H^T is
the Hessian of f for the retraction's own connection,
K = hess f - sum_k (d_k f) Gamma^(alpha)k_ij = hess f - lowered(a),
which is symmetric.  A run solves K beta = -grad f by ``newton_step``;
the paper form, ``dual_hessian_matrix`` and ``newton_direction``, is the
reference it is checked against.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .linalg import cho_solve, fd_jacobian, is_spd, solve_general, spd_factor
from .linalg import symmetric_factor
from .linalg import solve_spd  # noqa: F401 (perfbench's tracer rebinds it)


class lazy:
    """An attribute computed by the decorated method on first read and
    stored in the instance ``__dict__``, where later reads find it before
    this (non-data) descriptor: ``functools.cached_property`` without the
    lock that Python 3.11 takes on every first read."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


@dataclass(frozen=True)
class DualStructure:
    """A metric with a pair of connections dual with respect to it.

    ``evaluate(xi)`` is the model's evaluation at xi (module notes);
    ``alpha`` selects the primal connection, whose dual is the
    (-alpha)-connection.  The evaluation starts with the model's point
    check, the one statement of its domain: it raises DimensionMismatch
    for a point of the wrong shape and a PointError naming the cause for
    one off the chart.
    """

    evaluate: Callable
    alpha: float

    def at(self, xi):
        """The geometry at xi, evaluated once."""
        xi = np.array(xi, dtype=float)
        return DualPoint(self.alpha, xi, self.evaluate(xi))

    def metric(self, xi):
        return self.at(xi).G

    def gamma(self, xi):
        """The second-kind symbols at xi; the dual ones are those at -alpha."""
        return _symbols(self.at(xi), self.alpha)


def _tangent(xi, v):
    """v as a float array; DimensionMismatch naming both shapes unless it
    has xi's shape."""
    v = np.asarray(v, dtype=float)
    if v.shape != xi.shape:
        raise DimensionMismatch(
            f"a tangent vector of shape {v.shape} at a point of shape {xi.shape}"
        )
    return v


def _symbols(point, alpha):
    """Gamma^k_ij at (i, j, k) for the alpha-connection at a point: the
    first-kind symbols lowered(alpha, e_k)[i, j] = Gamma_{ij,k}, each
    (i, j) raised by the point's solve."""
    n = point.xi.size
    first = np.stack([point.evaluation.lowered(alpha, e) for e in np.eye(n)], axis=2)
    return np.array([point.solve(v) for v in first.reshape(n * n, n)]).reshape(n, n, n)


@dataclass(eq=False)
class DualPoint:
    """The geometry of the alpha-connection at one point xi, from the
    model's evaluation there.  A point holds only what a run reads, ``G``,
    ``solve``, ``lowered`` and ``quad``, and the paper form's ``dual_dot``.
    """

    alpha: float
    xi: np.ndarray
    evaluation: object

    @property
    def G(self):
        return self.evaluation.G

    def solve(self, b):
        """G^{-1} b, e.g. gradient coordinates, by the model's solve."""
        return self.evaluation.solve(b)

    def dual_dot(self, a):
        """M[i, j] = sum_k a_k GammaDual^j_ik."""
        return np.einsum("k,ikj->ij", _tangent(self.xi, a), _symbols(self, -self.alpha))

    def lowered(self, a):
        """L[i, j] = sum_k a_k Gamma_{ij,k} = sum_k (G a)_k Gamma^k_ij."""
        return self.evaluation.lowered(self.alpha, _tangent(self.xi, a))

    def quad(self, beta):
        """Gamma(beta, beta)^j = sum_ik beta_i beta_k Gamma^j_ik."""
        return self.evaluation.quad(self.alpha, _tangent(self.xi, beta))


def gradient_field(structure, eucl_grad_fn):
    """Wrap a Euclidean gradient function into the field xi -> G^{-1} grad f."""

    def field(xi):
        return structure.at(xi).solve(eucl_grad_fn(xi))

    return field


def dual_hessian_matrix(structure, grad_field, xi, jacobian):
    """Dual Hessian H[i, j] = d a_j/d xi_i + sum_k a_k GammaDual^j_ik.

    ``grad_field(xi)`` gives a at xi and ``jacobian(xi)`` its Jacobian,
    J[i, j] = d a_j / d xi_i.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.asarray(grad_field(xi), dtype=float)
    return np.asarray(jacobian(xi)) + structure.at(xi).dual_dot(a)


def newton_direction(structure, hess, eucl_grad, xi, a=None):
    """Solve H^T beta = -a with a = G^{-1} grad f.

    ``a`` is the gradient coordinates when the caller already holds
    them; otherwise they are solved from ``eucl_grad``.  Returns
    (beta, spd_flag) where spd_flag reports whether G @ H^T is positive
    definite, the certificate that beta is a descent direction.  A zero
    gradient short-circuits to beta = 0 exactly.  A ``hess`` that is not
    square of xi's size raises DimensionMismatch naming both shapes.
    """
    xi = np.asarray(xi, dtype=float)
    hess = np.asarray(hess, dtype=float)
    if hess.shape != (xi.size, xi.size):
        raise DimensionMismatch(
            f"a dual Hessian of shape {hess.shape} at a point of shape {xi.shape}"
        )
    point = structure.at(xi)
    spd_flag = is_spd(point.G @ hess.T)
    if a is None:
        a = point.solve(eucl_grad)
    if not a.any():
        return np.zeros_like(a), spd_flag
    beta = solve_general(hess.T, -a)
    return beta, spd_flag


def newton_step(point, hessian, grad, a):
    """Newton's step (beta, spd) at a point from K = hessian - lowered(a),
    a = G^{-1} grad (module notes).  One ``symmetric_factor`` of K is the
    certificate and solves K beta = -grad; where it fails, H^T = G^{-1} K,
    solved column by column, goes to ``solve_general`` with -a, which
    refuses it near singular.  A zero gradient gives beta = 0 exactly."""
    K = hessian - point.lowered(a)
    factor = symmetric_factor(K)
    if not a.any():
        return np.zeros_like(a), factor is not None
    if factor is not None:
        return cho_solve(factor, -grad), True
    hess_t = np.column_stack([point.solve(column) for column in K.T])
    return solve_general(hess_t, -a), False


def second_order_retract(point, beta):
    """Quadratic retraction xi + beta - 0.5 Gamma(beta, beta) from a point.

    Uses the primal connection's quadratic form at the point's xi.  The
    formula's point is returned wherever it lands: off the model's
    chart, the first pass at it raises the model's point check error,
    and the run loop's guard then halves beta and retries.
    """
    bend = point.quad(beta)  # checks beta before xi + beta
    return point.xi + beta - 0.5 * bend


def metric_derivatives(metric, xi):
    """Tensor dg[k, i, j] = d g_ij / d xi_k by central differences."""
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    flat = lambda x: np.asarray(metric(x), dtype=float).ravel()
    return fd_jacobian(flat, xi).reshape(n, n, n)


def levi_civita_from_metric(metric, xi):
    """Second-kind Levi-Civita symbols from finite differences of g."""
    xi = np.asarray(xi, dtype=float)
    dg = metric_derivatives(metric, xi)
    # first kind: Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    first = 0.5 * (dg + dg.transpose(1, 0, 2) - np.einsum("kij->ijk", dg))
    return raise_index(first, spd_factor(metric(xi)))


def raise_index(first, L):
    """Second-kind symbols Gamma^k_ij = sum_s g^ks Gamma_{ij,s}; L = spd_factor(G)."""
    n = L.shape[0]
    return cho_solve(L, first.reshape(n * n, n).T).T.reshape(n, n, n)


def lower_index(gamma, G):
    """First-kind symbols Gamma_{ij,k} = sum_s Gamma^s_ij g_sk."""
    return np.einsum("ijs,sk->ijk", gamma, G)


def duality_residual(structure, xi):
    """Max violation of d_k g_ij = Gamma_{ki,j} + GammaDual_{kj,i}, read from
    the structure's metric and its symbols at alpha and at -alpha."""
    xi = np.asarray(xi, dtype=float)
    G = structure.metric(xi)
    dg = metric_derivatives(structure.metric, xi)
    low = lower_index(structure.gamma(xi), G)
    dual = DualStructure(structure.evaluate, -structure.alpha)
    low_dual = lower_index(dual.gamma(xi), G)
    residual = dg - low - np.transpose(low_dual, (0, 2, 1))
    return float(abs(residual).max())
