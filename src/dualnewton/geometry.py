"""Metric and connection plumbing for dual (torsion-free) connection pairs.

Conventions used throughout:

* ``structure.at(xi)`` evaluates the geometry once at a point and
  returns a DualPoint, which wraps the model's evaluation at xi.  An
  evaluation is what a model implements: the SPD Gram matrix ``G``, its
  lower Cholesky factor ``L``, made once with G's one check, the solve
  ``solve(b)`` = G^{-1} b, which reads that factor and never G again
  (``cho_solve(L, b)``, or the Gaussian's two divisions per entry with
  its bits), and the model's alpha-connection applied to a vector,
  ``connection(alpha, a)[i, j] = sum_k a_k Gamma^(alpha)j_ik``;
* Newton reads the connections only through that map: the dual Hessian
  takes ``point.dual_dot(a)``, the (-alpha)-connection applied to a,
  and the retraction takes ``point.quad(beta)``, Gamma(beta, beta)^i.
  The full symbol tensors, which only the structural checks read, have
  one reader, ``structure.gamma(xi)``, which stacks them from that map;
* Christoffel symbols are second-kind tensors with entry (i, j, k) =
  Gamma^k_ij, upper index last;
* the Riemannian gradient is stored by its coordinates a = G^{-1} grad f.

The Newton functions below take a structure and a point xi and read
the geometry through ``structure.at(xi)``.  A DualPoint may stand in for
its structure: at its own xi it answers from what it already holds,
anywhere else it evaluates its structure afresh.  None of them checks
a point: the model's evaluation does, before anything else.

The dual Hessian matrix of a gradient field a is

    H[i, j] = d a_j / d xi_i + sum_k a_k GammaDual^j_ik,

so the Newton system reads H^T beta = -a, and G @ H^T is the
self-adjointness certificate: symmetric always, positive definite
exactly when the step is a descent direction.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import cho_solve, fd_jacobian, is_spd, solve_general, spd_factor
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

    ``evaluate(xi)`` is the model's evaluation at xi, with ``G``, ``L``,
    ``solve(b)`` and ``connection(alpha, a)``; ``alpha`` selects the primal
    connection, whose dual is the (-alpha)-connection.  The evaluation
    starts with the model's point check, the one statement of its
    domain: it raises DimensionMismatch for a point of the wrong shape
    and a PointError naming the cause for one off the chart.
    """

    evaluate: Callable
    alpha: float

    def at(self, xi):
        """The geometry at xi, evaluated once."""
        xi = np.array(xi, dtype=float)
        return DualPoint(self, xi, self.evaluate(xi))

    def metric(self, xi):
        return self.at(xi).G

    def gamma(self, xi):
        """The second-kind symbols at xi; the dual ones are those at -alpha."""
        point = self.at(xi)
        # connection(alpha, e_k)[i, j] = Gamma^j_ik, entry (i, k, j) of the symbols
        connection = point.evaluation.connection
        return np.stack([connection(self.alpha, e) for e in np.eye(len(point.G))], axis=1)


@dataclass(eq=False)
class DualPoint:
    """The geometry of a DualStructure at one point xi.

    Wraps the model's evaluation at xi: the metric ``G``, its lower
    Cholesky factor ``L``, the solve against G from that factor, and the
    connection map
    ``connection(alpha, a)[i, j] = sum_k a_k Gamma^(alpha)j_ik``, which
    applies the alpha-connection at xi to a vector a.  A point holds
    only what a run reads: ``G``, ``L``, ``at``, ``solve`` and Newton's
    two contractions of that map, ``dual_dot`` and ``quad``.
    """

    structure: DualStructure
    xi: np.ndarray
    evaluation: object

    @property
    def G(self):
        return self.evaluation.G

    @property
    def L(self):
        return self.evaluation.L

    def at(self, xi):
        """This point at its own xi, otherwise the structure at xi."""
        if xi is self.xi or np.array_equal(xi, self.xi):
            return self
        return self.structure.at(xi)

    def solve(self, b):
        """G^{-1} b from the point's factor, e.g. gradient coordinates."""
        return self.evaluation.solve(b)

    def dual_dot(self, a):
        """M[i, j] = sum_k a_k GammaDual^j_ik."""
        return self.evaluation.connection(-self.structure.alpha, a)

    def quad(self, beta):
        """Gamma(beta, beta)^j = sum_ik beta_i beta_k Gamma^j_ik."""
        return beta @ self.evaluation.connection(self.structure.alpha, beta)


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
    gradient short-circuits to beta = 0 exactly.
    """
    xi = np.asarray(xi, dtype=float)
    point = structure.at(xi)
    spd_flag = is_spd(point.G @ hess.T)
    if a is None:
        a = point.solve(eucl_grad)
    if not a.any():
        return np.zeros_like(a), spd_flag
    beta = solve_general(hess.T, -a)
    return beta, spd_flag


def second_order_retract(structure, xi, beta):
    """Quadratic retraction xi + beta - 0.5 Gamma(beta, beta).

    Uses the primal connection's symbols.  The formula's point is
    returned wherever it lands: off the model's chart, the first pass
    at it raises the model's point check error, and the run loop's
    guard then halves beta and retries.
    """
    xi = np.asarray(xi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return xi + beta - 0.5 * structure.at(xi).quad(beta)


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
