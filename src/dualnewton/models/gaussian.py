"""Isotropic bivariate Gaussian family N((mu, mu), sigma^2 I).

Coordinates are xi = (mu, sigma) with sigma > 0.  Both the Fisher metric
and the alpha-connection symbols have closed forms, which makes this the
reference model for checking the finite-difference paths elsewhere.
"""

import math
import sys

import numpy as np

from ..errors import DimensionMismatch, DomainViolation, NonFiniteValue
from ..geometry import DualStructure, lazy

# sqrt of the largest float64: sigma^2 overflows for any sigma above it
_SIGMA_MAX = math.sqrt(sys.float_info.max)


def check(xi):
    """(mu, sigma) as Python floats, or the error that names the cause."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DimensionMismatch(f"expected a point (mu, sigma), got shape {xi.shape}")
    mu, sigma = xi.tolist()
    if not math.isfinite(mu):
        raise DomainViolation(f"mu must be finite, got {mu}")
    if not 0.0 < sigma < math.inf:
        raise DomainViolation(f"sigma must be positive and finite, got {sigma}")
    if sigma > _SIGMA_MAX:
        raise DomainViolation(f"sigma^2 overflows at sigma = {sigma}")
    return mu, sigma


def fisher_metric(xi):
    # Python floats: sigma**2 is libm's pow, as for a numpy scalar, and
    # 2 / sigma^2 overflows to inf without a warning; where sigma^2
    # underflows to 0, G is infinite, as IEEE division gives
    sigma_sq = check(xi)[1] ** 2
    try:
        return np.array([[2.0 / sigma_sq, 0.0], [0.0, 4.0 / sigma_sq]])
    except ZeroDivisionError:
        return np.array([[math.inf, 0.0], [0.0, math.inf]])


def christoffel(xi, alpha):
    """Second-kind symbols, entry (i, j, k) = Gamma^k_ij.

    Only three independent entries survive: the mu-sigma mixed symbol
    and the two diagonal sigma symbols.
    """
    sigma = check(xi)[1]
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = gamma[1, 0, 0] = -(1.0 + alpha) / sigma
    gamma[0, 0, 1] = (1.0 - alpha) / (2.0 * sigma)
    gamma[1, 1, 1] = -(1.0 + 2.0 * alpha) / sigma
    return gamma


class _Evaluation:
    """The closed-form geometry at xi: G, its factor and the connection."""

    def __init__(self, xi):
        self.xi, self.G = xi, fisher_metric(xi)

    @lazy
    def L(self):
        # G's one check: G is diagonal, infinite where sigma^2 underflows;
        # then cholesky_lower(G) bit for bit (pivots G_jj - 0.0, 0.0 / L_jj)
        g0, g1 = self.G[0, 0], self.G[1, 1]
        if not (math.isfinite(g0) and math.isfinite(g1)):
            raise NonFiniteValue(f"Fisher metric not finite at sigma = {self.xi[1]}")
        return np.array([[math.sqrt(g0), 0.0], [0.0, math.sqrt(g1)]])

    def connection(self, alpha, a):
        return np.einsum("k,ikj->ij", a, christoffel(self.xi, alpha))


def dual_structure(alpha):
    return DualStructure(evaluate=_Evaluation, alpha=alpha, check=check)
