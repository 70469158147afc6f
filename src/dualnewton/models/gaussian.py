"""Isotropic bivariate Gaussian family N((mu, mu), sigma^2 I).

Coordinates are xi = (mu, sigma) with sigma > 0.  Both the Fisher metric
and the alpha-connection symbols have closed forms, which makes this the
reference model for checking the finite-difference paths elsewhere.
"""

import math
import sys

import numpy as np

from ..errors import DimensionMismatch, DomainViolation
from ..geometry import DualPoint, DualStructure

# sqrt of the largest float64: sigma^2 overflows for any sigma above it
_SIGMA_MAX = math.sqrt(sys.float_info.max)


def _check(xi):
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
    # squared and divided as numpy scalars: where sigma^2 underflows to
    # 0, G is infinite, not Python's ZeroDivisionError
    sigma = np.float64(_check(xi)[1])
    return np.array([[2.0 / sigma**2, 0.0], [0.0, 4.0 / sigma**2]])


def christoffel(xi, alpha):
    """Second-kind symbols, entry (i, j, k) = Gamma^k_ij.

    Only three independent entries survive: the mu-sigma mixed symbol
    and the two diagonal sigma symbols.
    """
    sigma = _check(xi)[1]
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = gamma[1, 0, 0] = -(1.0 + alpha) / sigma
    gamma[0, 0, 1] = (1.0 - alpha) / (2.0 * sigma)
    gamma[1, 1, 1] = -(1.0 + 2.0 * alpha) / sigma
    return gamma


def in_domain(xi):
    """0 < sigma <= _SIGMA_MAX, as ``_check`` enforces: the domain hook
    ``DualStructure.contains`` calls with a finite vector of length 2."""
    return 0.0 < xi[1] <= _SIGMA_MAX


def point(structure, xi):
    def connection(alpha, a):
        return np.einsum("k,ikj->ij", a, christoffel(xi, alpha))

    # cholesky_lower(G) bit for bit: pivots G_jj - 0.0, off-diagonals 0.0 / L_jj
    G = fisher_metric(xi)
    factor = lambda: np.array(
        [[math.sqrt(G[0, 0]), 0.0], [0.0, math.sqrt(G[1, 1])]]
    )
    return DualPoint(structure, xi, G, connection, factor=factor)


def dual_structure(alpha):
    return DualStructure(dim=2, point=point, alpha=alpha, in_domain=in_domain)

