"""Isotropic bivariate Gaussian family N((mu, mu), sigma^2 I).

Coordinates are xi = (mu, sigma) with sigma > 0.  Both the Fisher metric
and the alpha-connection symbols have closed forms, which makes this the
reference model for checking the finite-difference paths elsewhere.
"""

import numpy as np

from ..errors import DimensionMismatch, DomainViolation
from ..geometry import DualPoint, DualStructure


def _check(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DimensionMismatch(f"expected a point (mu, sigma), got shape {xi.shape}")
    mu, sigma = xi
    if not np.isfinite(mu):
        raise DomainViolation(f"mu must be finite, got {mu}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainViolation(f"sigma must be positive and finite, got {sigma}")
    return xi


def fisher_metric(xi):
    sigma = _check(xi)[1]
    return np.diag([2.0 / sigma**2, 4.0 / sigma**2])


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
    """Positive sigma: the domain hook ``DualStructure.contains`` calls
    with a finite vector of length 2."""
    return xi[1] > 0


def point(structure, xi):
    def connection(alpha, a):
        return np.einsum("k,ikj->ij", a, christoffel(xi, alpha))

    # cholesky_lower(G) bit for bit: pivots G_jj - 0.0, off-diagonals 0.0 / L_jj
    G = fisher_metric(xi)
    factor = lambda: np.diag(np.sqrt(np.diag(G)))
    return DualPoint(structure, xi, G, connection, factor=factor)


def dual_structure(alpha):
    return DualStructure(dim=2, point=point, alpha=alpha, in_domain=in_domain)

