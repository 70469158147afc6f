"""Isotropic bivariate Gaussian family N((mu, mu), sigma^2 I).

Coordinates are xi = (mu, sigma) with sigma > 0.  Both the Fisher metric
and the alpha-connection symbols have closed forms, which makes this the
reference model for checking the finite-difference paths elsewhere.

G = diag(2, 4) / sigma^2 is diagonal, so the evaluation keeps the roots
of its two entries as Python floats, checked once, and solves against G
with two divisions per entry on them: the bits of ``linalg.cho_solve``
on the factor, at a fraction of its cost, for the one right-hand side
that every caller of a Gaussian point passes.
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


def _christoffel(sigma, alpha):
    # Gamma^k_ij at (i, j, k): the mixed mu-sigma and two diagonal sigma symbols
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = gamma[1, 0, 0] = -(1.0 + alpha) / sigma
    gamma[0, 0, 1] = (1.0 - alpha) / (2.0 * sigma)
    gamma[1, 1, 1] = -(1.0 + 2.0 * alpha) / sigma
    return gamma


class _Evaluation:
    """The closed-form geometry at xi: G, its factor, the solve against G
    and the connection."""

    def __init__(self, xi):
        self.xi, self.G = xi, fisher_metric(xi)

    @lazy
    def roots(self):
        # G's one check: G is diagonal, infinite where sigma^2 underflows;
        # then cholesky_lower(G)'s diagonal bit for bit (sqrt of G_jj - 0.0)
        g0, g1 = self.G.item(0, 0), self.G.item(1, 1)
        if not (math.isfinite(g0) and math.isfinite(g1)):
            raise NonFiniteValue(f"Fisher metric not finite at sigma = {self.xi[1]}")
        return math.sqrt(g0), math.sqrt(g1)

    @lazy
    def L(self):
        # cholesky_lower(G) bit for bit: its off-diagonal entry is 0.0 / L_00
        l0, l1 = self.roots
        return np.array([[l0, 0.0], [0.0, l1]])

    def solve(self, b):
        """G^{-1} b for a vector b, with the bits and errors of
        ``cho_solve(L, b)``: dtrtrs's two triangular solves on the diagonal
        factor are two divisions per entry, and its back substitution adds
        the zero term -x1 * 0.0 to the first entry, which can turn its
        -0.0 into 0.0.  Vectors only: with several right-hand sides the
        BLAS multiplies by 1 / l instead, which rounds differently."""
        l0, l1 = self.roots
        b = np.asarray(b, dtype=float)
        if b.shape != (2,):
            raise DimensionMismatch(f"expected b of length 2, got shape {b.shape}")
        b0, b1 = b.tolist()
        if not (math.isfinite(b0) and math.isfinite(b1)):
            raise NonFiniteValue("met a NaN or infinite entry in b")
        x1 = b1 / l1 / l1
        x0 = (b0 / l0 - x1 * 0.0) / l0
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise NonFiniteValue("produced a NaN or infinite solution")
        return np.array([x0, x1])

    def connection(self, alpha, a):
        # xi has passed the metric's check, which gave sigma as this float
        return np.einsum("k,ikj->ij", a, _christoffel(float(self.xi[1]), alpha))


def dual_structure(alpha):
    return DualStructure(evaluate=_Evaluation, alpha=alpha)
