"""Isotropic bivariate Gaussian family N((mu, mu), sigma^2 I).

Coordinates are xi = (mu, sigma) with sigma > 0.  Both the Fisher metric
and the alpha-connection symbols have closed forms, which makes this the
reference model for checking the finite-difference paths elsewhere.

G = diag(2, 4) / sigma^2 is diagonal, so the evaluation keeps the roots
of its two entries as Python floats, checked once, and solves against G
with two divisions per entry on them: the bits of ``linalg.cho_solve``
on G's Cholesky factor, whose diagonal the roots are, at a fraction of
its cost, for the one right-hand side that every caller of a Gaussian
point passes.

The alpha-connection has three distinct symbols, -(1 + alpha) / sigma,
(1 - alpha) / (2 sigma) and -(1 + 2 alpha) / sigma, which ``lowered``
and ``quad`` read as Python floats; no run builds the (2, 2, 2) tensor
``_christoffel``, which stays as the tests' closed form.  Both keep the
bits of the numpy contractions of that tensor.  Each entry of
``_christoffel(sigma, alpha) @ (G a)`` is one product of a symbol and an
entry of G a, added to the zero terms from +0.0, so a -0.0 product comes
out 0.0; ``lowered`` adds it to 0.0.  ``quad`` writes out
``einsum("k,ikj->ij", beta, gamma)`` as 0.0 + beta_0 Gamma^j_i0 +
beta_1 Gamma^j_i1, whose zero-symbol terms change no bit of a finite
beta, and keeps numpy's ``beta @ M``.  Where a product overflows, the
tensor forms' zero terms give NaN where these give an infinity; either
way K or the bend is not finite, which a run refuses alike.  With
``linalg.symmetric_factor``'s 2x2 path, exp2's Newton step makes no
LAPACK factorization and builds no symbol tensor.
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


def _distinct_symbols(sigma, alpha):
    """The alpha-connection's three distinct symbols at sigma, as Python
    floats: Gamma^mu_{mu sigma} = Gamma^mu_{sigma mu}, Gamma^sigma_{mu mu}
    and Gamma^sigma_{sigma sigma}; every other symbol is zero."""
    return (
        -(1.0 + alpha) / sigma,
        (1.0 - alpha) / (2.0 * sigma),
        -(1.0 + 2.0 * alpha) / sigma,
    )


def _christoffel(sigma, alpha):
    # Gamma^k_ij at (i, j, k), the closed form that the tests hold the
    # evaluation's contractions to; no run builds it
    mixed, mu_mu, sigma_sigma = _distinct_symbols(sigma, alpha)
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = gamma[1, 0, 0] = mixed
    gamma[0, 0, 1] = mu_mu
    gamma[1, 1, 1] = sigma_sigma
    return gamma


class _Evaluation:
    """The closed-form geometry at xi: G, the solve against G, the
    lowered connection and its quadratic form."""

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

    def solve(self, b):
        """G^{-1} b for a vector b, with the bits and errors of
        ``cho_solve(cholesky_lower(G), b)``: dtrtrs's two triangular
        solves on that diagonal factor are two divisions per entry on the
        roots, and its back substitution adds the zero term -x1 * 0.0 to
        the first entry, which can turn its -0.0 into 0.0.  Vectors only:
        with several right-hand sides the BLAS multiplies by 1 / l
        instead, which rounds differently."""
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

    def quad(self, alpha, beta):
        """Gamma(beta, beta), with the bits of
        ``beta @ einsum("k,ikj->ij", beta, _christoffel(sigma, alpha))``
        (module notes)."""
        # xi has passed the metric's check, which gave sigma as this float
        mixed, mu_mu, sigma_sigma = _distinct_symbols(self.xi.item(1), alpha)
        b0, b1 = beta.tolist()
        m = [
            [0.0 + b1 * mixed, 0.0 + b0 * mu_mu],
            [0.0 + b0 * mixed, 0.0 + b1 * sigma_sigma],
        ]
        return beta @ np.array(m)

    def lowered(self, alpha, a):
        """sum_k Gamma^k_ij (G a)_k, with the bits of
        ``_christoffel(sigma, alpha) @ (G @ a)`` (module notes)."""
        mixed, mu_mu, sigma_sigma = _distinct_symbols(self.xi.item(1), alpha)
        a0, a1 = a.tolist()
        v0 = 0.0 + self.G.item(0, 0) * a0
        v1 = 0.0 + self.G.item(1, 1) * a1
        off = 0.0 + mixed * v0
        return np.array([[0.0 + mu_mu * v1, off], [off, 0.0 + sigma_sigma * v1]])


def dual_structure(alpha):
    return DualStructure(evaluate=_Evaluation, alpha=alpha)
