"""Objective functions for the three experiment families.

Each objective exposes ``dim``, ``value``, ``eucl_grad`` (the plain
coordinate gradient) and ``value_and_grad``, the pair the optimizers
take at every evaluated point; they turn the gradient into Riemannian
quantities through the model metric.  ``value_and_grad`` returns the
same bits as the two separate calls.  The Beta mixture's value and
gradient are the two parts of one score pass over the data, and the
alpha-divergence's takes the value and its four central-difference
probes from one vectorized stencil pass.
Where a cheap exact Jacobian of the Riemannian gradient field exists it
is exposed as ``grad_field_jacobian`` so Newton steps avoid finite
differences.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainViolation,
    NonFiniteValue,
)
from .linalg import EPS, solve_spd
from .models import loglinear
from .models.betamix import log_sums

_SQRT_EPS = float(np.sqrt(EPS))


@dataclass(frozen=True)
class Objective:
    """Generic objective: callables over coordinate vectors."""

    dim: int
    value: Callable
    eucl_grad: Callable
    grad_field_jacobian: Optional[Callable] = None

    def value_and_grad(self, x):
        return self.value(x), self.eucl_grad(x)


class KLProjectionObjective:
    """Regularized KL projection onto a log-linear family.

    f(theta) = psi(theta) + phi(eta_hat) - theta . eta_hat
               + lam1 * sum over singleton coords of theta^2
               + lam2 * sum over pair coords of theta^2

    phi(eta_hat) is the target's negative entropy, computed once by
    enumeration, so f is the exact KL divergence plus the quadratic
    penalty.  Construction fails if eta_hat is not strictly inside the
    moment polytope.
    """

    def __init__(self, index, eta_hat, lam1=0.0, lam2=0.0):
        eta_hat = np.asarray(eta_hat, dtype=float)
        if eta_hat.shape != (len(index),):
            raise ValueError(
                f"eta_hat must have length {len(index)}, got shape {eta_hat.shape}"
            )
        if lam1 < 0 or lam2 < 0:
            raise ValueError("regularization weights must be nonnegative")
        self.index = index
        self.eta_hat = eta_hat
        self.lam1 = float(lam1)
        self.lam2 = float(lam2)
        # lam_A per coordinate: lam1 on singletons, lam2 on pairs,
        # higher orders unpenalized
        orders = np.array([len(A) for A in index.subsets])
        self.lam = np.where(orders == 1, self.lam1, 0.0) + np.where(
            orders == 2, self.lam2, 0.0
        )
        self._theta_hat = loglinear.moment_to_natural(index, eta_hat)
        self._phi_hat = loglinear.negative_entropy(
            loglinear.probabilities(index, self._theta_hat)
        )

    @property
    def dim(self):
        return len(self.index)

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return float(
            loglinear.log_partition(self.index, theta)
            + self._phi_hat
            - theta @ self.eta_hat
            + self.lam @ (theta * theta)
        )

    def eucl_grad(self, theta):
        theta = np.asarray(theta, dtype=float)
        return loglinear.moments(self.index, theta) - self.eta_hat + 2.0 * self.lam * theta

    def value_and_grad(self, theta):
        # the log-partition and the moments come from one pass over the
        # states, which the model keeps for the point's geometry
        return self.value(theta), self.eucl_grad(theta)

    def grad_field_jacobian(self, theta):
        """Exact Jacobian J[i, j] = d a_j / d theta_i of a = G^{-1} grad.

        Uses the moment-map derivative d eta / d theta = G and the
        metric derivative d G / d theta_i = T_i (third central
        moments), so the Euclidean Hessian is G + 2 diag(lam) and
        d a / d theta_i = G^{-1} (H_f[:, i] - T_i a).  T a is contracted
        over the states, so T itself is never built.  p, C, G and G's
        factor come from the model's pass at theta.
        """
        theta = np.asarray(theta, dtype=float)
        at = loglinear.evaluate(self.index, theta)
        G, C = at.G, at.C
        a = solve_spd(G, self.eucl_grad(theta), L=at.L)
        H_f = G + 2.0 * np.diag(self.lam)
        TA = loglinear.weighted_gram(C, at.p * (C @ a))
        return solve_spd(G, H_f - TA, L=at.L).T


def _point(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DimensionMismatch(f"expected a point (mu, sigma), got shape {xi.shape}")
    return xi


def _stencil(xi):
    """Rows xi, hi_0, lo_0, hi_1, lo_1 of the central difference, with
    hi_i, lo_i = xi +- h_i e_i and h_i = sqrt(EPS) max(1, |xi_i|): one
    rounded addition per probe coordinate, as when each probe was a
    copy of xi stepped in place."""
    mu, sigma = xi.tolist()
    h_mu = _SQRT_EPS * max(1.0, abs(mu))
    h_sigma = _SQRT_EPS * max(1.0, abs(sigma))
    return np.array(
        [
            [mu, sigma],
            [mu + h_mu, sigma],
            [mu - h_mu, sigma],
            [mu, sigma + h_sigma],
            [mu, sigma - h_sigma],
        ]
    )


def _central_difference(f_probes, X):
    """(f(hi_i) - f(lo_i)) / (hi_i - lo_i) from the values at the probe
    rows X[1:] of the stencil.  A quotient that overflows is -inf or
    inf, which the optimizers reject as non-finite."""
    with np.errstate(over="ignore"):
        return (f_probes[0::2] - f_probes[1::2]) / (
            X[1::2].diagonal() - X[2::2].diagonal()
        )


class AlphaDivergenceObjective:
    """Alpha-divergence from a fixed diagonal Gaussian target.

    The model is the two-dimensional isotropic family N((mu, mu),
    sigma^2 I); the target is N((mu1, mu2), diag(sigma1^2, sigma2^2)).
    For order parameter abar with abar^2 != 1,

        f(mu, sigma) = 4 / (1 - abar^2) * (1 - J1 * J2)

    where the per-coordinate Gaussian power integrals are

        J_i = sigma_i^{(1-abar)/2} sigma^{(1+abar)/2} c_i^{-1/2}
              * exp(-(1 - abar^2) / 8 * (mu_i - mu)^2 / c_i),
        c_i = (1 + abar) / 2 * sigma^2 + (1 - abar) / 2 * sigma_i^2.

    The integral only converges while every c_i > 0; outside that
    region evaluation raises DivergenceUndefined.  The gradient is a
    central difference of the closed form with steps sqrt(EPS) max(1,
    |xi_i|).  ``value``, ``eucl_grad`` and ``value_and_grad`` each make
    one pass of ``_values`` over the rows of a stencil: the point, the
    four probes hi_0, lo_0, hi_1, lo_1, or the point and the probes.
    Every row gets the bits and the exception of a lone evaluation, and
    the rows are checked in the order lone evaluations would run.
    """

    dim = 2

    def __init__(self, mu1, mu2, sigma1, sigma2, alpha_bar=3.0):
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError("target standard deviations must be positive")
        if alpha_bar * alpha_bar == 1.0:
            raise ValueError("alpha_bar = +-1 is the KL limit, not supported here")
        self.mu_targets = np.array([float(mu1), float(mu2)])
        self.sigma_targets = np.array([float(sigma1), float(sigma2)])
        self.alpha_bar = float(alpha_bar)
        # the target's share of log J_i, constant in (mu, sigma)
        self._log_target = 0.5 * (1.0 - self.alpha_bar) * np.log(self.sigma_targets)
        # the target's share of the variance factors c_i
        self._target_factors = 0.5 * (1.0 - self.alpha_bar) * self.sigma_targets**2

    def _factors(self, sigma_sq):
        """The variance factors c_i from the model variance sigma^2."""
        return 0.5 * (1.0 + self.alpha_bar) * sigma_sq + self._target_factors

    def _values(self, X):
        """f at every row (mu, sigma) of X, in one numpy pass.

        Each row gets the arithmetic of a lone evaluation; sigma is
        squared per row as a numpy scalar (libm pow), because the array
        square x*x differs from it in the last bit on about 1 in 1000
        sigmas.  A row that cannot be evaluated raises, checked in the
        order DomainViolation, DivergenceUndefined, NonFiniteValue, and
        the first such row raises what its lone evaluation would.  Each
        of those rows ends in an exception, so the pass runs with
        floating-point warnings off.
        """
        ab = self.alpha_bar
        mu, sigma = X[:, 0], X[:, 1]
        with np.errstate(all="ignore"):
            c = self._factors(np.array([s**2 for s in sigma])[:, None])
            log_j = (
                self._log_target
                + (0.5 * (1.0 + ab) * np.log(sigma))[:, None]
                - 0.5 * np.log(c)
                - 0.125 * (1.0 - ab * ab) * (self.mu_targets - mu[:, None]) ** 2 / c
            )
            f = 4.0 / (1.0 - ab * ab) * (1.0 - np.exp(log_j.sum(axis=1)))
        # a NaN or infinite sigma and a factor c_i <= 0 each make f NaN or
        # infinite, so these two tests find every row that fails
        failed = ~((sigma > 0) & np.isfinite(f))
        if failed.any():
            r = failed.argmax()
            if not (np.isfinite(sigma[r]) and sigma[r] > 0):
                raise DomainViolation(f"sigma must be positive, got {sigma[r]}")
            if (c[r] <= 0).any():
                raise DivergenceUndefined(
                    f"integrability fails at sigma={sigma[r]}: variance factors {c[r]}"
                )
            raise NonFiniteValue(f"divergence overflowed at {X[r]}")
        return f

    def value(self, xi):
        return float(self._values(_point(xi)[None, :])[0])

    def eucl_grad(self, xi):
        X = _stencil(_point(xi))
        return _central_difference(self._values(X[1:]), X)

    def value_and_grad(self, xi):
        X = _stencil(_point(xi))
        f = self._values(X)
        return float(f[0]), _central_difference(f[1:], X)

    def _log_integral_derivs(self, xi):
        """Exact gradient -K e^S grad S and Hessian -K e^S (grad S grad
        S^T + hess S) of f = K (1 - e^S), K = 4 / (1 - abar^2), from
        S = log(J1 J2) in closed form.

        A point where ``value`` fails raises the exception ``value``
        raises there, before any arithmetic of its own.
        """
        xi = _point(xi)
        self._values(xi[None, :])
        mu, sigma = xi
        ab = self.alpha_bar
        c = self._factors(sigma**2)
        w = -0.125 * (1.0 - ab * ab)
        d = self.mu_targets - mu
        cp = (1.0 + ab) * sigma
        cpp = 1.0 + ab
        s = float(
            np.sum(
                self._log_target
                + 0.5 * (1.0 + ab) * np.log(sigma)
                - 0.5 * np.log(c)
                + w * d**2 / c
            )
        )
        ds_mu = float(np.sum(-2.0 * w * d / c))
        ds_sigma = float(
            np.sum(0.5 * (1.0 + ab) / sigma - 0.5 * cp / c - w * d**2 * cp / c**2)
        )
        h_mm = float(np.sum(2.0 * w / c))
        h_ms = float(np.sum(2.0 * w * d * cp / c**2))
        h_ss = float(
            np.sum(
                -0.5 * (1.0 + ab) / sigma**2
                - 0.5 * cpp / c
                + 0.5 * cp**2 / c**2
                - w * d**2 * (cpp / c**2 - 2.0 * cp**2 / c**3)
            )
        )
        grad_s = np.array([ds_mu, ds_sigma])
        hess_s = np.array([[h_mm, h_ms], [h_ms, h_ss]])
        scale = -4.0 / (1.0 - ab * ab) * np.exp(s)
        return scale * grad_s, scale * (np.outer(grad_s, grad_s) + hess_s)

    def analytic_grad(self, xi):
        """Exact gradient of the closed form."""
        return self._log_integral_derivs(xi)[0]

    def grad_field_jacobian(self, xi):
        """Jacobian of a = G^{-1} grad, fully analytic.

        G^{-1} = diag(sigma^2/2, sigma^2/4) for the isotropic model, so
        d a / d xi_i = G^{-1} H[:, i] + [i == sigma] diag(sigma, sigma/2) grad
        with H the exact Hessian of the closed-form value.
        """
        grad, H = self._log_integral_derivs(xi)
        sigma = np.asarray(xi, dtype=float)[1]
        g_inv = np.diag([0.5 * sigma**2, 0.25 * sigma**2])
        jac = (g_inv @ H).T
        jac[1, :] += np.array([sigma, 0.5 * sigma]) * grad
        return jac


class BetaMixtureNLL:
    """Negative log-likelihood of data under a fixed-weight Beta mixture.

    The variable is the interleaved shape vector (a_1, b_1, ..., a_K,
    b_K); mixture weights come from the model skeleton and stay fixed.
    The gradient is analytic via responsibilities.  The log-data the
    model reads (row sums of log x and log(1 - x)) is computed once.
    """

    def __init__(self, model, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"data must be (N, 2), got shape {data.shape}")
        if not np.all((data > 0.0) & (data < 1.0)):
            raise ValueError("all data points must lie strictly inside (0, 1)^2")
        self.model = model
        self.data = data
        self._log_sums = log_sums(data)

    @property
    def dim(self):
        return self.model.dim

    def value(self, xi):
        return self.value_and_grad(xi)[0]

    def eucl_grad(self, xi):
        return self.value_and_grad(xi)[1]

    def value_and_grad(self, xi):
        """The value and the gradient from one score pass over the data,
        which carries the log-density the value sums."""
        s, _, _, logp = self.model.scores(xi, self._log_sums)
        f = -float(np.sum(logp))
        if not np.isfinite(f):
            raise NonFiniteValue(f"log-likelihood overflowed at {xi}")
        return f, -s.sum(axis=0)

    grad_field_jacobian = None
