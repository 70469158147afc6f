"""Objective functions for the three experiment families.

Each objective exposes ``dim``, ``value``, ``eucl_grad`` (the plain
coordinate gradient) and ``value_and_grad``, the pair the optimizers
take at every evaluated point; they turn the gradient into Riemannian
quantities through the model metric.  ``value_and_grad`` returns the
same bits as the two separate calls; the Beta mixture's takes both from
one pass over the data.  Where a cheap exact Jacobian of
the Riemannian gradient field exists it is exposed as
``grad_field_jacobian`` so Newton steps avoid finite differences.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceUndefined, DomainViolation, NonFiniteValue
from .linalg import EPS, solve_spd
from .models import loglinear
from .models.betamix import log_sums


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
        # the log-partition and the moments share no measurable work
        return self.value(theta), self.eucl_grad(theta)

    def grad_field_jacobian(self, theta):
        """Exact Jacobian J[i, j] = d a_j / d theta_i of a = G^{-1} grad.

        Uses the moment-map derivative d eta / d theta = G and the
        metric derivative d G / d theta_i = T_i (third central
        moments), so the Euclidean Hessian is G + 2 diag(lam) and
        d a / d theta_i = G^{-1} (H_f[:, i] - T_i a).  T a is contracted
        over the states, so T itself is never built.
        """
        theta = np.asarray(theta, dtype=float)
        p, C = loglinear.centered_features(self.index, theta)
        G = loglinear.weighted_gram(C, p)
        a = solve_spd(G, self.eucl_grad(theta))
        H_f = G + 2.0 * np.diag(self.lam)
        TA = loglinear.weighted_gram(C, p * (C @ a))
        return solve_spd(G, H_f - TA).T


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
    high-accuracy central difference of the closed form.
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

    def _factors(self, sigma):
        ab = self.alpha_bar
        return 0.5 * (1.0 + ab) * sigma**2 + 0.5 * (1.0 - ab) * self.sigma_targets**2

    def value(self, xi):
        mu, sigma = np.asarray(xi, dtype=float)
        if not (np.isfinite(sigma) and sigma > 0):
            raise DomainViolation(f"sigma must be positive, got {sigma}")
        ab = self.alpha_bar
        c = self._factors(sigma)
        if (c <= 0).any():
            raise DivergenceUndefined(
                f"integrability fails at sigma={sigma}: variance factors {c}"
            )
        log_j = (
            self._log_target
            + 0.5 * (1.0 + ab) * np.log(sigma)
            - 0.5 * np.log(c)
            - 0.125 * (1.0 - ab * ab) * (self.mu_targets - mu) ** 2 / c
        )
        # an overflow here ends in NonFiniteValue below, which names it
        with np.errstate(over="ignore"):
            integral = np.exp(log_j.sum())
        f = 4.0 / (1.0 - ab * ab) * (1.0 - integral)
        if not np.isfinite(f):
            raise NonFiniteValue(f"divergence overflowed at {xi}")
        return float(f)

    def eucl_grad(self, xi):
        xi = np.asarray(xi, dtype=float)
        grad = np.empty(2)
        for i in range(2):
            h = np.sqrt(EPS) * max(1.0, abs(xi[i]))
            lo, hi = xi.copy(), xi.copy()
            lo[i] -= h
            hi[i] += h
            grad[i] = (self.value(hi) - self.value(lo)) / (hi[i] - lo[i])
        return grad

    def value_and_grad(self, xi):
        return self.value(xi), self.eucl_grad(xi)

    def _log_integral_derivs(self, xi):
        """Value, gradient, and Hessian of S = log(J1 J2) in closed form."""
        mu, sigma = np.asarray(xi, dtype=float)
        ab = self.alpha_bar
        c = self._factors(sigma)
        if sigma <= 0 or np.any(c <= 0):
            raise DivergenceUndefined(
                f"integrability fails at sigma={sigma}: variance factors {c}"
            )
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
        return s, grad_s, hess_s

    def analytic_grad(self, xi):
        """Exact gradient of the closed form; grad f = -K e^S grad S."""
        ab = self.alpha_bar
        s, grad_s, _ = self._log_integral_derivs(xi)
        return -4.0 / (1.0 - ab * ab) * np.exp(s) * grad_s

    def analytic_hessian(self, xi):
        """Exact value Hessian: -K e^S (grad S grad S^T + hess S)."""
        ab = self.alpha_bar
        s, grad_s, hess_s = self._log_integral_derivs(xi)
        return (
            -4.0
            / (1.0 - ab * ab)
            * np.exp(s)
            * (np.outer(grad_s, grad_s) + hess_s)
        )

    def grad_field_jacobian(self, xi):
        """Jacobian of a = G^{-1} grad, fully analytic.

        G^{-1} = diag(sigma^2/2, sigma^2/4) for the isotropic model, so
        d a / d xi_i = G^{-1} H[:, i] + [i == sigma] diag(sigma, sigma/2) grad
        with H the exact Hessian of the closed-form value.
        """
        xi = np.asarray(xi, dtype=float)
        sigma = xi[1]
        s, grad_s, hess_s = self._log_integral_derivs(xi)
        scale = -4.0 / (1.0 - self.alpha_bar * self.alpha_bar) * np.exp(s)
        grad = scale * grad_s
        H = scale * (np.outer(grad_s, grad_s) + hess_s)
        g_inv = np.diag([0.5 * sigma**2, 0.25 * sigma**2])
        jac = (g_inv @ H).T
        jac[1, :] += np.array([sigma, 0.5 * sigma]) * grad
        return jac


def _negative_log_likelihood(logp, xi):
    f = -float(np.sum(logp))
    if not np.isfinite(f):
        raise NonFiniteValue(f"log-likelihood overflowed at {xi}")
    return f


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
        return _negative_log_likelihood(self.model._log_density(xi, self._log_sums), xi)

    def eucl_grad(self, xi):
        s, _, _, _ = self.model._scores(xi, self._log_sums)
        return -s.sum(axis=0)

    def value_and_grad(self, xi):
        """(value(xi), eucl_grad(xi)) bit for bit, from one pass over the
        data: the scores carry the log-density that ``value`` sums."""
        s, _, _, logp = self.model._scores(xi, self._log_sums)
        return _negative_log_likelihood(logp, xi), -s.sum(axis=0)

    grad_field_jacobian = None
