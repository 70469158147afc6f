"""Objective functions for the three experiment families.

Each objective exposes ``dim``, ``value``, ``eucl_grad`` (the plain
coordinate gradient), ``value_and_grad``, the pair the optimizers take
at every evaluated point, and ``grad_field_jacobian``, the Jacobian
J[i, j] = d a_j / d xi_i of the Riemannian gradient field
a = G^{-1} grad f that Newton's dual Hessian reads.  ``value`` and
``eucl_grad`` are the two parts of ``value_and_grad``, which takes both
from one pass: over the states for the KL projection, over the data's
scores for the Beta mixture, and one closed-form pass over Python
floats for the alpha-divergence.  The KL projection and the
alpha-divergence have exact Jacobians; the Beta mixture's is central
differences of its own field.  The chart check, the solves against G
with its one factor and the log-linear contraction T a are the model's.
"""

import math

import numpy as np

from .errors import DivergenceUndefined, NonFiniteValue
from .geometry import gradient_field
from .linalg import fd_jacobian
from .models import gaussian, loglinear
from .models.betamix import log_sums


class _Objective:
    """``value`` and ``eucl_grad``, the two parts of ``value_and_grad``."""

    def value(self, xi):
        return self.value_and_grad(xi)[0]

    def eucl_grad(self, xi):
        return self.value_and_grad(xi)[1]


class KLProjectionObjective(_Objective):
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
        # each comparison below is written so that NaN fails it
        for name, lam in (("lam1", lam1), ("lam2", lam2)):
            if not 0.0 <= lam < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {lam}")
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

    def value_and_grad(self, theta):
        """The value and the gradient from the log-partition and the
        moments of one pass over the states, which the model keeps for
        the point's geometry.  Raises NonFiniteValue where the value is
        not finite."""
        theta = np.asarray(theta, dtype=float)
        return self._value_and_grad(loglinear.evaluate(self.index, theta), theta)

    # ``value_and_grad`` from the pass at theta.  A theta near the float
    # range overflows the penalty; a gradient that overflows is returned
    @np.errstate(over="ignore", invalid="ignore")
    def _value_and_grad(self, at, theta):
        penalty = self.lam @ (theta * theta)
        f = float(float(at.lse) + self._phi_hat - theta @ self.eta_hat + penalty)
        if not math.isfinite(f):
            raise NonFiniteValue(f"KL projection value {f} is not finite at {theta}")
        return f, at.eta - self.eta_hat + 2.0 * self.lam * theta

    def grad_field_jacobian(self, theta):
        """Exact Jacobian J[i, j] = d a_j / d theta_i of a = G^{-1} grad.

        Uses the moment-map derivative d eta / d theta = G and the
        metric derivative d G / d theta_i = T_i (third central
        moments), so the Euclidean Hessian is G + 2 diag(lam) and
        d a / d theta_i = G^{-1} (H_f[:, i] - T_i a).  G, the solves
        against it and the contraction T a come from the model's pass at
        theta, so T itself is never built.
        """
        theta = np.asarray(theta, dtype=float)
        at = loglinear.evaluate(self.index, theta)
        a = at.solve(self._value_and_grad(at, theta)[1])
        return at.solve(at.G + 2.0 * np.diag(self.lam) - at.cumulant(a)).T


class AlphaDivergenceObjective(_Objective):
    """Alpha-divergence from a fixed diagonal Gaussian target.

    The model is the two-dimensional isotropic family N((mu, mu),
    sigma^2 I); the target is N((mu1, mu2), diag(sigma1^2, sigma2^2)).
    For order parameter abar with abar^2 != 1,

        f(mu, sigma) = K (1 - e^S),  K = 4 / (1 - abar^2),  S = log(J1 J2)

    where the per-coordinate Gaussian power integrals are

        J_i = sigma_i^{(1-abar)/2} sigma^{(1+abar)/2} c_i^{-1/2}
              * exp(-(1 - abar^2) / 8 * (mu_i - mu)^2 / c_i),
        c_i = (1 + abar) / 2 * sigma^2 + (1 - abar) / 2 * sigma_i^2.

    The integral only converges while every c_i > 0; outside that
    region evaluation raises DivergenceUndefined.  ``value``,
    ``eucl_grad`` and ``value_and_grad`` read one closed-form pass over
    Python floats, which gives f and its exact gradient -K e^S grad S;
    ``grad_field_jacobian`` adds the closed-form Hessian of S to the
    same pass.
    """

    dim = 2

    def __init__(self, mu1, mu2, sigma1, sigma2, alpha_bar=3.0):
        # each comparison below is written so that NaN fails it
        for name, value in (("mu1", mu1), ("mu2", mu2), ("alpha_bar", alpha_bar)):
            if not abs(value) < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        for name, value in (("sigma1", sigma1), ("sigma2", sigma2)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if alpha_bar * alpha_bar == 1.0:
            raise ValueError("alpha_bar = +-1 is the KL limit, not supported here")
        self.mu_targets = np.array([float(mu1), float(mu2)])
        self.sigma_targets = np.array([float(sigma1), float(sigma2)])
        ab = self.alpha_bar = float(alpha_bar)
        self._scale = 4.0 / (1.0 - ab * ab)
        # (1 + abar) / 2, the model variance's share of c_i and of log J_i
        self._half = 0.5 * (1.0 + ab)
        # weight of (mu_i - mu)^2 / c_i in log J_i
        self._w = -0.125 * (1.0 - ab * ab)
        # per target coordinate: mu_i, the target's share of c_i, and its
        # share of log J_i, which is constant in (mu, sigma)
        self._targets = tuple(
            (m, 0.5 * (1.0 - ab) * (s * s), 0.5 * (1.0 - ab) * math.log(s))
            for m, s in zip(self.mu_targets.tolist(), self.sigma_targets.tolist())
        )

    def _pass(self, xi):
        """(mu, sigma, f, -K e^S, dS/dmu, dS/dsigma) at xi = (mu, sigma),
        one loop over the target coordinates in Python floats.

        Raises what ``gaussian.check`` raises off the model's chart (a
        point that is not a pair, a mu that is not finite, a sigma that
        is not positive or whose square overflows), then
        DivergenceUndefined where a factor c_i <= 0 and NonFiniteValue
        where f is not finite.  A gradient that overflows is returned as
        it is (inf or nan), without a warning.
        """
        mu, sigma = gaussian.check(xi)
        half, w = self._half, self._w
        sigma_sq = sigma * sigma
        factors = [half * sigma_sq + share for _, share, _ in self._targets]
        if min(factors) <= 0.0:
            raise DivergenceUndefined(
                f"integrability fails at sigma={sigma}: variance factors {factors}"
            )
        log_sigma = half * math.log(sigma)
        dc = 2.0 * half * sigma
        s = ds_mu = ds_sigma = 0.0
        for (mu_i, _, log_target), c in zip(self._targets, factors):
            d = mu_i - mu
            q = w * (d * d) / c
            s += log_target + log_sigma - 0.5 * math.log(c) + q
            ds_mu -= 2.0 * w * d / c
            ds_sigma += half / sigma - 0.5 * dc / c - q * dc / c
        try:
            e = math.exp(s)
        except OverflowError:
            raise NonFiniteValue(f"divergence overflowed at {xi}") from None
        f = self._scale * (1.0 - e)
        if not abs(f) < math.inf:
            raise NonFiniteValue(f"divergence overflowed at {xi}")
        return mu, sigma, f, -self._scale * e, ds_mu, ds_sigma

    def value_and_grad(self, xi):
        _, _, f, scale, ds_mu, ds_sigma = self._pass(xi)
        return f, np.array([scale * ds_mu, scale * ds_sigma])

    # the gradient is exact; the acceptance gate reads it by this name
    analytic_grad = _Objective.eucl_grad

    def grad_field_jacobian(self, xi):
        """Jacobian of a = G^{-1} grad in one pass over Python floats:
        d a / d xi_i = G^{-1} H[:, i] + [i == sigma] diag(sigma, sigma/2) grad
        with G^{-1} = diag(sigma^2/2, sigma^2/4), grad = -K e^S grad S and
        H = -K e^S (grad S grad S^T + hess S), hess S in closed form.
        Raises what ``_pass`` raises, then NonFiniteValue where an entry
        is not finite."""
        mu, sigma, _, scale, ds_mu, ds_sigma = self._pass(xi)
        half, w = self._half, self._w
        dc = 2.0 * half * sigma
        h_mm = h_ms = h_ss = 0.0
        try:
            for mu_i, share, _ in self._targets:
                c = half * (sigma * sigma) + share
                d = mu_i - mu
                h_mm += 2.0 * w / c
                h_ms += 2.0 * w * d * dc / (c * c)
                h_ss += (
                    -half / (sigma * sigma)
                    - half / c
                    + 0.5 * dc * dc / (c * c)
                    - w * (d * d) * (2.0 * half / (c * c) - 2.0 * dc * dc / (c * c * c))
                )
            # libm's pow, as for a numpy scalar
            g_mu, g_sigma = 0.5 * sigma**2, 0.25 * sigma**2
        except (ZeroDivisionError, OverflowError):
            raise NonFiniteValue(f"gradient field Jacobian overflowed at {xi}") from None
        # G^{-1} H by entries; + 0.0 gives a zero entry the +0.0 of a
        # matrix product, which sums from +0.0
        cross = scale * (ds_mu * ds_sigma + h_ms)
        m_ms = g_mu * cross + 0.0
        m_ss = g_sigma * (scale * (ds_sigma * ds_sigma + h_ss)) + 0.0
        jac = (
            (g_mu * (scale * (ds_mu * ds_mu + h_mm)) + 0.0, g_sigma * cross + 0.0),
            (m_ms + sigma * (scale * ds_mu), m_ss + 0.5 * sigma * (scale * ds_sigma)),
        )
        if not all(abs(v) < math.inf for row in jac for v in row):
            raise NonFiniteValue(f"gradient field Jacobian is not finite at {xi}")
        return np.array(jac)


class BetaMixtureNLL(_Objective):
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
        if not ((data > 0.0) & (data < 1.0)).all():
            raise ValueError("all data points must lie strictly inside (0, 1)^2")
        self.model = model
        self.data = data
        self._log_sums = log_sums(data)
        # a solve reads only G, which does not depend on alpha
        self._structure = model.dual_structure(0.0)

    @property
    def dim(self):
        return self.model.dim

    # the sums over the data overflow at shapes near the float range
    @np.errstate(over="ignore", invalid="ignore")
    def value_and_grad(self, xi):
        """The value and the gradient from one score pass over the data,
        which carries the log-density the value sums."""
        s, _, _, logp = self.model.scores(xi, self._log_sums)
        f = -float(logp.sum())
        if not math.isfinite(f):
            raise NonFiniteValue(f"log-likelihood overflowed at {xi}")
        # einsum adds the C-order rows in order, as sum(axis=0) does, at a
        # fraction of the cost of its reduction over short rows
        return f, -np.einsum("nj->j", s)

    def grad_field_jacobian(self, xi):
        """Central differences of the field a = G^{-1} grad: each probe
        makes one pass over the quadrature nodes for the model's point
        and one score pass over the data for the gradient.  A point off
        the model's chart raises what its check raises, before any probe."""
        field = gradient_field(self._structure, self.eucl_grad)
        return fd_jacobian(field, self._structure.check(xi))
