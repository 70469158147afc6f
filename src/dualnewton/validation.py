"""Cross-model identity checks with a machine-readable report.

Every check measures a residual that some structural property says
should vanish (or a disagreement that should not), compares it against
a fixed tolerance, and reports {name, passed, residual, tolerance}.
The suite covers all three model families so a geometry regression in
any of them turns at least one entry red.
"""

import numpy as np

from .experiments import gen_dataset
from .geometry import (
    dual_hessian_matrix,
    duality_residual,
    gradient_field,
    levi_civita_from_metric,
    newton_direction,
    second_order_retract,
)
from .linalg import fd_jacobian, load_compiled
from .models import gaussian, loglinear
from .models.betamix import BetaMixtureModel, QuadratureRule
from .models.loglinear import SubsetIndex
from .objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)

# the closed-form divergence to two Gaussian targets, and points of its domain
_DIVERGENCE_POINTS = ((0.5, 2.0), (1.5, 1.4), (2.0, 1.8))


def _divergence_objective():
    return AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0)


def _check(name, residual, tolerance):
    residual = float(residual)
    return {
        "name": name,
        "passed": bool(residual < tolerance),
        "residual": residual,
        "tolerance": tolerance,
    }


def _loglinear_setup(lam1, lam2, seed=2):
    rng = np.random.default_rng(seed)
    index = SubsetIndex.boltzmann(3)
    eta_hat = loglinear.moments(index, rng.uniform(-0.5, 0.5, len(index)))
    obj = KLProjectionObjective(index, eta_hat, lam1, lam2)
    return index, obj, loglinear.dual_structure(index, 1.0), rng


def _duality_checks(mixture):
    checks = []
    res = 0.0
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        ds = gaussian.dual_structure(alpha)
        for xi in ([0.3, 1.2], [-1.0, 0.7]):
            res = max(res, duality_residual(ds, np.array(xi)))
    checks.append(_check("duality_gaussian", res, 1e-5))

    index = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(0)
    res = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        ds = loglinear.dual_structure(index, alpha)
        res = max(res, duality_residual(ds, rng.uniform(-0.8, 0.8, len(index))))
    checks.append(_check("duality_loglinear", res, 1e-5))

    xi = mixture.generating_point()
    res = max(
        duality_residual(mixture.dual_structure(alpha), xi) for alpha in (0.0, 1.0)
    )
    checks.append(_check("duality_beta_mixture", res, 1e-3))
    return checks


def _flatness_checks(mixture):
    checks = []
    index = SubsetIndex.boltzmann(3)
    rng = np.random.default_rng(3)
    ds = loglinear.dual_structure(index, 1.0)
    res = max(
        float(np.max(np.abs(ds.gamma(rng.uniform(-1.0, 1.0, len(index))))))
        for _ in range(3)
    )
    checks.append(_check("natural_chart_connection_vanishes", res, 1e-12))

    res = _levi_civita_gap(gaussian.dual_structure(0.0), np.array([0.4, 1.3]))
    checks.append(_check("levi_civita_gaussian", res, 1e-6))

    theta = np.random.default_rng(4).uniform(-0.7, 0.7, len(index))
    res = _levi_civita_gap(loglinear.dual_structure(index, 0.0), theta)
    checks.append(_check("levi_civita_loglinear", res, 1e-5))

    res = _levi_civita_gap(mixture.dual_structure(0.0), mixture.generating_point())
    checks.append(_check("levi_civita_beta_mixture", res, 1e-3))
    return checks


def _levi_civita_gap(ds, xi):
    """max |Gamma - LC(g)| at xi: zero when the structure's connection is
    the metric's Levi-Civita connection (alpha = 0)."""
    return np.max(np.abs(ds.gamma(xi) - levi_civita_from_metric(ds.metric, xi)))


def _newton_to_natural_gradient(lam1, lam2):
    """|beta + a| / |a| at five random points of the penalized projection:
    the flat-chart Newton step beta against the natural gradient's -a."""
    index, obj, ds, rng = _loglinear_setup(lam1, lam2)
    field = gradient_field(ds, obj.eucl_grad)
    ratios = []
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, len(index))
        grad = obj.eucl_grad(theta)
        a = ds.at(theta).solve(grad)
        hess = dual_hessian_matrix(ds, field, theta, jacobian=obj.grad_field_jacobian)
        beta, _ = newton_direction(ds, hess, grad, theta, a=a)
        ratios.append(np.linalg.norm(beta + a) / np.linalg.norm(a))
    return ratios


def _newton_structure_checks():
    checks = []
    res = max(_newton_to_natural_gradient(0.0, 0.0))
    checks.append(_check("newton_step_is_natural_gradient_when_unregularized", res, 1e-8))

    sep = min(_newton_to_natural_gradient(0.5, 0.5))
    # inverted sense: regularization must separate the two directions
    check = _check("regularization_separates_newton_from_natural_gradient", sep, 1e-3)
    checks.append(dict(check, passed=bool(sep >= 1e-3)))

    # the quadratic penalty shifts the flat-chart Euclidean Hessian by
    # exactly 2 diag(lam over coordinates)
    index, obj0, ds, rng = _loglinear_setup(0.0, 0.0, seed=7)
    _, obj1, _, _ = _loglinear_setup(0.3, 0.8, seed=7)
    theta = rng.uniform(-0.5, 0.5, len(index))
    h0 = fd_jacobian(obj0.eucl_grad, theta)
    h1 = fd_jacobian(obj1.eucl_grad, theta)
    lam = np.array([0.3 if len(s) == 1 else 0.8 for s in index.subsets])
    res = float(np.max(np.abs((h1 - h0) - 2.0 * np.diag(lam))))
    checks.append(_check("regularizer_is_diagonal_hessian_shift", res, 1e-6))
    return checks


def _retraction_check():
    ds = gaussian.dual_structure(0.5)
    xi = np.array([0.2, 1.1])
    beta = np.array([0.6, -0.4])
    # first-order agreement with the straight line: the gap is O(t^2),
    # so gap/t must vanish as the step shrinks
    t = 1e-4
    moved = second_order_retract(ds.at(xi), t * beta)
    res = float(np.linalg.norm(moved - xi - t * beta)) / t
    return [_check("retraction_first_order_tangency", res, 1e-3)]


def curvature_gap(structure, objective, xi, beta, h=1e-4):
    """|beta^T K beta - d^2/dt^2 f(R(t beta))| / ||K||_2 at t = 0.

    K = hess f - lowered(a) is the certificate G H^T of Newton's dual
    Hessian H, which reads the dual of the connection that defines the
    retraction R, and the second derivative is a central difference of
    step h.  Duality makes the two curvatures one, so the gap is
    rounding and the difference's truncation.
    """
    point = structure.at(xi)
    a = point.solve(objective.eucl_grad(xi))
    form = objective.hessian(xi) - point.lowered(a)
    along = lambda t: objective.value(second_order_retract(point, t * beta))
    second = (along(h) - 2.0 * along(0.0) + along(-h)) / h**2
    return abs(beta @ form @ beta - second) / np.linalg.norm(form, 2)


def _certificate_checks(mixture, data):
    """The certificate's form along a seeded unit beta is the curvature of
    f along the retraction, at alpha -1, 1/2 and 1 and fixed points of
    each model."""
    rng = np.random.default_rng(5)

    def worst(structure_at, objective, points):
        gaps = []
        for alpha in (-1.0, 0.5, 1.0):
            for xi in points:
                beta = rng.normal(size=len(xi))
                beta /= np.linalg.norm(beta)
                gaps.append(curvature_gap(structure_at(alpha), objective, xi, beta))
        return max(gaps)

    name = "certificate_is_curvature_along_retraction_"
    points = [np.array(xi) for xi in _DIVERGENCE_POINTS]
    res = worst(gaussian.dual_structure, _divergence_objective(), points)
    checks = [_check(name + "gaussian", res, 1e-6)]

    index, obj, _, rng_theta = _loglinear_setup(0.5, 0.5)
    theta = [rng_theta.uniform(-1.0, 1.0, len(index))]
    res = worst(lambda alpha: loglinear.dual_structure(index, alpha), obj, theta)
    checks.append(_check(name + "loglinear", res, 1e-6))

    nll = BetaMixtureNLL(mixture, data)
    res = worst(mixture.dual_structure, nll, [mixture.generating_point()])
    # the mixture's symbols are quadratures
    checks.append(_check(name + "beta_mixture", res, 1e-4))
    return checks


def _alpha_divergence_check():
    # imported here, not at the top: scipy.integrate loads ~250 modules no run reads
    from scipy.integrate import quad
    obj = _divergence_objective()
    ab = obj.alpha_bar

    def coordinate_integral(mu_t, sigma_t, mu, sigma):
        # exponent (1 + abar)/2 rides on the target factor; with it on
        # the model instead the integral diverges for abar > 1
        def integrand(x):
            log_p = -0.5 * ((x - mu_t) / sigma_t) ** 2 - 0.5 * np.log(
                2.0 * np.pi * sigma_t**2
            )
            log_q = -0.5 * ((x - mu) / sigma) ** 2 - 0.5 * np.log(
                2.0 * np.pi * sigma**2
            )
            return np.exp(0.5 * (1.0 + ab) * log_p + 0.5 * (1.0 - ab) * log_q)

        value, _ = quad(integrand, -np.inf, np.inf)
        return value

    res = 0.0
    for mu, sigma in _DIVERGENCE_POINTS:
        j = 1.0
        for mu_t, sigma_t in zip(obj.mu_targets, obj.sigma_targets):
            j *= coordinate_integral(mu_t, sigma_t, mu, sigma)
        numeric = 4.0 / (1.0 - ab * ab) * (1.0 - j)
        closed = obj.value(np.array([mu, sigma]))
        res = max(res, abs(numeric - closed) / max(1.0, abs(closed)))
    return [_check("alpha_divergence_closed_form_vs_quadrature", res, 1e-6)]


def _quadrature_checks():
    checks = []
    model64, _ = gen_dataset(n_samples=1, seed=0, quad_nodes=64)
    model128, _ = gen_dataset(n_samples=1, seed=0, quad_nodes=128)
    xi = model64.generating_point()
    g64 = model64.fisher_metric(xi)
    g128 = model128.fisher_metric(xi)
    res = float(np.max(np.abs(g64 - g128)) / np.max(np.abs(g128)))
    checks.append(_check("fisher_metric_node_doubling_stable", res, 1e-6))

    single = BetaMixtureModel(
        weights=[1.0], alphas=[1.0], betas=[1.0],
        quadrature=QuadratureRule.gauss_legendre(64),
    )
    G = single.fisher_metric(np.array([1.0, 1.0]))
    # trigamma from the module the mixture reads: psi'(x) = zeta(2, x)
    zeta = load_compiled("scipy.special._special_ufuncs")._zeta
    t1, t2 = zeta(2.0, 1.0), zeta(2.0, 2.0)
    expected = 2.0 * np.array([[t1 - t2, -t2], [-t2, t1 - t2]])
    res = float(np.max(np.abs(G - expected)))
    checks.append(_check("single_beta_fisher_matches_trigamma", res, 1e-4))
    return checks


def run_validation(quad_nodes=64):
    """Run every structural check; returns {"passed", "checks"}."""
    mixture, data = gen_dataset(n_samples=1, seed=0, quad_nodes=quad_nodes)
    checks = []
    checks.extend(_duality_checks(mixture))
    checks.extend(_flatness_checks(mixture))
    checks.extend(_newton_structure_checks())
    checks.extend(_retraction_check())
    checks.extend(_certificate_checks(mixture, data))
    checks.extend(_alpha_divergence_check())
    checks.extend(_quadrature_checks())
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
