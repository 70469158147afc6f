"""Fitting an isotropic Gaussian by alpha-divergence minimization.

The model N((mu, mu), sigma^2 I) chases a fixed anisotropic target
N((2, 1.5), diag(1.3^2, 0.7^2)) under the order-3 divergence, which
has a closed form.  The demo runs the dual Newton method across the
connection family and shows that the fitted point is the same while
the trajectory through the chart differs with the chosen geometry.
"""

import numpy as np

from dualnewton import StopRule, dual_newton_run, natural_gradient_run
from dualnewton.models import gaussian
from dualnewton.objectives import AlphaDivergenceObjective

obj = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0)
x0 = np.array([0.5, 2.0])
stop = StopRule(grad_tol=1e-6)

print("start: mu=0.5 sigma=2.0, target means (2, 1.5), target sigmas (1.3, 0.7)")
print(f"\n{'run':20s} {'iters':>5s} {'mu':>10s} {'sigma':>10s} {'value':>12s}")
for alpha in (-0.4, -0.2, 0.0, 0.2, 0.4):
    ds = gaussian.dual_structure(alpha)
    tr = dual_newton_run(ds, obj, x0, stop)
    mu, sigma = tr.iterates[-1]
    print(
        f"newton alpha={alpha:+.1f}   {tr.n_iterations:5d} {mu:10.6f} "
        f"{sigma:10.6f} {tr.steps[-1].f:12.8f}"
    )

tr = natural_gradient_run(gaussian.dual_structure(0.0), obj, x0, stop)
mu, sigma = tr.iterates[-1]
print(f"{'natural gradient':20s} {tr.n_iterations:5d} {mu:10.6f} {sigma:10.6f}")

print(
    "\nThe minimizer balances the two target coordinates; the divergence "
    "only exists while 2 sigma^2 stays above each target variance, and the "
    "optimizers back off any trial step that leaves that region."
)
