"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

What a model implements is its evaluation at a point, its structure's
``evaluate(xi)``, which holds what a run reads: the metric ``G``,
``solve(b)`` = G^{-1} b, which checks G once and then never reads it
again, the alpha-connection applied to a vector and lowered by G,
``lowered(alpha, a)``, for Newton's K, and its quadratic form
Gamma(beta, beta), ``quad(alpha, beta)``, for the retraction.  How a
model solves is its own: the log-linear and mixture passes keep the
checked Cholesky factor ``L`` of G.  ``DualStructure.at`` wraps the
evaluation in a DualPoint.  The log-linear evaluation is the pass over
the states, an ``lru_cache`` of the last eight points, whose lowered
connection needs no solve and whose quadratic form one vector solve, and
neither the third central moment tensor.  The Beta mixture's is one pass
over the quadrature nodes (``BetaMixtureModel.nodes``), whose two
contractions are sums over the nodes with no symbol tensor.  The
Gaussian's holds the closed-form metric, solves with the roots of its
diagonal G and contracts the connection's three distinct symbols as
Python floats, with no symbol tensor.  The full symbols are read as
``dual_structure(...).gamma(xi)``, raised from ``lowered``.

Each model states its domain once, in its point check (``gaussian.check``,
the mixture's shape check, the log-linear theta check), which every pass
at a point runs first: ``evaluate(xi)`` and each objective's
``value_and_grad`` and ``hessian``.  Off the
chart it raises a PointError that names the cause (a sigma whose square
overflows, a non-finite theta, a shape parameter that is not positive).
"""

from . import betamix, gaussian, loglinear
from .betamix import BetaMixtureModel, QuadratureRule
from .loglinear import SubsetIndex

__all__ = [
    "betamix",
    "gaussian",
    "loglinear",
    "BetaMixtureModel",
    "QuadratureRule",
    "SubsetIndex",
]
