"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the alpha-connection
Christoffel symbols.  What a model implements is its evaluation at a
point, its structure's ``evaluate(xi)``: the metric ``G``,
``solve(b)`` = G^{-1} b, which checks G once and then never reads it
again, and ``connection(alpha, a)``, the alpha-connection applied to a
vector.  How a model solves is its own: the log-linear and mixture
passes keep the checked Cholesky factor ``L`` of G.
``DualStructure.at`` wraps the evaluation in a DualPoint.  The
log-linear evaluation is the pass over the states, an ``lru_cache`` of
the last eight points, whose connection needs no third central moment
tensor.  The Beta mixture's is one pass over the quadrature nodes
(``BetaMixtureModel.nodes``), which gives the metric and each alpha's
symbols once per point.  The Gaussian's holds the closed-form metric
and symbols and solves with the roots of its diagonal G.  The full
symbols of any model are read as ``dual_structure(...).gamma(xi)``.

Each model states its domain once, in its point check (``gaussian.check``,
the mixture's shape check, the log-linear theta check), which every pass
at a point runs first: ``evaluate(xi)``, each objective's
``value_and_grad`` and the mixture's ``grad_field_jacobian``.  Off the
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
