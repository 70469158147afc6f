"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the alpha-connection
Christoffel symbols.  What a model implements is its evaluation at a
point, its structure's ``evaluate(xi)``: the metric ``G``, its lower
Cholesky factor ``L``, made with G's one check (every solve at the point
reads only L), and ``connection(alpha, a)``, the alpha-connection
applied to a vector.  ``DualStructure.at`` wraps it in a DualPoint.  The
log-linear evaluation is the memoized pass over the states, whose
connection needs no third central moment tensor.  The Beta mixture's is
one pass over the quadrature nodes (``BetaMixtureModel.nodes``), which
gives the metric and each alpha's symbols once per point.  The
Gaussian's holds the closed-form symbols and factor.  The full symbols
of any model are read as ``dual_structure(...).gamma(xi)``.

Each structure also carries the model's point check, the one statement
of its domain: the Gaussian's ``gaussian.check``, the mixture's shape
check bound to K, and the log-linear theta check bound to the index.
Every evaluation at a point starts with it, and the optimizers call it
on each start and trial point.  Off the chart it raises a PointError
that names the cause (a sigma whose square overflows, a non-finite
theta, a shape parameter that is not positive).
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
