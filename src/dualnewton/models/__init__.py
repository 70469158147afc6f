"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the one-parameter family of
alpha-connection Christoffel symbols.  What a model implements is its
evaluation at a point, returned by its structure's ``evaluate(xi)``:
an object with the metric ``G``, its lower Cholesky factor ``L`` and
``connection(alpha, a)``, the alpha-connection applied to a vector, for
any alpha.  ``DualStructure.at`` wraps it in a DualPoint.  The
log-linear evaluation is the memoized pass over the states, whose
connection comes from the metric's own probabilities and centred
statistics, so no third central moment is built.  The Beta mixture's is
one pass over the quadrature nodes (``BetaMixtureModel.nodes``), whose
weights and scores give the metric and, with the second log-derivatives
there, the symbols, once per point and alpha.  The Gaussian's holds the
closed-form symbols and factor.  The full symbols of any model are read
through its structure, as ``dual_structure(...).gamma(xi)``.

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
