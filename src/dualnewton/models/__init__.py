"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the one-parameter family of
alpha-connection Christoffel symbols.  Its DualStructure evaluates them
through one hook, ``point(structure, xi)``, which returns a DualPoint:
the metric at xi and the alpha-connection applied to a vector,
``connection(alpha, a)``, for any alpha.  The log-linear connection
comes straight from the state probabilities and centred statistics of
the metric's own pass, so no third central moment is built.  The Beta
mixture contracts its symbols, built once per point and alpha from the
second log-derivatives at its quadrature nodes, whose weights and scores
also give the metric.  The Gaussian contracts its closed-form symbols.
The full symbols of any model are read through the hook, as
``dual_structure(...).gamma(xi)``.

Each structure also carries the model's point check, the one statement
of its domain: the Gaussian's ``gaussian.check``, the mixture's shape
check bound to K, and the log-linear theta check bound to the index.
``contains`` is True exactly where that check passes, and every
evaluation at a point starts with it.
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
