"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the one-parameter family of
alpha-connection Christoffel symbols.  Its DualStructure evaluates them
through one hook, ``point(structure, xi)``, which returns a DualPoint:
the metric at xi, with the symbols for any alpha built from per-point
state when first read.  That state is built at most once per point and
only when a symbol is read: the third central moment of the log-linear
statistics, and the Beta mixture's second log-derivatives at its
quadrature nodes, whose weights and scores also give the metric.  The
log-linear and mixture ``christoffel`` functions read their symbols
through the hook; the Gaussian hook calls its closed-form symbols.
The log-linear point also contracts its connections (``dual_dot``,
``quad``) straight from the state probabilities and centred statistics,
so a Newton step never builds the third central moment.
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
