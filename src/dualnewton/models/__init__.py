"""Statistical models: discrete log-linear, isotropic Gaussian, Beta mixture.

Each model exposes its Fisher metric and the one-parameter family of
alpha-connection Christoffel symbols.  Its DualStructure evaluates them
through one hook, ``point(structure, xi)``, which returns a DualPoint:
the metric at xi, with the symbols for any alpha built from the same
evaluation when first read.  The Beta mixture takes all of them from a
single pass over its quadrature nodes.
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
