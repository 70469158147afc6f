"""Log-linear models on binary states with pairwise (Boltzmann) submanifolds.

A model is a pair (index, theta): the index fixes which interaction
subsets carry a parameter, theta holds the natural parameters.  All
expectations are exact enumerations over the 2^n states, so n stays small.

Every quantity at a point comes from one pass over the states,
``evaluate(index, theta)``: the log-partition, the log-probabilities,
the probabilities p, the moments eta, the centred statistics C, the
metric G and its checked factor L.  Building the pass takes only the
energies and their log-sum-exp, which is all that a trial point the
moment inversion rejects reads; every other quantity is derived on its
first read and kept read-only.  The last few points stay in a small
memo, so the readers below, the moment inversion, the structure's
points (the pass is their evaluation) and the KL objective share one
pass and one factorization per point.

At n = 4 a pass is 16 states, and numpy's function wrappers cost more
than that arithmetic, so the pass calls array methods instead.
"""

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ..errors import (
    DimensionMismatch,
    DualNewtonError,
    MomentInfeasible,
    NonFiniteValue,
)
from ..geometry import DualStructure, lazy
from ..linalg import cho_solve, logsumexp, spd_factor
from ..linalg import solve_spd  # noqa: F401 (perfbench's tracer rebinds it)

# Enumeration over 2^n states; keep n well below memory trouble.
MAX_VARS = 16

_INVERSION_TOL = 1e-12
_INVERSION_MAX_ITERS = 200

# points whose pass is kept: enough that the iterate of a line search
# outlives the inner moment inversions of its trials
_MEMO_SIZE = 8
_memo = OrderedDict()


@dataclass(frozen=True)
class SubsetIndex:
    """Ordered collection of interaction subsets of {1, ..., n_vars}.

    Subsets are sorted tuples of 1-based variable ids.  The order of
    ``subsets`` fixes the coordinate order of every vector and matrix
    produced for this index.
    """

    n_vars: int
    subsets: tuple

    def __post_init__(self):
        if not 1 <= self.n_vars <= MAX_VARS:
            raise ValueError(f"n_vars must be in 1..{MAX_VARS}, got {self.n_vars}")
        seen = set()
        for A in self.subsets:
            if not A or tuple(sorted(A)) != tuple(A):
                raise ValueError(f"subset {A} must be nonempty and sorted")
            if any(not 1 <= i <= self.n_vars for i in A):
                raise ValueError(f"subset {A} has ids outside 1..{self.n_vars}")
            if A in seen:
                raise ValueError(f"duplicate subset {A}")
            seen.add(A)
        # every pass looks its index up in the memo and in
        # ``feature_matrix``'s cache, so the hash is taken once
        object.__setattr__(self, "_hash", hash((self.n_vars, self.subsets)))

    def __hash__(self):
        return self._hash

    @classmethod
    def boltzmann(cls, n_vars):
        """Singletons then pairs, each block in lexicographic order."""
        singles = [(i,) for i in range(1, n_vars + 1)]
        pairs = [(i, j) for i, j in itertools.combinations(range(1, n_vars + 1), 2)]
        return cls(n_vars, tuple(singles + pairs))

    @classmethod
    def full(cls, n_vars):
        """All nonempty subsets, ordered by size then lexicographically."""
        subsets = []
        for r in range(1, n_vars + 1):
            subsets.extend(itertools.combinations(range(1, n_vars + 1), r))
        return cls(n_vars, tuple(subsets))

    def __len__(self):
        return len(self.subsets)

    def keys(self):
        """Serialization keys, e.g. (1, 3, 4) -> "1,3,4"."""
        return [",".join(str(i) for i in A) for A in self.subsets]


@lru_cache(maxsize=32)
def _states(n_vars):
    # row x = binary digits of x, column i = variable i+1
    grid = np.arange(2**n_vars)[:, None] >> np.arange(n_vars)
    return (grid & 1).astype(float)


@lru_cache(maxsize=64)
def feature_matrix(index):
    """(2^n, m) matrix of sufficient statistics prod_{i in A} x_i."""
    states = _states(index.n_vars)
    cols = [states[:, [i - 1 for i in A]].prod(axis=1) for A in index.subsets]
    return np.column_stack(cols)


def _check_theta(index, theta):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(index),):
        raise DimensionMismatch(
            f"theta shape {theta.shape} does not match index size {len(index)}"
        )
    if not np.isfinite(theta).all():
        raise NonFiniteValue("theta must be finite")
    return theta


def _frozen(array):
    array.flags.writeable = False
    return array


class _Evaluation:
    """The log-linear quantities at one theta, from one pass over the states.

    The energies u = F theta and their log-sum-exp are computed at once;
    everything else on its first read, from what is already there, and
    kept; G is checked once, where L is made.  Arrays are read-only, so a
    caller that writes into one gets an error, not a corrupted memo.
    """

    # a finite theta near the float range can overflow the energies; the
    # infinite or NaN entries reach the metric's factor as NonFiniteValue
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, index, theta):
        self.F = feature_matrix(index)
        self.u = _frozen(self.F @ theta)
        self.lse = logsumexp(self.u)

    # an overflowed energy and log-sum-exp meet as inf - inf
    @lazy
    @np.errstate(invalid="ignore")
    def log_p(self):
        return _frozen(self.u - self.lse)

    @lazy
    def p(self):
        return _frozen(np.exp(self.log_p))

    @lazy
    def eta(self):
        return _frozen(self.p @ self.F)

    @lazy
    def C(self):
        return _frozen(self.F - self.eta)

    @lazy
    def G(self):
        return _frozen(weighted_gram(self.C, self.p))

    @lazy
    def L(self):
        return _frozen(spd_factor(self.G))

    def solve(self, b):
        """G^{-1} b with the pass's one checked factor of G."""
        return cho_solve(self.L, b)

    def cumulant(self, a):
        """T a, sum_k T_ijk a_k with T the third central moment."""
        C = self.C
        return weighted_gram(C, self.p * (C @ a))

    def connection(self, alpha, a):
        """The alpha-connection applied to a: (1 - alpha)/2 times T raised
        by G, in O(2^n m^2) without building T, and exactly zero when its
        coefficient is 0 (the flat connection)."""
        coef = 0.5 * (1.0 - alpha)
        if coef == 0.0:
            return np.zeros_like(self.G)
        return coef * self.solve(self.cumulant(a)).T


def evaluate(index, theta):
    """The pass over the states at theta, memoized over the last few points.

    Its attributes are the log-partition ``lse``, the log-probabilities
    ``log_p``, the probabilities ``p``, the moments ``eta``, the centred
    statistics ``C``, the metric ``G`` and its lower Cholesky factor
    ``L``; ``solve(b)``, ``cumulant(a)`` and ``connection(alpha, a)``
    give G^{-1} b, T a and the alpha-connection applied to a.  A cached
    point answers from what it already holds.
    """
    theta = _check_theta(index, theta)
    key = (index, theta.tobytes())
    evaluation = _memo.get(key)
    if evaluation is None:
        evaluation = _memo[key] = _Evaluation(index, theta)
        while len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
    return evaluation


def probabilities(index, theta):
    return evaluate(index, theta).p


def negative_entropy(probs):
    """sum p log p with the 0 log 0 = 0 convention."""
    probs = np.asarray(probs, dtype=float)
    mask = probs > 0
    return float((probs[mask] * np.log(probs[mask])).sum())


def moments(index, theta, query=None):
    """Expectations of the query index's sufficient statistics.

    ``query`` defaults to the model's own index, giving the dual
    (moment) coordinates of theta.
    """
    evaluation = evaluate(index, theta)
    if query is None:
        return evaluation.eta
    F = feature_matrix(query)
    if F.shape[0] != evaluation.p.shape[0]:
        raise DimensionMismatch("query index is over a different variable count")
    return evaluation.p @ F


def fisher_metric(index, theta):
    """Covariance of the sufficient statistics at theta."""
    return evaluate(index, theta).G


def weighted_gram(C, w):
    """C^T diag(w) C.  With C the centred statistics, w = p gives the
    Fisher metric and w = p * (C a) the third central moment contracted
    with a, sum_k T_ijk a_k, without building T."""
    return (C * w[:, None]).T @ C


def third_central_moment(index, theta):
    """Symmetric tensor E[(F_A - eta_A)(F_B - eta_B)(F_C - eta_C)]."""
    evaluation = evaluate(index, theta)
    C = evaluation.C
    return np.einsum("x,xa,xb,xc->abc", evaluation.p, C, C, C)


def christoffel_first_kind(index, theta, alpha):
    """First-kind alpha-connection symbols: (1 - alpha)/2 times the
    third central moment of the sufficient statistics."""
    return 0.5 * (1.0 - alpha) * third_central_moment(index, theta)


def moment_to_natural(index, eta, theta0=None):
    """Invert the moment map by damped Newton on the log partition.

    Returns theta or raises MomentInfeasible: when the residual cannot
    be driven below 1e-12 within the iteration budget, which covers
    moment vectors outside the marginal polytope, as soon as a Newton
    step is not finite or the damped iteration stops moving theta, and
    as soon as an accepted iterate gives some state probability 0.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (len(index),):
        raise DimensionMismatch(
            f"eta shape {eta.shape} does not match index size {len(index)}"
        )
    theta = np.zeros(len(index)) if theta0 is None else np.array(theta0, dtype=float)
    # the potential psi(theta) - theta . eta damps the steps; the pass
    # that gives it at an accepted candidate gives the next iteration's
    # moments, metric and factor
    at = evaluate(index, theta)
    value = float(at.lse) - float(theta @ eta)
    for _ in range(_INVERSION_MAX_ITERS):
        residual = at.eta - eta
        if abs(residual).max() < _INVERSION_TOL:
            return theta
        try:
            # a step that is not finite raises: every candidate
            # theta + t step would be non-finite too
            step = at.solve(-residual)
        except DualNewtonError as exc:
            raise MomentInfeasible(f"inner Newton solve failed: {exc}") from exc
        t = 1.0
        for _ in range(60):
            candidate = theta + t * step
            try:
                cand = evaluate(index, candidate)
            except NonFiniteValue:
                # theta + t step overflowed: halve as below
                cand_value = math.inf
            else:
                cand_value = float(cand.lse) - float(candidate @ eta)
            if math.isfinite(cand_value) and cand_value <= value:
                if (candidate == theta).all():
                    # a fixed point: every later iteration repeats this
                    # one, so the budget would end in the same exception
                    raise MomentInfeasible("damped Newton reached a fixed point")
                theta, value, at = candidate, cand_value, cand
                break
            t *= 0.5
        else:
            raise MomentInfeasible("damped Newton made no progress")
        if not at.p.all():
            # a state probability underflowed: theta has left for the
            # boundary of the polytope, where the metric is singular
            raise MomentInfeasible(
                f"a state probability is 0 at max|theta| = {abs(theta).max():.6g}"
            )
    raise MomentInfeasible(
        f"no natural parameter reproduces the moments within {_INVERSION_MAX_ITERS} iterations"
    )


def dual_structure(index, alpha):
    # ``evaluate`` is looked up at each call, so a rebinding of it is seen
    at = lambda theta: evaluate(index, theta)
    return DualStructure(evaluate=at, alpha=alpha, check=partial(_check_theta, index))
