"""Mixture of K product-Beta densities on the open unit square.

The mixture weights are fixed; the optimization coordinates are the 2K
shape parameters xi = (a_1, b_1, ..., a_K, b_K), all positive.  The
Fisher metric and alpha-connection symbols have no closed form here, so
expectations over the square are taken with a tensor-product
Gauss-Legendre rule.  Per-component second score derivatives are
constant in x (each component is an exponential family in its shapes),
which keeps the integrand assembly analytic.

One score pass serves a set of N points (the data or the quadrature
nodes).  Its per-component arrays, the responsibilities and the raw
component scores, are stored component-major as (K, N), so each
elementwise op runs over K contiguous rows of length N.  The pass works
in place on those rows: the component log-densities are summed into
one (K, N) buffer that then becomes the responsibilities, and
``linalg.logsumexp`` reduces it down its columns row by row, every
operation in the order of the plain expression.  The scores themselves
stay (N, 2K), filled through transposed views of their even and odd
columns: the sum over the data and the quadrature contractions take
their summation order from that layout, and another order would change
the last bits of every result.

The symbols are assembled node by node.  The second log-derivatives
start from -s s^T, every entry written as 0 - s_i s_j: that is the
entry of the plain "zeros, then subtract" expression, +0.0 where the
product is +0.0.  Each component's 2 x 2 block is then written as its
term minus s_i s_j, never as the sum of the negated product and the
term: where an underflowed responsibility makes the term -0.0 and
s_i s_j is +0.0, only the difference keeps the sign.  The first-kind
symbols contract the integrand's (N, d^2) view with s.  The view is the
C-order integrand itself, so the nodes stay the outer loop and each
output entry still adds one product per node in node order, the bits of
the (N, d, d) contraction; the inner loop runs d^2 entries long instead
of d, which makes the contraction about three times faster at 64^2
nodes and six coordinates.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatch, DomainViolation, QuadratureUnderflow
from ..geometry import DualStructure, lazy, raise_index
from ..linalg import cho_solve, load_compiled, logsumexp, spd_factor
from ..linalg import solve_spd  # noqa: F401 (perfbench's tracer rebinds it)

_LOG_TINY = -708.0  # below this, exp underflows to zero in float64


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating over the open interval (0, 1)."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise DimensionMismatch("nodes and weights must be equal-length vectors")
        # each comparison below is written so that NaN fails it
        if nodes.size == 0:
            raise ValueError("a rule needs at least one node")
        if not ((0 < nodes) & (nodes < 1)).all():
            raise ValueError("nodes must lie strictly inside (0, 1)")
        if not ((0 < weights) & (weights < np.inf)).all():
            raise ValueError("weights must be positive and finite")

    @classmethod
    def gauss_legendre(cls, n_nodes=64):
        """Tensor-factor Gauss-Legendre rule on (0, 1).

        The raw rule is pushed through the quintic smoothstep
        t -> t^3 (10 - 15 t + 6 t^2), which clusters nodes at both
        endpoints.  Score integrands carry log x and log(1-x) factors
        whose endpoint singularities would otherwise dominate the
        error; the reparameterized rule drives them below 1e-7 at 64
        nodes while keeping every node strictly interior.
        """
        t, w = np.polynomial.legendre.leggauss(int(n_nodes))
        t = 0.5 * (t + 1.0)
        w = 0.5 * w
        x = t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
        return cls(tuple(x), tuple(w * 30.0 * t * t * (1.0 - t) ** 2))

    def grid(self):
        """Tensor-product nodes (n^2, 2) and weights (n^2,) on the square."""
        x = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
        return points, np.outer(w, w).ravel()


def log_sums(x):
    """Row sums (log x_1 + log x_2, log(1 - x_1) + log(1 - x_2)) of points
    in the unit square: all a product-Beta log-density reads of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.log(x).sum(axis=1), np.log1p(-x).sum(axis=1)


def _check_shapes(xi, n_components):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2 * n_components,):
        raise DimensionMismatch(
            f"expected {2 * n_components} shape parameters, got shape {xi.shape}"
        )
    if not (np.isfinite(xi).all() and (xi > 0).all()):
        raise DomainViolation("all shape parameters must be positive and finite")
    return xi


class _NodePass:
    """The geometry at xi from one score pass over the quadrature nodes:
    density weights ``wp``, scores ``s``, responsibilities and raw
    component scores.  ``G``, its factor ``L`` (G's one check, which
    every ``solve(b)`` against G reads), the second log-derivatives and
    each alpha's symbols are built on first read, so a metric-only caller
    builds no second log-derivatives; at alpha = 0 the primal and dual
    are one tensor, as -0.0 == 0.0."""

    def __init__(self, model, xi, wp, s, resp, u):
        self.model, self.xi = model, xi
        self.wp, self.s, self.resp, self.u = wp, s, resp, u
        self._symbols = {}

    # Both contractions fold the density weights into one operand first: a
    # two-operand einsum takes about half the time of the three-operand
    # form and, for two or more coordinates, gives the same bits.  The
    # symbols' contraction reads the integrand as (N, d^2): node order,
    # and so the bits, are those of the (N, d, d) form (module notes).

    @lazy
    def G(self):
        """Fisher metric: the density-weighted mean of s s^T over the nodes."""
        s = self.s
        return np.einsum("ni,nj->ij", s * self.wp[:, None], s)

    @lazy
    def L(self):
        return spd_factor(self.G)

    def solve(self, b):
        return cho_solve(self.L, b)

    @lazy
    def second(self):
        """(n^2, 2K, 2K) second log-derivatives at the nodes:
        sum_k r_k (u_k u_k^T + C_k) - s s^T.  Every entry starts as
        0 - s_i s_j, then each component's 2 x 2 block, where u_k lives,
        is written as its term minus s_i s_j."""
        model, s, resp, (u_a, u_b) = self.model, self.s, self.resp, self.u
        curv = model._component_curvature(self.xi)
        second = np.einsum("ni,nj->nij", s, s)
        np.subtract(0.0, second, out=second)
        for k in range(model.n_components):
            i = 2 * k
            ua, ub = u_a[k], u_b[k]
            sa, sb = s[:, i], s[:, i + 1]
            r = resp[k]
            second[:, i, i] = r * (ua * ua + curv[k, 0, 0]) - sa * sa
            second[:, i + 1, i + 1] = r * (ub * ub + curv[k, 1, 1]) - sb * sb
            cross = r * (ua * ub + curv[k, 0, 1]) - sa * sb
            second[:, i, i + 1] = cross
            second[:, i + 1, i] = cross
        return second

    def first_kind(self, alpha):
        """First-kind alpha-connection symbols
        E[(d_ij l + (1 - alpha)/2 s_i s_j) s_k], indexed (i, j, k)."""
        s = self.s
        n, d = s.shape
        integrand = np.einsum("ni,nj->nij", 0.5 * (1.0 - alpha) * s, s)
        integrand += self.second
        integrand *= self.wp[:, None, None]
        symbols = np.einsum("nm,nk->km", integrand.reshape(n, d * d), s)
        return symbols.reshape(d, d, d).transpose(1, 2, 0)

    def connection(self, alpha, a):
        if alpha not in self._symbols:
            self._symbols[alpha] = raise_index(self.first_kind(alpha), self.L)
        return np.einsum("k,ikj->ij", a, self._symbols[alpha])


@dataclass
class BetaMixtureModel:
    """Fixed-weight Beta mixture with generating shapes for sampling."""

    weights: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    quadrature: QuadratureRule = field(
        default_factory=lambda: QuadratureRule.gauss_legendre(64)
    )

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        k = self.weights.size
        if self.alphas.shape != (k,) or self.betas.shape != (k,):
            raise DimensionMismatch("weights and shape vectors disagree on K")
        # each comparison below is written so that NaN fails it
        w = self.weights
        if not (((0 < w) & (w < np.inf)).all() and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError(f"weights must be positive and sum to one, got {w}")
        for name in ("alphas", "betas"):
            shapes = getattr(self, name)
            if not ((0 < shapes) & (shapes < np.inf)).all():
                raise ValueError(f"{name} must be positive and finite, got {shapes}")
        # loaded by the first mixture, not with the package: only the
        # mixture reads these.  psi is scipy.special.digamma; trigamma is
        # _zeta(2.0, x), the bits of polygamma(1, x), whose other factors are 1.0
        special = load_compiled("scipy.special._special_ufuncs")
        self._betaln, self._digamma = special.betaln, special.psi
        self._zeta = special._zeta

    @property
    def n_components(self):
        return self.weights.size

    @property
    def dim(self):
        return 2 * self.n_components

    def generating_point(self):
        return np.column_stack([self.alphas, self.betas]).ravel()

    # ---- pointwise quantities -------------------------------------------

    # shapes at the ends of the float range overflow these products or
    # meet inf - inf; the non-finite results reach the callers'
    # NonFiniteValue and QuadratureUnderflow, not a warning
    @np.errstate(over="ignore", invalid="ignore")
    def scores(self, xi, sums):
        """Mixture log-density gradient rows, one per point, shape (N, 2K),
        at the points x whose ``log_sums(x)`` is ``sums``: callers with
        fixed points (the data of an objective, the quadrature grid)
        compute those once.

        Also returns the responsibilities and the per-component raw
        score pairs, each (K, N), and the mixture log-density (N,), which
        the objective and the geometry assembly reuse.
        """
        xi = _check_shapes(xi, self.n_components)
        a = xi[0::2]
        b = xi[1::2]
        lx, l1x = sums
        # log w_k + log p_k(x), one row per component, summed left to
        # right in place; u_b holds the l1x term until its own turn
        comp = (a - 1.0)[:, None] * lx
        u_b = np.multiply((b - 1.0)[:, None], l1x)
        comp += u_b
        comp -= 2.0 * self._betaln(a, b)[:, None]
        comp += np.log(self.weights)[:, None]
        logp = logsumexp(comp, axis=0)
        comp -= logp
        resp = np.exp(comp, out=comp)
        dig_ab = 2.0 * self._digamma(a + b)[:, None]
        u_a = lx - 2.0 * self._digamma(a)[:, None]
        u_a += dig_ab
        np.subtract(l1x, 2.0 * self._digamma(b)[:, None], out=u_b)
        u_b += dig_ab
        s = np.empty((lx.shape[0], self.dim))
        np.multiply(resp, u_a, out=s[:, 0::2].T)
        np.multiply(resp, u_b, out=s[:, 1::2].T)
        return s, resp, (u_a, u_b), logp

    def _component_curvature(self, xi):
        """Constant per-component Hessian blocks of the component
        log-densities: trigamma combinations only.  ``xi`` has passed
        the node pass's check."""
        xi = np.asarray(xi, dtype=float)
        a = xi[0::2]
        b = xi[1::2]
        tri_ab = self._zeta(2.0, a + b)
        blocks = np.zeros((self.n_components, 2, 2))
        blocks[:, 0, 0] = -2.0 * self._zeta(2.0, a) + 2.0 * tri_ab
        blocks[:, 1, 1] = -2.0 * self._zeta(2.0, b) + 2.0 * tri_ab
        blocks[:, 0, 1] = blocks[:, 1, 0] = 2.0 * tri_ab
        return blocks

    # ---- quadrature geometry --------------------------------------------

    @lazy
    def _grid(self):
        """The quadrature weights on the square and the ``log_sums`` of
        its nodes, computed on first use; the rule is fixed from then on."""
        points, w = self.quadrature.grid()
        return w, log_sums(points)

    def nodes(self, xi):
        """The geometry at xi, from one score pass over the quadrature nodes."""
        w, sums = self._grid
        s, resp, u, logp = self.scores(xi, sums)
        if logp.max() < _LOG_TINY:
            raise QuadratureUnderflow("mixture density underflowed at every node")
        return _NodePass(self, xi, w * np.exp(logp), s, resp, u)

    def fisher_metric(self, xi):
        return self.nodes(xi).G

    def dual_structure(self, alpha):
        return DualStructure(evaluate=self.nodes, alpha=alpha)

    # ---- sampling --------------------------------------------------------

    def sample(self, n_samples, seed):
        """Draw n_samples points, two Beta variates per point, each Beta
        realized as a gamma ratio.  Fully determined by the seed."""
        rng = np.random.default_rng(seed)
        comps = rng.choice(self.n_components, size=n_samples, p=self.weights)
        a = self.alphas[comps]
        b = self.betas[comps]
        cols = []
        for _ in range(2):
            g1 = rng.gamma(shape=a)
            g2 = rng.gamma(shape=b)
            cols.append(g1 / (g1 + g2))
        x = np.column_stack(cols)
        if (x <= 0).any() or (x >= 1).any():
            raise DomainViolation("degenerate Beta draw on the boundary")
        return x
