"""Finite-difference oracles and tiny fixtures shared by the test modules."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dualnewton.errors import DimensionMismatch, DomainViolation
from dualnewton.geometry import DualStructure, lazy
from dualnewton.linalg import EPS, cho_solve, spd_factor

SRC = Path(__file__).resolve().parents[1] / "src"


def _no_jacobian(x):
    raise AssertionError("this test objective was built without a Jacobian")


@dataclass(frozen=True)
class Objective:
    """A test objective from callables over coordinate vectors.

    ``grad_field_jacobian`` is the Jacobian of the gradient field
    a = G^{-1} grad f under the structure the test runs on; only Newton
    reads it, so a test of another method may leave it out.
    """

    dim: int
    value: Callable
    eucl_grad: Callable
    grad_field_jacobian: Callable = _no_jacobian

    def value_and_grad(self, x):
        return self.value(x), self.eucl_grad(x)


def point_check(n, inside=None):
    """A point check for R^n, or for its part where the predicate
    ``inside`` holds: it refuses a vector of another length, a
    non-finite one, or one outside, as a model's point check does."""

    def check(xi):
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (n,):
            raise DimensionMismatch(f"expected a point of length {n}, got {xi.shape}")
        if not np.isfinite(xi).all() or (inside is not None and not inside(xi)):
            raise DomainViolation(f"{xi} is outside the domain")
        return xi

    return check


@dataclass
class Evaluation:
    """A model's evaluation at a point from a metric and a connection map,
    with the checked factor of G taken on first read and every solve
    against G made with it."""

    G: np.ndarray
    connection: Callable

    @lazy
    def L(self):
        return spd_factor(self.G)

    def solve(self, b):
        return cho_solve(self.L, b)


def euclidean_structure(n, inside=None):
    """Identity metric with flat connections on R^n (or a guarded part),
    whose evaluation starts with the point check, as a model's does."""
    check = point_check(n, inside)

    def evaluate(xi):
        check(xi)
        return Evaluation(np.eye(n), lambda alpha, a: np.zeros((n, n)))

    return DualStructure(evaluate=evaluate, alpha=0.0)


def count_calls(monkeypatch, calls, name, *modules):
    """Count in ``calls[name]`` the calls of function ``name`` made through
    each of ``modules``, i.e. by the code that resolves the name there."""
    calls.setdefault(name, 0)
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls[name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def fd_hessian(f, x):
    """Central second-difference Hessian with eps**(1/4) steps."""
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.empty((m, m))
    hs = [EPS**0.25 * max(1.0, abs(v)) for v in x]
    f0 = f(x)
    for i in range(m):
        for j in range(i, m):
            if i == j:
                p, q = x.copy(), x.copy()
                p[i] += hs[i]
                q[i] -= hs[i]
                H[i, i] = (f(p) - 2.0 * f0 + f(q)) / hs[i] ** 2
            else:
                pp, pm, mp, mm = x.copy(), x.copy(), x.copy(), x.copy()
                pp[[i, j]] += [hs[i], hs[j]]
                pm[[i, j]] += [hs[i], -hs[j]]
                mp[[i, j]] += [-hs[i], hs[j]]
                mm[[i, j]] += [-hs[i], -hs[j]]
                H[i, j] = H[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (
                    4.0 * hs[i] * hs[j]
                )
    return H


def fd_gradient(f, x):
    """Central first differences with eps**(1/3) steps."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        h = EPS ** (1.0 / 3.0) * max(1.0, abs(x[i]))
        p, q = x.copy(), x.copy()
        p[i] += h
        q[i] -= h
        g[i] = (f(p) - f(q)) / (p[i] - q[i])
    return g


def run_python(args, cwd, **env):
    """Run a fresh interpreter on ``args`` in ``cwd`` against the package
    in src, with ``env`` added to its environment, capturing its text
    output."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env),
    )
