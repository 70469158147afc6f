"""Drivers for the three benchmark studies and the failure probe.

Each experiment builds its problem deterministically from a seed, runs
the second-order method for every requested connection parameter plus
the first-order baselines, and writes one trace CSV and one summary
JSON per run, a config echo, and a self-contained plot script.  Reruns
with the same config produce byte-identical CSVs except for timings.
"""

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DualNewtonError, InsufficientIterations, PointError
from .models import gaussian, loglinear
from .models.betamix import BetaMixtureModel, QuadratureRule
from .models.loglinear import SubsetIndex
from .objectives import AlphaDivergenceObjective, BetaMixtureNLL, KLProjectionObjective
from .optimizers import (
    CONVERGED,
    FAILED,
    StopRule,
    adam_run,
    convergence_order,
    dual_newton_run,
    mirror_descent_run,
    natural_gradient_run,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OPTIMIZER = 3
EXIT_CONFIG = 4

MAX_TARGET_VARS = 12

# the optimizers a run can name, in the order the command line lists them
METHODS = ("newton", "natgrad", "mirror", "adam")

# fixed true mixture of the density-fitting study
MIXTURE_WEIGHTS = (0.35, 0.4, 0.25)
MIXTURE_ALPHAS = (2.0, 3.0, 5.0)
MIXTURE_BETAS = (5.0, 2.0, 3.5)
MIXTURE_INIT = (2.0, 4.0, 3.0, 2.0, 4.0, 3.0)

TIMING_NOTE = (
    "time.perf_counter around optimizer iterations only; problem "
    "construction, polishing, and artifact writing are excluded"
)


class ConfigError(ValueError):
    """A run configuration that cannot be executed."""


@dataclass(frozen=True)
class TargetSpec:
    """A log-linear target over the full subset index.

    Holds the exact natural parameters, so any moment the experiments
    need (in particular the Boltzmann-index moments eta_hat) can be
    computed without sampling noise.
    """

    n_vars: int
    theta: tuple
    base_scale: float
    seed: int

    def __post_init__(self):
        full = SubsetIndex.full(self.n_vars)
        if len(self.theta) != len(full.subsets):
            raise ValueError(
                f"theta has {len(self.theta)} entries, full index needs "
                f"{len(full.subsets)}"
            )

    @property
    def index(self):
        return SubsetIndex.full(self.n_vars)

    def moments_for(self, query_index):
        """Exact moments of the target over another subset index."""
        return loglinear.moments(
            self.index, np.array(self.theta), query=query_index
        )

    def to_dict(self):
        boltzmann = SubsetIndex.boltzmann(self.n_vars)
        return {
            "n_vars": self.n_vars,
            "base_scale": self.base_scale,
            "seed": self.seed,
            "theta": dict(zip(self.index.keys(), self.theta)),
            "eta_boltzmann": dict(
                zip(boltzmann.keys(), self.moments_for(boltzmann).tolist())
            ),
        }


def gen_target(n, base_scale=1.0, seed=0):
    """Draw a full-index target with theta^A ~ U[-base_scale/|A|, base_scale/|A|]."""
    if not 1 <= n <= MAX_TARGET_VARS:
        raise ConfigError(
            f"target generation enumerates the full index; n must be in "
            f"[1, {MAX_TARGET_VARS}], got {n}"
        )
    if not (_fits(base_scale, float) and base_scale >= 0):
        raise ConfigError(f"base_scale must be finite and >= 0, got {base_scale!r}")
    require_at_least(seed=seed)
    full = SubsetIndex.full(n)
    rng = np.random.default_rng(seed)
    radii = base_scale / np.array([len(s) for s in full.subsets], dtype=float)
    theta = rng.uniform(-radii, radii)
    return TargetSpec(
        n_vars=n, theta=tuple(float(t) for t in theta),
        base_scale=float(base_scale), seed=int(seed),
    )


def gen_dataset(n_samples=5000, seed=0, quad_nodes=64):
    """Sample the fixed true Beta mixture; returns (model, data)."""
    require_at_least(seed=seed, n_samples=n_samples, quad_nodes=quad_nodes)
    model = BetaMixtureModel(
        weights=np.array(MIXTURE_WEIGHTS),
        alphas=np.array(MIXTURE_ALPHAS),
        betas=np.array(MIXTURE_BETAS),
        quadrature=QuadratureRule.gauss_legendre(quad_nodes),
    )
    return model, model.sample(n_samples, seed=seed)


def dataset_payload(data, seed, n_samples):
    """JSON payload recording the sample and its generating mixture."""
    return {
        "weights": list(MIXTURE_WEIGHTS),
        "alphas": list(MIXTURE_ALPHAS),
        "betas": list(MIXTURE_BETAS),
        "seed": int(seed),
        "n_samples": int(n_samples),
        "points": np.asarray(data).tolist(),
    }


_EXPERIMENT_DEFAULTS = {
    "exp1": dict(
        alphas=(-1.0, -0.5, 0.0, 0.5, 1.0),
        methods=METHODS,
        lambda1=0.5,
        lambda2=0.5,
        n=4,
        grad_tol=1e-6,
    ),
    "exp2": dict(
        alphas=(-0.4, -0.2, 0.0, 0.2, 0.4),
        methods=("newton", "natgrad", "adam"),
        grad_tol=1e-6,
    ),
    "exp3": dict(
        alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
        methods=("newton", "natgrad", "adam"),
        grad_tol=1e-8,
    ),
}

# the experiment ids, in the order the command line lists them
EXPERIMENTS = tuple(_EXPERIMENT_DEFAULTS)


def _fits(value, kind):
    """True when value can fill a RunConfig field of type kind: a finite
    number (not a bool) for int and float, a list for tuple."""
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool)
        return ok and abs(value) < math.inf
    return isinstance(value, (tuple, list) if kind is tuple else kind)


# least values of the integer settings that the generators read as well
_LEAST = {"seed": 0, "n_samples": 1, "quad_nodes": 2}


def require_at_least(**settings):
    """Raise ConfigError unless every named setting is an integer no
    smaller than its bound in ``_LEAST``."""
    for name, value in settings.items():
        if not (_fits(value, int) and value >= _LEAST[name]):
            raise ConfigError(f"{name} must be an integer >= {_LEAST[name]}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment run."""

    experiment: str
    alphas: tuple = ()
    methods: tuple = ()
    lambda1: float = 0.0
    lambda2: float = 0.0
    n: int = 4
    seed: int = 0
    grad_tol: float = 1e-6
    max_iters: int = 10000
    adam_lr: float = 0.01
    mu0: float = 0.5
    sigma0: float = 2.0
    base_scale: float = 1.0
    n_samples: int = 5000
    quad_nodes: int = 64
    out: str = ""
    expect_failure: bool = False

    @classmethod
    def defaults(cls, experiment, **overrides):
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; expected one of {list(EXPERIMENTS)}"
            )
        values = dict(_EXPERIMENT_DEFAULTS[experiment])
        values.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(experiment=experiment, **values)
        cfg.validate()
        return cfg

    def validate(self):
        # each comparison below is written so that NaN fails it
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise ConfigError(f"unusable {f.type.__name__} {f.name}={value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.alphas:
            raise ConfigError("at least one alpha is required")
        for a in self.alphas:
            if not (_fits(a, float) and -1.0 <= a <= 1.0):
                raise ConfigError(f"alpha must lie in [-1, 1], got {a!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if not isinstance(m, str) or m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if self.experiment != "exp1" and "mirror" in self.methods:
            raise ConfigError("mirror descent needs the log-linear geometry")
        labels = [_alpha_label(method, alpha) for method, alpha in _runs(self)]
        shared = sorted({label for label in labels if labels.count(label) > 1})
        if shared:
            raise ConfigError(f"runs would overwrite each other's artifacts: {shared}")
        if not self.grad_tol > 0:
            raise ConfigError(f"grad_tol must be positive, got {self.grad_tol}")
        if not self.max_iters >= 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise ConfigError("regularizer weights must be nonnegative")
        if self.experiment == "exp1" and not 1 <= self.n <= MAX_TARGET_VARS:
            raise ConfigError(f"n must be in [1, {MAX_TARGET_VARS}], got {self.n}")
        if not self.adam_lr > 0:
            raise ConfigError(f"adam_lr must be positive, got {self.adam_lr}")
        if not self.sigma0 > 0:
            raise ConfigError(f"sigma0 must be positive, got {self.sigma0}")
        require_at_least(
            seed=self.seed, n_samples=self.n_samples, quad_nodes=self.quad_nodes
        )


@dataclass
class RunResult:
    """One optimizer run with everything the artifacts need."""

    method: str
    alpha: object
    trace: object
    label: str

    @property
    def status(self):
        return self.trace.status

    @property
    def iterations(self):
        return self.trace.n_iterations


def _runs(cfg):
    """(method, alpha) of every run, in order: Newton once per alpha, and
    each baseline once with alpha None, as it does not depend on the
    connection parameter."""
    for method in cfg.methods:
        for alpha in cfg.alphas if method == "newton" else (None,):
            yield method, alpha


def _alpha_label(method, alpha):
    if alpha is None:
        return method
    return f"{method}_a{alpha:+.2f}"


def _init_rng(cfg):
    # separate stream from target generation so gen_target(seed) alone
    # reproduces the target regardless of how the runner consumes draws
    return np.random.default_rng([cfg.seed, 1])


class _Problem:
    """Shared per-experiment state: objective, structures, init, polish."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.extra_artifacts = {}
        # a point error here (exp1's infeasible target moments, an exp2
        # start where the divergence is undefined) is a bad configuration
        try:
            getattr(self, "_build_" + cfg.experiment)()
        except PointError as exc:
            raise ConfigError(f"cannot build the {cfg.experiment} problem: {exc}") from exc

    def _build_exp1(self):
        cfg = self.cfg
        self.target = gen_target(cfg.n, cfg.base_scale, cfg.seed)
        index = SubsetIndex.boltzmann(cfg.n)
        eta_hat = self.target.moments_for(index)
        self.objective = KLProjectionObjective(index, eta_hat, cfg.lambda1, cfg.lambda2)
        self.x0 = _init_rng(cfg).uniform(-0.25, 0.2, size=len(index.subsets))
        self.structure_for = lambda alpha: loglinear.dual_structure(index, alpha)
        self.extra_artifacts["target.json"] = self.target.to_dict()

    def _build_exp2(self):
        cfg = self.cfg
        self.objective = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0)
        self.x0 = np.array([cfg.mu0, cfg.sigma0])
        # raises where the divergence cannot be evaluated at the start
        self.objective.value(self.x0)
        self.structure_for = gaussian.dual_structure

    def _build_exp3(self):
        cfg = self.cfg
        model, data = gen_dataset(cfg.n_samples, cfg.seed, cfg.quad_nodes)
        self.objective = BetaMixtureNLL(model, data)
        self.x0 = np.array(MIXTURE_INIT)
        self.structure_for = model.dual_structure
        self.extra_artifacts["dataset.json"] = dataset_payload(
            data, cfg.seed, cfg.n_samples
        )

    def run(self, method, alpha):
        stop = StopRule(grad_tol=self.cfg.grad_tol, max_iters=self.cfg.max_iters)
        structure = self.structure_for(alpha if alpha is not None else 0.0)
        if method == "newton":
            trace = dual_newton_run(structure, self.objective, self.x0, stop)
        elif method == "natgrad":
            trace = natural_gradient_run(structure, self.objective, self.x0, stop)
        elif method == "mirror":
            trace = mirror_descent_run(
                self.objective.index, self.objective, self.x0, stop
            )
        else:  # adam: validate admits no other method
            trace = adam_run(
                structure, self.objective, self.x0, stop, lr=self.cfg.adam_lr
            )
        return RunResult(method, alpha, trace, _alpha_label(method, alpha))

    def reference_point(self, results):
        """Best estimate of the optimum, for order measurement.

        Polishes the most converged iterate with unit Newton steps at a
        tolerance well past the run tolerance; falls back to that
        iterate when polishing cannot improve it.
        """
        best = None
        best_l2 = np.inf
        for res in results:
            if res.trace.iterates and res.trace.grad_l2:
                l2 = res.trace.grad_l2[-1]
                if l2 < best_l2:
                    best, best_l2 = res.trace.iterates[-1], l2
        if best is None:
            return None
        tol = min(self.cfg.grad_tol * 1e-4, 1e-11)
        # from the most converged iterate, unit Newton steps reach tol
        # within a step or two, or stall at the rounding floor of the
        # gradient (the Beta mixture's quadrature), where further steps
        # only delay the fallback to ``best``
        try:
            polish = dual_newton_run(
                self.structure_for(0.0),
                self.objective,
                best,
                StopRule(grad_tol=tol, max_iters=3),
            )
        except DualNewtonError:
            return best
        if polish.status == CONVERGED:
            return polish.iterates[-1]
        return best


def _summary(result, reference):
    order = None
    if reference is not None:
        try:
            order = convergence_order(result.trace, reference)
        except InsufficientIterations:
            order = None
    payload = {"method": result.method, "alpha": result.alpha}
    payload.update(result.trace.summary())
    payload["convergence_order"] = order
    payload["timing"] = TIMING_NOTE
    return payload


_PLOT_SCRIPT = '''"""Render gradient-norm convergence from the trace CSVs next to this file."""

import csv
import glob
import os

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
fig, ax = plt.subplots(figsize=(7, 5))
for path in sorted(glob.glob(os.path.join(here, "*.csv"))):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        continue
    iters = [int(r["iter"]) for r in rows]
    grads = [float(r["grad_l2"]) for r in rows]
    ax.semilogy(iters, grads, marker=".", label=os.path.basename(path)[:-4])
ax.set_xlabel("iteration")
ax.set_ylabel("Riemannian gradient norm")
ax.grid(True, which="both", alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig(os.path.join(here, "convergence.png"), dpi=150)
print("wrote", os.path.join(here, "convergence.png"))
'''


def run_experiment(cfg, out_dir=None):
    """Execute every method/alpha variant and write artifacts.

    Returns ``(code, results)``: the exit code, 0 on success and 3 when
    any run ends in DomainFailure or SingularHessian and failures were
    not expected, and the per-run results in the order they ran.
    """
    cfg.validate()
    problem = _Problem(cfg)

    results = [problem.run(method, alpha) for method, alpha in _runs(cfg)]

    reference = problem.reference_point(results)
    failed = [r for r in results if r.status in FAILED]

    out = out_dir if out_dir is not None else (cfg.out or None)
    if out is not None:
        _write_artifacts(cfg, problem, results, reference, out)

    if failed and not cfg.expect_failure:
        return EXIT_OPTIMIZER, results
    return EXIT_OK, results


def _write_artifacts(cfg, problem, results, reference, out):
    os.makedirs(out, exist_ok=True)
    echo = asdict(cfg)
    echo["init_point"] = [float(v) for v in problem.x0]
    echo["timing"] = TIMING_NOTE
    with open(os.path.join(out, "run_config.json"), "w") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
    for name, payload in problem.extra_artifacts.items():
        with open(os.path.join(out, name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    for res in results:
        res.trace.write_csv(os.path.join(out, res.label + ".csv"))
        with open(os.path.join(out, res.label + ".summary.json"), "w") as fh:
            json.dump(_summary(res, reference), fh, indent=2, sort_keys=True)
    with open(os.path.join(out, "plot.py"), "w") as fh:
        fh.write(_PLOT_SCRIPT)


def spd_failure_probe():
    """Count descent-certificate failures across random starts.

    Minimizes exp1's regularized projection at n = 3 (lambda1 = 0.3,
    lambda2 = 0.8) from 20 wide random starts for each alpha in
    (0, -1, 1); a failure is any run that either ends with
    SingularHessian/DomainFailure status or records a non-spd step.
    Returns {alpha: {"runs", "failures", "all_spd"}}.
    """
    n_starts = 20
    problem = _Problem(RunConfig.defaults("exp1", n=3, lambda1=0.3, lambda2=0.8))
    report = {}
    for alpha in (0.0, -1.0, 1.0):
        structure = problem.structure_for(alpha)
        failures = 0
        all_spd = True
        for i in range(n_starts):
            x0 = np.random.default_rng(1000 + i).uniform(-1.5, 1.5, size=problem.x0.size)
            trace = dual_newton_run(structure, problem.objective, x0, StopRule())
            non_spd = not all(s.spd for s in trace.steps)
            failures += non_spd or trace.status in FAILED
            all_spd = all_spd and not non_spd
        report[alpha] = {"runs": n_starts, "failures": failures, "all_spd": all_spd}
    return report
