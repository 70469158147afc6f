"""The benchmark's workloads: seed -> the experiment configs one pass runs.

Every pass goes through ``run_experiment(cfg, out_dir=...)``; the program
receives only the configs built here.  Each workload puts most of its time
in one layer and little in another (see WHY).

Problem difficulty varies several-fold between targets and datasets, and
some draws fail, so three workloads draw their experiment seed from a
screened pool (``pools.json``, written by ``screen.py``): seeds on which
every run succeeds and the workload's dominant primitive is called about
as often as on the pool's median seed.  The benchmark seed picks one pool
entry, so runs with different seeds measure different problems of one
size.  ``gaussian_multistart`` instead draws 20 starts per seed by Latin
hypercube sampling and sums over them.
"""

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS_PATH = os.path.join(HERE, "pools.json")

WHY = {
    "boltzmann": (
        "exp1 n=4 headline comparison; ~90% of time in mirror descent's "
        "moment inversion (log_partition), Newton geometry under 1%"
    ),
    "boltzmann_newton8": (
        "exp1 n=8, Newton at alpha 0, 1/2, 1 plus Adam; ~90% in "
        "third_central_moment, no moment inversion outside set-up"
    ),
    "betamix": (
        "exp3 defaults; Adam's metric-only quadrature against Newton's "
        "finite-difference Jacobian in one model layer"
    ),
    "gaussian_multistart": (
        "exp2 from 20 seeded starts; closed-form model, so time is the "
        "optimizer loop and linalg kernels"
    ),
}

# gaussian_multistart: starts per pass and the box they are drawn from,
# inside the region where the alpha-divergence integral converges
N_STARTS = 20
MU0_RANGE = (0.25, 1.25)
SIGMA0_RANGE = (1.5, 3.0)


def candidate_configs(workload, exp_seed):
    """The configs of one pass when the experiment seed is ``exp_seed``."""
    from dualnewton import RunConfig

    if workload == "boltzmann":
        return [RunConfig.defaults("exp1", seed=exp_seed)]
    if workload == "boltzmann_newton8":
        return [
            RunConfig.defaults(
                "exp1",
                n=8,
                alphas=(0.0, 0.5, 1.0),
                methods=("newton", "adam"),
                seed=exp_seed,
            )
        ]
    if workload == "betamix":
        return [RunConfig.defaults("exp3", seed=exp_seed)]
    if workload == "gaussian_multistart":
        # Latin hypercube: one start per row and per column of an
        # N_STARTS x N_STARTS grid over the box, so the pass total varies
        # little between seeds
        rng = np.random.default_rng([exp_seed, 2])
        unit = (np.stack([rng.permutation(N_STARTS), rng.permutation(N_STARTS)])
                + rng.random((2, N_STARTS))) / N_STARTS
        mu0 = MU0_RANGE[0] + unit[0] * (MU0_RANGE[1] - MU0_RANGE[0])
        sigma0 = SIGMA0_RANGE[0] + unit[1] * (SIGMA0_RANGE[1] - SIGMA0_RANGE[0])
        return [
            RunConfig.defaults("exp2", mu0=float(m), sigma0=float(s))
            for m, s in zip(mu0, sigma0)
        ]
    raise KeyError(f"unknown workload {workload!r}")


def load_pools():
    with open(POOLS_PATH) as fh:
        return json.load(fh)


def experiment_seed(workload, seed, pools=None):
    """Benchmark seed -> experiment seed (a pool entry where there is a pool)."""
    pools = load_pools() if pools is None else pools
    pool = pools.get(workload, {}).get("seeds")
    return pool[seed % len(pool)] if pool else seed


def configs(workload, seed, pools=None):
    return candidate_configs(workload, experiment_seed(workload, seed, pools))


def instance_key(cfg):
    """Identifies one run_experiment input in the pinned outcomes."""
    if cfg.experiment == "exp2":
        return f"exp2:mu0={cfg.mu0!r}:sigma0={cfg.sigma0!r}"
    return f"{cfg.experiment}:n={cfg.n}:seed={cfg.seed}"


def build_problem(cfg):
    """Build the workload's problem through the public constructors.

    This is the set-up a user pays before the first iteration: target or
    dataset generation, the objective (which inverts the target moments
    for the log-linear model) and one dual structure per alpha.
    """
    from dualnewton import (
        AlphaDivergenceObjective,
        BetaMixtureNLL,
        KLProjectionObjective,
        gen_dataset,
        gen_target,
    )
    from dualnewton.models import gaussian, loglinear
    from dualnewton.models.loglinear import SubsetIndex

    if cfg.experiment == "exp1":
        target = gen_target(cfg.n, cfg.base_scale, cfg.seed)
        index = SubsetIndex.boltzmann(cfg.n)
        objective = KLProjectionObjective(
            index, target.moments_for(index), cfg.lambda1, cfg.lambda2
        )
        structures = [loglinear.dual_structure(index, a) for a in cfg.alphas]
    elif cfg.experiment == "exp2":
        # the fixed target of the divergence-fitting study
        objective = AlphaDivergenceObjective(2.0, 1.5, 1.3, 0.7, alpha_bar=3.0)
        structures = [gaussian.dual_structure(a) for a in cfg.alphas]
    else:
        model, data = gen_dataset(cfg.n_samples, cfg.seed, cfg.quad_nodes)
        objective = BetaMixtureNLL(model, data)
        structures = [model.dual_structure(a) for a in cfg.alphas]
    return objective, structures


def warm_up(cfg):
    """Run each method of ``cfg`` for two iterations on its problem, so that
    first-call costs (lazy imports, cached feature matrices) fall outside
    the timed passes; a user's first run pays them once per process."""
    from dualnewton import (
        StopRule,
        adam_run,
        dual_newton_run,
        mirror_descent_run,
        natural_gradient_run,
    )
    from dualnewton.experiments import MIXTURE_INIT

    objective, structures = build_problem(cfg)
    x0 = {
        "exp1": np.zeros(objective.dim),
        "exp2": np.array([cfg.mu0, cfg.sigma0]),
        "exp3": np.array(MIXTURE_INIT),
    }[cfg.experiment]
    stop = StopRule(grad_tol=cfg.grad_tol, max_iters=2)
    runs = {
        "newton": lambda: dual_newton_run(structures[0], objective, x0, stop),
        "natgrad": lambda: natural_gradient_run(structures[0], objective, x0, stop),
        "mirror": lambda: mirror_descent_run(objective.index, objective, x0, stop),
        "adam": lambda: adam_run(structures[0], objective, x0, stop),
    }
    for method in cfg.methods:
        runs[method]()

