"""Command line front end.

Subcommands: run (execute an experiment and write artifacts), validate
(structural identity checks), gen-target (draw a log-linear target),
gen-data (sample the Beta-mixture dataset).  Exit codes: 0 success,
2 validation failure, 3 optimizer failure, 4 unusable configuration.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import DualNewtonError
from .experiments import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OPTIMIZER,
    EXIT_VALIDATION,
    EXPERIMENTS,
    METHODS,
    ConfigError,
    RunConfig,
    dataset_payload,
    gen_dataset,
    gen_target,
    run_experiment,
)
from .validation import run_validation


class _Parser(argparse.ArgumentParser):
    # argument errors must surface as the config exit code, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def build_parser():
    parser = _Parser(
        prog="dualnewton",
        description="Second-order optimization on statistical manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one experiment end to end")
    run_p.add_argument("--experiment", choices=EXPERIMENTS)
    run_p.add_argument("--config", help="JSON file with run configuration fields")
    run_p.add_argument(
        "--alpha", action="append", type=float, dest="alphas", metavar="A",
        help="connection parameter; repeat for several values",
    )
    run_p.add_argument(
        "--method", action="append", dest="methods", choices=METHODS,
        help="optimizer to run; repeat for several",
    )
    run_p.add_argument("--lambda1", type=float, help="singleton penalty weight")
    run_p.add_argument("--lambda2", type=float, help="pair penalty weight")
    run_p.add_argument("--n", type=int, help="number of binary variables")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--tol", type=float, dest="grad_tol")
    run_p.add_argument("--max-iters", type=int)
    run_p.add_argument("--mu0", type=float)
    run_p.add_argument("--sigma0", type=float)
    run_p.add_argument("--adam-lr", type=float)
    run_p.add_argument("--base-scale", type=float)
    run_p.add_argument("--n-samples", type=int)
    run_p.add_argument("--quad-nodes", type=int)
    run_p.add_argument("--out", help="artifact directory (default runs/<experiment>)")
    run_p.add_argument(
        "--expect-failure", action="store_true", default=None,
        help="treat optimizer failures as the expected outcome",
    )

    val_p = sub.add_parser("validate", help="run the structural identity checks")
    val_p.add_argument("--quad-nodes", type=int, default=64)
    val_p.add_argument("--out", help="write the JSON report here")

    tgt_p = sub.add_parser("gen-target", help="draw a full-index log-linear target")
    tgt_p.add_argument("--n", type=int, default=4)
    tgt_p.add_argument("--base-scale", type=float, default=1.0)
    tgt_p.add_argument("--seed", type=int, default=0)
    tgt_p.add_argument("--out", help="JSON path (default stdout)")

    dat_p = sub.add_parser("gen-data", help="sample the Beta-mixture dataset")
    dat_p.add_argument("--n-samples", type=int, default=5000)
    dat_p.add_argument("--seed", type=int, default=0)
    dat_p.add_argument("--out", help="JSON path (default stdout)")

    return parser


def _run_config(args):
    file_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
    values = {}
    for key, val in file_values.items():
        if key not in RunConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = tuple(val) if isinstance(val, list) else val
    # every run flag's dest is its RunConfig field name; flags win
    for key in RunConfig.__dataclass_fields__:
        val = getattr(args, key)
        if val is not None:
            values[key] = tuple(val) if isinstance(val, list) else val
    experiment = values.pop("experiment", None)
    if experiment is None:
        raise ConfigError("an experiment id is required (--experiment or config)")
    return RunConfig.defaults(experiment, **values)


def _cmd_run(args):
    cfg = _run_config(args)
    if not cfg.out:
        cfg = replace(cfg, out=os.path.join("runs", cfg.experiment))
    try:
        code, results = run_experiment(cfg)
    except DualNewtonError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    for res in results:
        s = res.trace.summary()
        line = f"{res.label:18s} {s['status']:15s} iters={s['iterations']:5d}"
        if s["final_grad_l2"] is not None:
            line += f" grad_l2={s['final_grad_l2']:.3e}"
        print(line)
    print(f"artifacts written to {cfg.out}")
    return code


def _cmd_validate(args):
    report = run_validation(quad_nodes=args.quad_nodes)
    for check in report["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        print(
            f"{state}  {check['name']:55s} residual={check['residual']:.3e} "
            f"tolerance={check['tolerance']:.0e}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    n_pass = sum(c["passed"] for c in report["checks"])
    print(f"{n_pass}/{len(report['checks'])} checks passed")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _emit_json(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen_target(args):
    spec = gen_target(args.n, args.base_scale, args.seed)
    _emit_json(spec.to_dict(), args.out)
    return EXIT_OK


def _cmd_gen_data(args):
    _, data = gen_dataset(args.n_samples, args.seed)
    _emit_json(dataset_payload(data, args.seed, args.n_samples), args.out)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "gen-target": _cmd_gen_target,
    "gen-data": _cmd_gen_data,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
