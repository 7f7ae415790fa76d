"""Command line front end.

Subcommands:

* run          -- single flow at one grid size, radius log to CSV
* convergence  -- grid-refinement study, writes error_table.csv
* oracle       -- reference radius series (closed form or RK4) as t,r CSV
* verify       -- dual-route consistency checks (quadrature vs solver)

Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

import argparse
import sys

from .errors import NumericalError, ValidationError
from .flow import PhysicalParams
from .harness import ExperimentConfig, convergence_study, single_run, verify_suite
from .oracles import exact_mcf_series, hmcf_circle_radius, write_radius_csv

_OVERRIDE_KEYS = (
    "mode", "r0", "n_tau", "gamma", "alpha", "beta", "dt_policy",
    "cfl_fraction", "fixed_dt", "v0_normal", "max_steps",
)


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--mode", choices=["mcf", "hmcf"])
    p.add_argument("--r0", type=float, help="initial circle radius")
    p.add_argument("--n-tau", dest="n_tau", type=int,
                   help="number of steps the exact extinction time is split into")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--dt-policy", dest="dt_policy", choices=["cfl-fraction", "fixed"])
    p.add_argument("--cfl-fraction", dest="cfl_fraction", type=float)
    p.add_argument("--fixed-dt", dest="fixed_dt", type=float)
    p.add_argument("--v0", dest="v0_normal", type=float,
                   help="initial normal speed (damped mode)")
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory for CSV files")


def _config_from_args(args) -> ExperimentConfig:
    overrides = {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}
    overrides["out_dir"] = getattr(args, "out_dir", None)
    overrides["save_interfaces"] = getattr(args, "snapshots", None)
    sizes = getattr(args, "sizes", None)
    if sizes is not None:
        try:
            overrides["grid_sizes"] = tuple(int(s) for s in sizes.split(","))
        except ValueError:
            raise ValidationError(f"--sizes must be comma-separated integers, got {sizes!r}")
    if args.config:
        return ExperimentConfig.from_json(args.config, overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    records = single_run(cfg, n=args.n)
    for rec in records:
        if rec.extinct:
            print(f"step {rec.step}: t={rec.t:.6g} interface extinct")
        else:
            print(f"step {rec.step}: t={rec.t:.6g} avg_radius={rec.avg_radius:.6g}")
    if cfg.out_dir:
        print(f"wrote radius log to {cfg.out_dir}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _config_from_args(args)
    report = convergence_study(cfg)
    print("N,ns_tau,err")
    for row in sorted(report.rows, key=lambda r: r.n):
        print(f"{row.n},{row.ns_tau:.12g},{row.err:.12g}")
    if cfg.out_dir:
        print(f"wrote error table to {cfg.out_dir}")
    return 2 if report.failures else 0


def _cmd_oracle(args) -> int:
    if args.mode == "mcf":
        series = exact_mcf_series(args.r0, args.t_end, args.samples)
    else:
        phys = PhysicalParams(args.alpha, args.beta, args.gamma)
        series = hmcf_circle_radius(phys, args.r0, args.rdot0, args.t_end, args.dt)
    if args.out:
        write_radius_csv(series, args.out)
    else:
        sys.stdout.write("t,r\n")
        for t, r in zip(series.times, series.radii):
            sys.stdout.write(f"{t:.17g},{r:.17g}\n")
    if series.extinction_time is not None:
        print(f"extinction at t={series.extinction_time:.10g}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    return 0 if verify_suite(verbose=True) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmbo",
        description="Threshold dynamics for curvature-driven interface motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single flow at one grid size")
    _add_experiment_args(p_run)
    p_run.add_argument("--n", type=int, help="grid size (nodes per axis)")
    p_run.add_argument("--snapshots", action="store_true", default=None,
                       help="write per-step interface vertex clouds")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="grid-refinement error study")
    _add_experiment_args(p_conv)
    p_conv.add_argument("--sizes", help="comma-separated grid sizes, e.g. 16,32,64")
    p_conv.set_defaults(func=_cmd_convergence)

    p_or = sub.add_parser("oracle", help="reference circle radius series")
    p_or.add_argument("--mode", choices=["mcf", "hmcf"], required=True)
    p_or.add_argument("--r0", type=float, default=1.0)
    p_or.add_argument("--t-end", dest="t_end", type=float, required=True)
    p_or.add_argument("--samples", type=int, default=101,
                      help="sample count for the closed-form series")
    p_or.add_argument("--dt", type=float, default=1e-3,
                      help="sample spacing for the RK4 series")
    p_or.add_argument("--rdot0", type=float, default=0.0)
    p_or.add_argument("--alpha", type=float, default=1.0)
    p_or.add_argument("--beta", type=float, default=1.0)
    p_or.add_argument("--gamma", type=float, default=1.0)
    p_or.add_argument("--out", help="output CSV path (default: stdout)")
    p_or.set_defaults(func=_cmd_oracle)

    p_ver = sub.add_parser("verify", help="dual-route consistency checks")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
