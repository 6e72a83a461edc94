"""Command-line interface.

Subcommands:

``generate``
    Draw one-step transitions from a built-in system and write them to
    CSV.
``reach``
    Fit the kernel estimator on a transition CSV and run the backward
    recursion at the requested evaluation points.
``oracle-dp``
    Dense-grid reference recursion (2-D Gaussian problems only).
``oracle-mc``
    Monte Carlo reference rollouts.
``compare``
    Point-by-point error statistics between two value tables.
``bench-dims``
    End-to-end timing of fit plus recursion across state dimensions.

Every subcommand that runs numerics accepts ``--config FILE`` plus
per-key override flags; see :mod:`rkhs_reach.config`. Exit codes are
listed in :mod:`rkhs_reach.errors`.
"""

import argparse
import dataclasses
import statistics
import sys
import time

import numpy as np

from . import __version__
from .config import (
    _FIELD_KEYS,
    _check_count,
    RunConfig,
    apply_overrides,
    build_disturbance,
    build_policy,
    build_problem,
    build_sampler,
    build_system,
    evaluation_points,
    parse_box,
    parse_config_file,
    parse_control_grid,
    parse_ints,
    parse_shape,
    validate,
)
from .embedding import Embedding
from .errors import InputError, RKHSReachError
from .io import (
    read_transitions_csv,
    read_value_table,
    write_mc_csv,
    write_table,
    write_transitions_csv,
    write_values_csv,
)
from .kernels import RBFKernel
from .oracle import dp_reach, mc_reach
from .reach import value_recursion, value_recursion_max
from .systems import generate_transitions

__all__ = ["main"]


def _add_config_args(parser):
    parser.add_argument(
        "--config", metavar="FILE", help="key = value configuration file"
    )
    # one flag per RunConfig field, in declaration order and spelled as
    # its config key (``--lambda`` sets ``lam``); every value is passed as
    # text and coerced by the same rules as config-file entries
    group = parser.add_argument_group("configuration overrides")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + _FIELD_KEYS.get(field.name, field.name).replace("_", "-")
        group.add_argument(flag, dest=field.name, metavar="V", default=None)


def _load_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = apply_overrides(cfg, parse_config_file(args.config))
    # unset flags are None, which apply_overrides skips
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    cfg = validate(apply_overrides(cfg, overrides))
    if cfg.mode == "max" and args.command != "reach":
        raise InputError(
            f"mode is max but {args.command} evaluates the configured policy; "
            "only reach searches a control_grid"
        )
    return cfg


def _embedding_metadata(cfg, sample):
    return {
        "samples": str(sample.count),
        "sigma": format(cfg.sigma, ".17g"),
        "lambda": format(cfg.lam, ".17g"),
        "horizon": str(cfg.horizon),
        "mode": cfg.mode,
    }


def _fit(cfg, sample):
    """The estimator that ``cfg`` configures, fitted on ``sample``."""
    return Embedding(
        sample, RBFKernel(cfg.sigma), cfg.lam,
        normalize_weights=cfg.normalize_weights,
    )


def _draw_sample(cfg, system, policy):
    """The transitions that ``cfg`` asks of ``system`` under ``policy``."""
    disturbance = build_disturbance(cfg, system)
    sampler = build_sampler(cfg, system.n)
    return generate_transitions(
        system, policy, sampler, disturbance, cfg.samples, cfg.seed
    )


def _oracle_inputs(args):
    """Config, system, disturbance, problem, points and policy of an oracle."""
    cfg = _load_config(args)
    system = build_system(cfg)
    disturbance = build_disturbance(cfg, system)
    problem = build_problem(cfg, system.n)
    points = evaluation_points(cfg, system.n)
    policy = build_policy(cfg, system)
    return cfg, system, disturbance, problem, points, policy


def _print_summary(label, values):
    print(
        f"{label} min={values.min():.6f} mean={values.mean():.6f} "
        f"max={values.max():.6f} points={values.shape[0]}"
    )


def _cmd_generate(args):
    cfg = _load_config(args)
    system = build_system(cfg)
    sample = _draw_sample(cfg, system, build_policy(cfg, system))
    write_transitions_csv(args.out, sample)
    print(
        f"wrote {sample.count} transitions ({sample.state_dim}-D state, "
        f"{sample.control_dim}-D control, seed {cfg.seed}) to {args.out}"
    )
    return 0


def _cmd_reach(args):
    cfg = _load_config(args)
    sample = read_transitions_csv(args.sample_file)
    # every configuration check runs before the fit
    if cfg.mode == "max":
        control_grid = parse_control_grid(cfg.control_grid, sample.control_dim)
    else:
        policy = build_policy(
            cfg, build_system(cfg), control_dim=sample.control_dim
        )
    n = sample.state_dim
    problem = build_problem(cfg, n)
    points = evaluation_points(cfg, n)
    t0 = time.perf_counter()
    emb = _fit(cfg, sample)
    fit_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    if cfg.mode == "max":
        field = value_recursion_max(emb, problem, points, control_grid)
        if not emb.reads_controls:
            print(
                "warning: the sample's controls are all equal, so it cannot "
                "tell the candidate controls apart; every choice is index 0",
                file=sys.stderr,
            )
    else:
        field = value_recursion(emb, problem, points, policy)
    recursion_seconds = time.perf_counter() - t0
    if args.out:
        write_values_csv(args.out, field, _embedding_metadata(cfg, sample))
    print(
        f"fit_seconds={fit_seconds:.3f} recursion_seconds={recursion_seconds:.3f}"
    )
    if args.summary:
        _print_summary("v0", field.values[0])
    return 0


def _cmd_oracle_dp(args):
    cfg, system, disturbance, problem, points, policy = _oracle_inputs(args)
    shape = parse_shape(cfg.dp_grid, "dp_grid")
    t0 = time.perf_counter()
    field = dp_reach(
        system, disturbance, problem, points, policy,
        shape=shape, quad_nodes=cfg.dp_quad,
    )
    seconds = time.perf_counter() - t0
    if args.out:
        metadata = {
            "oracle": "dp",
            "dp_grid": cfg.dp_grid,
            "dp_quad": str(cfg.dp_quad),
            "horizon": str(cfg.horizon),
        }
        write_values_csv(args.out, field, metadata)
    print(f"seconds={seconds:.3f}")
    if args.summary:
        _print_summary("v0", field.values[0])
    return 0


def _cmd_oracle_mc(args):
    cfg, system, disturbance, problem, points, policy = _oracle_inputs(args)
    t0 = time.perf_counter()
    values, halfwidths = mc_reach(
        system, disturbance, problem, policy, points, cfg.rollouts, cfg.seed
    )
    seconds = time.perf_counter() - t0
    if args.out:
        metadata = {
            "oracle": "mc",
            "rollouts": str(cfg.rollouts),
            "seed": str(cfg.seed),
            "horizon": str(cfg.horizon),
        }
        write_mc_csv(args.out, points, values, halfwidths, metadata)
    print(f"seconds={seconds:.3f} rollouts={cfg.rollouts}")
    if args.summary:
        _print_summary("value", values)
        print(f"halfwidth mean={halfwidths.mean():.6f} max={halfwidths.max():.6f}")
    return 0


def _cmd_compare(args):
    points_a, values_a, _ = read_value_table(args.table_a)
    points_b, values_b, _ = read_value_table(args.table_b)
    if points_a.shape != points_b.shape or not np.array_equal(points_a, points_b):
        raise InputError(
            "the two tables evaluate different point sets; regenerate them "
            "with matching --grid/--point arguments"
        )
    err = np.abs(values_a - values_b)
    box = parse_box(args.safe_box, points_a.shape[1], "safe-box")
    interior = np.all(
        (points_a > box.lower) & (points_a < box.upper), axis=1
    )
    line = (
        f"points={err.shape[0]} max_error={err.max():.6f} "
        f"mean_error={err.mean():.6f}"
    )
    if interior.any():
        line += f" interior_max_error={err[interior].max():.6f}"
    else:
        line += " interior_max_error=nan"
    print(line)
    if args.out:
        n = points_a.shape[1]
        names = [f"x{i + 1}" for i in range(n)] + ["value_a", "value_b", "abs_error"]
        rows = np.column_stack([points_a, values_a, values_b, err])
        write_table(args.out, names, rows)
    return 0


def _time_dimension(cfg, n, repeats):
    """Median seconds of fit plus recursion at dimension ``n``, and the value at 0.

    Each fit is dropped once its field is made, and the sample on
    return, so no dimension's arrays are live while the next is drawn.
    """
    cfg_n = apply_overrides(cfg, {"dim": n})
    system = build_system(cfg_n)
    policy = build_policy(cfg_n, system)
    sample = _draw_sample(cfg_n, system, policy)
    problem = build_problem(cfg_n, n)
    x0 = np.zeros((1, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        field = value_recursion(_fit(cfg, sample), problem, x0, policy)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), field.values[0, 0]


def _cmd_bench_dims(args):
    cfg = _load_config(args)
    if cfg.system != "integrator":
        raise InputError("bench-dims supports only the integrator system")
    dims = parse_ints(args.dims, "--dims", 1)
    _check_count(args.repeats, "--repeats", 1)
    rows = []
    for n in dims:
        med, value = _time_dimension(cfg, n, args.repeats)
        rows.append((float(n), med, value))
        print(
            f"n={n} seconds={med:.3f} value={value:.6f} "
            f"(median of {args.repeats})"
        )
    if args.out:
        write_table(args.out, ["n", "seconds", "value"], rows, int_columns=(0,))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rkhs-reach",
        description=(
            "Kernel-based reach-avoid probability estimation from sampled "
            "transitions, with grid and Monte Carlo reference oracles."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw transitions and write a sample CSV")
    _add_config_args(p)
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "reach", help="fit the estimator on a sample CSV and run the recursion"
    )
    _add_config_args(p)
    p.add_argument("--sample-file", required=True, metavar="CSV")
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--summary", action="store_true", help="print v0 statistics")
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser(
        "oracle-dp", help="dense-grid reference values (2-D Gaussian only)"
    )
    _add_config_args(p)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=_cmd_oracle_dp)

    p = sub.add_parser("oracle-mc", help="Monte Carlo reference values")
    _add_config_args(p)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=_cmd_oracle_mc)

    p = sub.add_parser(
        "compare", help="error statistics between two value tables"
    )
    p.add_argument("table_a", metavar="A.csv")
    p.add_argument("table_b", metavar="B.csv")
    p.add_argument(
        "--safe-box",
        default="-1,1",
        metavar="BOX",
        help="box whose strict interior defines interior_max_error",
    )
    p.add_argument("--out", metavar="CSV", help="write per-point errors")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "bench-dims", help="time fit plus recursion across state dimensions"
    )
    _add_config_args(p)
    p.add_argument("--dims", required=True, metavar="N1,N2,...")
    p.add_argument("--repeats", type=int, default=3, metavar="R")
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=_cmd_bench_dims)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RKHSReachError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array whose byte count overflows with this
        # ValueError before it allocates; any other ValueError propagates
        if isinstance(exc, ValueError) and not str(exc).startswith(
            "array is too big"
        ):
            raise
        # numpy's MemoryError subclass says how much it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
