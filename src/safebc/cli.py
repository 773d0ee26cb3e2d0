"""Command-line shell for the boundary-control pipeline.

Subcommands cover the full workflow: simulate a plant, collect a labeled
dataset, fit the operator and the barrier, filter a nominal input
trajectory, and evaluate or sweep the closed-loop safety metrics.
Structured configuration is plain JSON whose keys mirror the dataclasses;
every run's randomness hangs off one --seed flag.
"""

import argparse
import json
import sys
from dataclasses import astuple, fields

from .barrier import BarrierFunction, FeasibilityConstants
from .checkpoint import DatasetFormatError, read_table, write_table
from .evaluation import (ExperimentSpec, Metrics, evaluate, report,
                         threshold_sweep)
from .neural_operator import BoundaryOperator
from .pde_sim import (ConfigurationError, Constant, FromFile,
                      HyperbolicConfig, ParabolicConfig, Proportional,
                      SmoothRandom, TimeGrid, read_trajectory_csv, rollout,
                      write_states_csv, write_trajectory_csv)
from .safety_filter import FilterConfig, filter_trajectory
from .trajectories import (collect_dataset, parse_safe_set, read_dataset,
                           write_dataset)
from .training import (BarrierSchedule, OperatorSchedule, TrainConfig,
                       train_bcbf, train_joint, train_operator)

METRICS_COLUMNS = tuple(f.name for f in fields(Metrics))


def parse_controller(text):
    """Controller from a compact spec string.

    Formats: constant | constant:value=V | proportional:gain=K |
    smooth[:seed=S,modes=N,amplitude=A,min_frequency=F,max_frequency=F] |
    file:PATH
    """
    name, _, rest = text.partition(":")
    if name == "constant":
        if rest in ("", "hold-U0"):
            return Constant()
        key, _, val = rest.partition("=")
        if key != "value":
            raise ConfigurationError(f"bad constant spec {text!r}")
        return Constant(float(val))
    if name == "proportional":
        key, _, val = rest.partition("=")
        if key != "gain":
            raise ConfigurationError(f"bad proportional spec {text!r}")
        return Proportional(float(val))
    if name == "smooth":
        kwargs = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if key not in ("seed", "modes", "amplitude", "min_frequency",
                               "max_frequency"):
                    raise ConfigurationError(f"bad smooth spec {text!r}")
                key = {"modes": "num_modes"}.get(key, key)
                kwargs[key] = int(val) if key in ("seed", "num_modes") \
                    else float(val)
        return SmoothRandom(**kwargs)
    if name == "file":
        if not rest:
            raise ConfigurationError("file controller needs a path")
        return FromFile(rest)
    raise ConfigurationError(f"unknown controller {text!r}")


def build_env(name, grid_T=None, grid_M=None, **overrides):
    """Environment config by name with optional field overrides."""
    if name == "hyperbolic":
        cls, default_grid = HyperbolicConfig, TimeGrid(5.0, 50)
        allowed = ("beta", "n_points", "substeps")
    elif name == "parabolic":
        cls, default_grid = ParabolicConfig, TimeGrid(1.0, 1000)
        allowed = ("eps", "lam", "n_points", "x_out")
    else:
        raise ConfigurationError(f"unknown environment {name!r}")
    bad = set(overrides) - set(allowed)
    if bad:
        raise ConfigurationError(f"unknown {name} fields {sorted(bad)}")
    grid = TimeGrid(default_grid.T if grid_T is None else float(grid_T),
                    default_grid.M if grid_M is None else int(grid_M))
    return cls(grid=grid, **overrides)


def env_from_dict(d):
    d = dict(d)
    name = d.pop("name")
    grid = d.pop("grid", {})
    return build_env(name, grid_T=grid.get("T"), grid_M=grid.get("M"), **d)


def constants_from_dict(d):
    return FeasibilityConstants(alpha=d.get("alpha", 1e-5),
                                T=d.get("T", 5.0),
                                asymptotic=d.get("asymptotic", False))


def filter_config_from_dict(d):
    return FilterConfig(constants=constants_from_dict(d.get("constants", {})),
                        eta=d.get("eta", 2.0),
                        infeasible_policy=d.get("infeasible_policy",
                                                "fallback-nominal"))


def train_config_from_dict(d):
    op = OperatorSchedule(**d.get("operator", {}))
    bf = BarrierSchedule(**d.get("bcbf", {}))
    kwargs = {k: v for k, v in d.items()
              if k not in ("operator", "bcbf", "constants")}
    if "balance_band" in kwargs:
        kwargs["balance_band"] = tuple(kwargs["balance_band"])
    return TrainConfig(operator=op, bcbf=bf, **kwargs)


def experiment_from_dict(d, seed=None):
    spec = ExperimentSpec(
        env=env_from_dict(d["env"]),
        controller=parse_controller(d["controller"]),
        safe_set=parse_safe_set(d["safe_set"]),
        filter_on=bool(d.get("filter_on", False)),
        filter=filter_config_from_dict(d.get("filter", {})),
        operator_path=d.get("operator_path"),
        bcbf_path=d.get("bcbf_path"),
        episodes=int(d.get("episodes", 100)),
        U0_range=tuple(d.get("U0_range", (1.0, 10.0))),
        seed=int(d.get("seed", 0)),
    )
    if seed is not None:
        spec.seed = int(seed)
    return spec


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_metrics_csv(path, metrics):
    write_table(path, METRICS_COLUMNS, [astuple(metrics)])


def read_metrics_csv(path):
    rows = read_table(path, METRICS_COLUMNS, (float,) * 4 + (int,)).rows
    if len(rows) != 1:
        raise DatasetFormatError(path, f"{len(rows)} metrics rows, expected 1")
    return Metrics(*rows[0])


# -- subcommand bodies -----------------------------------------------------


def _cmd_simulate(args):
    env = build_env(args.env, grid_T=args.grid_T, grid_M=args.grid_M,
                    **({"beta": args.beta} if args.beta is not None else {}))
    controller = parse_controller(args.controller)
    result = rollout(env, controller, args.U0, episode_seed=args.seed)
    write_states_csv(args.out, result.states, env.grid)
    if args.trajectory_out:
        write_trajectory_csv(args.trajectory_out, result.U, env.grid,
                             Y=result.Y)
    print(f"wrote {len(result.states)} state snapshots to {args.out}")


def _cmd_collect(args):
    env = build_env(args.env, grid_T=args.grid_T, grid_M=args.grid_M,
                    **({"beta": args.beta} if args.beta is not None else {}))
    controllers = [parse_controller(c) for c in args.controller]
    ds = collect_dataset(env, controllers, args.episodes,
                         (args.u0_min, args.u0_max),
                         parse_safe_set(args.safe_set), seed=args.seed)
    write_dataset(args.out, ds)
    print(f"collected {len(ds)} trajectories to {args.out}")


def _cmd_train_operator(args):
    cfg = train_config_from_dict(_load_json(args.config) if args.config
                                 else {})
    ds = read_dataset(args.dataset)
    op, history = train_operator(ds, cfg, seed=args.seed)
    op.save(args.out)
    if args.history:
        history.save(args.history)
    last = history.rows[-1] if history.rows else {}
    print(f"operator saved to {args.out} "
          f"(val L_G {last.get('val_LG', float('nan')):.6g})")


def _cmd_train_bcbf(args):
    raw = _load_json(args.config) if args.config else {}
    cfg = train_config_from_dict(raw)
    constants = constants_from_dict(raw.get("constants", {}))
    ds = read_dataset(args.dataset)
    if cfg.mode == "joint":
        op, bar, history = train_joint(ds, constants, cfg, seed=args.seed)
        if args.operator_out:
            op.save(args.operator_out)
    else:
        op = BoundaryOperator.load(args.operator) if args.operator else None
        bar, history = train_bcbf(ds, op, constants, cfg, seed=args.seed)
    bar.save(args.out)
    if args.history:
        history.save(args.history)
    last = history.rows[-1] if history.rows else {}
    print(f"barrier saved to {args.out} "
          f"(val sign err {last.get('val_sign_err', float('nan')):.4f})")


def _cmd_filter(args):
    op = BoundaryOperator.load(args.operator)
    bar = BarrierFunction.load(args.bcbf)
    config = FilterConfig(
        constants=FeasibilityConstants(alpha=args.alpha, T=args.T,
                                       asymptotic=args.asymptotic),
        eta=args.eta, infeasible_policy=args.policy)
    U_nom = read_trajectory_csv(args.nominal)
    rep = filter_trajectory(op, bar, U_nom, config)
    write_trajectory_csv(args.out, rep.U_safe, op.grid, Y=rep.Y_predicted)
    if args.report:
        rep.write_csv(args.report)
    print(f"filtered trajectory written to {args.out} "
          f"({rep.n_modified} of {len(rep.records)} steps modified)")


def _cmd_evaluate(args):
    spec = experiment_from_dict(_load_json(args.spec), seed=args.seed)
    metrics = evaluate(spec, episodes_csv=args.episodes_out)
    write_metrics_csv(args.out, metrics)
    print(report([(args.name, metrics)]))


def _cmd_report(args):
    rows = []
    for item in args.row:
        name, _, path = item.partition("=")
        if not path:
            raise ConfigurationError(
                f"--row wants NAME=METRICS_CSV, got {item!r}")
        rows.append((name, read_metrics_csv(path)))
    text = report(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_sweep(args):
    spec = experiment_from_dict(_load_json(args.spec), seed=args.seed)
    etas = [float(x) for x in args.etas.split(",")]
    results = threshold_sweep(spec, etas)
    write_table(args.out, ("eta",) + METRICS_COLUMNS,
                [(eta,) + astuple(m) for eta, m in results])
    print(report([(f"eta={eta:g}", m) for eta, m in results]))


def _add_env_flags(p):
    p.add_argument("--env", default="hyperbolic",
                   choices=["hyperbolic", "parabolic"])
    p.add_argument("--beta", type=float, default=None,
                   help="hyperbolic recirculation gain")
    p.add_argument("--grid-T", type=float, default=None, dest="grid_T")
    p.add_argument("--grid-M", type=int, default=None, dest="grid_M")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="safebc",
        description="safe PDE boundary control: simulators, operator and "
                    "barrier training, QP safety filtering, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll out one closed-loop episode")
    _add_env_flags(p)
    p.add_argument("--controller", required=True)
    p.add_argument("--U0", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="state snapshot CSV")
    p.add_argument("--trajectory-out", default=None,
                   help="optional boundary trajectory CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("collect", help="collect a labeled trajectory dataset")
    _add_env_flags(p)
    p.add_argument("--controller", action="append", required=True,
                   help="repeatable; cycled round-robin over episodes")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--u0-min", type=float, required=True, dest="u0_min")
    p.add_argument("--u0-max", type=float, required=True, dest="u0_max")
    p.add_argument("--safe-set", default="Y<1", dest="safe_set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("train-operator", help="fit the boundary operator")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None, help="JSON train config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="operator checkpoint path")
    p.add_argument("--history", default=None, help="history CSV path")
    p.set_defaults(func=_cmd_train_operator)

    p = sub.add_parser("train-bcbf", help="fit the barrier function")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None, help="JSON train config")
    p.add_argument("--operator", default=None,
                   help="operator checkpoint (needed for operator dY/dt)")
    p.add_argument("--operator-out", default=None, dest="operator_out",
                   help="in joint mode, also save the trained operator here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="barrier checkpoint path")
    p.add_argument("--history", default=None, help="history CSV path")
    p.set_defaults(func=_cmd_train_bcbf)

    p = sub.add_parser("filter", help="filter a nominal input trajectory")
    p.add_argument("--operator", required=True)
    p.add_argument("--bcbf", required=True)
    p.add_argument("--nominal", required=True,
                   help="nominal boundary trajectory CSV")
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1e-5)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--asymptotic", action="store_true")
    p.add_argument("--policy", default="fallback-nominal",
                   choices=["fallback-nominal", "abort"])
    p.add_argument("--out", required=True, help="filtered trajectory CSV")
    p.add_argument("--report", default=None, help="per-step report CSV")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("evaluate", help="run one evaluation experiment")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec seed")
    p.add_argument("--name", default="experiment")
    p.add_argument("--out", required=True, help="metrics CSV")
    p.add_argument("--episodes-out", default=None, dest="episodes_out",
                   help="per-episode CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="tabulate saved metrics")
    p.add_argument("--row", action="append", required=True,
                   help="NAME=METRICS_CSV; repeatable, order preserved")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="threshold sweep with shared seeds")
    p.add_argument("--spec", required=True)
    p.add_argument("--etas", required=True, help="comma-separated thresholds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="per-eta metrics CSV")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # CLI contract: nonzero exit, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
