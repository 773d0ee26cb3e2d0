"""Command-line shell for the boundary-control pipeline.

Subcommands cover the full workflow: simulate a plant, collect a labeled
dataset, fit the operator and the barrier, filter a nominal input
trajectory, and evaluate or sweep the closed-loop safety metrics.
Structured configuration is plain JSON whose keys are the field names of
the config dataclasses (see `load_config`); every run's randomness hangs off
one --seed flag.
"""

import argparse
import json
import sys
import typing
from dataclasses import astuple, fields, is_dataclass, replace

from .barrier import BarrierFunction, FeasibilityConstants
from .checkpoint import (DatasetFormatError, read_table, write_table,
                         write_text)
from .evaluation import (ExperimentSpec, Metrics, evaluate, report,
                         threshold_sweep)
from .neural_operator import BoundaryOperator
from .pde_sim import (ENVIRONMENTS, ConfigurationError, parse_controller,
                      read_trajectory_csv, rollout, write_states_csv,
                      write_trajectory_csv)
from .safety_filter import INFEASIBLE_POLICIES, FilterConfig, filter_trajectory
from .trajectories import (collect_dataset, parse_safe_set, read_dataset,
                           write_dataset)
from .training import TrainConfig, train_bcbf, train_joint, train_operator

METRICS_COLUMNS = tuple(f.name for f in fields(Metrics))


# the JSON types a field of each declared type takes; a bool is no number
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _load_value(value, kind, where):
    """value as the declared type kind (a tuple[...] from a list of items of
    its item types), or ConfigurationError naming where."""
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        if isinstance(value, list) and items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigurationError(f"{where}: expected {kind}, got {value!r}")
        return tuple(_load_value(v, k, f"{where}[{i}]")
                     for i, (v, k) in enumerate(zip(value, items)))
    if not isinstance(value, _JSON_TYPES.get(kind, object)) or \
            (isinstance(value, bool) and kind is not bool):
        raise ConfigurationError(
            f"{where}: expected {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def load_config(base, values, path=""):
    """The config dataclass instance base with the values of a JSON object.

    Each key must name a field of base; any other key raises
    ConfigurationError naming its path (e.g. 'filter.constants.alhpa').
    A nested config loads from its own object, starting from its value in
    base, so keys left out keep their values in base.  Other values take
    the JSON type of their field's declared type, or raise: true or false
    for bool, an integer for int, any number for float (loaded as a float),
    a string for str, a list of such items for tuple[...] (loaded as a
    tuple), and also null where the default is None.
    """
    if not isinstance(values, dict):
        raise ConfigurationError(
            f"{path or 'config'}: expected a JSON object, got {values!r}")
    declared = typing.get_type_hints(type(base))
    defaults = {f.name: f.default for f in fields(base) if f.init}
    changes = {}
    for key, value in values.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigurationError(f"unknown key {where!r}")
        current, kind = getattr(base, key), declared[key]
        if is_dataclass(current):
            value = load_config(current, value, where)
        elif value is not None or defaults[key] is not None:
            value = _load_value(value, kind, where)
        changes[key] = value
    return replace(base, **changes)


def load_env(values, path="env"):
    """Environment config from {"name": ..., <fields of its class>}."""
    values = dict(values)
    name = values.pop("name", None)
    if name not in ENVIRONMENTS:
        raise ConfigurationError(f"{path}.name: unknown environment {name!r}")
    return load_config(ENVIRONMENTS[name](), values, path)


def load_experiment(values, seed=None):
    """ExperimentSpec from a JSON spec; seed, when given, overrides its seed.

    env, controller and safe_set are required: env as for `load_env`, the
    other two as strings for `parse_controller` and `parse_safe_set`.
    """
    values = dict(values)
    missing = [k for k in ("env", "controller", "safe_set") if k not in values]
    if missing:
        raise ConfigurationError(f"experiment spec misses keys {missing}")
    env = load_env(values.pop("env"))
    controller = parse_controller(values.pop("controller"))
    safe_set = parse_safe_set(values.pop("safe_set"))
    spec = load_config(ExperimentSpec(env, controller, safe_set), values)
    return spec if seed is None else replace(spec, seed=seed)


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


def _given(**values):
    return {k: v for k, v in values.items() if v is not None}


def _env_from_flags(args):
    return load_env(dict(_given(name=args.env, beta=args.beta),
                         grid=_given(T=args.grid_T, M=args.grid_M)))


def _cmd_simulate(args):
    env = _env_from_flags(args)
    controller = parse_controller(args.controller)
    result = rollout(env, controller, args.U0, episode_seed=args.seed)
    write_states_csv(args.out, result.states, env.grid)
    if args.trajectory_out:
        write_trajectory_csv(args.trajectory_out, result.U, env.grid,
                             Y=result.Y)
    print(f"wrote {len(result.states)} state snapshots to {args.out}")


def _cmd_collect(args):
    env = _env_from_flags(args)
    controllers = [parse_controller(c) for c in args.controller]
    ds = collect_dataset(env, controllers, args.episodes,
                         (args.u0_min, args.u0_max),
                         parse_safe_set(args.safe_set), seed=args.seed)
    write_dataset(args.out, ds)
    print(f"collected {len(ds)} trajectories to {args.out}")


def _finish_history(history, path):
    """Write the history when a path is given; say on stderr why training
    stopped early."""
    if path:
        history.save(path)
    stop = history.stopped
    if stop is not None:
        print(f"training stopped at epoch {stop.epoch}: {stop.error}: "
              f"{stop.message}", file=sys.stderr)


def _train_config(args):
    return load_config(TrainConfig(),
                       _load_json(args.config) if args.config else {})


def _cmd_train_operator(args):
    cfg = _train_config(args)
    ds = read_dataset(args.dataset)
    op, history = train_operator(ds, cfg, seed=args.seed)
    op.save(args.out)
    _finish_history(history, args.history)
    last = history.rows[-1] if history.rows else {}
    print(f"operator saved to {args.out} "
          f"(val L_G {last.get('val_LG', float('nan')):.6g})")


def _cmd_train_bcbf(args):
    cfg = _train_config(args)
    if args.operator and args.operator_out:
        raise ConfigurationError(
            "--operator is for two-phase training; --operator-out trains "
            "its own operator")
    ds = read_dataset(args.dataset)
    if args.operator_out:
        op, bar, history = train_joint(ds, cfg, seed=args.seed)
        op.save(args.operator_out)
    else:
        op = BoundaryOperator.load(args.operator) if args.operator else None
        bar, history = train_bcbf(ds, op, cfg, seed=args.seed)
    bar.save(args.out)
    _finish_history(history, args.history)
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
    spec = load_experiment(_load_json(args.spec), seed=args.seed)
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
        write_text(args.out, text + "\n")
    print(text)


def _cmd_sweep(args):
    spec = load_experiment(_load_json(args.spec), seed=args.seed)
    etas = [float(x) for x in args.etas.split(",")]
    results = threshold_sweep(spec, etas)
    write_table(args.out, ("eta",) + METRICS_COLUMNS,
                [(eta,) + astuple(m) for eta, m in results])
    print(report([(f"eta={eta:g}", m) for eta, m in results]))


def _add_env_flags(p):
    p.add_argument("--env", default="hyperbolic", choices=list(ENVIRONMENTS))
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
                   help="train the operator jointly and save it here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="barrier checkpoint path")
    p.add_argument("--history", default=None, help="history CSV path")
    p.set_defaults(func=_cmd_train_bcbf)

    p = sub.add_parser("filter", help="filter a nominal input trajectory")
    p.add_argument("--operator", required=True)
    p.add_argument("--bcbf", required=True)
    p.add_argument("--nominal", required=True,
                   help="nominal boundary trajectory CSV")
    defaults = FilterConfig()
    p.add_argument("--eta", type=float, default=defaults.eta)
    p.add_argument("--alpha", type=float, default=defaults.constants.alpha)
    p.add_argument("--T", type=float, default=defaults.constants.T)
    p.add_argument("--asymptotic", action="store_true")
    p.add_argument("--policy", default=defaults.infeasible_policy,
                   choices=INFEASIBLE_POLICIES)
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
