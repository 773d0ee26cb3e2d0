"""End-to-end evaluation of nominal versus filtered boundary control.

One rollout batch runs every episode's nominal controller closed loop on
the simulator from its drawn initial condition. With the filter on, one
batched filter walk then rewrites every finite episode's recorded input,
and a second batch replays only the inputs it changed, open loop through
one FromFile controller that holds them stacked, for scoring. An episode
whose input is bitwise unchanged (filter off, or no step modified) is
scored on its closed-loop run, which a replay would reproduce bitwise; so
a disabled filter and a threshold of zero give identical metrics. Rewards
are summed from the rollouts' per-step squared state norms; no state
history is kept.
"""

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .barrier import BarrierFunction
from .checkpoint import check_integer, read_table, write_table
from .nets import subseed
from .neural_operator import BoundaryOperator
from .pde_sim import (ConfigurationError, FromFile, rollout,
                      stabilization_reward)
from .safety_filter import FilterConfig, FilterInfeasibleError, filter_batch
from .trajectories import suffix_safe_mask


def feasible_steps(labels):
    """Length of the maximal all-safe suffix of each row of labels: 0 when
    the final step is unsafe (the episode never settles into the safe
    set)."""
    return suffix_safe_mask(labels).sum(axis=-1)


@dataclass
class EpisodeRecord:
    episode: int
    U0: float
    reward: float
    feasible: bool
    feasible_steps: int


@dataclass
class Metrics:
    reward_mean: float
    reward_std: float
    feasible_rate: float
    avg_feasible_steps: float
    episodes: int


def metrics_from_records(records):
    """Aggregate per-episode records; the step average runs over feasible
    episodes only and is 0 when there are none."""
    if not records:
        raise ValueError("no episodes to aggregate")
    rewards = np.array([r.reward for r in records], dtype=float)
    feasible = np.array([r.feasible for r in records], dtype=bool)
    if feasible.any():
        avg = float(np.mean([float(r.feasible_steps) for r in records
                             if r.feasible]))
    else:
        avg = 0.0
    return Metrics(float(rewards.mean()), float(rewards.std()),
                   float(feasible.mean()), avg, len(records))


EPISODE_COLUMNS = tuple(f.name for f in fields(EpisodeRecord))


def write_episode_csv(path, records):
    write_table(path, {k: np.array([getattr(r, k) for r in records])
                       for k in EPISODE_COLUMNS})


def read_episode_csv(path):
    table = read_table(path, EPISODE_COLUMNS,
                       ints=("episode", "feasible", "feasible_steps"))
    columns = dict(table.data, feasible=table.data["feasible"] != 0)
    return [EpisodeRecord(*row)
            for row in zip(*(columns[k].tolist() for k in EPISODE_COLUMNS))]


@dataclass
class ExperimentSpec:
    env: object
    controller: object
    safe_set: object
    filter_on: bool = False
    filter: FilterConfig = field(default_factory=FilterConfig)
    operator_path: str = None
    bcbf_path: str = None
    episodes: int = 100
    U0_range: tuple[float, float] = (1.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        check_integer(self.episodes, "episodes")
        if not self.episodes >= 1:
            raise ConfigurationError(
                f"episodes must be >= 1, got {self.episodes!r}")
        lo, hi = self.U0_range
        if not lo <= hi:
            raise ConfigurationError(
                f"U0_range low end must be <= its high end, got "
                f"{self.U0_range!r}")


def _load_models(spec):
    for path in (spec.operator_path, spec.bcbf_path):
        if path is None or not os.path.isfile(path):
            raise ConfigurationError(
                f"filter is on but checkpoint {path!r} is missing")
    op = BoundaryOperator.load(spec.operator_path)
    if op.grid != spec.env.grid:
        raise ConfigurationError(
            "operator checkpoint grid does not match the environment grid")
    bar = BarrierFunction.load(spec.bcbf_path)
    return op, bar


def run_episodes(spec):
    """Per-episode records for an experiment; evaluate() aggregates these.

    Episode e draws U0 from a stream keyed by (seed, e) and seeds the
    controller with e, so arms sharing a spec seed see identical nominal
    trajectories.  Model checkpoints are only loaded when the filter is on;
    it then filters every finite episode in one `filter_batch` walk, and
    only an input it changed is replayed.  Under the abort policy the error
    names the first episode with an infeasible step.  A diverged simulation
    counts as infeasible with reward -inf.
    """
    op = bar = None
    if spec.filter_on:
        op, bar = _load_models(spec)
    lo, hi = spec.U0_range
    U0 = [float(np.random.default_rng(subseed(spec.seed, e)).uniform(lo, hi))
          for e in range(spec.episodes)]
    run = rollout(spec.env, [spec.controller] * spec.episodes, U0,
                  episode_seeds=range(spec.episodes))
    changed = {}
    if spec.filter_on:
        finite = np.flatnonzero(run.diverged == 0)
        try:
            reports = filter_batch(op, bar, run.U[finite], spec.filter)
        except FilterInfeasibleError as err:
            err.episode = int(finite[err.row])
            raise
        for e, rep in zip(finite, reports):
            if rep.U_safe.tobytes() != run.U[e].tobytes():
                changed[e] = rep.U_safe
    if changed:
        rows = list(changed)
        inputs = np.array(list(changed.values()))
        replay = rollout(spec.env, [FromFile(inputs)] * len(rows),
                         inputs[:, 0])
        run.Y[rows], run.sq_norms[rows] = replay.Y, replay.sq_norms
        run.diverged[rows] = replay.diverged
    kept = run.diverged == 0
    rewards = np.where(kept, stabilization_reward(run.sq_norms), -np.inf)
    steps = np.where(kept, feasible_steps(spec.safe_set.contains(run.Y)), 0)
    return [EpisodeRecord(e, U0[e], float(rewards[e]), bool(steps[e]),
                          int(steps[e])) for e in range(spec.episodes)]


def evaluate(spec, episodes_csv=None):
    """Run the experiment and aggregate. Optionally writes the per-episode
    CSV; re-aggregating that file reproduces the returned metrics exactly."""
    records = run_episodes(spec)
    if episodes_csv is not None:
        write_episode_csv(episodes_csv, records)
    return metrics_from_records(records)


def report(rows):
    """Markdown table over (name, Metrics) rows, kept in the given order."""
    if not rows:
        raise ValueError("no rows to report")
    header = ["name", "reward (mean +/- std)", "feasible rate",
              "avg feasible steps", "episodes"]
    body = []
    for name, m in rows:
        body.append([
            str(name),
            f"{m.reward_mean:.2f} +/- {m.reward_std:.2f}",
            f"{m.feasible_rate:.2f}",
            f"{m.avg_feasible_steps:.1f}",
            str(m.episodes),
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(header))]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) \
            + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), rule] + [line(r) for r in body])


def threshold_sweep(spec, etas):
    """Evaluate the filtered arm at each threshold with shared seeds."""
    out = []
    for eta in etas:
        arm = replace(spec, filter_on=True,
                      filter=replace(spec.filter, eta=float(eta)))
        out.append((float(eta), evaluate(arm)))
    return out
