"""End-to-end evaluation of nominal versus filtered boundary control.

Each episode draws an initial condition, runs the nominal controller closed
loop on the simulator, and optionally rewrites the recorded input through the
safety filter.  When the filter changed the input, the final input is
replayed open loop for scoring: a second rollout driven by a FromFile
controller over that input.  When the input is bitwise unchanged (filter off,
or no step modified) the closed-loop run is scored directly, since replaying
it would reproduce its states bitwise; so a disabled filter and a threshold
of zero give identical metrics.
"""

import os
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .barrier import BarrierFunction
from .checkpoint import read_table, write_table
from .nets import subseed
from .neural_operator import BoundaryOperator
from .pde_sim import (ConfigurationError, FromFile, SimulationDivergedError,
                      rollout, stabilization_reward)
from .safety_filter import FilterConfig, filter_trajectory
from .trajectories import label_safety, suffix_safe_mask


def feasible_steps(labels):
    """Length of the maximal all-safe suffix, or None when the final step is
    unsafe (the episode never settles into the safe set)."""
    return int(suffix_safe_mask(labels).sum()) or None


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
    write_table(path, EPISODE_COLUMNS, map(astuple, records))


def read_episode_csv(path):
    table = read_table(path, EPISODE_COLUMNS,
                       (int, float, float, lambda s: bool(int(s)), int))
    return [EpisodeRecord(*row) for row in table.rows]


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
    trajectories.  Model checkpoints are only loaded when the filter is on.
    Only an input the filter changed is replayed.  A diverged simulation
    counts as infeasible with reward -inf.
    """
    op = bar = None
    if spec.filter_on:
        op, bar = _load_models(spec)
    lo, hi = spec.U0_range
    records = []
    for e in range(spec.episodes):
        rng = np.random.default_rng(subseed(spec.seed, e))
        U0 = float(rng.uniform(lo, hi))
        try:
            played = rollout(spec.env, spec.controller, U0, episode_seed=e)
            if spec.filter_on:
                U_safe = filter_trajectory(op, bar, played.U,
                                           spec.filter).U_safe
                if U_safe.tobytes() != played.U.tobytes():
                    played = rollout(spec.env, FromFile(U_safe), U_safe[0])
            reward = stabilization_reward(played.states)
            steps = feasible_steps(label_safety(played.Y, spec.safe_set))
        except SimulationDivergedError:
            reward, steps = float("-inf"), None
        records.append(EpisodeRecord(e, U0, reward, steps is not None,
                                     steps if steps is not None else 0))
    return records


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
