"""Workloads and the measured pipeline of the safebc benchmark.

Every workload runs the whole pipeline from outside the package, through the
entry point users run, ``safebc.cli.main``: ``collect``, ``train-operator``,
``train-bcbf``, ``filter`` and ``evaluate`` (filter on). Warm per-trajectory
latency calls ``safety_filter.filter_trajectory`` on loaded checkpoints.

One round is: fit (collect + train-operator + train-bcbf) -> cold
``filter`` calls -> a batch of warm ``filter_trajectory`` calls, on the
next nominal trajectories in turn -> one ``evaluate`` call, on episodes of
its own. Every round repeats the same fit. An untraced run starts WORKERS
fresh processes one after another (``worker``); each sets up once and
repeats rounds until its share of the time budget is spent. ``aggregate``
pools their samples; each timing is the median of all its samples, and the
per-trajectory latency percentiles are taken over every warm call.

On a host whose cores are shared with other jobs, the same work runs at
speeds that differ by 20-35% between processes and over minutes. Two things
keep the medians steady from run to run: samples come from several
processes, and every sample is reported at a fixed reference speed, using
a reference timed right before it (see reference.py).

Workloads (the plant settings are why each one was chosen):

* transport-fit -- hyperbolic plant, beta=0.5, T=5, M=50. Its fit, on data
  collected from --seed, is the largest item of each round: batched
  operator forward/backward with the n^2 kernel table rebuilt after every
  Adam step, plus the barrier losses. The rest of the round uses the
  operator the opposite way, with fixed parameters and cached tables: 50
  warm filters (single-trajectory forwards, barrier value and partials, the
  QP; re-forwards are rare), two cold filters and a 50-episode filtered
  evaluation. A change that helps the fit and costs the filter, or the other
  way round, shows in fit_s against filter_traj_p50_ms and
  eval_episodes_per_s. This workload also stands in for transport-filter
  (the same plant with a smaller fixed-seed fit): three workloads at the run
  length that keeps the medians steady do not fit the benchmark's total
  time limit.
* diffusion-long -- parabolic plant, eps=0.05, lam=1 (the CLI defaults),
  T=1, M=80. The dense O(n^2) kernel and dt tables dominate cold filters.
  Its nominal inputs hold U0 in [0.1, 1] (the constant controller), on which
  the filter modifies, and so re-forwards, on nearly every step; from U0
  near 1.3 upward it modifies fewer steps, which would make the work per
  trajectory depend on the draw.

Every workload filters with a checkpoint pair that set-up trains with a
fixed seed, so every run filters with the same model; --seed draws the
nominal trajectories it filters and the evaluation episodes. With a
seed-trained model the number of modified steps, and so the filter time,
would depend on the model more than on the code. diffusion-long fits with
that fixed seed in its rounds too.

Defaults that are not workloads: the hyperbolic default beta=5, where every
scripted controller diverges and filter on equals filter off, and the
parabolic default M=1000, whose dense kernel table is OOM-killed. M=80
rather than longer keeps 20 or more warm trajectories (the least that
supports a median with 10 samples beyond it) inside one run.
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from safebc import cli, safety_filter
from safebc.barrier import BarrierFunction, FeasibilityConstants
from safebc.neural_operator import BoundaryOperator

import reference
from spans import ROW_SPANS, SPAN_NAMES, Tracer

MIXED = ("smooth", "proportional:gain=0.5", "constant")
SAFE_SET = "Y<1"
ETA, ALPHA, BARRIER_T = 2.0, 1e-5, 5.0
FIXTURE_SEED = 0
WORKERS = 3         # measuring processes per untraced run, one at a time
MIN_P90 = 100       # a 90th percentile needs 10 samples beyond it

TRANSPORT = {"name": "hyperbolic", "beta": 0.5, "grid": {"T": 5.0, "M": 50}}
DIFFUSION = {"name": "parabolic", "grid": {"T": 1.0, "M": 80}}


@dataclass(frozen=True)
class Plan:
    env: dict              # environment as written in an evaluate spec
    fit_episodes: int
    operator_epochs: int
    bcbf_epochs: int
    u0_range: tuple
    seeded_fit: bool       # rounds fit --seed data, not the fixed seed
    nominal_controllers: tuple
    nominals: int          # held-out nominal trajectories, at least 20
    warm_per_round: int    # at least cold_per_round
    cold_per_round: int
    eval_episodes: int
    eval_controller: str


WORKLOADS = {
    "transport-fit": Plan(TRANSPORT, 100, 6, 4, (0.1, 2.0), True, MIXED,
                          100, 50, 2, 50, "smooth"),
    "diffusion-long": Plan(DIFFUSION, 60, 2, 2, (0.1, 1.0), False,
                           ("constant",), 40, 6, 1, 2, "constant"),
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "filter_cold_s": ("s", "lower"),
    "filter_traj_p50_ms": ("ms", "lower"),
    "filter_traj_p90_ms": ("ms", "lower"),
    "eval_episodes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "val_lg_rel": ("ratio", "lower"),
    "val_sign_err": ("ratio", "lower"),
    "feasible_rate": ("ratio", "higher"),
    "reward_mean": ("reward", "higher"),
    "failed_frac": ("ratio", "lower"),
}

COUNTERS = {
    "training.epochs_run": ("count", "higher"),
    "training.epochs_requested": ("count", "higher"),
    "safety_filter.steps": ("count", "higher"),
    "safety_filter.active_frac": ("ratio", "lower"),
    "safety_filter.accepted_frac": ("ratio", "higher"),
    "safety_filter.infeasible_frac": ("ratio", "lower"),
    "safety_filter.modified_steps": ("count", "lower"),
    "safety_filter.forwards_per_modified": ("ratio", "lower"),
    "evaluation.episodes": ("count", "higher"),
    "evaluation.diverged": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer_units():
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        if name in ROW_SPANS:
            units[f"{name}.rows"] = ("count", "lower")
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update(COUNTERS)
    return units


class StageError(RuntimeError):
    """A CLI stage exited non-zero; later stages cannot run."""


def derive(seed, *stream):
    """Independent non-negative int seed for one purpose of a run."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def fmt(x):
    return format(float(x), ".17g")


def read_table(path):
    """(meta, rows) of a CSV with optional '# key=value' lines before it."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    meta[key.strip()] = value
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return meta, rows


def file_bytes(directory):
    """Relative path -> bytes of every file under a directory."""
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class Run:
    """One workload's pipeline in a work directory, with its samples,
    produced files, operation counts and failed correctness checks."""

    def __init__(self, plan, seed, work, stream=0):
        self.plan = plan
        self.seed = seed
        self.work = work
        os.makedirs(work, exist_ok=True)
        env = plan.env
        self.env_flags = ["--env", env["name"],
                          "--grid-T", fmt(env["grid"]["T"]),
                          "--grid-M", str(env["grid"]["M"])]
        if "beta" in env:
            self.env_flags += ["--beta", fmt(env["beta"])]
        self.dt = env["grid"]["T"] / env["grid"]["M"]
        self.filter_config = safety_filter.FilterConfig(
            constants=FeasibilityConstants(alpha=ALPHA, T=BARRIER_T),
            eta=ETA)
        self.failures = []
        self.datasets, self.histories, self.episode_files = [], [], []
        self.evals = []                 # eval output directories
        self.cold = []                  # (nominal index, filtered CSV)
        self.warm = {}                  # nominal index -> FilterReport
        # [seconds, reference seconds] per timed item; the reference is
        # timed right before the item
        self.samples = {"fit": [], "cold": [], "warm": [], "eval": []}
        self.stream = stream            # draws this run's evaluation seeds
        self.setup_dir = self.quality_dir = None
        self.nominal = []
        self.models = None
        self.next_warm = 0              # index of the next warm nominal

    # -- stages ------------------------------------------------------------

    def cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        if rc != 0:
            raise StageError(f"safebc {argv[0]} exited {rc}: "
                             f"{err.getvalue().strip()}")

    def collect(self, path, episodes, seed, controllers=MIXED):
        args = ["collect", *self.env_flags]
        for c in controllers:
            args += ["--controller", c]
        self.cli(*args, "--episodes", str(episodes),
                 "--u0-min", fmt(self.plan.u0_range[0]),
                 "--u0-max", fmt(self.plan.u0_range[1]),
                 "--safe-set", SAFE_SET, "--seed", str(seed), "--out", path)
        self.datasets.append(path)

    def fit(self, d, seed):
        """collect + train-operator + train-bcbf into d; returns seconds."""
        os.makedirs(d, exist_ok=True)
        p = {k: os.path.join(d, k) for k in (
            "dataset.csv", "operator.ckpt", "operator_history.csv",
            "bcbf.ckpt", "bcbf_history.csv")}
        config = os.path.join(self.work, "train.json")
        t0 = time.perf_counter()
        self.collect(p["dataset.csv"], self.plan.fit_episodes, seed)
        self.cli("train-operator", "--dataset", p["dataset.csv"],
                 "--config", config, "--seed", str(seed),
                 "--out", p["operator.ckpt"],
                 "--history", p["operator_history.csv"])
        self.cli("train-bcbf", "--dataset", p["dataset.csv"],
                 "--config", config, "--operator", p["operator.ckpt"],
                 "--seed", str(seed), "--out", p["bcbf.ckpt"],
                 "--history", p["bcbf_history.csv"])
        elapsed = time.perf_counter() - t0
        self.histories += [(p["operator_history.csv"],
                            self.plan.operator_epochs),
                           (p["bcbf_history.csv"], self.plan.bcbf_epochs)]
        return elapsed

    def setup(self, d):
        """Configs, held-out nominal inputs and the fixed-seed checkpoint
        pair, in d. Returns seconds."""
        t0 = time.perf_counter()
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(self.work, "train.json"), "w") as fh:
            json.dump({"operator": {"epochs": self.plan.operator_epochs},
                       "bcbf": {"epochs": self.plan.bcbf_epochs}}, fh)
        nominal_csv = os.path.join(d, "nominal.csv")
        self.collect(nominal_csv, self.plan.nominals, derive(self.seed, 1),
                     self.plan.nominal_controllers)
        _, rows = read_table(nominal_csv)
        by_traj = {}
        for r in rows:
            by_traj.setdefault(int(r["traj_id"]), []).append(float(r["U"]))
        nominal = [np.array(by_traj[k]) for k in sorted(by_traj)]
        for i, U in enumerate(nominal):
            with open(os.path.join(d, f"nominal{i}.csv"), "w") as fh:
                fh.write("step,t,U\n")
                fh.writelines(f"{m},{fmt(m * self.dt)},{fmt(u)}\n"
                              for m, u in enumerate(U))
        self.fit(d, FIXTURE_SEED)
        self.setup_dir = self.quality_dir = d
        self.nominal = nominal
        return time.perf_counter() - t0

    def load_models(self):
        op = BoundaryOperator.load(os.path.join(self.setup_dir,
                                                "operator.ckpt"))
        bar = BarrierFunction.load(os.path.join(self.setup_dir, "bcbf.ckpt"))
        # the first call builds the kernel and dt tables; warm calls reuse them
        safety_filter.filter_trajectory(op, bar, self.nominal[0],
                                        self.filter_config)
        self.models = (op, bar)

    def write_spec(self, path, seed, filter_on=True, eta=ETA):
        spec = {"env": self.plan.env, "controller": self.plan.eval_controller,
                "safe_set": SAFE_SET, "filter_on": filter_on,
                "filter": {"eta": eta,
                           "constants": {"alpha": ALPHA, "T": BARRIER_T}},
                "operator_path": os.path.join(self.setup_dir, "operator.ckpt"),
                "bcbf_path": os.path.join(self.setup_dir, "bcbf.ckpt"),
                "episodes": self.plan.eval_episodes,
                "U0_range": list(self.plan.u0_range), "seed": seed}
        with open(path, "w") as fh:
            json.dump(spec, fh)

    def evaluate(self, d, seed, filter_on=True, eta=ETA):
        os.makedirs(d, exist_ok=True)
        spec = os.path.join(d, "spec.json")
        self.write_spec(spec, seed, filter_on, eta)
        t0 = time.perf_counter()
        self.cli("evaluate", "--spec", spec,
                 "--out", os.path.join(d, "metrics.csv"),
                 "--episodes-out", os.path.join(d, "episodes.csv"))
        elapsed = time.perf_counter() - t0
        self.evals.append(d)
        self.episode_files.append(os.path.join(d, "episodes.csv"))
        return elapsed

    def round(self, i, d):
        """One round of the workload's measured operations, in d."""
        plan = self.plan
        os.makedirs(d, exist_ok=True)
        fit_d = os.path.join(d, f"fit{i}")
        seed = derive(self.seed, 2) if plan.seeded_fit else FIXTURE_SEED
        ref = reference.sample()
        self.samples["fit"].append([self.fit(fit_d, seed), ref])
        if i == 0:
            self.quality_dir = fit_d
        if self.models is None:
            self.load_models()
        # cold filters take the round's first warm nominals, so that
        # check() can compare the two
        for c in range(plan.cold_per_round):
            idx = (self.next_warm + c) % len(self.nominal)
            out = os.path.join(d, f"filtered{i}_{c}.csv")
            ref = reference.sample()
            t0 = time.perf_counter()
            self.cli("filter", "--operator",
                     os.path.join(self.setup_dir, "operator.ckpt"),
                     "--bcbf", os.path.join(self.setup_dir, "bcbf.ckpt"),
                     "--nominal", os.path.join(self.setup_dir,
                                               f"nominal{idx}.csv"),
                     "--eta", fmt(ETA), "--alpha", fmt(ALPHA),
                     "--T", fmt(BARRIER_T), "--out", out,
                     "--report", os.path.join(d, f"report{i}_{c}.csv"))
            self.samples["cold"].append([time.perf_counter() - t0, ref])
            self.cold.append((idx, out))
        op, bar = self.models
        ref = reference.sample()
        for _ in range(plan.warm_per_round):
            idx = self.next_warm % len(self.nominal)
            self.next_warm += 1
            t0 = time.perf_counter()
            report = safety_filter.filter_trajectory(
                op, bar, self.nominal[idx], self.filter_config)
            self.samples["warm"].append([time.perf_counter() - t0, ref])
            self.warm.setdefault(idx, report)
        ref = reference.sample()
        # every round evaluates other episodes, so that the median covers
        # many draws
        eval_seed = derive(self.seed, 3, self.stream, i)
        self.samples["eval"].append(
            [self.evaluate(os.path.join(d, f"eval{i}"), eval_seed), ref])

    # -- checks and accounting --------------------------------------------

    def fail(self, message):
        self.failures.append(message)

    def check(self, full=True):
        """Correctness checks made after the timed work. The eta=0 and
        filter-off checks, which run the filter again, only when full."""
        if full:
            self._check_eta0()
        for idx, path in self.cold:
            _, rows = read_table(path)
            U = np.array([float(r["U"]) for r in rows])
            Y = np.array([float(r["Y"]) for r in rows])
            warm = self.warm[idx]
            if U.tobytes() != warm.U_safe.tobytes() \
                    or Y.tobytes() != warm.Y_predicted.tobytes():
                self.fail(f"cold and warm filters of nominal {idx} differ")

        for e in self.evals:
            self._check_aggregate(e)
        for path, requested in self.histories:
            _, rows = read_table(path)
            values = [float(v) for r in rows for v in r.values()]
            if not all(math.isfinite(v) for v in values):
                self.fail(f"{path}: non-finite training history")
            if len(rows) > requested:
                self.fail(f"{path}: {len(rows)} epochs > {requested}")

    def _check_eta0(self):
        """An eta=0 filter returns the nominal input bitwise, and filter-off
        evaluation equals eta=0 evaluation."""
        d = os.path.join(self.work, "checks")
        seed = derive(self.seed, 3)
        self.evaluate(os.path.join(d, "off"), seed, filter_on=False)
        self.evaluate(os.path.join(d, "eta0"), seed, eta=0.0)
        off, eta0 = (file_bytes(os.path.join(d, arm)) for arm in ("off",
                                                                  "eta0"))
        for name in ("metrics.csv", "episodes.csv"):
            if off[name] != eta0[name]:
                self.fail(f"filter-off and eta=0 {name} differ")

        op, bar = self.models
        eta0 = safety_filter.FilterConfig(
            constants=self.filter_config.constants, eta=0.0)
        for U in self.nominal[:3]:
            U_safe = safety_filter.filter_trajectory(op, bar, U, eta0).U_safe
            if U_safe.tobytes() != U.tobytes():
                self.fail("eta=0 filter changed the nominal trajectory")

    def _check_aggregate(self, d):
        """Re-aggregating the episode CSV reproduces the metrics CSV."""
        _, episodes = read_table(os.path.join(d, "episodes.csv"))
        _, (metrics,) = read_table(os.path.join(d, "metrics.csv"))
        rewards = np.array([float(r["reward"]) for r in episodes])
        feasible = np.array([r["feasible"] == "1" for r in episodes])
        steps = [float(r["feasible_steps"]) for r in episodes
                 if r["feasible"] == "1"]
        expect = {"reward_mean": float(rewards.mean()),
                  "reward_std": float(rewards.std()),
                  "feasible_rate": float(feasible.mean()),
                  "avg_feasible_steps": float(np.mean(steps)) if steps
                  else 0.0,
                  "episodes": float(len(episodes))}
        for key, value in expect.items():
            if not same(float(metrics[key]), value):
                self.fail(f"{d}: re-aggregated {key} {value!r} != "
                          f"{metrics[key]}")

    def counts(self):
        """(attempted, failed) over collection rollouts, requested training
        epochs and evaluation episodes."""
        attempted = failed = 0
        for path in self.datasets:
            meta, _ = read_table(path)
            attempted += int(meta["K"])
            failed += int(meta["skipped"])
        for path, requested in self.histories:
            _, rows = read_table(path)
            attempted += requested
            failed += requested - len(rows)
        for path in self.episode_files:
            _, rows = read_table(path)
            attempted += len(rows)
            failed += sum(1 for r in rows if float(r["reward"]) == -math.inf)
        return attempted, failed

    def quality(self):
        """Training and filtered-evaluation results of this run."""
        d = self.quality_dir
        _, op_rows = read_table(os.path.join(d, "operator_history.csv"))
        _, bar_rows = read_table(os.path.join(d, "bcbf_history.csv"))
        _, data = read_table(os.path.join(d, "dataset.csv"))
        # train-operator splits off its validation set internally; the
        # dataset's targets have the same distribution
        target_var = float(np.var([float(r["Y"]) for r in data]))
        _, episodes = read_table(os.path.join(self.evals[0], "episodes.csv"))
        return {
            "val_lg_rel": float(op_rows[-1]["val_LG"]) / target_var,
            "val_sign_err": float(bar_rows[-1]["val_sign_err"]),
            "feasible_rate": float(np.mean([r["feasible"] == "1"
                                            for r in episodes])),
            "reward_mean": float(np.mean([float(r["reward"])
                                          for r in episodes])),
        }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(plan, seed, seconds, work, index, last):
    """One measuring process: set-up once, then rounds for about `seconds`.

    Worker `index` filters the nominal trajectories from a different offset
    and evaluates other episodes than the others; the `last` one also makes
    the eta=0 and filter-off checks. Returns a JSON-ready dict of samples,
    counts, failures and (for worker 0) the quality results.
    """
    run = Run(plan, seed, work, stream=index)
    setup_s = run.setup(os.path.join(work, "setup"))
    setup_ref = reference.sample()
    run.next_warm = index * len(run.nominal) // WORKERS
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        run.round(i, os.path.join(work, "rounds"))
        i += 1
    measured_s = time.perf_counter() - t0
    run.check(full=last)
    attempted, failed = run.counts()
    return {
        "setup": [setup_s, setup_ref], "measured_s": measured_s, "rounds": i,
        **run.samples, "warm_nominals": len(run.warm),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted, "failed": failed,
        "failures": run.failures,
        "quality": run.quality() if index == 0 else {},
    }


def aggregate(plan, results, work):
    """End-to-end metrics of a measured run from its workers' results.

    Also checks that every worker's set-up and every round's fit wrote the
    same files as worker 0's. Returns (metrics, attempted, failed, failures,
    notes).
    """
    failures = [f for r in results for f in r["failures"]]
    dirs = [os.path.join(work, f"w{k}") for k in range(len(results))]
    setup0 = file_bytes(os.path.join(dirs[0], "setup"))
    fit0 = file_bytes(os.path.join(dirs[0], "rounds", "fit0"))
    for d, r in zip(dirs, results):
        if file_bytes(os.path.join(d, "setup")) != setup0:
            failures.append(f"{d}: set-up differs from worker 0's")
        for k in range(r["rounds"]):
            if file_bytes(os.path.join(d, "rounds", f"fit{k}")) != fit0:
                failures.append(f"{d}: fit in round {k} differs from "
                                f"worker 0's first")

    def pooled(key):
        return [x for r in results for x in r[key]]

    def scaled(samples):
        """Seconds at the reference speed of [seconds, reference] pairs."""
        return [t * reference.REFERENCE_S / ref for t, ref in samples]

    setups = [[r["import_s"] + r["setup"][0], r["setup"][1]]
              for r in results]
    items = {"setup": setups, "fit": pooled("fit"), "cold": pooled("cold"),
             "warm": pooled("warm"), "eval": pooled("eval")}
    times = {key: scaled(samples) for key, samples in items.items()}
    raw = {key: [t for t, _ in samples] for key, samples in items.items()}
    warm_ms = sorted(1000.0 * t for t in times["warm"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": statistics.median(times["setup"]),
        "fit_s": statistics.median(times["fit"]),
        "filter_cold_s": statistics.median(times["cold"]),
        "filter_traj_p50_ms": statistics.median(warm_ms),
        "eval_episodes_per_s":
            plan.eval_episodes / statistics.median(times["eval"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "failed_frac": failed / attempted,
        **results[0]["quality"],
    }
    if len(warm_ms) >= MIN_P90:
        metrics["filter_traj_p90_ms"] = statistics.quantiles(warm_ms,
                                                             n=10)[8]
    refs = [ref for samples in items.values() for _, ref in samples]
    notes = [f"{len(results)} worker processes, one after another; rounds "
             + ",".join(str(r["rounds"]) for r in results) + " in "
             + ",".join(f"{r['measured_s']:.1f}" for r in results) + " s",
             f"each timing is the median of its samples over all workers, "
             f"at the reference speed: setup {len(setups)}, fit "
             f"{len(items['fit'])}, cold {len(items['cold'])}, eval "
             f"{len(items['eval'])}, warm {len(warm_ms)} over "
             f"{sum(r['warm_nominals'] for r in results)} worker-nominals",
             f"reference: {reference.REFERENCE_S} s; timed "
             f"{min(refs):.5f}-{max(refs):.5f} s, median "
             f"{statistics.median(refs):.5f} s over {len(refs)} items",
             "unscaled medians: " + ", ".join(
                 f"{key}={statistics.median(values):.6g}"
                 for key, values in raw.items())]
    notes += [f"{key} samples (s, scaled): "
              + ",".join(f"{x:.4g}" for x in times[key])
              for key in ("setup", "fit", "cold", "eval")]
    return metrics, attempted, failed, failures, notes


def traced(plan, seed, work):
    """Traced run: set-up plus one round, three times.

    The first pass warms the process up and is the reference; the second is
    untraced and the third traced. The traced time over the faster untraced
    pass is the tracing overhead. Every pass must write bitwise identical
    files and filter results. Returns (metrics, attempted, failed, failures,
    notes).
    """
    runs, timings, tracer = [], [], Tracer()
    for name in ("reference", "untraced", "traced"):
        run = Run(plan, seed, os.path.join(work, name))
        t0 = time.perf_counter()
        with tracer if name == "traced" else contextlib.nullcontext():
            run.setup(os.path.join(run.work, "setup"))
            run.round(0, os.path.join(run.work, "rounds"))
        timings.append(time.perf_counter() - t0)
        runs.append(run)
    first, run = runs[0], runs[-1]
    tracer.write_spans(os.path.join(work, "spans.csv"))

    # spec.json is an input that names its own directory
    outputs = [{k: v for k, v in file_bytes(r.work).items()
                if os.path.basename(k) != "spec.json"} for r in runs]
    for other, r in zip(outputs[1:], runs[1:]):
        differ = sorted(k for k in outputs[0].keys() | other.keys()
                        if outputs[0].get(k) != other.get(k))
        if differ:
            r.fail(f"{os.path.basename(r.work)} pass wrote different "
                   f"files: {differ}")
        for idx, report in first.warm.items():
            mine = r.warm[idx]
            if (report.U_safe.tobytes() != mine.U_safe.tobytes()
                    or report.Y_predicted.tobytes()
                    != mine.Y_predicted.tobytes()
                    or report.records != mine.records):
                r.fail(f"{os.path.basename(r.work)} warm filter of "
                       f"nominal {idx} differs")
    first.check()

    summaries = tracer.extras("safety_filter.filter_trajectory")
    steps, active, accepted, infeasible, modified = (
        [sum(col) for col in zip(*summaries)] if summaries else [0] * 5)
    forwards = tracer.count("neural_operator.forward_batch",
                            under="safety_filter.filter_trajectory")
    if not {"neural_operator.BoundaryOperator.forward_batch",
            "safety_filter.filter_trajectory"} & set(tracer.absent) \
            and forwards != len(summaries) + modified:
        run.fail(f"{forwards} forward_batch calls under filter_trajectory, "
                 f"expected {len(summaries)} trajectories + {modified} "
                 f"modified steps")

    metrics = {}
    for name, st in tracer.layer_stats().items():
        if name not in SPAN_NAMES:
            continue
        metrics[f"{name}.calls"] = st["calls"]
        if name in ROW_SPANS:
            metrics[f"{name}.rows"] = st["rows"]
        metrics[f"{name}.s"] = st["s"]
        metrics[f"{name}.self_s"] = st["self_s"]
    epochs_run = sum(len(read_table(path)[1]) for path, _ in run.histories)
    evaluated = ("pde_sim.rollout", "pde_sim.rollout_inputs")
    metrics.update({
        "training.epochs_run": epochs_run,
        "training.epochs_requested": sum(n for _, n in run.histories),
        "safety_filter.steps": steps,
        "safety_filter.active_frac": active / steps if steps else 0.0,
        "safety_filter.accepted_frac": accepted / steps if steps else 0.0,
        "safety_filter.infeasible_frac": infeasible / steps if steps else 0.0,
        "safety_filter.modified_steps": modified,
        "safety_filter.forwards_per_modified":
            (forwards - len(summaries)) / modified if modified else 0.0,
        "evaluation.episodes": sum(tracer.extras("evaluation.evaluate")),
        "evaluation.diverged": sum(
            tracer.count(name, under="evaluation.evaluate", errors_only=True)
            for name in evaluated),
        "trace.overhead": timings[2] / min(timings[:2]) - 1.0,
    })
    attempted, failed = (sum(c) for c in zip(*(r.counts() for r in runs)))
    notes = ["passes (reference, untraced, traced) "
             + ", ".join(f"{t:.3f}" for t in timings)
             + f" s; {len(tracer.spans)} spans",
             "absent: " + (", ".join(tracer.absent) or "none")]
    return (metrics, attempted, failed,
            [f for r in runs for f in r.failures], notes)
