"""Trajectory dataset collection, safety labeling, balancing, splitting, and
serialization.

A dataset is a list of labeled boundary input/output trajectory pairs sharing
one time grid. On disk it is a table (see `checkpoint`) with columns
traj_id,step,t,U,Y,safe, preceded by one '# key=value' comment per metadata
entry and the grid_T / grid_M comments that fix the time grid. A write/read
round trip is value-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import (ConfigurationError, DatasetFormatError, fmt,
                         read_table, write_table)
from .nets import subseed
from .pde_sim import SimulationDivergedError, TimeGrid, rollout

DATASET_COLUMNS = ("traj_id", "step", "t", "U", "Y", "safe")


class CollectionError(RuntimeError):
    """Raised when too many rollouts diverge during collection."""


@dataclass(frozen=True)
class OneSidedSet:
    """Safe iff sign * Y < bound (sign is +1 or -1)."""

    sign: int = 1
    bound: float = 1.0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ConfigurationError("sign must be +1 or -1")
        if not np.isfinite(self.bound):
            raise ConfigurationError("bound must be finite")

    def contains(self, Y):
        return self.sign * np.asarray(Y, dtype=np.float64) < self.bound

    def describe(self):
        op = "<" if self.sign == 1 else ">"
        return f"Y{op}{self.bound * self.sign:g}"


@dataclass(frozen=True)
class TwoSidedSet:
    """Safe iff |Y - center| < halfwidth; center may be a per-step array."""

    center: float = 0.0
    halfwidth: float = 0.145

    def __post_init__(self):
        if not self.halfwidth > 0:
            raise ConfigurationError("halfwidth must be positive")

    def contains(self, Y):
        return np.abs(np.asarray(Y, dtype=np.float64) - self.center) < self.halfwidth

    def describe(self):
        return f"abs:center={self.center},halfwidth={self.halfwidth:g}"


def parse_safe_set(text):
    """Parse 'Y<b' / 'Y>b' / 'abs:center=c,halfwidth=h' safe-set specs;
    keys left out of an 'abs:' spec keep the TwoSidedSet defaults."""
    text = text.strip()
    try:
        if text.startswith("abs:"):
            kv = dict(part.split("=", 1) for part in text[4:].split(",")
                      if part)
            return TwoSidedSet(**{k: float(v) for k, v in kv.items()})
        if text.startswith("Y<"):
            return OneSidedSet(sign=1, bound=float(text[2:]))
        if text.startswith("Y>"):
            return OneSidedSet(sign=-1, bound=-float(text[2:]))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"cannot parse safe set {text!r}: {exc}") \
            from exc
    raise ConfigurationError(f"cannot parse safe set {text!r}")


def label_safety(Y, safe_set):
    """Pointwise membership labels for a boundary output trajectory."""
    return np.asarray(safe_set.contains(Y), dtype=bool)


def suffix_safe_mask(labels):
    """True where every label from that step to the end is safe."""
    rev = np.logical_and.accumulate(np.asarray(labels, dtype=bool)[::-1])
    return rev[::-1].copy()


@dataclass
class LabeledTrajectoryPair:
    """One boundary input/output pair with per-step safety labels.

    bf_mask, when set, marks the steps retained for the feasibility loss
    (see balance_near_zero); it is not serialized.
    """

    U: np.ndarray
    Y: np.ndarray
    U0: float
    safe: np.ndarray
    bf_mask: np.ndarray | None = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        self.safe = np.asarray(self.safe, dtype=bool)
        if not (self.U.shape == self.Y.shape == self.safe.shape):
            raise ValueError("U, Y, safe must share one shape")
        if self.U[0] != self.U0:
            raise ValueError("U[0] must equal U0")


@dataclass
class Dataset:
    grid: TimeGrid | None
    pairs: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.pairs)


def collect_dataset(env_cfg, controllers, K, U0_range, safe_set, seed=0):
    """Roll out K episodes (controllers cycled round-robin) and label them.

    U0 and the controller's episode entropy derive from (seed, index), so the
    result is deterministic and order-independent. Diverged rollouts are
    skipped and counted; more than 50% skipped raises CollectionError.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = float(U0_range[0]), float(U0_range[1])
    if not lo <= hi:
        raise ValueError("empty U0 range")
    if not controllers:
        raise ValueError("need at least one controller")
    pairs = []
    skipped = 0
    for k in range(K):
        rng = np.random.default_rng((int(seed), k))
        U0 = rng.uniform(lo, hi)
        controller = controllers[k % len(controllers)]
        try:
            run = rollout(env_cfg, controller, U0, episode_seed=k)
        except SimulationDivergedError:
            skipped += 1
            continue
        pairs.append(LabeledTrajectoryPair(run.U, run.Y, U0,
                                           label_safety(run.Y, safe_set)))
    if 2 * skipped > K:
        raise CollectionError(f"{skipped} of {K} rollouts diverged")
    meta = {
        "env": type(env_cfg).__name__,
        "controllers": ";".join(c.describe() for c in controllers),
        "safe_set": safe_set.describe(),
        "seed": str(int(seed)),
        "K": str(K),
        "skipped": str(skipped),
    }
    return Dataset(env_cfg.grid, pairs, meta)


def balance_near_zero(dataset, band, keep_fraction, seed=0):
    """Attach feasibility-loss inclusion masks that thin near-zero outputs.

    Steps with Y inside `band` are retained with probability keep_fraction;
    all other steps are always retained. Returns a new Dataset; trajectory
    values are shared, only the masks are new.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    lo, hi = band
    out_pairs = []
    for idx, pair in enumerate(dataset.pairs):
        rng = np.random.default_rng(subseed(seed, idx))
        draws = rng.random(pair.Y.size)
        in_band = (pair.Y >= lo) & (pair.Y <= hi)
        mask = ~in_band | (draws < keep_fraction)
        out_pairs.append(replace(pair, bf_mask=mask))
    return Dataset(dataset.grid, out_pairs, dict(dataset.meta))


def split(dataset, train_fraction, seed=0):
    """Disjoint, exhaustive split at trajectory granularity."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    K = len(dataset.pairs)
    if K < 2:
        raise ValueError("need at least 2 trajectories to split")
    n_train = int(round(train_fraction * K))
    n_train = min(max(n_train, 1), K - 1)
    seed_key = seed if isinstance(seed, tuple) else int(seed)
    perm = np.random.default_rng(seed_key).permutation(K)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    train = Dataset(dataset.grid, [dataset.pairs[i] for i in train_idx],
                    dict(dataset.meta))
    test = Dataset(dataset.grid, [dataset.pairs[i] for i in test_idx],
                   dict(dataset.meta))
    return train, test


def write_dataset(path, dataset):
    """Dataset table: '# key=value' metadata and grid comments, then one
    traj_id,step,t,U,Y,safe row per step of every trajectory.  Trajectories
    need a grid: without one the rows could not be read back."""
    if dataset.grid is None and dataset.pairs:
        raise ConfigurationError(
            f"{path}: a dataset with trajectories needs a grid")
    comments = [f"{key}={value}" for key, value in dataset.meta.items()]
    rows = []
    if dataset.grid is not None:
        comments += [f"grid_T={fmt(dataset.grid.T)}",
                     f"grid_M={dataset.grid.M}"]
        dt = dataset.grid.dt
        rows = ((traj_id, m, m * dt, pair.U[m], pair.Y[m], pair.safe[m])
                for traj_id, pair in enumerate(dataset.pairs)
                for m in range(pair.U.size))
    write_table(path, DATASET_COLUMNS, rows, comments)


def read_dataset(path):
    """Read a dataset table back; value-exact for finite inputs."""
    table = read_table(path, DATASET_COLUMNS,
                       (int, int, float, float, float, int))
    meta = {}
    for comment in table.comments:
        key, sep, value = comment.partition("=")
        if sep:
            meta[key.strip()] = value
    grid = None
    if "grid_T" in meta and "grid_M" in meta:
        grid = TimeGrid(float(meta.pop("grid_T")), int(meta.pop("grid_M")))
    elif table.rows:
        raise DatasetFormatError(path, "rows without grid_T/grid_M comments")
    by_traj = {}
    for traj_id, step, _, U, Y, safe in table.rows:
        by_traj.setdefault(traj_id, []).append((step, U, Y, safe))
    pairs = []
    for traj_id in sorted(by_traj):
        steps, U, Y, safe = map(np.array, zip(*sorted(by_traj[traj_id])))
        if not np.array_equal(steps, np.arange(grid.M + 1)):
            raise DatasetFormatError(
                path, f"trajectory {traj_id} has steps {steps[:3]}..., "
                f"expected 0..{grid.M}")
        pairs.append(LabeledTrajectoryPair(U, Y, U[0], safe))
    return Dataset(grid, pairs, meta)


def datasets_equal(a, b):
    """Bitwise equality of values and labels (metadata ignored)."""
    if len(a.pairs) != len(b.pairs) or a.grid != b.grid:
        return False
    for pa, pb in zip(a.pairs, b.pairs):
        if not (np.array_equal(pa.U, pb.U) and np.array_equal(pa.Y, pb.Y)
                and np.array_equal(pa.safe, pb.safe)):
            return False
    return True
