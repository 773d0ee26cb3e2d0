"""Trajectory dataset collection, safety labeling, balancing, splitting, and
serialization.

A dataset holds K labeled boundary input/output trajectories on one time
grid as three (K, M+1) arrays: the inputs U, the outputs Y and the per-step
safety labels; row k is trajectory k, and its initial condition is U[k, 0].
On disk it is a table (see `checkpoint`) with columns
traj_id,step,t,U,Y,safe, preceded by one '# key=value' comment per metadata
entry and the grid_T / grid_M comments that fix the time grid; a file
without them is rejected. A write/read round trip is value-exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (ConfigurationError, DatasetFormatError,
                         finite_float, fmt, read_table, table_row_line,
                         write_table)
from .nets import subseed
from .pde_sim import TimeGrid, rollout

DATASET_COLUMNS = ("traj_id", "step", "t", "U", "Y", "safe")


class CollectionError(RuntimeError):
    """Raised when too many rollouts diverge during collection."""


@dataclass(frozen=True)
class OneSidedSet:
    """Safe iff sign * Y < bound (sign is +1 or -1, bound a finite float)."""

    sign: int = 1
    bound: float = 1.0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ConfigurationError("sign must be +1 or -1")
        object.__setattr__(self, "bound", finite_float(self.bound, "bound"))

    def contains(self, Y):
        return self.sign * np.asarray(Y, dtype=np.float64) < self.bound

    def describe(self):
        op = "<" if self.sign == 1 else ">"
        return f"Y{op}{self.bound * self.sign!r}"


@dataclass(frozen=True)
class TwoSidedSet:
    """Safe iff |Y - center| < halfwidth, for a finite float center and a
    positive halfwidth."""

    center: float = 0.0
    halfwidth: float = 0.145

    def __post_init__(self):
        object.__setattr__(self, "center",
                           finite_float(self.center, "center"))
        if not self.halfwidth > 0:
            raise ConfigurationError("halfwidth must be positive")
        object.__setattr__(self, "halfwidth", float(self.halfwidth))

    def contains(self, Y):
        return np.abs(np.asarray(Y, dtype=np.float64) - self.center) < self.halfwidth

    def describe(self):
        return f"abs:center={self.center!r},halfwidth={self.halfwidth!r}"


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


def suffix_safe_mask(labels):
    """True where every label from that step to the end (of its row, for a
    (K, M+1) array) is safe."""
    labels = np.asarray(labels, dtype=bool)[..., ::-1]
    return np.logical_and.accumulate(labels, axis=-1)[..., ::-1].copy()


@dataclass
class Dataset:
    """K trajectories on one time grid: U, Y (float) and safe (bool) are
    (K, M+1) arrays with trajectory k in row k."""

    grid: TimeGrid
    U: np.ndarray
    Y: np.ndarray
    safe: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        self.safe = np.asarray(self.safe, dtype=bool)
        if self.U.ndim != 2 or \
                not self.U.shape == self.Y.shape == self.safe.shape:
            raise ConfigurationError(
                f"U, Y and safe must share one 2-D shape, got {self.U.shape}"
                f", {self.Y.shape} and {self.safe.shape}")
        if self.U.shape[1] != self.grid.M + 1:
            raise ConfigurationError(
                f"trajectories have {self.U.shape[1]} steps, the grid "
                f"{self.grid.M + 1}")

    def __len__(self):
        return self.U.shape[0]


def collect_dataset(env_cfg, controllers, K, U0_range, safe_set, seed=0):
    """Roll out K episodes (controllers cycled round-robin) and label them.

    U0 and the controller's episode entropy derive from (seed, index), so the
    result is deterministic and order-independent. All K episodes run as one
    batch. Diverged rollouts are skipped and counted in meta["skipped"];
    more than 50% skipped raises CollectionError.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = float(U0_range[0]), float(U0_range[1])
    if not lo <= hi:
        raise ValueError("empty U0 range")
    if not controllers:
        raise ValueError("need at least one controller")
    U0 = [np.random.default_rng((int(seed), k)).uniform(lo, hi)
          for k in range(K)]
    run = rollout(env_cfg, [controllers[k % len(controllers)]
                            for k in range(K)], U0, episode_seeds=range(K))
    kept = run.diverged == 0
    skipped = K - int(kept.sum())
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
    Y = run.Y[kept]
    return Dataset(env_cfg.grid, run.U[kept], Y, safe_set.contains(Y), meta)


def balance_near_zero(dataset, band, keep_fraction, seed=0):
    """The (K, M+1) mask of the steps retained for the feasibility loss,
    thinning near-zero outputs.

    Steps with Y inside `band` are retained with probability keep_fraction,
    drawn from one random stream per trajectory; all other steps are always
    retained.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    lo, hi = band
    draws = np.empty(dataset.Y.shape)
    for k in range(len(dataset)):
        draws[k] = np.random.default_rng(subseed(seed, k)).random(
            draws.shape[1])
    in_band = (dataset.Y >= lo) & (dataset.Y <= hi)
    return ~in_band | (draws < keep_fraction)


def split(dataset, train_fraction, seed=0):
    """Disjoint, exhaustive split at trajectory granularity: the sorted
    trajectory indices (train_idx, test_idx)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    K = len(dataset)
    if K < 2:
        raise ValueError("need at least 2 trajectories to split")
    n_train = int(round(train_fraction * K))
    n_train = min(max(n_train, 1), K - 1)
    seed_key = seed if isinstance(seed, tuple) else int(seed)
    perm = np.random.default_rng(seed_key).permutation(K)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def write_dataset(path, dataset):
    """Dataset table: '# key=value' metadata and grid comments, then one
    traj_id,step,t,U,Y,safe row per step of every trajectory."""
    comments = [f"{key}={value}" for key, value in dataset.meta.items()]
    comments += [f"grid_T={fmt(dataset.grid.T)}", f"grid_M={dataset.grid.M}"]
    K, width = dataset.U.shape
    steps = np.arange(width)
    write_table(path, dict(zip(DATASET_COLUMNS, (
        np.repeat(np.arange(K), width), np.tile(steps, K),
        np.tile(steps * dataset.grid.dt, K), dataset.U.ravel(),
        dataset.Y.ravel(), dataset.safe.ravel()))), comments)


def read_dataset(path):
    """Read a dataset table back; value-exact for finite inputs.

    Rows may come in any order. They are sorted by (traj_id, step), and each
    trajectory must then hold steps 0..M once each: a gap, a duplicate or a
    step past M names the line of the first row out of place, a trajectory
    cut short the line of its last row. A row whose t is not step * dt
    (beyond rounding, 1e-9 T) is named by its line too."""
    table = read_table(path, DATASET_COLUMNS, ints=("traj_id", "step", "safe"))
    meta = {}
    for comment in table.comments:
        key, sep, value = comment.partition("=")
        if sep:
            meta[key.strip()] = value
    if "grid_T" not in meta or "grid_M" not in meta:
        raise DatasetFormatError(path, "missing grid_T/grid_M comments")
    grid = TimeGrid(float(meta.pop("grid_T")), int(meta.pop("grid_M")))
    cols = table.data
    order = np.lexsort((cols["step"], cols["traj_id"]))
    traj, step = cols["traj_id"][order], cols["step"][order]
    starts = np.ones(traj.size, dtype=bool)
    starts[1:] = traj[1:] != traj[:-1]
    first = np.flatnonzero(starts)  # each trajectory's first sorted row
    counts = np.diff(np.append(first, traj.size))
    pos = np.arange(traj.size) - np.repeat(first, counts)
    width = grid.M + 1
    bad = (step != pos) | (pos >= width)
    bad[(first + counts - 1)[counts < width]] = True
    if bad.any():
        j = int(np.argmax(bad))
        lo = first[np.searchsorted(first, j, side="right") - 1]
        raise DatasetFormatError(
            path, f"trajectory {traj[j]} has steps "
            f"{tuple(step[lo:lo + 3].tolist())}..., expected 0..{grid.M}",
            table_row_line(path, order[j]))
    expected_t = cols["step"] * grid.dt
    off_grid = np.flatnonzero(~(np.abs(cols["t"] - expected_t)
                                <= 1e-9 * grid.T))
    if off_grid.size:
        j = int(off_grid[0])
        raise DatasetFormatError(
            path, f"row at step {cols['step'][j]} has t={cols['t'][j]:.17g}"
            f", the grid's t is {expected_t[j]:.17g}",
            table_row_line(path, j))
    shape = (first.size, width)
    return Dataset(grid, cols["U"][order].reshape(shape),
                   cols["Y"][order].reshape(shape),
                   cols["safe"][order].reshape(shape) != 0, meta)
