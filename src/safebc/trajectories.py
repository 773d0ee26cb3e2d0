"""Trajectory dataset collection, safety labeling, balancing, splitting, and
serialization.

A dataset holds K boundary input/output trajectories on one time grid as
two (K, M+1) arrays, the inputs U and the outputs Y, with trajectory k (and
its initial condition U[k, 0]) in row k, and the safe set whose value on Y
is the per-step labels. On disk it is a table (see `checkpoint`) with
columns traj_id,step,U,Y, rows in the order written, after one '# key=value'
comment per metadata entry and the safe_set, grid_T and grid_M comments; a
file without them is rejected. A write/read round trip is value-exact.
"""
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .checkpoint import (ConfigurationError, DatasetFormatError,
                         finite_float, fmt, read_table, table_row_line,
                         write_table)
from .nets import subseed
from .pde_sim import ENVIRONMENTS, TimeGrid, rollout

DATASET_COLUMNS = ("traj_id", "step", "U", "Y")


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
        # a distance that overflows lies beyond any finite halfwidth
        with np.errstate(over="ignore"):
            distance = np.abs(np.asarray(Y, dtype=np.float64) - self.center)
        return distance < self.halfwidth

    def describe(self):
        return f"abs:center={self.center!r},halfwidth={self.halfwidth!r}"


def parse_safe_set(text):
    """Parse 'Y<b' / 'Y>b' / 'abs:center=c,halfwidth=h' safe-set specs;
    keys left out of an 'abs:' spec keep the TwoSidedSet defaults. An item
    that is not key=value, an unknown key and a repeated one are named."""
    text = text.strip()
    try:
        if text.startswith("abs:"):
            kwargs = {}
            for item in filter(None, text[4:].split(",")):
                key, eq, val = item.partition("=")
                if not eq:
                    raise ValueError(f"item {item!r} is not key=value for "
                                     "abs")
                if key not in ("center", "halfwidth"):
                    raise ValueError(f"unknown key {key!r} for abs")
                if key in kwargs:
                    raise ValueError(f"repeated key {key!r} for abs")
                kwargs[key] = float(val)
            return TwoSidedSet(**kwargs)
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
    """K trajectories on one time grid: U and Y are (K, M+1) float arrays
    with trajectory k in row k, and safe, their (K, M+1) bool labels, is
    safe_set applied to Y."""

    grid: TimeGrid
    U: np.ndarray
    Y: np.ndarray
    safe_set: OneSidedSet | TwoSidedSet
    meta: dict = field(default_factory=dict)
    safe: np.ndarray = field(init=False)

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.U.ndim != 2 or self.U.shape != self.Y.shape:
            raise ConfigurationError(
                f"U and Y must share one 2-D shape, got {self.U.shape} and "
                f"{self.Y.shape}")
        if self.U.shape[1] != self.grid.M + 1:
            raise ConfigurationError(
                f"trajectories have {self.U.shape[1]} steps, the grid "
                f"{self.grid.M + 1}")
        self.safe = self.safe_set.contains(self.Y)

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
    name = next(k for k, cls in ENVIRONMENTS.items() if type(env_cfg) is cls)
    meta = {
        "env": json.dumps({"name": name, **asdict(env_cfg)}),
        "controllers": ";".join(c.describe() for c in controllers),
        "seed": str(int(seed)),
        "K": str(K),
        "skipped": str(skipped),
    }
    return Dataset(env_cfg.grid, run.U[kept], run.Y[kept], safe_set, meta)


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
    """Dataset table: '# key=value' metadata, safe-set and grid comments,
    then one traj_id,step,U,Y row per step, trajectory after trajectory."""
    comments = [f"{key}={value}" for key, value in dataset.meta.items()]
    comments += [f"safe_set={dataset.safe_set.describe()}",
                 f"grid_T={fmt(dataset.grid.T)}", f"grid_M={dataset.grid.M}"]
    K, width = dataset.U.shape
    write_table(path, dict(zip(DATASET_COLUMNS, (
        np.repeat(np.arange(K), width), np.tile(np.arange(width), K),
        dataset.U.ravel(), dataset.Y.ravel()))), comments)


def _from_comments(path, meta, keys, parse):
    """parse of the values of the comments keys, taken out of meta; a
    missing or bad one raises DatasetFormatError naming them."""
    if not all(key in meta for key in keys):
        raise DatasetFormatError(path, f"missing {'/'.join(keys)} comments")
    values = [meta.pop(key) for key in keys]
    try:
        return parse(*values)
    except ValueError as exc:
        named = ", ".join(f"{k}={v}" for k, v in zip(keys, values))
        raise DatasetFormatError(path, f"bad comment {named}: {exc}") from None


def read_dataset(path):
    """Read a dataset table back; value-exact for finite inputs.

    Row r must be step r % (M+1) of trajectory r // (M+1), as the writer
    writes it: the first row out of place is named by its line, and a last
    trajectory cut short by its last row's."""
    table = read_table(path, DATASET_COLUMNS, ints=("traj_id", "step"))
    meta = {}
    for comment in table.comments:
        key, sep, value = comment.partition("=")
        if sep:
            meta[key.strip()] = value
    grid = _from_comments(path, meta, ("grid_T", "grid_M"),
                          lambda T, M: TimeGrid(float(T), int(M)))
    safe_set = _from_comments(path, meta, ("safe_set",), parse_safe_set)
    cols = table.data
    traj, step = cols["traj_id"], cols["step"]
    width = grid.M + 1
    row = np.arange(traj.size)
    bad = np.flatnonzero((traj != row // width) | (step != row % width))
    if bad.size or traj.size % width:
        j = int(bad[0]) if bad.size else traj.size - 1
        raise DatasetFormatError(
            path, f"row at step {step[j]} of trajectory {traj[j]}: rows must "
            f"run trajectory after trajectory, steps 0..{grid.M} in order",
            table_row_line(path, j))
    shape = (traj.size // width, width)
    return Dataset(grid, np.ascontiguousarray(cols["U"].reshape(shape)),
                   np.ascontiguousarray(cols["Y"].reshape(shape)), safe_set,
                   meta)
