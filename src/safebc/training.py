"""The training loop for the boundary operator and the barrier function.

`train_joint` is the one epoch loop. Each epoch updates whichever parts
train, and each part minimizes its own loss: the operator the trajectory
regression loss L_G, the barrier lambda_S * L_S + lambda_BF * L_BF +
reg_weight * reg under the decrease-condition constants config.constants.
A barrier step makes two loss calls, `loss_safe_set` on labeled samples
and `loss_decrease_condition` on rate samples, and each traces and sweeps
the barrier network once, in one work store that the run keeps for both.
Each part draws from its own seeded random stream. Two-phase training (the
default) fits the operator first with `train_operator`, then shapes the
barrier with `train_bcbf` on the labeled dataset with that operator
frozen. Both are presets of the loop that set the other part's epochs to
0, so they reduce to it by construction.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import (BarrierFunction, FeasibilityConstants,
                      loss_decrease_condition, loss_safe_set)
from .checkpoint import (ConfigurationError, check_integer, fmt,
                         read_table, write_table)
from .nets import Adam, WorkStore, subseed
from .neural_operator import BoundaryOperator, check_architecture, mean_square
from .trajectories import balance_near_zero, split, suffix_safe_mask

HISTORY_COLUMNS = ("epoch", "L_G", "L_S", "L_BF", "reg", "val_LG",
                   "val_sign_err")


def _check_schedule(schedule, batch):
    """ConfigurationError unless the schedule can run: integer epochs >= 0,
    an integer batch size named batch >= 1, and a finite positive learning
    rate."""
    check_integer(schedule.epochs, "epochs")
    check_integer(getattr(schedule, batch), batch)
    if not schedule.epochs >= 0:
        raise ConfigurationError(
            f"epochs must be >= 0, got {schedule.epochs!r}")
    if not getattr(schedule, batch) >= 1:
        raise ConfigurationError(
            f"{batch} must be >= 1, got {getattr(schedule, batch)!r}")
    if not 0.0 < schedule.lr < math.inf:
        raise ConfigurationError(
            f"lr must be finite and positive, got {schedule.lr!r}")


def _check_weights(config, *names):
    """ConfigurationError unless each named setting is finite and >= 0."""
    for name in names:
        value = getattr(config, name)
        if not 0.0 <= value < math.inf:
            raise ConfigurationError(
                f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class OperatorSchedule:
    """Optimization settings for the trajectory-regression phase."""
    epochs: int = 100
    lr: float = 1e-3
    l2: float = 1e-4
    batch_trajectories: int = 64
    d_v: int = 16
    n_layers: int = 2
    activations: tuple[str, ...] = None

    def __post_init__(self):
        _check_schedule(self, "batch_trajectories")
        _check_weights(self, "l2")
        check_architecture(self.d_v, self.n_layers, self.activations)


@dataclass
class BarrierSchedule:
    """Optimization settings for the barrier-shaping phase."""
    epochs: int = 20
    lr: float = 0.01
    batch_samples: int = 4096
    margin: float = 0.1
    reg_weight: float = 1.0

    def __post_init__(self):
        _check_schedule(self, "batch_samples")
        _check_weights(self, "margin", "reg_weight")


@dataclass
class TrainConfig:
    lambda_S: float = 1.0
    lambda_BF: float = 0.5
    operator: OperatorSchedule = field(default_factory=OperatorSchedule)
    bcbf: BarrierSchedule = field(default_factory=BarrierSchedule)
    constants: FeasibilityConstants = field(
        default_factory=FeasibilityConstants)
    dy_dt_source: str = "data-fd"
    train_fraction: float = 0.9
    balance_band: tuple[float, float] = (-0.1, 0.1)
    balance_keep: float = 0.2

    def __post_init__(self):
        if self.dy_dt_source not in ("data-fd", "operator"):
            raise ConfigurationError(
                f"unknown dY/dt source {self.dy_dt_source!r}")
        _check_weights(self, "lambda_S", "lambda_BF")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1), "
                                     f"got {self.train_fraction!r}")
        if not 0.0 < self.balance_keep <= 1.0:
            raise ConfigurationError("balance_keep must be in (0, 1], "
                                     f"got {self.balance_keep!r}")
        if not self.balance_band[0] <= self.balance_band[1]:
            raise ConfigurationError("balance_band low end must be <= its "
                                     f"high end, got {self.balance_band!r}")


@dataclass(frozen=True)
class StopReason:
    """Why `train_joint` ended before its last epoch: the exception that
    rolled back the epoch, and its message on one line."""
    error: str
    epoch: int
    message: str


class TrainHistory:
    """Per-epoch loss records with CSV serialization.

    The loss weights in effect are stored as a leading comment line so every
    history file is self-describing without changing the column schema. A
    run that stopped early adds a second comment line,
    ``stopped error=<type> epoch=<n> message=<text>``.
    """

    def __init__(self, rows=None, weights=None):
        self.rows = list(rows) if rows else []
        self.weights = dict(weights) if weights else {}
        self.stopped = None  # a StopReason once training stopped early

    def add(self, **kwargs):
        row = {k: 0.0 for k in HISTORY_COLUMNS}
        row.update(kwargs)
        self.rows.append(row)

    def save(self, path):
        comments = []
        if self.weights:
            comments.append(" ".join(f"{k}={fmt(v)}"
                                     for k, v in sorted(self.weights.items())))
        if self.stopped is not None:
            s = self.stopped
            comments.append(f"stopped error={s.error} epoch={s.epoch} "
                            f"message={s.message}")
        write_table(path, {k: np.array([row[k] for row in self.rows])
                           for k in HISTORY_COLUMNS}, comments)

    @staticmethod
    def read(path):
        table = read_table(path, HISTORY_COLUMNS, ints=("epoch",))
        columns = [table.data[k].tolist() for k in HISTORY_COLUMNS]
        hist = TrainHistory([dict(zip(HISTORY_COLUMNS, row))
                             for row in zip(*columns)])
        for comment in table.comments:
            if comment.startswith("stopped "):
                error, epoch, message = (item.partition("=")[2] for item
                                         in comment.split(" ", 3)[1:])
                hist.stopped = StopReason(error, int(epoch), message)
                continue
            for item in comment.split():
                key, _, val = item.partition("=")
                hist.weights[key] = float(val)
        return hist


# -- operator phase --------------------------------------------------------


def _operator_epoch(op, adam, UU, YY, schedule, rng):
    order = rng.permutation(UU.shape[0])
    bs = schedule.batch_trajectories
    total, n_eff = 0.0, 0
    for start in range(0, order.size, bs):
        # the permutation decides batch membership; within a batch the
        # compute order is canonical
        idx = np.sort(order[start:start + bs])
        loss, grads = op.loss_and_grads(UU[idx], YY[idx], l2=schedule.l2)
        adam.step(op.params(), grads)
        k = idx.size * YY.shape[1]
        total += loss * k
        n_eff += k
    return total / max(n_eff, 1)


def _weight_record(config):
    return {"lambda_S": config.lambda_S, "lambda_BF": config.lambda_BF}


def _snapshot(params):
    return [p.copy() for p in params]


def _restore(params, snap):
    for p, s in zip(params, snap):
        p[...] = s


# -- barrier phase ---------------------------------------------------------


class _BarrierSamples:
    """Flat sample arrays from some trajectories of a dataset, in row-major
    (trajectory, step) order.

    retained is the dataset's (K, M+1) mask of the steps kept for the
    feasibility loss (see balance_near_zero). The rates bf_dY are filled by
    set_rates, because with operator-supplied rates they change whenever
    the operator does.
    """

    def __init__(self, dataset, rows, retained):
        self._dt = dataset.grid.dt
        self._U, self._Y = dataset.U[rows], dataset.Y[rows]
        self._retained = retained[rows, :-1]
        times = np.broadcast_to(dataset.grid.times(), self._Y.shape)
        safe = dataset.safe[rows]
        self.cls_t = times.ravel()
        self.cls_Y = self._Y.ravel()
        self.cls_safe = suffix_safe_mask(safe).ravel()
        self.cls_unsafe = ~safe.ravel()
        self.bf_t = times[:, :-1][self._retained]
        self.bf_Y = self._Y[:, :-1][self._retained]
        self.bf_Y0 = np.repeat(self._U[:, 0], self._retained.sum(axis=1))
        self.bf_dY = None
        self.safe_idx = np.flatnonzero(self.cls_safe)
        self.unsafe_idx = np.flatnonzero(self.cls_unsafe)

    def set_rates(self, dy_source, operator):
        """dY/dt at the retained steps: trajectory finite differences, or
        the operator's rate split Lambda * U_dot + mu."""
        if dy_source == "operator":
            dY = np.empty((len(self._U), self._U.shape[1] - 1))
            for k, U in enumerate(self._U):
                _, lam, mu = operator.predict(U)
                dY[k] = lam[:-1] * (np.diff(U) / self._dt) + mu[:-1]
        else:
            dY = np.diff(self._Y, axis=1) / self._dt
        self.bf_dY = dY[self._retained]


def _cyclic_chunk(order, start, size):
    if order.size == 0:
        return order
    take = min(size, order.size)
    idx = np.arange(start, start + take) % order.size
    return order[idx]


def _barrier_epoch(bar, adam, samples, config, rng, store=None):
    sched = config.bcbf
    bs = sched.batch_samples
    order_bf = rng.permutation(samples.bf_t.size)
    order_s = rng.permutation(samples.safe_idx.size)
    order_u = rng.permutation(samples.unsafe_idx.size)
    n_steps = max(1, math.ceil(order_bf.size / bs)) if config.lambda_BF > 0 \
        else max(1, math.ceil(max(order_s.size, order_u.size, 1) / bs))
    sums = {"L_S": 0.0, "L_BF": 0.0, "reg": 0.0}
    for k in range(n_steps):
        grads = [np.zeros_like(p) for p in bar.params()]
        if config.lambda_S > 0 or sched.reg_weight > 0:
            safe_sel = samples.safe_idx[_cyclic_chunk(order_s, k * bs, bs)]
            unsafe_sel = samples.unsafe_idx[_cyclic_chunk(order_u, k * bs,
                                                          bs)]
            sel = np.concatenate([np.sort(safe_sel), np.sort(unsafe_sel)])
            is_safe = np.arange(sel.size) < safe_sel.size
            ls, reg, gs = loss_safe_set(
                bar, samples.cls_t[sel], samples.cls_Y[sel], is_safe,
                ~is_safe, config.lambda_S, sched.reg_weight, sched.margin,
                store=store)
            sums["L_S"] += ls
            sums["reg"] += reg
            for g, e in zip(grads, gs):
                g += e
        if config.lambda_BF > 0 and order_bf.size:
            sel = np.sort(order_bf[k * bs:(k + 1) * bs])
            if sel.size:
                lb, gb = loss_decrease_condition(
                    bar, samples.bf_t[sel], samples.bf_Y[sel],
                    samples.bf_dY[sel], samples.bf_Y0[sel],
                    config.constants, store=store)
                sums["L_BF"] += lb
                for g, e in zip(grads, gb):
                    g += config.lambda_BF * e
        adam.step(bar.params(), grads)
    return {k: v / n_steps for k, v in sums.items()}


def _sign_error(bar, samples):
    """Fraction of class-labeled validation samples on the wrong side of 0:
    phi > 0 on a trailing-safe sample, or phi <= 0 on an unsafe one."""
    rows = samples.cls_safe | samples.cls_unsafe
    if not rows.any():
        return 0.0
    phi = bar.value(samples.cls_t[rows], samples.cls_Y[rows])
    return int(np.sum((phi > 0.0) == samples.cls_safe[rows])) / phi.size


def train_operator(dataset, config, seed=0):
    """Fit the operator on the dataset's train split. Returns (op, history)."""
    config = replace(config, bcbf=replace(config.bcbf, epochs=0))
    op, _, history = train_joint(dataset, config, seed)
    return op, history


def train_bcbf(dataset, operator, config, seed=0):
    """Shape the barrier on the labeled dataset. Returns (bar, history).

    The operator argument is consulted only when config.dy_dt_source is
    "operator"; the default uses trajectory finite differences.
    """
    if config.dy_dt_source == "operator" and operator is None:
        raise ValueError("operator dY/dt source requires an operator")
    config = replace(config, operator=replace(config.operator, epochs=0))
    _, bar, history = train_joint(dataset, config, seed, operator=operator)
    return bar, history


def train_joint(dataset, config, seed=0, operator=None):
    """Single loop over both parameter sets, each against its own loss.

    Returns (op, bar, history). A given operator is returned as is and used
    frozen for dY/dt; otherwise one is built and trained for
    config.operator.epochs. A part with zero epochs, or a barrier with zero
    loss weights, is neither prepared nor checked; a barrier that trains
    needs config.constants.alpha * dataset.grid.dt < 1, or raises
    ConfigurationError. An epoch that raises
    FloatingPointError or ValueError (a non-finite loss or gradient) is
    rolled back and ends the run; history.stopped says why.
    """
    sched_op = config.operator
    sched_bf = config.bcbf
    op = operator
    if op is None:
        op = BoundaryOperator(dataset.grid, d_v=sched_op.d_v,
                              n_layers=sched_op.n_layers,
                              activations=sched_op.activations,
                              seed=subseed(seed, 13))
    run_op = operator is None and sched_op.epochs > 0
    run_bar = sched_bf.epochs > 0 and (config.lambda_S > 0
                                       or config.lambda_BF > 0
                                       or sched_bf.reg_weight > 0)
    if run_op or run_bar:
        train_idx, val_idx = split(dataset, config.train_fraction,
                                   seed=subseed(seed, 10))
    if run_op:
        UU, YY = dataset.U[train_idx], dataset.Y[train_idx]
        val_UU, val_YY = dataset.U[val_idx], dataset.Y[val_idx]
        adam_op = Adam(op.params(), lr=sched_op.lr)
        rng_op = np.random.default_rng(subseed(seed, 11))

    bar = BarrierFunction(seed=subseed(seed, 14))
    if run_bar:
        config.constants.check_step(dataset.grid.dt)
        retained = balance_near_zero(dataset, band=config.balance_band,
                                     keep_fraction=config.balance_keep,
                                     seed=subseed(seed, 15))
        samples, vsamples = [_BarrierSamples(dataset, rows, retained)
                             for rows in (train_idx, val_idx)]
        if samples.safe_idx.size == 0 or samples.unsafe_idx.size == 0:
            raise ValueError(
                "barrier training needs both safe and unsafe samples")
        adam_bar = Adam(bar.params(), lr=sched_bf.lr)
        # the barrier passes' work arrays, reused by every step of the run
        store = WorkStore()
        rng_bar = np.random.default_rng(subseed(seed, 12))

    history = TrainHistory(weights=_weight_record(config))
    n_epochs = max(sched_op.epochs if run_op else 0,
                   sched_bf.epochs if run_bar else 0)
    good_op = _snapshot(op.params())
    good_bar = _snapshot(bar.params())
    # operator-supplied rates follow the operator while it trains; all
    # other rates are fixed and set once
    moving_rates = run_op and config.dy_dt_source == "operator"
    if run_bar and not moving_rates:
        samples.set_rates(config.dy_dt_source, op)
    for epoch in range(n_epochs):
        row = {"epoch": epoch}
        try:
            if run_op and epoch < sched_op.epochs:
                row["L_G"] = _operator_epoch(op, adam_op, UU, YY, sched_op,
                                             rng_op)
                row["val_LG"] = mean_square(
                    op.forward_batch(val_UU)[0] - val_YY)
            if run_bar and epoch < sched_bf.epochs:
                if moving_rates and epoch < sched_op.epochs:
                    samples.set_rates(config.dy_dt_source, op)
                means = _barrier_epoch(bar, adam_bar, samples, config,
                                       rng_bar, store)
                row.update(L_S=means["L_S"], L_BF=means["L_BF"],
                           reg=means["reg"],
                           val_sign_err=_sign_error(bar, vsamples))
            vals = [v for k, v in row.items() if k != "epoch"]
            if not all(math.isfinite(v) for v in vals):
                raise FloatingPointError("non-finite loss")
        except (FloatingPointError, ValueError) as err:
            _restore(op.params(), good_op)
            _restore(bar.params(), good_bar)
            history.stopped = StopReason(type(err).__name__, epoch,
                                         " ".join(str(err).split()))
            break
        good_op = _snapshot(op.params())
        good_bar = _snapshot(bar.params())
        history.add(**row)
    return op, bar, history
