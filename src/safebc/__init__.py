"""Safe boundary control for 1-D PDE plants.

Pipeline: finite-difference plant simulators -> labeled trajectory datasets ->
a kernel-integral neural operator from boundary input to boundary output ->
a learned time-varying barrier certificate -> a closed-form QP safety filter
applied to nominal controls -> evaluation metrics and reports.
"""

__version__ = "0.1.0"

from .pde_sim import (  # noqa: F401
    ConfigurationError,
    Constant,
    Controller,
    FromFile,
    HyperbolicConfig,
    ParabolicConfig,
    Proportional,
    RolloutResult,
    SimulationDivergedError,
    SmoothRandom,
    TimeGrid,
    rollout,
    squared_norms,
    stabilization_reward,
    step_hyperbolic,
    step_parabolic,
)
from .trajectories import (  # noqa: F401
    CollectionError,
    Dataset,
    DatasetFormatError,
    OneSidedSet,
    TwoSidedSet,
    balance_near_zero,
    collect_dataset,
    parse_safe_set,
    read_dataset,
    split,
    suffix_safe_mask,
    write_dataset,
)
from .nets import Adam, Mlp, subseed  # noqa: F401
from .neural_operator import (  # noqa: F401
    BoundaryOperator,
    KernelLayer,
    quadrature_weights,
)
from .barrier import (  # noqa: F401
    BarrierFunction,
    FeasibilityConstants,
    decrease_condition_oracle,
    loss_decrease_condition,
    loss_safe_set,
)
from .training import (  # noqa: F401
    BarrierSchedule,
    OperatorSchedule,
    TrainConfig,
    TrainHistory,
    train_bcbf,
    train_joint,
    train_operator,
)
from .safety_filter import (  # noqa: F401
    FilterConfig,
    FilterInfeasibleError,
    FilterReport,
    filter_batch,
    filter_trajectory,
    qp_filter_step,
    rate_to_trajectory,
)
from .evaluation import (  # noqa: F401
    EpisodeRecord,
    ExperimentSpec,
    Metrics,
    evaluate,
    feasible_steps,
    metrics_from_records,
    report,
    threshold_sweep,
)
