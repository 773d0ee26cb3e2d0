"""Span tracer that wraps safebc's public functions from outside the package.

Module functions are bound by name wherever they are imported (for example
``rollout`` lives in ``pde_sim`` and is also bound in ``trajectories``,
``evaluation`` and ``safebc/__init__``), so installing a wrapper means
replacing every binding of the original object in every loaded ``safebc``
module. Methods are wrapped once on their class. ``restore`` puts every
original back and checks that no wrapper is left behind.

A target that no longer exists is recorded in ``absent`` and reports zeros;
it is not an error, so the package can drop or rename a function without
editing the benchmark.

Spans stay in memory as lists ``[name, start, end, parent, run_id, rows,
error, extra]`` until ``write_spans`` writes them once at the end. ``run_id``
is the index of the outermost span of the call tree, so spans caused by one
top-level call share it.
"""

import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "safebc"


def _rows(x):
    """Batch rows of an array argument: shape[0] for 2-D input, else 1."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _method_rows(args, kwargs):
    return _rows(args[1]) if len(args) > 1 else 0


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "main")


def _filter_summary(report):
    """(steps, active, accepted, infeasible, modified) of a FilterReport."""
    records = getattr(report, "records", None)
    if records is None:
        return None
    return (len(records),
            sum(1 for r in records if getattr(r, "active", False)),
            sum(1 for r in records if getattr(r, "accepted", False)),
            sum(1 for r in records if getattr(r, "infeasible", False)),
            int(getattr(report, "n_modified", 0)))


def _episodes(metrics):
    return getattr(metrics, "episodes", None)


@dataclass(frozen=True)
class Target:
    module: str           # module under the package, e.g. "pde_sim"
    attr: str             # "function" or "Class.method"
    span: str             # span name; several targets may share one
    rows: object = None   # (args, kwargs) -> batch rows
    name_of: object = None    # (args, kwargs) -> span name, overrides span
    summarize: object = None  # result -> extra value stored on the span


TARGETS = (
    Target("pde_sim", "step_hyperbolic", "pde_sim.step"),
    Target("pde_sim", "step_parabolic", "pde_sim.step"),
    Target("pde_sim", "rollout", "pde_sim.rollout"),
    Target("pde_sim", "rollout_inputs", "pde_sim.rollout_inputs"),
    Target("trajectories", "collect_dataset", "trajectories.collect_dataset"),
    Target("trajectories", "write_dataset", "trajectories.write_dataset"),
    Target("trajectories", "read_dataset", "trajectories.read_dataset"),
    Target("checkpoint", "write_checkpoint", "checkpoint.write_checkpoint"),
    Target("checkpoint", "read_checkpoint", "checkpoint.read_checkpoint"),
    Target("nets", "Mlp.forward", "nets.Mlp.forward", rows=_method_rows),
    Target("nets", "Mlp.backprop", "nets.Mlp.backprop", rows=_method_rows),
    Target("nets", "Mlp.input_jacobian", "nets.Mlp.input_jacobian",
           rows=_method_rows),
    Target("nets", "Mlp.directional_derivative",
           "nets.Mlp.directional_derivative", rows=_method_rows),
    Target("nets", "Adam.step", "nets.Adam.step"),
    Target("neural_operator", "BoundaryOperator.forward_batch",
           "neural_operator.forward_batch", rows=_method_rows),
    Target("neural_operator", "BoundaryOperator.decomposition",
           "neural_operator.decomposition"),
    Target("neural_operator", "BoundaryOperator.loss_and_grads",
           "neural_operator.loss_and_grads"),
    Target("neural_operator", "BoundaryOperator.fingerprint",
           "neural_operator.fingerprint"),
    Target("barrier", "BarrierFunction.value", "barrier.value"),
    Target("barrier", "BarrierFunction.partials", "barrier.partials"),
    Target("barrier", "loss_safe_set", "barrier.loss_safe_set"),
    Target("barrier", "loss_decrease_condition",
           "barrier.loss_decrease_condition"),
    Target("barrier", "loss_sublevel_margin", "barrier.loss_sublevel_margin"),
    Target("training", "train_operator", "training.train_operator"),
    Target("training", "train_bcbf", "training.train_bcbf"),
    Target("safety_filter", "filter_trajectory",
           "safety_filter.filter_trajectory", summarize=_filter_summary),
    Target("safety_filter", "qp_filter_step", "safety_filter.qp_filter_step"),
    Target("evaluation", "evaluate", "evaluation.evaluate",
           summarize=_episodes),
    Target("cli", "main", "cli.main", name_of=_cli_name),
)

CLI_SPANS = ("cli.collect", "cli.train-operator", "cli.train-bcbf",
             "cli.filter", "cli.evaluate")

# span names whose batch rows are reported
ROW_SPANS = tuple(t.span for t in TARGETS if t.rows is not None)

# every span name the per-layer metrics cover, in report order
SPAN_NAMES = tuple(dict.fromkeys(
    [t.span for t in TARGETS if t.name_of is None] + list(CLI_SPANS)))


class Tracer:
    """Context manager: wrap every target on entry, restore on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        for target in self.targets:
            module = sys.modules.get(f"{PACKAGE}.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            wrapper = self._wrap(original, target)
            if wrapper is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            if owner_name:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = [f"{mod.__name__}.{key}" for mod in self._modules()
                for key, value in vars(mod).items() if _is_wrapper(value)]
        left += [f"{cls.__qualname__}.{key}" for mod in self._modules()
                 for cls in vars(mod).values() if isinstance(cls, type)
                 for key, value in vars(cls).items() if _is_wrapper(value)]
        if left:
            raise RuntimeError(f"trace wrappers left installed: {left}")

    def _wrap(self, original, target):
        """Traced stand-in for a plain function; None for anything else."""
        if not isinstance(original, types.FunctionType):
            return None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = target.name_of(args, kwargs) if target.name_of \
                else target.span
            parent = stack[-1] if stack else -1
            index = len(spans)
            run_id = spans[parent][4] if parent >= 0 else index
            rows = target.rows(args, kwargs) if target.rows else 0
            span = [name, 0.0, 0.0, parent, run_id, rows, False, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if target.summarize is not None:
                span[7] = target.summarize(result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__qualname__ = original.__qualname__
        traced._perfbench_trace = True
        return traced

    # -- analysis ----------------------------------------------------------

    def has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count(self, name, under=None, errors_only=False):
        """Spans called `name`, optionally only those inside an `under` span
        or only those that raised."""
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and (not errors_only or s[6])
                   and (under is None or self.has_ancestor(i, under)))

    def extras(self, name):
        return [s[7] for s in self.spans if s[0] == name and s[7] is not None]

    def layer_stats(self):
        """name -> {"calls", "rows", "s", "self_s"}.

        "s" is busy time: the summed duration of spans with no ancestor of the
        same name. "self_s" is each span's duration minus its children's.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        stats = {name: {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0}
                 for name in SPAN_NAMES}
        for i, s in enumerate(self.spans):
            st = stats.setdefault(
                s[0], {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
            duration = s[2] - s[1]
            st["calls"] += 1
            st["rows"] += s[5]
            st["self_s"] += duration - child_time[i]
            if not self.has_ancestor(i, s[0]):
                st["s"] += duration
        return stats

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run_id,rows,error\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},"
                         f"{s[5]},{int(s[6])}\n")


def _is_wrapper(value):
    return getattr(value, "_perfbench_trace", False)
