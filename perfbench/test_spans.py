"""Tests of the benchmark's tracer.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses

import safebc
from safebc import barrier, evaluation, neural_operator, pde_sim, training
from safebc import trajectories

import pipeline
from spans import Target, Tracer

TINY = dataclasses.replace(
    pipeline.WORKLOADS["transport-fit"], fit_episodes=12,
    operator_epochs=2, bcbf_epochs=2, nominals=4, warm_per_round=3,
    eval_episodes=2)


def test_every_import_site_is_bound_and_restored():
    rollout = pde_sim.rollout
    read_checkpoint = neural_operator.read_checkpoint
    forward = safebc.Mlp.forward
    with Tracer():
        for module in (pde_sim, trajectories, evaluation, safebc):
            assert module.rollout is not rollout
            assert module.rollout.__wrapped__ is rollout
        assert training.loss_safe_set is barrier.loss_safe_set
        assert training.loss_safe_set.__wrapped__ is not None
        assert neural_operator.read_checkpoint is barrier.read_checkpoint
        assert neural_operator.read_checkpoint is not read_checkpoint
        assert safebc.Mlp.forward is not forward
    for module in (pde_sim, trajectories, evaluation, safebc):
        assert module.rollout is rollout
    assert neural_operator.read_checkpoint is read_checkpoint
    assert barrier.read_checkpoint is read_checkpoint
    assert safebc.Mlp.forward is forward


def test_missing_names_are_absent_not_errors():
    targets = (Target("pde_sim", "no_such_function", "x"),
               Target("nets", "Mlp.no_such_method", "y"),
               Target("no_such_module", "f", "z"))
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["pde_sim.no_such_function",
                             "nets.Mlp.no_such_method", "no_such_module.f"]


def test_self_time_subtracts_children():
    tracer = Tracer(targets=())
    tracer.spans = [["a", 0.0, 10.0, -1, 0, 0, False, None],
                    ["b", 1.0, 4.0, 0, 0, 2, False, None],
                    ["b", 5.0, 6.0, 0, 0, 3, True, None],
                    ["a", 7.0, 9.0, 0, 0, 0, False, None]]
    stats = tracer.layer_stats()
    assert stats["a"] == {"calls": 2, "rows": 0, "s": 10.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "rows": 5, "s": 4.0, "self_s": 4.0}
    assert tracer.count("b", under="a", errors_only=True) == 1


def test_traced_run_is_bitwise_identical_to_untraced(tmp_path):
    # traced() compares every file and warm filter result of the traced pass
    # with an untraced one, and checks that forward_batch calls under
    # filter_trajectory equal trajectories + FilterReport.n_modified
    metrics, attempted, failed, failures, _ = pipeline.traced(
        TINY, 3, str(tmp_path))
    assert failures == []
    assert failed == 0 and attempted > 0
    assert set(metrics) == set(pipeline.per_layer_units())
    assert metrics["safety_filter.filter_trajectory.calls"] > 0
    assert metrics["cli.train-operator.calls"] == 2  # set-up and round fit
