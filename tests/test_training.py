"""Trainer: loop mechanics, logging, determinism, divergence, evaluation."""

import numpy as np
import pytest

from penalearn import (
    ConfigError,
    DimensionError,
    OracleConfig,
    PenaltyConfig,
    TrainConfig,
    TrainingDivergedError,
    eval_reports_csv,
    evaluate,
    init_mlp,
    load_model,
    make_problem,
    run_benchmark,
    sample_params,
    save_model,
    train,
)
from penalearn.training import TRAIN_LOG_COLUMNS

FAST = dict(epochs=40, sample_count=60, batch_size=20, log_every=10, seed=0)


def test_train_returns_net_with_problem_shape():
    spec = make_problem("rosenbrock-1c")
    net, _ = train(spec, TrainConfig(**FAST))
    assert net.layer_sizes == spec.default_net_shape


def test_net_shape_override():
    spec = make_problem("rosenbrock-1c")
    net, _ = train(spec, TrainConfig(net_shape=(2, 6, 2), **FAST))
    assert net.layer_sizes == (2, 6, 2)


def test_log_covers_epoch_zero_log_points_and_final():
    spec = make_problem("rosenbrock-1c")
    _, log = train(spec, TrainConfig(**FAST))
    epochs = [e.epoch for e in log.entries]
    assert epochs[0] == 0
    assert epochs[-1] == 40
    assert set(epochs) == {0, 10, 20, 30, 40}
    elapsed = [e.elapsed_s for e in log.entries]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    for e in log.entries:
        assert 0.0 <= e.feasible_frac <= 1.0
        np.testing.assert_allclose(
            e.mean_loss, e.mean_objective + e.mean_penalty, rtol=1e-12
        )


def test_loss_decreases_from_initialization():
    spec = make_problem("rosenbrock-1c")
    _, log = train(spec, TrainConfig(**FAST))
    assert log.final().mean_loss < log.entries[0].mean_loss


def test_log_csv_layout():
    spec = make_problem("rosenbrock-1c")
    _, log = train(spec, TrainConfig(**FAST))
    lines = log.to_csv().splitlines()
    assert lines[0] == ",".join(TRAIN_LOG_COLUMNS)
    assert len(lines) == 1 + len(log.entries)
    cells = lines[1].split(",")
    assert len(cells) == len(TRAIN_LOG_COLUMNS)
    float(cells[1])  # parses


def test_training_is_deterministic():
    spec = make_problem("rosenbrock-1c")
    net_a, log_a = train(spec, TrainConfig(**FAST))
    net_b, log_b = train(spec, TrainConfig(**FAST))
    for wa, wb in zip(net_a.weights, net_b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(net_a.biases, net_b.biases):
        assert np.array_equal(ba, bb)
    assert [e.mean_loss for e in log_a.entries] == [e.mean_loss for e in log_b.entries]


def test_seed_changes_outcome():
    spec = make_problem("rosenbrock-1c")
    cfg = dict(FAST)
    cfg["seed"] = 1
    net_a, _ = train(spec, TrainConfig(**FAST))
    net_b, _ = train(spec, TrainConfig(**cfg))
    assert any(not np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))


def test_divergence_raises_with_location():
    spec = make_problem("rosenbrock-1c")
    cfg = TrainConfig(
        epochs=50, sample_count=100, batch_size=20, learning_rate=1e6, seed=0
    )
    with pytest.raises(TrainingDivergedError) as info:
        train(spec, cfg)
    assert info.value.epoch is not None


def test_divergence_gate_reports_epoch_sample_and_mean():
    with pytest.raises(TrainingDivergedError) as info:
        train(make_problem("rosenbrock-1c"), TrainConfig(learning_rate=1e6))
    assert info.value.epoch == 1
    assert info.value.sample_index == 91
    assert str(info.value) == (
        "mean loss 2.59e+35 exceeded divergence limit 1e+15 at epoch 1 (worst sample 91)"
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(sample_count=0)
    with pytest.raises(ConfigError):
        TrainConfig(sample_count=10, batch_size=11)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(log_every=0)


def test_unnormalized_inputs_also_train():
    spec = make_problem("rosenbrock-1c")
    net, log = train(spec, TrainConfig(normalize_inputs=False, **FAST))
    assert net.layer_sizes == spec.default_net_shape
    assert np.isfinite(log.final().mean_loss)


def test_evaluate_reports_are_consistent(tmp_path):
    spec = make_problem("rosenbrock-1c")
    net, _ = train(spec, TrainConfig(**FAST))
    ps = sample_params(spec, 25, seed=77)
    reports = evaluate(net, spec, ps)
    assert len(reports) == 25
    for r in reports:
        assert r.x.shape == (2,)
        assert r.forward_time_s > 0.0
        assert r.feasible == (r.max_ineq_violation <= 0.0 and r.max_eq_violation <= 0.0)
        assert r.max_ineq_violation >= 0.0

    # a saved-and-reloaded model scores identically
    path = tmp_path / "m.txt"
    save_model(net, path)
    again = evaluate(load_model(path), spec, ps)
    for a, b in zip(reports, again):
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


def test_evaluate_rejects_mismatched_model():
    spec = make_problem("ackley-1c")
    wrong = init_mlp((2, 4, 2), seed=0)
    with pytest.raises(DimensionError):
        evaluate(wrong, spec, sample_params(spec, 3, seed=0))


@pytest.mark.parametrize("values", [np.array([5.0, 0.1]), np.zeros((3, 3)), np.zeros(0)])
def test_evaluate_rejects_params_of_the_wrong_shape(values):
    spec = make_problem("rosenbrock-1c")
    net = init_mlp(spec.default_net_shape, seed=0)
    for score in (lambda: evaluate(net, spec, values),
                  lambda: run_benchmark(spec, net, OracleConfig(), values)):
        with pytest.raises(DimensionError, match=r"expected \(rows, 2\)"):
            score()


def test_eval_reports_csv_layout():
    spec = make_problem("rosenbrock-1c")
    net, _ = train(spec, TrainConfig(**FAST))
    reports = evaluate(net, spec, sample_params(spec, 4, seed=3))
    text = eval_reports_csv(reports)
    lines = text.splitlines()
    assert lines[0] == "c1,c2,x1,x2,f0,max_ineq_violation,max_eq_violation,feasible,t_fwd_ns"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[7] in ("0", "1")
    assert float(cells[8]) > 0.0


def test_indicator_mode_trains_without_divergence():
    spec = make_problem("rosenbrock-1c")
    cfg = TrainConfig(penalty=PenaltyConfig(mode="indicator"), **FAST)
    _, log = train(spec, cfg)
    assert np.isfinite(log.final().mean_objective)
