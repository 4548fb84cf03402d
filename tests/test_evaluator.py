"""The one problem evaluator: call counts per caller and the strict split."""

import dataclasses
import warnings

import numpy as np
import pytest

from penalearn import (
    Constraint,
    DimensionError,
    NonFiniteError,
    OracleConfig,
    PenaltyConfig,
    ProblemSpec,
    TrainConfig,
    evaluate,
    grid_scan,
    init_mlp,
    loss_terms_batch,
    make_problem,
    sample_params,
    solve,
    train,
    violation_report_batch,
)
from penalearn import oracle


class _Counts:
    """Counts spec.objective and ProblemSpec.constraint_eval calls."""

    def __init__(self, monkeypatch, name="rosenbrock-1c"):
        self.objective = self.constraints = 0
        base = make_problem(name)

        def objective(x, p):
            self.objective += 1
            return base.objective(x, p)

        original = ProblemSpec.constraint_eval

        def constraint_eval(spec, x, p):
            self.constraints += 1
            return original(spec, x, p)

        monkeypatch.setattr(ProblemSpec, "constraint_eval", constraint_eval)
        self.spec = dataclasses.replace(base, objective=objective)

    def both(self):
        return self.objective, self.constraints


def _count_oracle_evaluations(monkeypatch, counts):
    """Wrap the oracle's evaluator; each call must add one objective and one
    constraint call.  Returns [calls outside descent, calls inside descent]."""
    calls = [0, 0]
    in_descent = [False]
    evaluator, descend = oracle.loss_terms_batch, oracle._descend_batch

    def counted(*args, **kwargs):
        before = counts.both()
        out = evaluator(*args, **kwargs)
        assert counts.both() == (before[0] + 1, before[1] + 1)
        calls[in_descent[0]] += 1
        return out

    def descend_flagged(*args, **kwargs):
        in_descent[0] = True
        try:
            return descend(*args, **kwargs)
        finally:
            in_descent[0] = False

    monkeypatch.setattr(oracle, "loss_terms_batch", counted)
    monkeypatch.setattr(oracle, "_descend_batch", descend_flagged)
    return calls


def test_grid_scan_evaluates_once_per_chunk_plus_winner(monkeypatch):
    counts = _Counts(monkeypatch)
    calls = _count_oracle_evaluations(monkeypatch, counts)
    monkeypatch.setattr(oracle, "GRID_CHUNK", 10_000)
    chunks = -(-201**2 // 10_000)
    grid_scan(counts.spec, np.array([1.0, 1.0]))
    assert calls == [chunks + 1, 0]
    assert counts.both() == (chunks + 1, chunks + 1)


def test_solve_evaluates_once_per_descent_step_and_ranking(monkeypatch):
    counts = _Counts(monkeypatch)
    calls = _count_oracle_evaluations(monkeypatch, counts)
    solve(counts.spec, np.array([1.0, 1.0]), OracleConfig(grid_points_per_dim=21))
    # grid: one chunk plus the winner; then the final ranking
    assert calls[0] == 3
    assert calls[1] > 0
    assert counts.both() == (sum(calls), sum(calls))


def test_training_log_and_evaluate_evaluate_once(monkeypatch):
    counts = _Counts(monkeypatch)
    cfg = TrainConfig(epochs=3, sample_count=20, batch_size=10, log_every=1)
    net, log = train(counts.spec, cfg)
    steps = cfg.epochs * (cfg.sample_count // cfg.batch_size)
    assert len(log.entries) == 4
    assert counts.both() == (steps + 4, steps + 4)

    before = counts.both()
    evaluate(net, counts.spec, sample_params(counts.spec, 5, seed=1))
    assert counts.both() == (before[0] + 5, before[1] + 5)


def _nan_on_row_3():
    def obj(X, P):
        return (X**2).sum(axis=1), 2 * X

    def con(X, P):
        v = X[:, 0].copy()
        v[3] = np.nan
        g = np.zeros_like(X)
        g[:, 0] = 1.0
        return v, g

    return ProblemSpec(
        name="toy-nan",
        decision_dim=2,
        param_dim=1,
        objective=obj,
        inequalities=(Constraint(con, 0.0),),
        param_ranges=((0.0, 1.0),),
    )


def test_strict_split_on_a_non_finite_constraint():
    spec = _nan_on_row_3()
    X = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    P = np.zeros((6, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = loss_terms_batch(X, P, spec, PenaltyConfig(), strict=False)
    assert not np.isfinite(terms.loss[3])
    assert np.isfinite(np.delete(terms.loss, 3)).all()

    with pytest.raises(NonFiniteError) as info:
        loss_terms_batch(X, P, spec, PenaltyConfig(), strict=True)
    assert info.value.constraint_index == 0
    assert info.value.sample_index == 3


def test_record_carries_the_residuals_it_was_built_from():
    spec = make_problem("rosenbrock-3c")
    rng = np.random.default_rng(6)
    X = rng.uniform(-3, 3, size=(50, 2))
    P = np.column_stack([rng.uniform(0, 30, 50), rng.uniform(0, 1, 50)])
    terms = loss_terms_batch(X, P, spec, PenaltyConfig())
    assert np.array_equal(terms.loss, terms.objective + terms.penalty)
    for got, want in zip(terms.constraints.violations(), violation_report_batch(X, P, spec)):
        assert np.array_equal(got, want)


def test_evaluate_rejects_wrong_output_dim():
    spec = make_problem("rosenbrock-1c")
    with pytest.raises(DimensionError):
        evaluate(init_mlp((2, 4, 3), seed=0), spec, sample_params(spec, 2, seed=0))
