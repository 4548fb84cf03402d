"""Equality constraints end to end: the oracle's multiplier update for an
equality, ``eq_penalty`` inside ``train``, and the gradient through it.

No registry problem has an equality, so these tests bring their own specs:
the projection of c onto the line x1 + x2 = 1, alone and with the unit disk
as an inequality.  The line alone has the closed form
x* = c - ((c1 + c2 - 1) / 2) (1, 1).
"""

import dataclasses

import numpy as np
import pytest

from penalearn import (
    Constraint,
    PenaltyConfig,
    ProblemSpec,
    TrainConfig,
    evaluate,
    loss_terms_batch,
    sample_params,
    solve,
    train,
)


def _distance2(x, p, grad=True):
    """|x - c|^2, with c = p."""
    d = x - p
    return (d * d).sum(axis=1), (2.0 * d if grad else None)


def _line(x, p, grad=True):
    return x[:, 0] + x[:, 1], (np.ones_like(x) if grad else None)


def _disk(x, p, grad=True):
    return (x * x).sum(axis=1), (2.0 * x if grad else None)


LINE = ProblemSpec(
    name="line",
    decision_dim=2,
    param_dim=2,
    objective=_distance2,
    equalities=(Constraint(_line, 1.0),),
    param_ranges=((-2.0, 2.0), (-2.0, 2.0)),
    default_net_shape=(2, 16, 16, 2),
)
# the line, and the unit disk as an inequality: the answer lies on the chord
# from (1, 0) to (0, 1)
LINE_IN_DISK = dataclasses.replace(LINE, name="line-in-disk",
                                   inequalities=(Constraint(_disk, 1.0),))


def test_solve_meets_the_closed_form_on_an_equality():
    worst_x = worst_violation = 0.0
    for c in sample_params(LINE, 50, 3):
        sol = solve(LINE, c)
        want = c - (c[0] + c[1] - 1.0) / 2.0
        worst_x = max(worst_x, float(np.abs(sol.x - want).max()))
        worst_violation = max(worst_violation, sol.max_violation)
    assert worst_x <= 1e-6
    assert worst_violation <= 1e-6


def test_solve_meets_both_kinds_of_constraint():
    for c in sample_params(LINE_IN_DISK, 10, 3):
        sol = solve(LINE_IN_DISK, c)
        line, _ = _line(sol.x[None], c[None], grad=False)
        disk, _ = _disk(sol.x[None], c[None], grad=False)
        assert abs(line[0] - 1.0) <= 1e-6 and disk[0] - 1.0 <= 1e-6
        assert sol.max_violation <= 1e-6


@pytest.mark.parametrize("eta", [10.0, 1e8])
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_penalized_gradient_through_an_equality_matches_central_differences(eta, gamma):
    """Criterion 1's check on the mixed spec, in x: away from every constraint's
    kink (each |residual| >= 1e-3), the directional derivative of the loss
    matches central differences to a relative 1e-5."""
    rng = np.random.default_rng(12)
    X = rng.uniform(-2.0, 2.0, (400, 2))
    P = sample_params(LINE_IN_DISK, 400, 5)
    smooth = ((np.abs(_line(X, P, grad=False)[0] - 1.0) >= 1e-3)
              & (np.abs(_disk(X, P, grad=False)[0] - 1.0) >= 1e-3))
    X, P = X[smooth], P[smooth]
    D = rng.normal(size=X.shape)
    cfg = PenaltyConfig(eta=eta, gamma=gamma)
    terms = loss_terms_batch(X, P, LINE_IN_DISK, cfg)
    assert (terms.penalty > 0).all()  # every row is off the line
    analytic = (terms.grad * D).sum(axis=1)
    h = 1e-6
    fd = (loss_terms_batch(X + h * D, P, LINE_IN_DISK, cfg).loss
          - loss_terms_batch(X - h * D, P, LINE_IN_DISK, cfg).loss) / (2 * h)
    rel = np.abs(fd - analytic) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    assert rel.max() < 1e-5


def _worst_equality_violation(epochs):
    cfg = TrainConfig(epochs=epochs, sample_count=200, batch_size=50, seed=3)
    net, _ = train(LINE_IN_DISK, cfg)
    report = evaluate(net, LINE_IN_DISK, sample_params(LINE_IN_DISK, 200, 3))
    return report.max_eq_violation.max()


def test_training_drives_the_equality_violation_down():
    before, after = _worst_equality_violation(1), _worst_equality_violation(100)
    assert after < before / 10
