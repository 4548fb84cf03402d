"""Penalty algebra: values, gradients, the indicator diagnostic, reports."""

import numpy as np
import pytest

from penalearn import (
    ConfigError,
    PenaltyConfig,
    eq_penalty,
    ineq_penalty,
    make_problem,
    violation_report,
)
from penalearn.penalty import loss_terms_batch

RB = make_problem("rosenbrock-1c")


def _at_point(x, p, cfg):
    """loss_terms_batch on one point: (loss, objective, penalty, gradient)."""
    t = loss_terms_batch(x[None, :], p[None, :], RB, cfg)
    return float(t.loss[0]), float(t.objective[0]), float(t.penalty[0]), t.grad[0]


def test_ineq_penalty_reference_values():
    v, d = ineq_penalty(0.25, 1e8, 2.0)  # 0.25 is binary-exact
    assert v == 6.25e6
    assert d == 5e7
    np.testing.assert_allclose(ineq_penalty(0.1, 1e8, 2.0)[0], 1e6, rtol=1e-15)
    v, d = ineq_penalty(-0.1, 1e8, 2.0)
    assert v == 0.0 and d == 0.0
    v, d = ineq_penalty(0.0, 1e8, 2.0)
    assert v == 0.0 and d == 0.0


def test_eq_penalty_reference_values():
    v, d = eq_penalty(-0.25, 1e8, 2.0)
    assert v == 6.25e6
    assert d == -5e7
    v, d = eq_penalty(0.25, 1e8, 2.0)
    assert v == 6.25e6 and d == 5e7
    v, d = eq_penalty(0.0, 1e8, 2.0)
    assert v == 0.0 and d == 0.0


def test_penalty_nonnegative_everywhere():
    rng = np.random.default_rng(0)
    r = rng.normal(scale=3.0, size=500)
    vi, _ = ineq_penalty(r, 1e8, 2.0)
    ve, _ = eq_penalty(r, 1e8, 2.0)
    assert np.all(vi >= 0.0)
    assert np.all(ve >= 0.0)
    assert np.all(vi[r <= 0] == 0.0)
    assert np.all(ve[r != 0] > 0.0)


def test_eta_doubling_doubles_penalty_exactly():
    rng = np.random.default_rng(1)
    r = np.abs(rng.normal(size=200)) + 1e-3
    v1, d1 = ineq_penalty(r, 1e8, 2.0)
    v2, d2 = ineq_penalty(r, 2e8, 2.0)
    assert np.array_equal(v2, 2.0 * v1)
    assert np.array_equal(d2, 2.0 * d1)
    e1, _ = eq_penalty(r, 3e5, 2.0)
    e2, _ = eq_penalty(r, 6e5, 2.0)
    assert np.array_equal(e2, 2.0 * e1)


def test_boundary_continuity_for_gamma_two():
    eta = 1e8
    for eps in (1e-6, 1e-9):
        v_eps, _ = ineq_penalty(eps, eta, 2.0)
        v0, _ = ineq_penalty(0.0, eta, 2.0)
        assert abs(v_eps - v0) <= eta * eps**2


def test_derivative_continuous_at_kink():
    # gamma = 2: derivative 2*eta*r -> 0 as r -> 0+ and is 0 for r <= 0
    for r in (1e-8, 1e-12):
        _, d = ineq_penalty(r, 1e8, 2.0)
        assert 0.0 < d <= 2e8 * r
    _, d = ineq_penalty(-1e-12, 1e8, 2.0)
    assert d == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(gamma=0.5)
    with pytest.raises(ValueError):
        PenaltyConfig(mode="magic")
    with pytest.raises(ValueError):
        PenaltyConfig(eta=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(indicator_big=0.0)
    # one weight covers every constraint
    with pytest.raises(ConfigError):
        PenaltyConfig(eta=(1e6, 1e8))
    for removed in ("eta_ineq", "eta_eq"):
        with pytest.raises(TypeError):
            PenaltyConfig(**{removed: 1e8})


def test_zero_penalty_inside_feasible_set():
    cfg = PenaltyConfig()
    rng = np.random.default_rng(2)
    for _ in range(50):
        # points strictly inside the unit disk
        r = 0.95 * np.sqrt(rng.random())
        th = 2 * np.pi * rng.random()
        x = np.array([r * np.cos(th), r * np.sin(th)])
        p = np.array([rng.uniform(0, 30), rng.uniform(0, 1)])
        assert _at_point(x, p, cfg)[2] == 0.0


def test_penalty_positive_outside_feasible_set():
    cfg = PenaltyConfig()
    x = np.array([1.5, 0.0])  # disk residual 1.25
    p = np.array([1.0, 1.0])
    expected = 1e8 * (1.5**2 - 1.0) ** 2
    np.testing.assert_allclose(_at_point(x, p, cfg)[2], expected, rtol=1e-15)


def test_total_loss_reduces_to_objective_when_feasible():
    cfg = PenaltyConfig()
    x = np.array([0.3, 0.2])
    p = np.array([2.0, 0.5])
    loss = _at_point(x, p, cfg)[0]
    f0 = 2.0 * (0.2 - 0.09) ** 2 + (0.5 - 0.3) ** 2
    np.testing.assert_allclose(loss, f0, rtol=1e-15)


def test_loss_gradient_matches_finite_differences():
    cfg = PenaltyConfig(eta=100.0)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 30:
        x = rng.uniform(-2, 2, size=2)
        p = np.array([rng.uniform(0, 30), rng.uniform(0, 1)])
        residual = x @ x - 1.0
        if abs(residual) < 1e-3:  # stay clear of the kink
            continue
        grad = _at_point(x, p, cfg)[3]
        h = 1e-6
        for j in range(2):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (_at_point(xp, p, cfg)[0] - _at_point(xm, p, cfg)[0]) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(grad[j]), 1.0) < 1e-5
        checked += 1


def test_indicator_gradient_is_pure_objective_gradient():
    """The pathology under test: violations add loss but no gradient signal."""
    ind = PenaltyConfig(mode="indicator")
    rng = np.random.default_rng(4)
    X = rng.uniform(-3, 3, size=(200, 2))
    P = np.column_stack([rng.uniform(0, 30, 200), rng.uniform(0, 1, 200)])
    t = loss_terms_batch(X, P, RB, ind)
    loss_i, f0_i, omega_i, grad_i = t.loss, t.objective, t.penalty, t.grad
    _, grad_n = RB.objective(X, P)
    assert np.array_equal(grad_i, grad_n)
    violated = (X**2).sum(axis=1) > 1.0
    assert np.any(violated)
    assert np.array_equal(omega_i[violated], np.full(violated.sum(), 1e12))
    assert np.all(omega_i[~violated] == 0.0)
    np.testing.assert_allclose(loss_i, f0_i + omega_i, rtol=0, atol=0)


def test_violation_report_clamps_and_flags():
    p = np.array([1.0, 1.0])
    inside = violation_report(np.array([0.1, 0.1]), p, RB)
    assert inside == (0.0, 0.0, True)
    max_ineq, max_eq, feasible = violation_report(np.array([1.2, 0.0]), p, RB)
    np.testing.assert_allclose(max_ineq, 1.2**2 - 1.0, rtol=1e-15)
    assert max_eq == 0.0
    assert not feasible


def test_batch_and_scalar_paths_agree():
    cfg = PenaltyConfig()
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(20, 2))
    P = np.column_stack([rng.uniform(0, 30, 20), rng.uniform(0, 1, 20)])
    b = loss_terms_batch(X, P, RB, cfg)
    loss_b, omega_b, grad_b = b.loss, b.penalty, b.grad
    for i in range(20):
        loss_s, _, omega_s, grad_s = _at_point(X[i], P[i], cfg)
        assert loss_s == loss_b[i]
        assert np.array_equal(grad_s, grad_b[i])
        assert omega_s == omega_b[i]


def test_shift_moves_the_residual_the_penalty_sees():
    cfg = PenaltyConfig(eta=1e2)
    X = np.array([[0.6, 0.7], [0.1, 0.2], [0.9, 0.9]])
    P = np.tile([1.0, 1.0], (3, 1))
    shift = np.array([[0.0], [0.5], [0.25]])
    plain = loss_terms_batch(X, P, RB, cfg)
    shifted = loss_terms_batch(X, P, RB, cfg, shift=shift)
    r = plain.constraints.ineq_values
    np.testing.assert_array_equal(shifted.constraints.ineq_values, r)
    np.testing.assert_array_equal(shifted.objective, plain.objective)
    np.testing.assert_array_equal(shifted.penalty, ineq_penalty(r + shift, 1e2, 2.0)[0][:, 0])
    # a zero shift charges exactly what no shift charges
    zero = loss_terms_batch(X, P, RB, cfg, shift=np.zeros((3, 1)))
    np.testing.assert_array_equal(zero.loss, plain.loss)
    np.testing.assert_array_equal(zero.grad, plain.grad)
