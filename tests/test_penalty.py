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
from penalearn.penalty import ConstraintEval, loss_terms_batch

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


@pytest.mark.parametrize("penalty_fn", [ineq_penalty, eq_penalty])
@pytest.mark.parametrize("field, value", [
    ("eta", -1.0), ("eta", 0.0), ("eta", float("nan")), ("eta", float("inf")), ("eta", True),
    ("eta", "1e8"), ("gamma", 0.5), ("gamma", float("nan")), ("gamma", -float("inf")),
    ("gamma", True), ("gamma", None)])
def test_the_exported_penalties_check_eta_and_gamma_as_penalty_config_does(penalty_fn, field,
                                                                           value):
    # ineq_penalty(0.5, -1.0, 0.5) returned -0.707; a NaN eta returned NaN and
    # eta=True passed
    weights = {"eta": 1e8, "gamma": 2.0, field: value}
    with pytest.raises(ConfigError) as err:
        penalty_fn(0.5, **weights)
    assert err.value.field == field and field in str(err.value)
    with pytest.raises(ConfigError):
        PenaltyConfig(**weights)


def test_the_exported_penalties_take_numpy_and_integer_weights_with_the_bits_of_floats():
    r = np.array([-0.5, 0.0, 0.25, 3.0])
    for penalty_fn in (ineq_penalty, eq_penalty):
        want = penalty_fn(r, 1e8, 2.0)
        for eta, gamma in ((np.float64(1e8), 2), (100000000, np.float32(2.0))):
            got = penalty_fn(r, eta, gamma)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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
    r = plain.constraints.values
    np.testing.assert_array_equal(shifted.constraints.values, r)
    np.testing.assert_array_equal(shifted.objective, plain.objective)
    np.testing.assert_array_equal(shifted.penalty, ineq_penalty(r + shift, 1e2, 2.0)[0][:, 0])
    # a zero shift charges exactly what no shift charges
    zero = loss_terms_batch(X, P, RB, cfg, shift=np.zeros((3, 1)))
    np.testing.assert_array_equal(zero.loss, plain.loss)
    np.testing.assert_array_equal(zero.grad, plain.grad)

    # the block's own penalty, with and without the shift, on RB's block, whose
    # equality group is empty, and on it with one equality column h appended
    ce = plain.constraints
    h, shift_h = np.array([[0.3], [-0.2], [0.1]]), np.array([[0.1], [0.2], [-0.3]])
    both = ConstraintEval(np.hstack([r, h]), np.concatenate(
        [ce.grads, np.tile([[[1.0, -1.0]]], (3, 1, 1))], axis=1), n_ineq=1)
    # shifted, g0 + (ineq term + eq term) rounds differently in row 3: the order shows
    g0 = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    for c in (cfg, PenaltyConfig(eta=1e2, gamma=1.5),
              PenaltyConfig(mode="indicator", eq_tolerance=0.25)):
        for s in (None, shift):
            rs, hs = (r, h) if s is None else (r + s, h + shift_h)
            if c.mode == "indicator":  # big per violated constraint, and no gradient
                terms = 1e12 * (rs[:, 0] > 0.0), 1e12 * (np.abs(hs[:, 0]) > 0.25)
                slopes = 0.0, 0.0
            else:  # eta * max(0, r + s)^gamma and eta * |h + s|^gamma
                terms = (c.eta * np.maximum(0.0, rs[:, 0]) ** c.gamma,
                         c.eta * np.abs(hs[:, 0]) ** c.gamma)
                slopes = (np.einsum("bi,bik->bk", ineq_penalty(rs, c.eta, c.gamma)[1], ce.grads),
                          np.einsum("bj,bjk->bk", eq_penalty(hs, c.eta, c.gamma)[1],
                                    both.grads[:, 1:]))
            omega, g = ce.penalty(c, s)
            np.testing.assert_array_equal(omega, terms[0])
            assert g is None
            omega, g = ce.penalty(c, s, g0)
            np.testing.assert_array_equal(omega, terms[0])
            np.testing.assert_array_equal(g, g0 + slopes[0])
            omega, g = both.penalty(c, None if s is None else np.hstack([s, shift_h]), g0)
            np.testing.assert_array_equal(omega, terms[0] + terms[1])
            # the inequality term joins the objective's gradient first
            np.testing.assert_array_equal(g, (g0 + slopes[0]) + slopes[1])


@pytest.mark.parametrize("n_ineq", [1, 2, 3, 7, 8, 9])
def test_penalty_row_sums_and_gradient_have_the_reference_bits(n_ineq):
    # the reference is each group's .sum(axis=1) added to 0.0 and
    # g0 + einsum(...), inequalities first; below 8 columns the penalty adds
    # its columns one by one instead of summing each row
    rng = np.random.default_rng(40 + n_ineq)
    rows, n_eq, k = 64, 2, 2
    values = rng.standard_normal((rows, n_ineq + n_eq))
    grads = rng.standard_normal((rows, n_ineq + n_eq, k))
    g0 = rng.standard_normal((rows, k))
    # NaN and +-inf residuals and gradients, and -0.0 in g0; about half the
    # residuals are feasible, so zero derivatives meet negative gradients
    for a in (values, grads):
        spoiled = rng.random(a.shape) < 0.1
        a[spoiled] = rng.choice([np.nan, np.inf, -np.inf], size=spoiled.sum())
    g0[rng.random(g0.shape) < 0.3] = -0.0
    values[:8] = -np.abs(values[:8])
    values[:8, n_ineq:] = 0.0
    grads[:8] = -np.abs(grads[:8])
    g0[:8] = -0.0
    ce = ConstraintEval(values, grads, n_ineq)
    shift = rng.uniform(-0.5, 0.5, values.shape)
    shift[:8] = 0.0
    with np.errstate(all="ignore"):
        for cfg in (PenaltyConfig(eta=1e2), PenaltyConfig(eta=1e8, gamma=1.5)):
            r = values + shift
            iv, idv = ineq_penalty(r[:, :n_ineq], cfg.eta, cfg.gamma)
            ev, edv = eq_penalty(r[:, n_ineq:], cfg.eta, cfg.gamma)
            omega = 0.0 + iv.sum(axis=1)
            omega += ev.sum(axis=1)
            g = g0 + np.einsum("bi,bik->bk", idv, grads[:, :n_ineq])
            g = g + np.einsum("bj,bjk->bk", edv, grads[:, n_ineq:])
            got_omega, got_g = ce.penalty(cfg, shift, g0)
            assert got_omega.tobytes() == omega.tobytes()
            assert got_g.tobytes() == g.tobytes()
            # the inequality group alone
            alone = ConstraintEval(values[:, :n_ineq], grads[:, :n_ineq], n_ineq)
            got_omega, got_g = alone.penalty(cfg, shift[:, :n_ineq], g0)
            assert got_omega.tobytes() == (0.0 + iv.sum(axis=1)).tobytes()
            assert got_g.tobytes() == (g0 + np.einsum("bi,bik->bk", idv,
                                                      grads[:, :n_ineq])).tobytes()


def _violations_by_max(ce, eq_tolerance):
    """``ConstraintEval.violations`` with the row maxima taken by ``.max(axis=1)``."""
    n, ineq, eq = ce.values.shape[0], ce.values[:, :ce.n_ineq], ce.values[:, ce.n_ineq:]
    worst = ineq.max(axis=1) if ce.n_ineq else np.zeros(n)
    max_eq = np.abs(eq).max(axis=1) if eq.shape[1] else np.zeros(n)
    return np.maximum(worst, 0.0), max_eq, (worst <= 0.0) & (max_eq <= eq_tolerance)


def test_violations_row_maxima_have_the_bits_of_max_axis_1():
    rng = np.random.default_rng(31)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])

    def residuals(rows, cols, nans):
        a = rng.standard_normal((rows, cols))
        spoiled = rng.random(a.shape) < 0.3
        a[spoiled] = rng.choice(np.append(specials, nans), size=spoiled.sum())
        return a

    for rows in (0, 1, 7, 4096):
        for n_ineq in (0, 1, 2, 3, 9):
            for n_eq in (0, 1, 3):
                ce = ConstraintEval(np.hstack([residuals(rows, n_ineq, []),
                                               residuals(rows, n_eq, [])]), None, n_ineq)
                for got, want in zip(ce.violations(0.5), _violations_by_max(ce, 0.5)):
                    assert got.tobytes() == want.tobytes(), (rows, n_ineq, n_eq)
                # a NaN with its sign bit set (what x86 makes of inf - inf): NaN where
                # .max gives NaN, but .max itself gives +nan or -nan for it depending on
                # its place and the column count, so its sign is not compared
                nan = -np.float64(np.nan)
                ce = ConstraintEval(np.hstack([residuals(rows, n_ineq, [nan]),
                                               residuals(rows, n_eq, [nan])]), None, n_ineq)
                for got, want in zip(ce.violations(0.5), _violations_by_max(ce, 0.5)):
                    assert np.array_equal(got, want, equal_nan=True), (rows, n_ineq, n_eq)
