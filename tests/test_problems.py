"""Registry landscapes: values, analytic gradients, sampling, metadata."""

import dataclasses
import zlib

import numpy as np
import pytest

from penalearn import (
    ConfigError,
    Constraint,
    DimensionError,
    RegistryError,
    make_problem,
    problem_names,
    sample_params,
)

ALL_NAMES = ("rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c")


def _objective_at(spec, x, p):
    """spec.objective at one point: (value, gradient)."""
    f, g = spec.objective(x[None, :], p[None, :])
    return float(f[0]), g[0]


def test_registry_names():
    assert problem_names() == ALL_NAMES


def test_unknown_problem_lists_registry():
    with pytest.raises(RegistryError) as info:
        make_problem("sphere")
    message = str(info.value)
    for name in ALL_NAMES:
        assert name in message


def test_registry_metadata():
    rb1 = make_problem("rosenbrock-1c")
    assert (rb1.param_dim, rb1.decision_dim) == (2, 2)
    assert rb1.default_net_shape == (2, 20, 20, 2)
    assert len(rb1.inequalities) == 1 and not rb1.known_infeasible

    rb3 = make_problem("rosenbrock-3c")
    assert rb3.default_net_shape == (2, 10, 20, 20, 20, 10, 2)
    assert len(rb3.inequalities) == 3 and rb3.known_infeasible

    ak1 = make_problem("ackley-1c")
    assert (ak1.param_dim, ak1.decision_dim) == (5, 2)
    assert ak1.default_net_shape == (5, 10, 20, 20, 20, 10, 2)
    assert len(ak1.inequalities) == 1 and not ak1.known_infeasible

    ak3 = make_problem("ackley-3c")
    assert len(ak3.inequalities) == 3 and ak3.known_infeasible


def test_rosenbrock_hand_values():
    spec = make_problem("rosenbrock-1c")
    f, g = _objective_at(spec, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert f == 1.0
    assert np.array_equal(g, np.array([-2.0, 0.0]))
    # optimum of the unconstrained objective: x = (c2, c2^2)
    f, g = _objective_at(spec, np.array([0.5, 0.25]), np.array([7.0, 0.5]))
    assert f == 0.0
    assert np.array_equal(g, np.array([0.0, 0.0]))


def test_ackley_is_zero_at_origin_for_classic_parameters():
    spec = make_problem("ackley-1c")
    f, g = _objective_at(
        spec, np.array([0.0, 0.0]), np.array([20.0, 0.2, 0.5, 0.5, 20.0])
    )
    assert abs(f) < 1e-14
    assert np.array_equal(g, np.zeros(2))  # documented subgradient choice


def test_ackley_away_from_origin_value():
    spec = make_problem("ackley-1c")
    p = np.array([20.0, 0.2, 0.5, 0.5, 20.0])
    x = np.array([1.0, 1.0])
    f, _ = _objective_at(spec, x, p)
    expected = (
        -20.0 * np.exp(-0.2 * np.sqrt(0.5 * 2.0))
        - np.exp(0.5 * (np.cos(2 * np.pi) + np.cos(2 * np.pi)))
        + np.e
        + 20.0
    )
    np.testing.assert_allclose(f, expected, rtol=1e-15)


@pytest.mark.parametrize("name", ["rosenbrock-1c", "ackley-1c"])
def test_objective_gradients_match_finite_differences(name):
    spec = make_problem(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lows = np.array([r[0] for r in spec.param_ranges])
    highs = np.array([r[1] for r in spec.param_ranges])
    for _ in range(40):
        x = rng.uniform(-2, 2, size=spec.decision_dim)
        if np.linalg.norm(x) < 1e-2:  # ackley kink at the origin
            continue
        p = lows + (highs - lows) * rng.random(spec.param_dim)
        _, g = _objective_at(spec, x, p)
        h = 1e-6
        for j in range(spec.decision_dim):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (_objective_at(spec, xp, p)[0] - _objective_at(spec, xm, p)[0]) / (2 * h)
            assert abs(fd - g[j]) / max(abs(g[j]), 1.0) < 1e-5


def test_disk_constraint_residuals_and_grads():
    spec = make_problem("rosenbrock-1c")
    X = np.array([[1.0, 0.0], [0.0, 0.5], [1.5, 0.0]])
    P = np.tile([1.0, 1.0], (3, 1))
    ce = spec.constraint_eval(X, P)
    np.testing.assert_allclose(ce.values[:, 0], [0.0, -0.75, 1.25], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ce.grads[:, 0, :], 2.0 * X, rtol=0, atol=0)


def test_three_constraint_variant_is_contradictory():
    """x1 <= -2.5 forces x1^2 >= 6.25, violating the unit disk at every point."""
    spec = make_problem("rosenbrock-3c")
    assert spec.known_infeasible
    rng = np.random.default_rng(8)
    X = rng.uniform(-4, 4, size=(500, 2))
    P = np.tile([1.0, 1.0], (500, 1))
    ce = spec.constraint_eval(X, P)
    assert np.all(ce.values.max(axis=1) > 0.0)


def test_ackley_disk_bound_is_25():
    spec = make_problem("ackley-1c")
    x = np.array([[5.0, 0.0]])
    p = np.array([[20.0, 0.2, 0.5, 0.5, 20.0]])
    ce = spec.constraint_eval(x, p)
    assert ce.values[0, 0] == 0.0  # 5^2 = 25, on the boundary


def test_constraint_eval_rejects_the_wrong_width():
    spec = make_problem("rosenbrock-1c")
    with pytest.raises(DimensionError,
                       match=r"rosenbrock-1c: x has shape \(3, 3\), problem decision dim is 2"):
        spec.constraint_eval(np.zeros((3, 3)), np.ones((3, 2)))
    # one row may still come as a vector
    assert spec.constraint_eval(np.zeros(2), np.ones(2)).values.shape == (1, 1)


def _two_args(x, p):
    return x[:, 0].copy(), np.ones_like(x)


@pytest.mark.parametrize("where, fields", [
    ("objective", dict(objective=_two_args)),
    ("constraint 0", dict(inequalities=(Constraint(_two_args, 0.0),))),
    # numbered in residual block order: inequalities first
    ("constraint 1", dict(equalities=(Constraint(_two_args, 0.0),))),
])
def test_an_evaluator_that_cannot_take_grad_is_rejected_at_construction(where, fields):
    spec = make_problem("rosenbrock-1c")
    with pytest.raises(ConfigError, match=f"rosenbrock-1c: the {where} evaluator _two_args "
                                          r"cannot be called as fn\(x, p, grad=...\)"):
        dataclasses.replace(spec, **fields)


def test_an_evaluator_that_takes_grad_is_accepted_however_it_is_written():
    def keyword_only(x, p, *, grad=True):
        return x[:, 0].copy(), (np.ones_like(x) if grad else None)

    def forwarding(*args, **kwargs):
        return keyword_only(*args, **kwargs)

    spec = dataclasses.replace(make_problem("rosenbrock-1c"), objective=forwarding,
                               equalities=(Constraint(keyword_only, 0.0),))
    assert spec.constraint_eval(np.ones((3, 2)), np.ones((3, 2)), grad=False).grads is None


def test_sample_params_within_ranges_and_deterministic():
    for name in ALL_NAMES:
        spec = make_problem(name)
        ps = sample_params(spec, 200, seed=42)
        assert isinstance(ps, np.ndarray) and ps.shape == (200, spec.param_dim)
        for j, (lo, hi) in enumerate(spec.param_ranges):
            col = ps[:, j]
            assert np.all(col >= lo) and np.all(col <= hi)
        again = sample_params(spec, 200, seed=42)
        assert np.array_equal(ps, again)
        other = sample_params(spec, 200, seed=43)
        assert not np.array_equal(ps, other)


def test_sample_params_rejects_a_count_below_one_naming_the_field():
    with pytest.raises(ConfigError, match="count must be >= 1, got 0") as info:
        sample_params(make_problem("rosenbrock-1c"), 0)
    assert info.value.field == "count"


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
def test_sample_params_rejects_a_count_that_is_not_an_integer(count):
    # numpy raised a bare TypeError at 2.5 and drew one sample at True
    with pytest.raises(ConfigError) as info:
        sample_params(make_problem("rosenbrock-1c"), count)
    assert info.value.field == "count"


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "7", None])
def test_sample_params_rejects_a_seed_that_is_not_an_integer_at_least_0(seed):
    # numpy raised a bare ValueError at -1 and drew a fresh entropy seed at None
    with pytest.raises(ConfigError) as info:
        sample_params(make_problem("rosenbrock-1c"), 3, seed)
    assert info.value.field == "seed"


def test_sample_params_takes_numpy_integers():
    spec = make_problem("rosenbrock-1c")
    assert np.array_equal(sample_params(spec, np.int64(3), np.int64(5)), sample_params(spec, 3, 5))


def test_a_range_whose_low_exceeds_its_high_is_rejected_at_construction():
    spec = make_problem("rosenbrock-1c")
    with pytest.raises(ConfigError, match="rosenbrock-1c: range low 2 exceeds high 1") as info:
        dataclasses.replace(spec, param_ranges=((0, 30), (2, 1)))
    assert info.value.field == "param_ranges"
    with pytest.raises(DimensionError, match="rosenbrock-1c: 1 ranges for 2 parameters"):
        dataclasses.replace(spec, param_ranges=((0, 30),))


def test_param_ranges_match_published_settings():
    rb = make_problem("rosenbrock-1c")
    assert rb.param_ranges == ((0.0, 30.0), (0.0, 1.0))
    ak = make_problem("ackley-1c")
    assert ak.param_ranges == ((0.0, 30.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 30.0))
