"""Oracle: grid scan, multi-start penalized descent, configs, failure modes."""

import numpy as np
import pytest

from penalearn import (
    ConfigError,
    Constraint,
    DimensionError,
    NonFiniteError,
    OracleConfig,
    OracleError,
    ProblemSpec,
    UnsupportedError,
    grid_scan,
    make_problem,
    sample_params,
    solve,
)
from penalearn import oracle


def _toy_clamped():
    """min (x - a)^2 subject to x >= b; closed form x* = max(a, b)."""

    def obj(X, P, grad=True):
        d = X[:, 0] - P[:, 0]
        return d**2, np.stack([2 * d], axis=1)

    def lower_bound(X, P, grad=True):
        return P[:, 1] - X[:, 0], np.stack([-np.ones(X.shape[0])], axis=1)

    return ProblemSpec(
        name="toy-clamped",
        decision_dim=1,
        param_dim=2,
        objective=obj,
        inequalities=(Constraint(lower_bound, 0.0),),
        equalities=(),
        param_ranges=((-5.0, 5.0), (-5.0, 5.0)),
        default_net_shape=(2, 4, 1),
    )


def _sphere_4d():
    def obj(X, P, grad=True):
        d = X - P
        return (d**2).sum(axis=1), 2 * d

    return ProblemSpec(
        name="sphere-4d",
        decision_dim=4,
        param_dim=4,
        objective=obj,
        inequalities=(),
        equalities=(),
        param_ranges=((-1.0, 1.0),) * 4,
        default_net_shape=(4, 8, 4),
    )


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (4.0, 1.0), (-2.0, -2.0)])
def test_solve_exact_on_convex_toy(a, b):
    sol = solve(_toy_clamped(), np.array([a, b]))
    assert abs(sol.x[0] - max(a, b)) < 1e-6
    assert sol.max_violation <= 1e-6


def test_solve_matches_interior_point_baseline():
    spec = make_problem("rosenbrock-1c")
    sol = solve(spec, np.array([1.0, 1.0]))
    assert np.linalg.norm(sol.x - np.array([0.8082, 0.5889])) < 1e-2
    assert sol.max_violation <= 1e-6
    assert sol.method == "descent"


def test_solve_finds_interior_optimum_exactly():
    spec = make_problem("rosenbrock-1c")
    sol = solve(spec, np.array([25.0, 0.3]))
    np.testing.assert_allclose(sol.x, [0.3, 0.09], rtol=0, atol=1e-8)


def test_grid_scan_feasible_first():
    spec = make_problem("rosenbrock-1c")
    g = grid_scan(spec, np.array([1.0, 1.0]))
    assert g.method == "grid"
    assert g.max_violation <= 1e-6
    assert (g.x**2).sum() <= 1.0 + 1e-12


def test_solve_never_worse_than_grid():
    cfg = OracleConfig()
    for name, p in [
        ("rosenbrock-1c", [1.0, 1.0]),
        ("rosenbrock-1c", [5.0, 0.1]),
        ("ackley-1c", [20.0, 0.2, 0.5, 0.5, 20.0]),
    ]:
        spec = make_problem(name)
        g = grid_scan(spec, np.array(p), cfg)
        s = solve(spec, np.array(p), cfg)
        assert s.objective <= g.objective + 1e-6


def test_solve_is_deterministic():
    spec = make_problem("rosenbrock-1c")
    a = solve(spec, np.array([3.7, 0.42]))
    b = solve(spec, np.array([3.7, 0.42]))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_contradictory_constraints_yield_compromise_with_violation():
    spec = make_problem("rosenbrock-3c")
    sol = solve(spec, np.array([1.0, 1.0]))
    assert sol.max_violation > 0.1
    assert np.all(np.isfinite(sol.x))
    # the least-penalty compromise of the earlier increasing-weight schedule
    np.testing.assert_allclose(sol.x, [-1.1646082247335354, -0.4658432933346955],
                               rtol=0, atol=1e-3)


# rosenbrock-1c instances near the top of the c2 range, where the constraint is
# active, and the objective a 4000-step run of the earlier increasing-weight
# penalty schedule reached on each (its default 400 steps stopped infeasible)
DEFECT_CASES = [
    ((1.53144824, 0.90670082), 0.013466218377639692),
    ((3.63833795, 0.93441975), 0.02126856517281774),
    ((5.92806906, 0.94266640), 0.024000007350024027),
    ((4.35651982, 0.98591676), 0.03881796314039347),
]


@pytest.mark.parametrize("params,reference", DEFECT_CASES)
def test_solve_converges_where_the_constraint_is_active(params, reference):
    cfg = OracleConfig()
    sol = solve(make_problem("rosenbrock-1c"), np.array(params), cfg)
    assert sol.max_violation <= cfg.feasible_tol
    assert sol.objective <= reference + 1e-12


def test_solve_never_worse_than_grid_across_the_range():
    spec = make_problem("rosenbrock-1c")
    params = sample_params(spec, 40, seed=3)
    params[:, 1] = np.linspace(0.0, 1.0, 40)
    cfg = OracleConfig()
    for p in params:
        g = grid_scan(spec, p, cfg)
        s = solve(spec, p, cfg)
        assert g.max_violation <= cfg.feasible_tol  # the origin is a feasible grid point
        assert s.max_violation <= cfg.feasible_tol, p
        assert s.objective <= g.objective, p


def test_method_names_the_winning_candidate():
    # descent refines every rosenbrock-1c grid point; ackley-1c's optimum, the
    # origin, is a grid point no descent improves on
    methods = []
    for name in ("rosenbrock-1c", "ackley-1c"):
        spec = make_problem(name)
        for p in sample_params(spec, 4, seed=4):
            s = solve(spec, p)
            assert (s.method == "grid") == np.array_equal(s.x, grid_scan(spec, p).x), p
            methods.append(s.method)
    assert methods == ["descent"] * 4 + ["grid"] * 4


def test_grid_mesh_cache_gives_the_same_bits():
    spec = make_problem("rosenbrock-1c")
    params = sample_params(spec, 40, seed=5)
    cold = []
    for p in params:
        oracle._mesh.cache_clear()
        cold.append(grid_scan(spec, p))
    warm = [grid_scan(spec, p) for p in params]
    assert oracle._mesh.cache_info().hits >= len(params)
    for c, w in zip(cold, warm):
        assert np.array_equal(c.x, w.x)
        assert c.objective == w.objective
        assert c.max_violation == w.max_violation


@pytest.mark.parametrize(
    "name", ["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c"]
)
def test_grid_scan_bits_do_not_depend_on_chunk_size(monkeypatch, name):
    # on the -3c problems no grid point is feasible, so the least-penalty
    # winner is compared across chunk borders
    spec = make_problem(name)
    params = sample_params(spec, 20, seed=9)
    results = {}
    for chunk in (1000, 4096, 200_000):
        monkeypatch.setattr(oracle, "GRID_CHUNK", chunk)
        results[chunk] = [grid_scan(spec, p) for p in params]
    for chunk in (1000, 4096):
        for got, want in zip(results[chunk], results[200_000]):
            assert np.array_equal(got.x, want.x)
            assert got.objective == want.objective
            assert got.max_violation == want.max_violation


@pytest.mark.parametrize("descent_lr", [1e-2, 1e6])
@pytest.mark.parametrize(
    "name", ["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c"]
)
def test_descent_rows_get_the_same_bits_as_alone(name, descent_lr):
    # rows finish at different steps: by a small move, a zero gradient (the
    # ackley-1c origin) or the step cap, and at descent_lr=1e6 mostly by a
    # failed line search; the last row starts non-finite and never descends
    spec = make_problem(name)
    p = sample_params(spec, 1, seed=21)[0]
    rng = np.random.default_rng(22)
    X0 = np.vstack([rng.uniform(-6.0, 6.0, size=(10, 2)), [[0.0, 0.0], [np.inf, 1.0]]])
    shift = rng.uniform(0.01, 0.5, size=(len(X0), len(spec.inequalities)))
    cfg = OracleConfig(descent_lr=descent_lr)
    with np.errstate(all="ignore"):
        X, ok, R = oracle._descend_batch(spec, p, X0, shift, cfg)
        alone = [oracle._descend_batch(spec, p, X0[i:i + 1], shift[i:i + 1], cfg)
                 for i in range(len(X0))]
    assert ok.tolist() == [True] * 11 + [False]
    for i, (x1, ok1, r1) in enumerate(alone):
        assert X[i].tobytes() == x1[0].tobytes(), i
        assert ok[i] == ok1[0], i
        assert R[i].tobytes() == r1[0].tobytes(), i


def test_ackley_origin_found_within_grid_cell():
    spec = make_problem("ackley-1c")
    cfg = OracleConfig()
    cell = 12.0 / (cfg.grid_points_per_dim - 1)
    for p in [(20, 0.2, 0.05, 0.05, 20), (20, 0.2, 0.5, 0.5, 20)]:
        sol = solve(spec, np.array(p, dtype=float), cfg)
        assert np.linalg.norm(sol.x) <= cell


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_points_per_dim=1)
    with pytest.raises(ValueError):
        OracleConfig(starts=-1)
    with pytest.raises(ValueError):
        OracleConfig(descent_steps=0)
    for tol in (-1.0, float("nan")):
        with pytest.raises(ConfigError) as info:
            OracleConfig(feasible_tol=tol)
        assert info.value.field == "feasible_tol"
    # the fixed-weight multiplier stages replaced the schedule and its exponent;
    # the box and the move tolerance are module constants
    for removed in ("eta_schedule", "gamma", "grid_bounds", "tolerance"):
        with pytest.raises(TypeError):
            OracleConfig(**{removed: 2.0})


@pytest.mark.parametrize("oracle_fn", [solve, grid_scan], ids=["solve", "grid_scan"])
@pytest.mark.parametrize(
    "p,exc",
    [([1.0], DimensionError), ([1.0, 1.0, 3.0], DimensionError),
     ([float("nan"), 1.0], NonFiniteError), ([1.0, float("inf")], NonFiniteError)],
    ids=["short", "long", "nan", "inf"],
)
def test_oracle_checks_params(oracle_fn, p, exc):
    # the CLI rejects the same four vectors with exit 2
    with pytest.raises(exc):
        oracle_fn(make_problem("rosenbrock-1c"), np.array(p))


def test_best_ranks_feasible_first_then_breaks_ties_by_x():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0], [-1.0, 5.0]])
    tol = 1e-6
    viol = np.array([0.0, 0.0, 0.0, 1.0])
    pen = np.array([3.0, 2.0, 2.0, 0.5])
    # feasible rows first, however low an infeasible row's penalty
    assert oracle._best(X, np.array([3.0, 2.0, 1.0, 0.0]), viol, pen, tol) == 2
    # a non-finite objective is never feasible
    assert oracle._best(X, np.array([3.0, 2.0, np.inf, 0.0]), viol, pen, tol) == 1
    # with no feasible row, the lowest penalty wins
    assert oracle._best(X, np.zeros(4), np.ones(4), pen, tol) == 3
    # an objective tie goes to the lexicographically smallest x: (0, 1) < (0, 2) < (1, 0)
    assert oracle._best(X, np.array([1.0, 1.0, 1.0, 0.0]), viol, pen, tol) == 2
    assert oracle._best(X, np.zeros(4), np.ones(4), np.full(4, np.inf), tol) == 3
    # equal x and equal score: the first row
    twins = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert oracle._best(twins, np.array([2.0, 1.0, 1.0]), np.zeros(3), pen[:3], tol) == 1


def test_grid_scan_rejects_high_dimensions():
    with pytest.raises(UnsupportedError):
        grid_scan(_sphere_4d(), np.zeros(4))


def test_solve_high_dimensional_without_grid_seed():
    p = np.array([0.3, -0.2, 0.5, 0.1])
    sol = solve(_sphere_4d(), p, OracleConfig(starts=8))
    np.testing.assert_allclose(sol.x, p, rtol=0, atol=1e-6)


def test_solve_with_no_starts_raises():
    with pytest.raises(OracleError):
        solve(_sphere_4d(), np.zeros(4), OracleConfig(starts=0))


def test_solve_with_grid_seed_only():
    # starts=0 still works in low dimension: the grid point seeds the descent
    spec = make_problem("rosenbrock-1c")
    sol = solve(spec, np.array([25.0, 0.3]), OracleConfig(starts=0))
    np.testing.assert_allclose(sol.x, [0.3, 0.09], rtol=0, atol=1e-6)
