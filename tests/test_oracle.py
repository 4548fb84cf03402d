"""Oracle: grid scan, multi-start penalized descent, configs, failure modes."""

import dataclasses
import types
import warnings

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
    kkt_residual,
    make_problem,
    problem_names,
    sample_params,
    solve,
)
from penalearn import oracle
from penalearn.penalty import ConstraintEval, loss_terms_batch
from penalearn.problems import disk_constraint
from test_equality import LINE, LINE_IN_DISK


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


def _spy_stage_batches(monkeypatch):
    """A list that gets one entry per ``_stages`` call: the list of its
    ``_descend_batch`` calls, each as (starts, shifts, output)."""
    batches, stages, descend = [], oracle._stages, oracle._descend_batch

    def stages_spy(spec, p, X, cfg):
        batches.append([])
        return stages(spec, p, X, cfg)

    def descend_spy(spec, p, X, shift, cfg):
        out = descend(spec, p, X, shift, cfg)
        batches[-1].append((X.copy(), shift.copy(), out))
        return out

    monkeypatch.setattr(oracle, "_stages", stages_spy)
    monkeypatch.setattr(oracle, "_descend_batch", descend_spy)
    return batches


def _force_fallback(monkeypatch):
    """No KKT residual is at most -1, so no answer is certified."""
    monkeypatch.setattr(oracle, "_KKT_BOUND", -1.0)


@pytest.mark.parametrize("starts", [0, 1, 16])
def test_solve_starts_from_the_seeded_draws_then_the_grid_point(monkeypatch, starts):
    # one draw of k per start, in order, from the seeded stream; past the
    # certificate the grid start has descended first, and the draws follow it
    spec, p = make_problem("rosenbrock-1c"), np.array([3.7, 0.42])
    cfg = OracleConfig(starts=starts)
    _force_fallback(monkeypatch)
    seen, stages = [], oracle._stages  # the starts of each _stages call
    monkeypatch.setattr(oracle, "_stages",
                        lambda spec, p, X, cfg: seen.append(X.copy()) or stages(spec, p, X, cfg))
    assert not solve(spec, p, cfg).certified
    rng, (lo, hi) = np.random.default_rng(cfg.seed), oracle._BOX
    want = [lo + (hi - lo) * rng.random(2) for _ in range(starts)] + [grid_scan(spec, p, cfg).x]
    grid_start, draws = seen
    assert np.vstack([draws, grid_start]).tobytes() == np.stack(want).tobytes()


def test_a_certified_solve_descends_the_grid_start_alone_and_draws_nothing(monkeypatch):
    spec, p = make_problem("rosenbrock-1c"), np.array([3.7, 0.42])
    batches = _spy_stage_batches(monkeypatch)
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeds.append(a) or default_rng(*a))
    sol = solve(spec, p)
    assert sol.certified and seeds == []
    assert len(batches) == 1
    assert batches[0][0][0].tobytes() == grid_scan(spec, p).x[None].tobytes()


# (spec, p, the number of starts each stage descends): on ackley-1c the running
# set falls from 17 starts to 1 after stage 1; every rosenbrock-3c solve runs
# all 12 stages; the line takes the equality branch of the shift update; at
# c1 = 1e306, 6 of the 17 rosenbrock-1c starts overflow in stage 1 and stop.
# Where the grid point is feasible, the grid start and the random starts
# descend in two batches, and stage i counts the rows of both.  The certified
# cases descend the grid start alone: the ackley-1c origin stops at once, and
# at (1, 1) the disk is active
STAGE_CASES = [
    (make_problem("ackley-1c"), sample_params(make_problem("ackley-1c"), 60, 0)[0],
     [17, 1, 1, 1], False),
    (make_problem("rosenbrock-3c"), np.array([1.0, 1.0]), [17] * 12, False),
    (LINE, sample_params(LINE, 5, 3)[0], [17] * 4, False),
    (make_problem("rosenbrock-1c"), np.array([1e306, 1.0]), [17] + [10] * 11, False),
    (make_problem("ackley-1c"), sample_params(make_problem("ackley-1c"), 60, 0)[0], [1], True),
    (make_problem("rosenbrock-1c"), np.array([1.0, 1.0]), [1, 1, 1], True),
]


@pytest.mark.parametrize("spec, p, sizes, certified", STAGE_CASES,
                         ids=["ackley-1c", "rosenbrock-3c", "line", "diverging-starts",
                              "ackley-1c-certified", "active-disk-certified"])
def test_each_stage_descends_the_starts_left_running_at_their_next_shifts(monkeypatch, spec, p,
                                                                          sizes, certified):
    cfg = OracleConfig()
    if not certified:
        _force_fallback(monkeypatch)
    batches = _spy_stage_batches(monkeypatch)
    assert solve(spec, p, cfg).certified == certified
    depth = max(len(stages) for stages in batches)
    assert [sum(len(stages[i][0]) for stages in batches if i < len(stages))
            for i in range(depth)] == sizes
    if certified:
        assert len(batches) == 1 and batches[0][0][0].tobytes() == grid_scan(spec, p).x.tobytes()
    n_ineq = len(spec.inequalities)
    for stages in batches:
        assert not stages[0][1].any()
        ineq = np.arange(stages[0][1].shape[1]) < n_ineq
        for i, (_, s, (X_out, ok, R)) in enumerate(stages):
            # max(0, s + r) for an inequality, s + h for an equality
            with np.errstate(all="ignore"):  # a diverged start's residuals may be inf or nan
                after = np.where(ineq, np.maximum(0.0, s + R), s + R)
                running = ok & (np.abs(after - s) > cfg.feasible_tol / 10).any(axis=1)
            if i + 1 == len(stages):  # the last stage leaves no start running, or is the 12th
                assert not running.any() or len(stages) == oracle._AL_MAX_STAGES
                break
            X_next, s_next, _ = stages[i + 1]
            assert X_next.tobytes() == X_out[running].tobytes()
            assert s_next.tobytes() == after[running].tobytes()


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


def _rank_values(spec, p, X):
    """(objective, worst violation, objective + penalty) at every row of ``X``,
    from one ``loss_terms_batch`` call at the default ``PenaltyConfig``, with
    a non-finite objective or sum as inf."""
    terms = loss_terms_batch(X, np.broadcast_to(p, (X.shape[0], p.size)), spec,
                             oracle._RANK_PENALTY, strict=False, grad=False)
    max_ineq, max_eq, _ = terms.constraints.violations()
    f0 = np.where(np.isfinite(terms.objective), terms.objective, np.inf)
    pen = np.where(np.isfinite(terms.loss), terms.loss, np.inf)
    return f0, np.maximum(max_ineq, max_eq), pen


def _full_penalized_scan(spec, p, cfg=OracleConfig()):
    """The grid scan's rule, evaluated in full and ranked at once: objective,
    worst violation and objective + penalty at every grid point, one
    evaluation per ``GRID_CHUNK`` rows; feasible points (finite objective)
    first, by objective, and with none every point by objective + penalty;
    ties by x, then by row.  The winner is then evaluated alone.  Returns
    (x, objective, max_violation)."""
    points = oracle._mesh(spec.decision_dim, cfg.grid_points_per_dim)
    f0, viol, pen = (np.concatenate(column) for column in zip(*(
        _rank_values(spec, p, points[lo:lo + oracle.GRID_CHUNK])
        for lo in range(0, points.shape[0], oracle.GRID_CHUNK))))
    feas = (viol <= cfg.feasible_tol) & np.isfinite(f0)
    score = np.where(feas, f0, np.inf) if feas.any() else pen
    # lexsort is stable and sorts by its last key first: score, then x1, x2, ...
    x = points[np.lexsort((*points.T[::-1], score))[0]]
    f0, viol, _ = _rank_values(spec, p, x[None, :])
    return x, f0[0], viol[0]


def _defect_band():
    params = sample_params(make_problem("rosenbrock-1c"), 10, seed=6)
    params[:, 1] = np.linspace(0.88, 1.0, 10)
    return params


@pytest.mark.parametrize("name, params", [
    *[(name, sample_params(make_problem(name), 20, seed=8)) for name in
      ("rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c")],
    ("rosenbrock-1c", _defect_band()),
    # c1 = 1e308 overflows the objective at part of the disk, not at (0, 0);
    # c2 = 1e200 overflows it everywhere, so no grid point is feasible with a
    # finite objective and the scan ranks every point by objective + penalty
    ("rosenbrock-1c", np.array([[1e308, 1.0], [1.0, 1e200]])),
    # no grid point lies on x1 + x2 = 1: every point is ranked by objective + penalty
    (LINE, sample_params(LINE, 5, seed=8)),
    (LINE_IN_DISK, sample_params(LINE_IN_DISK, 5, seed=8)),
], ids=["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c", "defect-band", "overflow",
        "line", "line-in-disk"])
def test_grid_scan_matches_the_full_penalized_scan(name, params):
    spec = make_problem(name) if isinstance(name, str) else name
    for p in params:
        x, objective, max_violation = _full_penalized_scan(spec, p)
        got = grid_scan(spec, p)
        assert got.x.tobytes() == x.tobytes(), p
        assert np.float64(got.objective).tobytes() == objective.tobytes(), p
        assert np.float64(got.max_violation).tobytes() == max_violation.tobytes(), p
        assert got.method == "grid"


def _undeclared(spec):
    """``spec`` with each constraint evaluator behind a plain wrapper that
    declares nothing, so each of its scans evaluates the whole grid."""
    def plain(fn):
        return lambda x, p, grad=True: fn(x, p, grad=grad)

    return dataclasses.replace(spec, **{
        kind: tuple(Constraint(plain(c.fn), c.bound) for c in getattr(spec, kind))
        for kind in ("inequalities", "equalities")})


def _answer_bytes(s):
    return b"".join([s.x.tobytes(), np.float64(s.objective).tobytes(),
                     np.float64(s.max_violation).tobytes(), s.method.encode()])


@pytest.mark.parametrize("name", ["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c"])
def test_grid_scan_has_the_same_bits_with_and_without_the_param_free_declaration(name):
    # every scan after the first ranks only the cached feasible points; the -3c
    # problems cache none, and at (1, 1e200) the objective overflows at every
    # cached point, so those scans fall back to the whole grid
    spec = make_problem(name)
    plain = _undeclared(spec)
    params = list(sample_params(spec, 50, seed=12))
    if name == "rosenbrock-1c":
        params += [np.array([1e308, 1.0]), np.array([1.0, 1e200])]
    oracle._feasible_points.cache_clear()
    for p in params:
        assert _answer_bytes(grid_scan(spec, p)) == _answer_bytes(grid_scan(plain, p)), p
    assert oracle._feasible_points.cache_info()[:2] == (len(params) - 1, 1)  # hits, misses


def test_a_constraint_that_reads_p_keeps_the_full_scan():
    # x1^2 + x2^2 <= c2 reads p, so it declares nothing: were the feasible points
    # of the small disk kept, the scan at c2 = 1 would miss the unit disk's winner
    def disk(x, p, grad=True):
        return x[:, 0] ** 2 + x[:, 1] ** 2 - p[:, 1], (2.0 * x if grad else None)

    spec = dataclasses.replace(make_problem("rosenbrock-1c"), name="rosenbrock-disk-c2",
                               inequalities=(Constraint(disk, 0.0),))
    oracle._feasible_points.cache_clear()
    for p in (np.array([1.0, 0.04]), np.array([1.0, 1.0])):
        x, objective, max_violation = _full_penalized_scan(spec, p)
        got = grid_scan(spec, p)
        assert got.x.tobytes() == x.tobytes(), p
        assert np.float64(got.objective).tobytes() == objective.tobytes(), p
        assert np.float64(got.max_violation).tobytes() == max_violation.tobytes(), p
        s = solve(spec, p)
        assert s.certified and s.objective <= objective, p
    assert oracle._feasible_points.cache_info().currsize == 0


def test_each_bound_tolerance_and_grid_gets_its_own_feasible_points():
    # rosenbrock's unconstrained minimum (c2, c2^2) lies in the disk of radius 5,
    # outside the unit disk and inside it widened by a tolerance of 0.5 (at c2 =
    # 0.9); and the winner on the 201-point grid is no point of the 101-point one
    base = make_problem("rosenbrock-1c")
    oracle._feasible_points.cache_clear()
    for p in (np.array([1.0, 1.0]), np.array([3.0, 0.9])):
        for bound in (1.0, 25.0):
            spec = dataclasses.replace(base, inequalities=(Constraint(disk_constraint, bound),))
            for tol in (1e-6, 0.5):
                for n in (201, 101):
                    cfg = OracleConfig(grid_points_per_dim=n, feasible_tol=tol)
                    assert (_answer_bytes(grid_scan(spec, p, cfg))
                            == _answer_bytes(grid_scan(_undeclared(spec), p, cfg))), (
                        p, bound, tol, n)
    assert oracle._feasible_points.cache_info()[:2] == (8, 8)  # hits, misses


def test_a_bound_that_cannot_be_hashed_keeps_the_full_scan():
    # a 0-d array bound evaluates as its float does, but cannot key the cache
    base = make_problem("rosenbrock-1c")
    spec = dataclasses.replace(base, inequalities=(Constraint(disk_constraint, np.array(1.0)),))
    oracle._feasible_points.cache_clear()
    for p in sample_params(base, 3, seed=2):
        assert _answer_bytes(grid_scan(spec, p)) == _answer_bytes(grid_scan(base, p)), p
    assert oracle._feasible_points.cache_info()[:2] == (2, 1)  # base's scans: hits, misses


def test_specs_made_apart_share_their_feasible_points():
    # specs made by separate make_problem calls are equal, so a fresh rosenbrock-3c
    # spec finds the first one's entry, and nine of them evict nothing
    for name in problem_names():
        assert make_problem(name) == make_problem(name), name
    oracle._feasible_points.cache_clear()
    p = np.array([1.0, 1.0])
    grid_scan(make_problem("rosenbrock-1c"), p)
    for _ in range(9):
        grid_scan(make_problem("rosenbrock-3c"), p)
    grid_scan(make_problem("rosenbrock-1c"), p)
    assert oracle._feasible_points.cache_info()[:2] == (8 + 1, 2)  # hits, misses


def test_a_spec_built_from_lists_equals_hashes_and_caches_as_the_tuple_one():
    base = make_problem("rosenbrock-1c")
    listed = ProblemSpec(name=base.name, decision_dim=2, param_dim=2, objective=base.objective,
                         inequalities=[Constraint(disk_constraint, 1.0)], equalities=[],
                         param_ranges=[[0, 30], [0, 1]], default_net_shape=[2, 20, 20, 2])
    assert listed == base and hash(listed) == hash(base)
    assert listed.param_ranges == ((0, 30), (0, 1)) and listed.default_net_shape == (2, 20, 20, 2)
    oracle._feasible_points.cache_clear()
    p = np.array([1.0, 1.0])
    first = _answer_bytes(grid_scan(listed, p))
    assert _answer_bytes(grid_scan(listed, p)) == first == _answer_bytes(grid_scan(base, p))
    assert oracle._feasible_points.cache_info()[:2] == (2, 1)  # hits, misses


def _lone_values(spec, p, x):
    """The objective and the worst violation of one evaluation at ``x`` alone."""
    f0, _ = spec.objective(x[None], p[None], grad=False)
    max_ineq, max_eq, _ = spec.constraint_eval(x[None], p[None], grad=False).violations()
    return f0[0], np.maximum(max_ineq, max_eq)[0]


@pytest.mark.parametrize("name, params", [
    *[(name, sample_params(make_problem(name), 5, seed=8)) for name in
      ("rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c")],
    ("rosenbrock-1c", _defect_band()),
    (LINE, sample_params(LINE, 5, seed=8)),
    (LINE_IN_DISK, sample_params(LINE_IN_DISK, 5, seed=8)),
], ids=["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c", "defect-band", "line",
        "line-in-disk"])
def test_solve_reports_the_values_of_a_lone_evaluation_at_its_answer(name, params):
    spec = make_problem(name) if isinstance(name, str) else name
    for p in params:
        sol = solve(spec, p)
        objective, max_violation = _lone_values(spec, p, sol.x)
        assert np.float64(sol.objective).tobytes() == objective.tobytes(), p
        assert np.float64(sol.max_violation).tobytes() == max_violation.tobytes(), p


def _descent_inputs(name):
    """(spec, p, X0, shift): 10 random starts, the origin and a non-finite
    start, each with its own residual shift."""
    spec = make_problem(name)
    p = sample_params(spec, 1, seed=21)[0]
    rng = np.random.default_rng(22)
    X0 = np.vstack([rng.uniform(-6.0, 6.0, size=(10, 2)), [[0.0, 0.0], [np.inf, 1.0]]])
    shift = rng.uniform(0.01, 0.5, size=(len(X0), len(spec.inequalities)))
    return spec, p, X0, shift


@pytest.mark.parametrize("descent_lr", [1e-2, 1e6])
@pytest.mark.parametrize(
    "name", ["rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c"]
)
def test_descent_rows_get_the_same_bits_as_alone(name, descent_lr):
    # rows finish at different steps: by a small move, a zero gradient (the
    # ackley-1c origin) or the step cap, and at descent_lr=1e6 mostly by a
    # failed line search; the last row starts non-finite and never descends
    spec, p, X0, shift = _descent_inputs(name)
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


def test_the_nonmonotone_window_compares_against_the_losses_seen_so_far(monkeypatch):
    # Grippo, Lampariello & Lucidi: a step is accepted only at a loss no higher than
    # the largest of the last min(k + 1, 10) losses, the start's included.  At
    # (1, 1) the disk is active; a window of inf would let the third loss jump
    # from 0.047 to 0.32.  The accepted point after n steps is the end point of a
    # descent capped at n steps (rows are deterministic), and its loss is the one
    # the descent computed for that trial
    spec, p = make_problem("rosenbrock-1c"), np.array([1.0, 1.0])
    x0, shift = grid_scan(spec, p).x[None], np.zeros((1, 1))
    loss_at, evaluator, row_terms = {}, oracle.loss_terms_batch, oracle._row_terms

    def spy(X, *args, **kwargs):
        terms = evaluator(X, *args, **kwargs)
        loss_at.update(zip((x.tobytes() for x in X), terms.loss))
        return terms

    def row_spy(forms, p, x, shift):  # the lone row's evaluations
        out = row_terms(forms, p, x, shift)
        loss_at[np.array(x).tobytes()] = out[0]
        return out

    monkeypatch.setattr(oracle, "loss_terms_batch", spy)
    monkeypatch.setattr(oracle, "_row_terms", row_spy)
    ends = [x0.tobytes()]  # the start, then the point after each step
    with np.errstate(all="ignore"):
        for steps in range(1, OracleConfig().descent_steps + 1):
            X = oracle._descend_batch(spec, p, x0, shift, OracleConfig(descent_steps=steps))[0]
            if X.tobytes() == ends[-1]:  # the row has stopped
                break
            ends.append(X.tobytes())
    losses = [loss_at[x] for x in ends]
    assert len(losses) > 11
    for n in range(1, len(losses)):
        assert losses[n] <= max(losses[max(0, n - 10):n]), (n, losses[:n + 1])


def _ledge(k):
    """sum(x - c) over R^k, with c = p, and +inf once any x_i - c_i < -10:
    a constant gradient, and a trial that steps off the ledge fails."""

    def objective(X, P, grad=True):
        d = X - P
        f = np.where((d >= -10.0).all(axis=1), d.sum(axis=1), np.inf)
        return f, (np.ones_like(d) if grad else None)

    return ProblemSpec(name="ledge", decision_dim=k, param_dim=k, objective=objective,
                       param_ranges=((-1.0, 1.0),) * k)


def _with_row(spec):
    """``spec`` with a ``row`` form on its objective, so that a lone row takes
    the row path: the batch objective at one row, its gradient widened to
    floats as ``_descend_batch`` widens it."""
    objective = spec.objective

    def batch(X, P, grad=True):
        return objective(X, P, grad=grad)

    def row(x, p):
        f, g = objective(np.array([x]), np.array([p]))
        return float(f[0]), g[0].tolist()

    batch.row = row
    return dataclasses.replace(spec, objective=batch)


def _spec_2d(objective):
    """A spec over R^2 with one parameter, no constraint and ``objective``, given
    a row form."""
    return _with_row(ProblemSpec(name="row-case", decision_dim=2, param_dim=1,
                                 objective=objective, param_ranges=((-1.0, 1.0),)))


def _x1_objective(value, slope):
    """An objective of x1 alone: ``value(x1)``, with the gradient (``slope(x1)``, 0)
    (not the derivative of ``value``: each case sets the two apart)."""

    def objective(X, P, grad=True):
        x1 = X[:, 0]
        g = np.stack([slope(x1), np.zeros(len(X))], axis=1) if grad else None
        return value(x1), g

    return objective


def _signed_zeros(x1):
    # from x1 = 0 with gradient (1, 0) and descent_lr 2 the BB step doubles
    # from 1 (the quotient is 0 / 0), so the accepted points are x1 = 1 - 2^k;
    # their losses are 1, -0.0, 0.0, -1, ..., -8, then -(1e-4 * 1e3) once the
    # step is capped at 1e3, the Armijo threshold after the window holds both zeros
    k = np.log2(1.0 - x1)
    return np.where(k > 10.0, -(1e-4 * 1e3), np.where(
        k == 0.0, 1.0, np.where(k == 1.0, -0.0, np.where(k == 2.0, 0.0, 2.0 - k))))


def _flip(x1):
    # a trial from x1 >= 0 that passes lands at x1 < 0 with the gradient's sign
    # flipped: s.y and y.y overflow, so the BB quotient is inf / inf, a NaN step
    return np.where(x1 >= 0.0, 1e308, 0.0)


ROW_CASES = {
    "signed-zero-window": (_spec_2d(_x1_objective(_signed_zeros, np.ones_like)),
                           [[0.0, 0.5], [-1.0, 0.5]], OracleConfig(descent_lr=2.0)),
    "nan-step": (_spec_2d(_x1_objective(_flip, lambda x1: np.where(x1 >= 0.0, 1e154, -1e154))),
                 [[0.0, 0.0], [1.0, 0.0]], OracleConfig(descent_lr=1e154)),
    # t * |g|^2 overflows, but the Armijo margin (1e-4 * t) * |g|^2 does not
    "huge-margin": (_spec_2d(_x1_objective(_flip, lambda x1: np.full_like(x1, 1e154))),
                    [[0.0, 0.0], [1.0, 0.0]], OracleConfig(descent_lr=5e154, descent_steps=1)),
    # the first trial from x1 = 1 lands below -10, at a loss of -inf
    "minus-inf-trial": (_spec_2d(_x1_objective(
        lambda x1: np.where(x1 < -10.0, -np.inf, np.cosh(x1)), np.sinh)),
        [[1.0, 0.0], [2.0, 0.0]], OracleConfig(descent_lr=100.0)),
    # numpy sums 7 columns left to right, as the row path does
    "seven-columns": (_with_row(ProblemSpec(name="cosh-7d", decision_dim=7, param_dim=1,
                                            objective=lambda X, P, grad=True: (
                                                np.add.reduce(np.cosh(X - P), 1),
                                                np.sinh(X - P) if grad else None),
                                            param_ranges=((-1.0, 1.0),))),
                      np.random.default_rng(3).uniform(-3.0, 3.0, (2, 7)),
                      OracleConfig(descent_steps=5)),
    # a float32 gradient: both paths do their arithmetic in doubles
    "float32-gradient": (_with_row(ProblemSpec(name="cosh-3d-f32", decision_dim=3, param_dim=1,
                                               objective=lambda X, P, grad=True: (
                                                   np.add.reduce(np.cosh(X - P), 1),
                                                   np.sinh(X - P).astype(np.float32)
                                                   if grad else None),
                                               param_ranges=((-1.0, 1.0),))),
                         np.random.default_rng(3).uniform(-3.0, 3.0, (2, 3)),
                         OracleConfig(descent_steps=5)),
    # every trial from x = 0 steps off the ledge (see test_line_search_tries_its_45th_trial)
    "all-45-trials-fail": (_with_row(_ledge(2)), [[0.0, 0.0], [0.5, 0.0]],
                           OracleConfig(descent_lr=40.0 * 2.0**44)),
    "zero-gradient": (_spec_2d(_x1_objective(lambda x1: x1 * x1, lambda x1: 2.0 * x1)),
                      [[0.0, 3.0], [1.0, 3.0]], OracleConfig()),
    # a finite loss beside an infinite gradient
    "non-finite-start": (_spec_2d(_x1_objective(
        lambda x1: x1 * x1, lambda x1: np.where(x1 == 0.0, np.inf, 2.0 * x1))),
        [[0.0, 1.0], [1.0, 1.0]], OracleConfig()),
    "step-cap": (make_problem("rosenbrock-1c"), [[-1.5, 2.0], [0.5, 0.5]],
                 OracleConfig(descent_steps=3)),
}


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_a_lone_row_gets_the_bits_it_has_in_a_batch(monkeypatch, case):
    # a lone row of fewer than 8 columns descends on Python floats; beside a
    # second row it takes the batch path, and its bits must not tell the two apart
    spec, X0, cfg = ROW_CASES[case]
    X0 = np.array(X0)
    p, shift = np.ones(spec.param_dim), np.full((2, len(spec.inequalities)), 0.25)
    rows, descend_row = [], oracle._descend_row
    monkeypatch.setattr(oracle, "_descend_row", lambda *a: rows.append(a) or descend_row(*a))
    with np.errstate(all="ignore"):
        pair = oracle._descend_batch(spec, p, X0, shift, cfg)
        assert not rows
        alone = oracle._descend_batch(spec, p, X0[:1], shift[:1], cfg)
    assert len(rows) == 1
    for a, b in zip(alone, pair):
        assert a.shape[0] == 1 and a[0].tobytes() == b[0].tobytes(), (a, b)


def test_row_cases_reach_the_paths_they_name(monkeypatch):
    # each case ends the way its name says, on the row path, so the bit
    # comparison above covers that path of the row descent
    rows, descend_row = [], oracle._descend_row
    monkeypatch.setattr(oracle, "_descend_row", lambda *a: rows.append(a) or descend_row(*a))

    def run(case):
        spec, X0, cfg = ROW_CASES[case]
        shift = np.full((1, len(spec.inequalities)), 0.25)
        n = len(rows)
        with np.errstate(all="ignore"):
            out = oracle._descend_batch(spec, np.ones(spec.param_dim), np.array(X0[:1]),
                                        shift, cfg)
        assert len(rows) == n + 1, case
        return out

    X, ok, _ = run("signed-zero-window")
    assert ok[0] and X[0, 0] == 1.0 - 2.0**10 - 1e3 - 1e3  # two steps at the 1e3 cap
    X, ok, _ = run("nan-step")
    # the first trial passed; the next step is NaN, so no trial passes after it
    assert ok[0] and X[0, 0] == 0.0 - 1e154 / (1.0 + np.sqrt(1e154 * 1e154)) * 1e154
    X, ok, _ = run("huge-margin")
    assert ok[0] and X[0, 0] == 0.0 - 5e154 / (1.0 + np.sqrt(1e154 * 1e154)) * 1e154
    X, ok, _ = run("minus-inf-trial")
    assert ok[0] and -10.0 <= X[0, 0] < 1.0
    X, ok, _ = run("all-45-trials-fail")
    assert ok[0] and X[0].tolist() == [0.0, 0.0]
    X, ok, _ = run("zero-gradient")
    assert ok[0] and X[0].tolist() == [0.0, 3.0]
    X, ok, _ = run("non-finite-start")
    assert not ok[0] and X[0].tolist() == [0.0, 1.0]
    spec, X0, cfg = ROW_CASES["step-cap"]
    longer = dataclasses.replace(cfg, descent_steps=4)
    with np.errstate(all="ignore"):
        capped = run("step-cap")[0]
        more = oracle._descend_batch(spec, np.ones(2), np.array(X0[:1]), np.full((1, 1), 0.25),
                                     longer)[0]
    assert capped.tobytes() != more.tobytes()


def test_a_row_of_8_columns_takes_the_batch_path(monkeypatch):
    # from 8 columns numpy sums a row pairwise, not left to right, so a lone
    # row of 8 keeps the numpy path and its bits, though its objective has a row form
    def objective(X, P, grad=True):
        d = X - P
        return np.add.reduce(np.cosh(d), 1), (np.sinh(d) if grad else None)

    spec = _with_row(ProblemSpec(name="cosh-8d", decision_dim=8, param_dim=8,
                                 objective=objective, param_ranges=((-1.0, 1.0),) * 8))
    p = np.random.default_rng(5).uniform(-1.0, 1.0, 8)
    X0 = np.random.default_rng(6).uniform(-3.0, 3.0, (2, 8))
    cfg = OracleConfig(descent_steps=5)  # stopped short of the minimum, where rounding shows
    monkeypatch.setattr(oracle, "_descend_row", None)  # calling it would raise
    with np.errstate(all="ignore"):
        pair = oracle._descend_batch(spec, p, X0, np.zeros((2, 0)), cfg)
        alone = oracle._descend_batch(spec, p, X0[:1], np.zeros((1, 0)), cfg)
    for a, b in zip(alone, pair):
        assert a[0].tobytes() == b[0].tobytes()


def test_a_lone_row_with_an_equality_takes_the_batch_path(monkeypatch):
    # the row path charges no equality: a spec with one descends a lone row on
    # the batch path, though its objective and inequality carry row forms
    line = Constraint(lambda X, P, grad=True: (X[:, 0] + X[:, 1],
                                               np.ones_like(X) if grad else None), 1.0)
    spec = dataclasses.replace(make_problem("rosenbrock-1c"), equalities=(line,))
    X0, p, shift = np.array([[0.3, 0.2], [0.5, 0.5]]), np.array([1.0, 0.5]), np.full((2, 2), 0.25)
    monkeypatch.setattr(oracle, "_descend_row", None)  # calling it would raise
    with np.errstate(all="ignore"):
        pair = oracle._descend_batch(spec, p, X0, shift, OracleConfig())
        alone = oracle._descend_batch(spec, p, X0[:1], shift[:1], OracleConfig())
    for a, b in zip(alone, pair):
        assert a[0].tobytes() == b[0].tobytes()


def _row_points(spec, rng):
    """(points, parameters, shifts), one row each: seeded points in [-6, 6]^2,
    points on each constraint's boundary, signed zeros, points whose values
    overflow, and NaN and +-inf coordinates; the shifts are zero, positive,
    -0.0 and random in turn, every fifth one puts a residual exactly at 0, and
    some first columns are NaN."""
    m = len(spec.inequalities)
    edges = [(1.0, 0.0), (0.6, -0.8), (0.0, -1.0), (-2.5, -1.0), (-2.5, 0.0), (0.0, -0.0),
             (-0.0, -0.0), (-0.0, 0.0), (1e155, 1.0), (1.0, -1e200), (-1e300, 1e300),
             (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.0), (-np.inf, 1.0), (0.5, -np.inf),
             (np.inf, -np.inf)]
    X = np.vstack([rng.uniform(-6.0, 6.0, (3000, 2)), np.array(edges * 8)])
    P = sample_params(spec, len(X), 9)
    P[::7, 0] = 1e308  # -4 * c1 overflows
    P[3::11] = [0.0, -0.0]
    shift = np.zeros((len(X), m))
    shift[1::4] = rng.uniform(0.0, 30.0, (len(shift[1::4]), m))
    shift[2::4] = -0.0
    shift[3::4] = rng.uniform(-30.0, 30.0, (len(shift[3::4]), m))
    with np.errstate(all="ignore"):
        shift[::5] = -spec.constraint_eval(X[::5], P[::5], grad=False).values
    shift[6::13, 0] = np.nan  # the block keeps a NaN penalty NaN, and so must the row
    return X, P, shift


@pytest.mark.parametrize("name", ["rosenbrock-1c", "rosenbrock-3c"])
def test_the_float_row_evaluation_has_the_bits_of_loss_terms_batch(name):
    # where the batch's value is finite the float evaluation gives its bits, the
    # signs of zeros included; where it is not, the float value is not finite either
    spec = make_problem(name)
    X, P, shift = _row_points(spec, np.random.default_rng(31))

    def same(a, b, where):
        assert np.isfinite(a) == np.isfinite(b), where
        if np.isfinite(b):
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), where

    forms = oracle._row_forms(spec)
    with np.errstate(all="ignore"):
        for i in range(len(X)):
            f, g, r = oracle._row_terms(forms, P[i].tolist(), X[i].tolist(), shift[i].tolist())
            t = loss_terms_batch(X[i:i + 1], P[i:i + 1], spec, oracle._STAGE_PENALTY,
                                 strict=False, shift=shift[i:i + 1])
            assert len(g) == 2 and len(r) == len(spec.inequalities)
            same(f, t.loss[0], (i, "loss"))
            for j in range(2):
                same(g[j], t.grad[0, j], (i, "grad", j))
            for j in range(len(r)):
                same(r[j], t.constraints.values[0, j], (i, "residual", j))


def _without_rows(spec):
    """``spec`` with each evaluator wrapped in a plain function, which has no ``row``."""
    def plain(fn):
        return lambda x, p, grad=True: fn(x, p, grad=grad)

    return dataclasses.replace(spec, objective=plain(spec.objective),
                               inequalities=tuple(Constraint(plain(c.fn), c.bound)
                                                  for c in spec.inequalities))


BACKEND_CASES = {
    # from (0, 0) at (c1, c2) = (30, 0.5) a first trial overshoots
    "first-trial-fails": ([0.0, 0.0], [30.0, 0.5], 0.0, OracleConfig(descent_lr=100.0)),
    "all-45-trials-fail": ([0.3, 0.2], [1.0, 0.5], 0.0, OracleConfig(descent_lr=1e300)),
    "step-cap": ([-1.5, 2.0], [1.0, 0.5], 0.0, OracleConfig(descent_steps=3)),
    "non-finite-start": ([1e155, 1.0], [1.0, 0.5], 0.0, OracleConfig()),
    "disk-active": ([0.6, 0.3], [1.0, 1.0], 0.0, OracleConfig()),
    "disk-active-shifted": ([0.6, 0.3], [1.0, 1.0], 0.25, OracleConfig()),
}


@pytest.mark.parametrize("case", list(BACKEND_CASES))
@pytest.mark.parametrize("name", ["rosenbrock-1c", "rosenbrock-3c"])
def test_a_lone_row_descends_to_the_same_bits_on_either_backend(monkeypatch, name, case):
    # the registry's evaluators carry row forms, so a lone row takes the row
    # path; the same evaluators wrapped in plain functions take the batch path
    x0, p, s, cfg = BACKEND_CASES[case]
    spec = make_problem(name)
    X0, p = np.array([x0]), np.array(p)
    shift = np.full((1, len(spec.inequalities)), s)
    batches, evaluator = [], oracle.loss_terms_batch
    monkeypatch.setattr(oracle, "loss_terms_batch",
                        lambda X, *a, **k: batches.append(len(X)) or evaluator(X, *a, **k))
    with np.errstate(all="ignore"):
        floats = oracle._descend_batch(spec, p, X0, shift, cfg)
        assert not batches
        arrays = oracle._descend_batch(_without_rows(spec), p, X0, shift, cfg)
    assert batches
    for a, b in zip(floats, arrays):
        assert a.tobytes() == b.tobytes(), (a, b)
    # each case reaches the path it names
    if case == "first-trial-fails":
        assert max(batches) > 1  # a halving group
    elif case == "all-45-trials-fail":
        assert batches == [1, 1, 8, 8, 8, 8, 8, 4] and floats[0].tobytes() == X0.tobytes()
    elif case == "step-cap":
        longer = dataclasses.replace(cfg, descent_steps=4)
        with np.errstate(all="ignore"):
            more = oracle._descend_batch(spec, p, X0, shift, longer)[0]
        assert floats[0].tobytes() != more.tobytes()
    elif case == "non-finite-start":
        assert batches == [1] and not floats[1][0]
    else:  # the disk's penalty is active at the end
        assert floats[2][0, 0] + s > 0.0


def test_the_row_line_search_evaluates_no_trial_after_the_first_that_passes(monkeypatch):
    # each search tries t, t/2, ... one _row_terms call per trial, so a search
    # that takes the step t * 2^-j made j + 1 calls and one that fails made 45
    x0, p, _, cfg = BACKEND_CASES["first-trial-fails"]
    calls, searches = [0], []
    row_terms, search_row = oracle._row_terms, oracle._search_row

    def row_spy(*args):
        calls[0] += 1
        return row_terms(*args)

    def search_spy(*args):
        calls[0] = 0
        trial = search_row(*args)
        steps = [args[-1]]  # t, then each step halved from the one before
        while len(steps) < oracle._MAX_HALVINGS:
            steps.append(steps[-1] * 0.5)
        searches.append(len(steps) if trial is None else steps.index(trial[4]) + 1)
        assert calls[0] == searches[-1], searches
        return trial

    monkeypatch.setattr(oracle, "_row_terms", row_spy)
    monkeypatch.setattr(oracle, "_search_row", search_spy)
    with np.errstate(all="ignore"):
        oracle._descend_batch(make_problem("rosenbrock-1c"), np.array(p), np.array([x0]),
                              np.zeros((1, 1)), cfg)
    assert max(searches) > 2  # some search passed past its second trial


def test_line_search_bits_do_not_depend_on_halvings_per_eval(monkeypatch):
    # a row whose first trial fails tries its next halvings as extra rows of
    # one evaluation; at descent_lr=1e6 most trials fail, and at 45 one
    # evaluation holds every halving a step may try
    spec = make_problem("rosenbrock-1c")
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # a lone rosenbrock row evaluates on floats, through _row_terms alone, one
    # trial per call; the batch path calls loss_terms_batch
    monkeypatch.setattr(oracle, "loss_terms_batch", counted(oracle.loss_terms_batch))
    monkeypatch.setattr(oracle, "_row_terms", counted(oracle._row_terms))
    runs, evaluations, row_evaluations = {}, {}, {}
    for per_eval in (1, 2, 8, 45):
        monkeypatch.setattr(oracle, "_HALVINGS_PER_EVAL", per_eval)
        out = []
        with np.errstate(all="ignore"):
            for name in ("rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c"):
                inputs = _descent_inputs(name)
                for descent_lr in (1e-2, 1e6):
                    cfg = OracleConfig(descent_lr=descent_lr)
                    out += [a.tobytes() for a in oracle._descend_batch(*inputs, cfg)]
            # a constant gradient: BB falls back to twice the step of the trial
            # taken, a late halving in its evaluation
            X0 = np.random.default_rng(23).uniform(-6.0, 6.0, size=(6, 4))
            out += [a.tobytes() for a in oracle._descend_batch(
                _ledge(4), np.zeros(4), X0, np.zeros((6, 0)), OracleConfig(descent_lr=1e6))]
        # the grid start's lone descent on the row path, then on the batch path
        for solve_spec, counts in ((spec, row_evaluations), (_without_rows(spec), evaluations)):
            calls[0] = 0
            s = solve(solve_spec, np.array([1.0, 1.0]))
            counts[per_eval] = calls[0]
            out += [s.x.tobytes(), np.float64(s.objective).tobytes(),
                    np.float64(s.max_violation).tobytes(), s.method.encode()]
        runs[per_eval] = out
    for per_eval in (2, 8, 45):
        assert runs[per_eval] == runs[1], per_eval
    assert evaluations[8] < evaluations[1]
    assert len(set(row_evaluations.values())) == 1, row_evaluations


@pytest.mark.parametrize("per_eval", [1, 8, 45])
def test_line_search_tries_its_45th_trial_and_no_more(monkeypatch, per_eval):
    # from x = 0 the ledge's gradient is 1, so the first step is lr / 2 and
    # trial j (0-based) steps lr / 2^(j+1); only a step of at most 10 passes.
    # The lone row takes the batch path, and with a row form the row path
    monkeypatch.setattr(oracle, "_HALVINGS_PER_EVAL", per_eval)
    X0, shift = np.zeros((1, 1)), np.zeros((1, 0))
    for spec in (_ledge(1), _with_row(_ledge(1))):
        for lr, x in ((20.0 * 2.0**44, -10.0), (40.0 * 2.0**44, 0.0)):
            cfg = OracleConfig(descent_lr=lr, descent_steps=1)
            with np.errstate(all="ignore"):  # the BB quotient is 0 / 0
                X, ok, _ = oracle._descend_batch(spec, np.zeros(1), X0, shift, cfg)
            assert ok[0] and X[0, 0] == x, (spec.objective, lr)


def test_line_search_writes_into_no_array_the_objective_returned():
    # with no constraint the penalized gradient is the objective's own array;
    # here it is read-only.  At descent_lr=1e6 the first trial's cosh
    # overflows, so every row tries its halvings from the first step
    def cosh_objective(read_only):
        def objective(X, P, grad=True):
            d = X - P
            g = np.sinh(d) if grad else None
            if grad and read_only:
                g.flags.writeable = False
            return np.cosh(d).sum(axis=1), g
        return dataclasses.replace(_sphere_4d(), objective=objective)

    p = np.array([0.3, -0.2, 0.1, 0.5])
    X0 = np.random.default_rng(3).uniform(-6.0, 6.0, size=(5, 4))
    shift = np.zeros((5, 0))
    cfg = OracleConfig(descent_lr=1e6)
    with np.errstate(all="ignore"):
        want = oracle._descend_batch(cosh_objective(False), p, X0, shift, cfg)
        got = oracle._descend_batch(cosh_objective(True), p, X0, shift, cfg)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert got[1].all() and np.isfinite(got[0]).all()


def test_kkt_residual_vanishes_at_the_closed_form_on_an_equality():
    # min |x - c|^2 s.t. x1 + x2 = 1: x* = c - (lam / 2) (1, 1), lam = c1 + c2 - 1
    for c in sample_params(LINE, 20, 3):
        x = c - (c.sum() - 1.0) / 2.0
        assert kkt_residual(LINE, c, x, 1e-6) <= 1e-12, c
        # along the line, still feasible, the gradient has a part no multiple
        # of (1, 1) cancels: 2 t (1, -1)
        assert kkt_residual(LINE, c, x + [0.1, -0.1], 1e-6) > 1e-2, c


def test_kkt_residual_ignores_an_inactive_inequality():
    # min (x - 3)^2 s.t. x >= 1, at x = 4: the gradient 2 would be cancelled by
    # the constraint's -1 at lam = 2, but its residual -3 is below -tol
    spec, p, x = _toy_clamped(), np.array([3.0, 1.0]), np.array([4.0])
    assert kkt_residual(spec, p, x, 1e-6) == 2.0 / 3.0
    assert kkt_residual(spec, p, x, 3.0) == 0.0


def test_kkt_residual_clamps_a_negative_inequality_multiplier():
    # (0.6, 0.8) on the unit circle, with the unconstrained minimum (0.3, 0.09)
    # inside: the gradient points out of the disk, so the fitted multiplier
    # is negative, and clamped at 0 the constraint cancels nothing
    spec, p, x = make_problem("rosenbrock-1c"), np.array([1.0, 0.3]), np.array([0.6, 0.8])
    g = spec.objective(x[None], p[None])[1][0]
    assert g @ (2.0 * x) > 0.0
    norm = np.linalg.norm(g)
    assert kkt_residual(spec, p, x, 1e-6) == pytest.approx(norm / (1.0 + norm), rel=1e-12)
    assert kkt_residual(spec, p, x, 1e-6) > 0.4


def test_kkt_residual_with_no_active_constraint_is_the_scaled_gradient_norm():
    # inside the unit disk by more than tol, nothing is fitted: |g| / (1 + |g|), bit for bit
    spec = make_problem("rosenbrock-1c")
    rng = np.random.default_rng(5)
    for p in sample_params(spec, 20, 5):
        x = rng.uniform(-0.7, 0.7, 2)
        g = spec.objective(x[None], p[None])[1][0]
        norm = np.linalg.norm(g)
        assert kkt_residual(spec, p, x, 1e-6) == norm / (1.0 + norm), (p, x)


def _counting_evaluators(spec, calls):
    """``spec`` with its objective and constraint block counted into ``calls``."""
    objective, constraint_eval = spec.objective, spec.constraint_eval

    def counted_objective(*args, **kwargs):
        calls.append("objective")
        return objective(*args, **kwargs)

    def counted_constraints(*args, **kwargs):
        calls.append("constraints")
        return constraint_eval(*args, **kwargs)

    spec = dataclasses.replace(spec, objective=counted_objective)
    object.__setattr__(spec, "constraint_eval", counted_constraints)
    return spec


@pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], np.zeros((2, 2))],
                         ids=["short", "long", "four"])
def test_kkt_residual_rejects_an_x_of_the_wrong_size_before_evaluating(x):
    # a 1-value x raised a bare IndexError from the objective; a 3-value x
    # ran the objective on the wrong shape first
    calls = []
    spec = _counting_evaluators(make_problem("rosenbrock-1c"), calls)
    with pytest.raises(DimensionError, match="x has"):
        kkt_residual(spec, [1.0, 1.0], x, 1e-6)
    assert calls == []


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6, True, "1e-6", None])
def test_kkt_residual_rejects_a_tol_that_is_not_a_finite_real_at_least_0(tol):
    # NaN dropped every inequality: at rosenbrock-1c (1, 1)'s answer it read
    # 0.179 where 1e-6 reads 2.9e-12
    calls = []
    spec = _counting_evaluators(make_problem("rosenbrock-1c"), calls)
    with pytest.raises(ConfigError) as info:
        kkt_residual(spec, [1.0, 1.0], [0.8, 0.6], tol)
    assert info.value.field == "tol" and calls == []


def test_kkt_residual_takes_numpy_reals_with_the_bits_of_floats():
    spec, p = make_problem("rosenbrock-1c"), np.array([1.0, 1.0])
    x = solve(spec, p).x
    want = kkt_residual(spec, p, x, 1e-6)
    assert want <= oracle._KKT_BOUND
    assert kkt_residual(spec, p, x, np.float64(1e-6)) == want
    assert kkt_residual(spec, p, x, 0) == kkt_residual(spec, p, x, 0.0)


def test_kkt_residual_reads_zero_at_the_ackley_origin_without_a_warning():
    spec = make_problem("ackley-1c")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in sample_params(spec, 10, 2):
            assert kkt_residual(spec, p, np.zeros(2), 1e-6) == 0.0


def _solution_bits(sol):
    return (sol.x.tobytes(), np.float64(sol.objective).tobytes(),
            np.float64(sol.max_violation).tobytes(), sol.method)


def _solve_both_ways(monkeypatch, spec, p):
    """``solve``'s answer, then the answer with the fallback forced."""
    sol = solve(spec, p)
    with monkeypatch.context() as m:
        _force_fallback(m)
        return sol, solve(spec, p)


@pytest.mark.parametrize("name, params", [
    ("rosenbrock-1c", sample_params(make_problem("rosenbrock-1c"), 40, 0)),
    ("rosenbrock-1c", np.vstack([_defect_band(), [p for p, _ in DEFECT_CASES], [1.0, 1.0]])),
    ("ackley-1c", sample_params(make_problem("ackley-1c"), 20, 0)),
], ids=["rosenbrock-1c", "defect-band", "ackley-1c"])
def test_the_grid_start_certifies_every_1c_answer(monkeypatch, name, params):
    spec, tol = make_problem(name), OracleConfig().feasible_tol
    for p in params:
        sol, fallback = _solve_both_ways(monkeypatch, spec, p)
        assert sol.certified and not fallback.certified, p
        assert sol.max_violation <= tol, p
        assert kkt_residual(spec, p, sol.x, tol) <= oracle._KKT_BOUND, p
        assert sol.objective <= fallback.objective + 1e-10 * max(1.0, abs(fallback.objective)), p
        if name == "ackley-1c":  # the undescended origin wins both ways
            assert _solution_bits(sol) == _solution_bits(fallback), p


@pytest.mark.parametrize("name, params", [
    ("rosenbrock-1c", sample_params(make_problem("rosenbrock-1c"), 20, 0)),
    ("rosenbrock-1c", _defect_band()),
    ("ackley-1c", sample_params(make_problem("ackley-1c"), 3, 0)),
], ids=["rosenbrock-1c", "defect-band", "ackley-1c"])
def test_the_fallback_answers_as_one_batch_of_every_start(monkeypatch, name, params):
    # rows are independent, so the grid start descended first and the random
    # starts after it give the answer of all 17 starts descended as one batch
    spec, cfg, (lo, hi) = make_problem(name), OracleConfig(), oracle._BOX
    _force_fallback(monkeypatch)
    for p in params:
        grid = grid_scan(spec, p, cfg).x
        starts = lo + (hi - lo) * np.random.default_rng(cfg.seed).random((cfg.starts, 2))
        with np.errstate(all="ignore"):
            X, ok = oracle._stages(spec, p, np.vstack([starts, grid]), cfg)
            C = np.vstack([grid, X[ok]])
            _, i, objective, max_violation = oracle._best(spec, p, [C], cfg.feasible_tol)
        want = (C[i].tobytes(), np.float64(objective).tobytes(),
                np.float64(max_violation).tobytes(), "grid" if i == 0 else "descent")
        assert _solution_bits(solve(spec, p, cfg)) == want, p


@pytest.mark.parametrize("spec, params", [
    (make_problem("rosenbrock-3c"), sample_params(make_problem("rosenbrock-3c"), 8, 0)),
    (make_problem("ackley-3c"), sample_params(make_problem("ackley-3c"), 8, 0)),
    (LINE, sample_params(LINE, 5, 3)),
    (LINE_IN_DISK, sample_params(LINE_IN_DISK, 5, 3)),
], ids=["rosenbrock-3c", "ackley-3c", "line", "line-in-disk"])
def test_no_feasible_grid_point_takes_the_one_batch_of_the_fallback(monkeypatch, spec, params):
    for p in params:
        sol, fallback = _solve_both_ways(monkeypatch, spec, p)
        assert not sol.certified, p
        assert _solution_bits(sol) == _solution_bits(fallback), p


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


def _table(X, f0, viol):
    """A spec whose objective and one inequality residual are ``f0`` and
    ``viol`` at the rows of ``X``, looked up by x."""
    table = {tuple(x): (f, v) for x, f, v in zip(X.tolist(), f0, viol)}

    def column(j):
        return lambda x, p, grad=True: (np.array([table[tuple(r)][j] for r in x.tolist()]), None)

    return ProblemSpec(name="table", decision_dim=X.shape[1], param_dim=1, objective=column(0),
                       inequalities=(Constraint(column(1), 0.0),), param_ranges=((0.0, 1.0),))


def _best_row(X, f0, viol, tol=1e-6):
    """``oracle._best``'s winner over the rows of ``X``, checked to be the same
    when ``X`` is split into two chunks."""
    spec = _table(X, f0, viol)
    with np.errstate(all="ignore"):
        _, row, *values = oracle._best(spec, np.zeros(1), [X], tol)
        for cut in (1, X.shape[0] - 1):
            c, i, *split = oracle._best(spec, np.zeros(1), [X[:cut], X[cut:]], tol)
            assert (cut * c + i, split) == (row, values)
    return row


def test_best_ranks_feasible_first_then_breaks_ties_by_x():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0], [-1.0, 5.0]])
    viol = [0.0, 0.0, 0.0, 1.0]
    # feasible rows first, however low an infeasible row's objective
    assert _best_row(X, [3.0, 2.0, 1.0, 0.0], viol) == 2
    # a non-finite objective is never feasible
    assert _best_row(X, [3.0, 2.0, np.inf, 0.0], viol) == 1
    # with no feasible row, the lowest objective + penalty wins
    assert _best_row(X, [3.0, 2.0, 2.0, 0.5], [1.0] * 4) == 3
    # an objective tie goes to the lexicographically smallest x: (0, 1) < (0, 2) < (1, 0)
    assert _best_row(X, [1.0, 1.0, 1.0, 0.0], viol) == 2
    assert _best_row(X, [np.inf] * 4, [1.0] * 4) == 3
    # equal x and equal score: the first row
    twins = np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert _best_row(twins, [2.0, 1.0, 1.0], [0.0] * 3) == 1


# residuals a grid chunk can hold: NaN, both zeros, both infinities, tol's edges
_RESIDUALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-6, -1e-6, 2e-6, 5e-7, -1.0, 1.0])


@pytest.mark.parametrize("n_ineq, n_eq", [(1, 0), (3, 0), (0, 1), (0, 2), (1, 1), (2, 2), (0, 0)])
@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_best_keeps_the_rows_whose_violations_maximum_is_within_tol(n_ineq, n_eq, tol):
    # _best's feasibility mask against the rule it replaced: violations()'s
    # clamped inequality maximum and |equality| maximum, np.maximum'd, <= tol
    rng = np.random.default_rng(n_ineq * 10 + n_eq)
    values = rng.choice(_RESIDUALS, (300, n_ineq + n_eq))
    if values.shape[1] > 1:
        values[:, -1] = 0.0  # a column of zeros
    evaluated = []

    def objective(x, p, grad=True):
        evaluated.append(x[:, 0].astype(int))
        return np.zeros(x.shape[0]), None

    def constraint_eval(x, p, grad=True):
        return ConstraintEval(values[x[:, 0].astype(int)], None, n_ineq)

    spec = types.SimpleNamespace(objective=objective, constraint_eval=constraint_eval)
    X = np.arange(values.shape[0], dtype=float)[:, None]
    max_ineq, max_eq, _ = ConstraintEval(values, None, n_ineq).violations()
    want = np.flatnonzero(np.maximum(max_ineq, max_eq) <= tol)
    assert 0 < want.size and (want.size < values.shape[0] or not values.shape[1])
    with np.errstate(all="ignore"):
        oracle._best(spec, np.zeros(1), [X], tol)
    # the objective is evaluated at the feasible rows only, and one of them wins
    assert len(evaluated) == 1 and evaluated[0].tobytes() == want.tobytes()


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
    # with no grid point (k = 4), every start's loss overflowing is an error too
    with pytest.raises(OracleError, match="all 2 starts diverged on sphere-4d"):
        solve(_sphere_4d(), np.full(4, 1e308), OracleConfig(starts=2))


@pytest.mark.parametrize("name, p", [
    ("rosenbrock-1c", (5e307, 1.0)),
    ("rosenbrock-1c", (1e308, 1.0)),
    ("rosenbrock-1c", (1.7e308, 1.0)),
    ("rosenbrock-3c", (1e308, 1.0)),
    ("ackley-1c", (20.0, 0.2, 0.5, 1e308, 20.0)),
    ("ackley-3c", (20.0, 0.2, 0.5, 1e308, 20.0)),
])
def test_solve_answers_with_the_grid_point_when_every_start_diverges(name, p):
    # the objective's gradient overflows to nan at every start, the grid's included
    spec = make_problem(name)
    sol = solve(spec, p)
    grid = grid_scan(spec, p)
    assert sol.method == "grid"
    assert np.array_equal(sol.x, grid.x)
    assert (sol.objective, sol.max_violation) == (grid.objective, grid.max_violation)


def test_solve_with_grid_seed_only():
    # starts=0 still works in low dimension: the grid point seeds the descent
    spec = make_problem("rosenbrock-1c")
    sol = solve(spec, np.array([25.0, 0.3]), OracleConfig(starts=0))
    np.testing.assert_allclose(sol.x, [0.3, 0.09], rtol=0, atol=1e-6)


def test_a_fallback_with_no_starts_evaluates_no_empty_batch(monkeypatch):
    # past the certificate with starts=0 the fallback has no row to descend: it
    # evaluates nothing, and the answer is the grid start's descent, as certified
    spec, p, cfg = make_problem("rosenbrock-1c"), np.array([25.0, 0.3]), OracleConfig(starts=0)
    want = solve(spec, p, cfg)
    rows, evaluator, row_terms = [], oracle.loss_terms_batch, oracle._row_terms

    def spy(X, *args, **kwargs):
        rows.append(X.shape[0])
        return evaluator(X, *args, **kwargs)

    def row_spy(*args):  # one point
        rows.append(1)
        return row_terms(*args)

    monkeypatch.setattr(oracle, "loss_terms_batch", spy)
    monkeypatch.setattr(oracle, "_row_terms", row_spy)
    _force_fallback(monkeypatch)
    sol = solve(spec, p, cfg)
    assert want.certified and not sol.certified
    assert rows and min(rows) > 0
    assert _solution_bits(sol) == _solution_bits(want)
