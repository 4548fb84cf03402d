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
    TrainingDivergedError,
    eval_reports_csv,
    evaluate,
    grid_scan,
    init_mlp,
    Mlp,
    loss_terms_batch,
    make_problem,
    mlp_forward,
    problem_names,
    sample_params,
    solve,
    train,
    violation_report_batch,
)
from penalearn import oracle
from test_equality import LINE


class _Counts:
    """Counts the objective calls of the specs it makes and every
    ProblemSpec.constraint_eval call."""

    def __init__(self, monkeypatch, name="rosenbrock-1c"):
        self.objective = self.constraints = 0
        original = ProblemSpec.constraint_eval

        def constraint_eval(spec, x, p, grad=True):
            self.constraints += 1
            return original(spec, x, p, grad=grad)

        monkeypatch.setattr(ProblemSpec, "constraint_eval", constraint_eval)
        self.spec = self.counted(name)

    def counted(self, name):
        """``make_problem(name)``, or the spec ``name``, with its objective calls
        counted here."""
        base = make_problem(name) if isinstance(name, str) else name

        def objective(x, p, grad=True):
            self.objective += 1
            return base.objective(x, p, grad=grad)

        return dataclasses.replace(base, objective=objective)

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


@pytest.fixture
def cold_grid_cache():
    """No spec's feasible grid points are cached when the test starts, whichever
    tests ran before it."""
    oracle._feasible_points.cache_clear()


def test_grid_scan_evaluates_once_per_chunk(monkeypatch, cold_grid_cache):
    # the constraints once per chunk and the objective only in chunks that hold a
    # feasible point; the winner's values come from its chunk, not the evaluator
    counts = _Counts(monkeypatch)
    calls = _count_oracle_evaluations(monkeypatch, counts)
    monkeypatch.setattr(oracle, "GRID_CHUNK", 10_000)
    chunks = -(-201**2 // 10_000)
    assert chunks == 5
    grid_scan(counts.spec, np.array([1.0, 1.0]))
    # the disk does not read p, so a cold scan finds its 877 feasible points in a
    # pass of its own over the grid's chunks, then ranks those points, one chunk
    assert calls == [0, 0]
    assert counts.both() == (1, chunks + 1)
    # a scan at other parameters finds them cached and evaluates only those
    grid_scan(counts.spec, np.array([2.0, 0.5]))
    assert calls == [0, 0]
    assert counts.both() == (1 + 1, chunks + 1 + 1)


@pytest.mark.parametrize("spec, cold", [("rosenbrock-3c", (5, 10)), (LINE, (5, 5))],
                         ids=["rosenbrock-3c", "line"])
def test_grid_scan_without_a_feasible_point_evaluates_constraints_once_per_chunk(
        monkeypatch, cold_grid_cache, spec, cold):
    # rosenbrock-3c has no feasible point, and no grid point lies on LINE's
    # x1 + x2 = 1: the constraint pass finds none, so every chunk's objective is
    # evaluated and penalized by the kept constraint block; rosenbrock-3c's
    # constraints do not read p, so its cold scan first finds its empty feasible
    # set in a pass of its own, and a later scan, which finds it cached, scans the
    # whole grid as the first did
    counts = _Counts(monkeypatch, spec)
    calls = _count_oracle_evaluations(monkeypatch, counts)
    monkeypatch.setattr(oracle, "GRID_CHUNK", 10_000)
    grid_scan(counts.spec, np.array([1.0, 1.0]))
    assert calls == [0, 0]
    assert counts.both() == cold
    grid_scan(counts.spec, np.array([2.0, 0.5]))
    assert calls == [0, 0]
    assert counts.both() == (cold[0] + 5, cold[1] + 5)


def test_solve_evaluates_once_per_batch_of_line_search_trials_and_ranking(
        monkeypatch, cold_grid_cache):
    # one 441-point grid chunk; the descent evaluates once per step's first
    # line-search trial and once per batch of up to 8 halvings; each ranking
    # the constraints once and the objective once.  Each solve runs twice: the
    # first, cold, scan finds the feasible points in a constraint pass of its
    # own, one more constraint evaluation, and the second finds them cached
    counts = _Counts(monkeypatch)
    calls = _count_oracle_evaluations(monkeypatch, counts)
    cfg = OracleConfig(grid_points_per_dim=21)

    def twice(spec):
        """The evaluation counts of two solves of ``spec`` at (1, 1), each from zero."""
        seen = []
        for _ in range(2):
            counts.objective = counts.constraints = 0
            calls[:] = [0, 0]
            seen.append((solve(spec, np.array([1.0, 1.0]), cfg).certified, list(calls),
                         counts.both()))
        return seen

    # grid, the grid start's descent alone, the ranking, and the KKT residual's
    # one objective and one constraint evaluation with gradients
    assert twice(counts.spec) == [(True, [0, 49], (3 + 49, 1 + 3 + 49)),
                                  (True, [0, 49], (3 + 49, 3 + 49))]

    # grid and ranking: the constraints find no feasible point, so the objective
    # at every row; the grid point descends beside the random starts
    assert twice(counts.counted("rosenbrock-3c")) == [(False, [0, 132], (2 + 132, 1 + 2 + 132)),
                                                    (False, [0, 132], (2 + 132, 2 + 132))]

    # forced past the certificate, the random starts descend after the grid
    # start (127 evaluations), and every candidate is ranked once more
    monkeypatch.setattr(oracle, "_KKT_BOUND", -1.0)
    oracle._feasible_points.cache_clear()
    assert twice(counts.spec) == [(False, [0, 49 + 127], (4 + 49 + 127, 1 + 4 + 49 + 127)),
                                  (False, [0, 49 + 127], (4 + 49 + 127, 4 + 49 + 127))]


def test_training_log_and_evaluate_evaluate_once(monkeypatch):
    counts = _Counts(monkeypatch)
    cfg = TrainConfig(epochs=3, sample_count=20, batch_size=10, log_every=1)
    net, log = train(counts.spec, cfg)
    steps = cfg.epochs * (cfg.sample_count // cfg.batch_size)
    assert len(log.entries) == 4
    assert counts.both() == (steps + 4, steps + 4)

    before = counts.both()
    evaluate(net, counts.spec, sample_params(counts.spec, 5, seed=1))
    assert counts.both() == (before[0] + 1, before[1] + 1)


def _nan_on_row_3():
    def obj(X, P, grad=True):
        return (X**2).sum(axis=1), 2 * X

    def con(X, P, grad=True):
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


def test_strict_mode_rejects_one_dimensional_x_and_p():
    spec = make_problem("rosenbrock-1c")
    with pytest.raises(DimensionError, match=r"x has shape \(2,\), problem decision dim is 2"):
        loss_terms_batch(np.zeros(2), np.ones((1, 2)), spec, PenaltyConfig())
    with pytest.raises(DimensionError, match=r"p has shape \(2,\), problem param dim is 2"):
        loss_terms_batch(np.zeros((1, 2)), np.ones(2), spec, PenaltyConfig())
    with pytest.raises(DimensionError, match="batch mismatch: x rows 2, p rows 3"):
        loss_terms_batch(np.zeros((2, 2)), np.ones((3, 2)), spec, PenaltyConfig())


def _toy(objective_grad_nan_row=None, residual=None, constraint_grad=None):
    """A feasible toy (x in [-1, 1]^2, residuals x1 - 10 and x2 - 10) with
    one value spoiled: the objective gradient at a row, the second
    constraint's residual column, or the first constraint's gradient."""
    def obj(X, P, grad=True):
        g = 2 * X
        if objective_grad_nan_row is not None:
            g[objective_grad_nan_row, 0] = np.nan
        return (X**2).sum(axis=1), g

    def coordinate(j, values=None, grads=None):
        def fn(X, P, grad=True):
            g = np.zeros_like(X)
            g[:, j] = 1.0
            return (X[:, j] if values is None else values), (g if grads is None else grads)
        return fn

    return ProblemSpec(
        name="toy-spoiled",
        decision_dim=2,
        param_dim=1,
        objective=obj,
        inequalities=(Constraint(coordinate(0, grads=constraint_grad), 10.0),
                      Constraint(coordinate(1, values=residual), 10.0)),
        param_ranges=((0.0, 1.0),),
    )


def _spoil(a, index, value):
    a[index] = value
    return a


def _nan_equality():
    """One feasible inequality (x1 <= 10), then one equality (x2 = 0) that is NaN at row 2."""
    def coordinate(j, row=None):
        def fn(X, P, grad=True):
            g = np.zeros_like(X)
            g[:, j] = 1.0
            return (X[:, j] if row is None else _spoil(X[:, j].copy(), row, np.nan)), g
        return fn

    return ProblemSpec(name="toy-mixed", decision_dim=2, param_dim=1,
                       objective=lambda X, P, grad=True: ((X**2).sum(axis=1), 2 * X),
                       inequalities=(Constraint(coordinate(0), 10.0),),
                       equalities=(Constraint(coordinate(1, row=2), 0.0),),
                       param_ranges=((0.0, 1.0),))


@pytest.mark.parametrize("mode", ["piecewise", "indicator"])
@pytest.mark.parametrize("spec, where, message", [
    # a -inf residual carries no penalty, so the loss alone would stay finite
    (_toy(residual=_spoil(np.full(6, -1.0), 4, -np.inf)), (1, 4), "constraint 1 evaluated"),
    # feasible rows: the penalty derivative is 0 and the gradient goes unused
    (_toy(constraint_grad=_spoil(np.ones((6, 2)), (2, 0), np.nan)), (0, 2), "constraint 0 gradient"),
    (_toy(constraint_grad=_spoil(np.ones((6, 2)), (5, 1), np.inf)), (0, 5), "constraint 0 gradient"),
    (_toy(objective_grad_nan_row=3), (None, 3), "objective gradient"),
    # numbered in residual column order, as the oracle's shift: inequalities first
    (_nan_equality(), (1, 2), "constraint 1 evaluated"),
], ids=["-inf residual", "nan constraint gradient", "inf constraint gradient",
        "nan objective gradient", "nan equality"])
def test_strict_mode_names_values_the_loss_does_not_show(spec, where, message, mode):
    X = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    with pytest.raises(NonFiniteError, match=message) as info:
        loss_terms_batch(X, np.zeros((6, 1)), spec, PenaltyConfig(mode=mode))
    assert (info.value.constraint_index, info.value.sample_index) == where


def test_a_finite_residual_whose_penalty_overflows_ends_as_divergence():
    def huge(X, P, grad=True):
        return np.full(len(X), 1e200), np.ones_like(X)

    spec = ProblemSpec(name="toy-overflow", decision_dim=2, param_dim=1,
                       objective=lambda X, P, grad=True: ((X**2).sum(axis=1), 2 * X),
                       inequalities=(Constraint(huge, 0.0),), param_ranges=((0.0, 1.0),),
                       default_net_shape=(1, 4, 2))
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as info:
        train(spec, TrainConfig(epochs=1, sample_count=20, batch_size=10))
    assert info.value.epoch == 1
    assert "non-finite loss" in str(info.value)


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


def _toy_with_equality():
    """One inequality and one equality; |h| is within 1e-3 on about half the rows."""
    def obj(X, P, grad=True):
        e, w = np.exp(X[:, 0]), P[:, 0] * X[:, 1]
        return e * np.cos(w), np.stack([e * np.cos(w), -P[:, 0] * e * np.sin(w)], axis=1)

    def ineq(X, P, grad=True):
        return X[:, 0] + X[:, 1], np.ones_like(X)

    def eq(X, P, grad=True):
        g = np.zeros_like(X)
        g[:, 0] = 2.0 * P[:, 1] * X[:, 0]
        return P[:, 1] * (1.0 + X[:, 0] ** 2), g

    return ProblemSpec(
        name="toy-eq",
        decision_dim=2,
        param_dim=2,
        objective=obj,
        inequalities=(Constraint(ineq, 0.5),),
        equalities=(Constraint(eq, 0.0),),
        param_ranges=((0.0, 3.0), (-2e-3, 2e-3)),
        default_net_shape=(2, 8, 2),
    )


@pytest.mark.parametrize("name", problem_names() + ("toy-eq",))
def test_batched_evaluate_matches_row_by_row_scoring(name):
    if name == "toy-eq":
        spec, cfg = _toy_with_equality(), PenaltyConfig(eq_tolerance=1e-3)
    else:
        spec, cfg = make_problem(name), PenaltyConfig()
    net = init_mlp(spec.default_net_shape, seed=4)
    params = sample_params(spec, 64, seed=9)
    r = evaluate(net, spec, params, cfg)
    assert len(r.params) == 64
    for i, row in enumerate(params):
        x = mlp_forward(net, row[None])[0][0]
        f0, _ = spec.objective(x[None], row[None])
        ce = spec.constraint_eval(x[None], row[None])
        max_ineq, max_eq, feasible = ce.violations(cfg.eq_tolerance)
        assert np.array_equal(r.params[i], row)
        assert np.array_equal(r.x[i], x)
        assert r.objective[i] == f0[0]
        assert r.max_ineq_violation[i] == max_ineq[0]
        assert r.max_eq_violation[i] == max_eq[0]
        assert r.feasible[i] == feasible[0]
    if name == "toy-eq":  # both outcomes of the equality tolerance are exercised
        assert 0 < (r.max_eq_violation <= 1e-3).sum() < 64
        assert 0 < r.feasible.sum() < 64


def test_evaluate_on_zero_rows_scores_nothing(monkeypatch):
    counts = _Counts(monkeypatch)
    net = init_mlp(counts.spec.default_net_shape, seed=0)
    report = evaluate(net, counts.spec, np.zeros((0, 2)))
    assert report.params.shape == report.x.shape == (0, 2)
    assert report.objective.shape == report.feasible.shape == (0,)
    assert counts.both() == (0, 0)
    assert eval_reports_csv(report, counts.spec) == (
        "c1,c2,x1,x2,f0,max_ineq_violation,max_eq_violation,feasible,t_fwd_ns\n")


def _spoiled_rows(spec, n=40, seed=3):
    """Points and params with a few rows holding inf, nan or overflowing values."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-6.0, 6.0, size=(n, spec.decision_dim))
    X[1], X[2, 0], X[3, 1], X[4] = np.inf, np.nan, -np.inf, 1e200
    lo, hi = (np.array(b) for b in zip(*spec.param_ranges))
    return X, lo + (hi - lo) * rng.random((n, spec.param_dim))


@pytest.mark.parametrize("mode", ["piecewise", "indicator"])
@pytest.mark.parametrize("shifted", [False, True], ids=["no-shift", "shift"])
@pytest.mark.parametrize("name", problem_names() + ("toy-eq",))
def test_value_only_evaluation_has_the_bits_of_the_full_one(name, shifted, mode):
    spec = _toy_with_equality() if name == "toy-eq" else make_problem(name)
    X, P = _spoiled_rows(spec)
    n_cons = len(spec.inequalities) + len(spec.equalities)
    shift = np.random.default_rng(5).uniform(0.0, 2.0, (len(X), n_cons)) if shifted else None
    cfg = PenaltyConfig(mode=mode)
    with np.errstate(all="ignore"):
        full = loss_terms_batch(X, P, spec, cfg, strict=False, shift=shift)
        lean = loss_terms_batch(X, P, spec, cfg, strict=False, shift=shift, grad=False)
    assert not np.isfinite(full.loss[:5]).all()  # the spoiled rows reach the loss
    # strict mode checks what it computed; the unspoiled rows pass it either way
    tail = None if shift is None else shift[5:]
    pairs = [(lean, full), (loss_terms_batch(X[5:], P[5:], spec, cfg, shift=tail, grad=False),
                            loss_terms_batch(X[5:], P[5:], spec, cfg, shift=tail))]
    for got, want in pairs:
        for field in ("loss", "objective", "penalty"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert got.constraints.values.tobytes() == want.constraints.values.tobytes()
        assert got.grad is None and want.grad is not None

    with np.errstate(all="ignore"):
        f, g = spec.objective(X, P, grad=False)
        ce = spec.constraint_eval(X, P, grad=False)
        want_f = spec.objective(X, P)[0]
        want_ce = spec.constraint_eval(X, P)
    assert f.tobytes() == want_f.tobytes()
    assert ce.values.tobytes() == want_ce.values.tobytes()
    assert ce.grads is None
    if name != "toy-eq":  # the registry's evaluators return no gradient when asked not to
        assert g is None


def test_evaluate_reads_no_gradient_so_huge_params_raise_no_overflow():
    spec = make_problem("rosenbrock-1c")
    sizes = spec.default_net_shape
    weights = tuple(np.zeros((b, a)) for a, b in zip(sizes[:-1], sizes[1:]))
    biases = tuple(np.zeros(b) for b in sizes[1:-1]) + (np.array([0.5, 0.25]),)
    net = Mlp(layer_sizes=sizes, weights=weights, biases=biases)
    params = np.array([[1e308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(net, spec, params)
    # f0 = c1 * 0 * 0 + (1 - 0.5)^2 is finite; only its gradient overflows
    assert np.array_equal(report.x, [[0.5, 0.25]])
    assert report.objective.tolist() == [0.25]
    assert report.feasible.tolist() == [True]
    with np.errstate(all="ignore"):
        f0, g = spec.objective(report.x, params)
    assert np.array_equal(report.objective, f0) and not np.isfinite(g).all()
