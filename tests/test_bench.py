"""Benchmark harness: report columns, aggregates, CSV text, reference tables."""

from dataclasses import fields, replace

import numpy as np
import pytest

from penalearn import (
    BenchReport,
    DimensionError,
    OracleConfig,
    ProblemSpec,
    UnsupportedError,
    emit_csv,
    eval_reports_csv,
    evaluate,
    init_mlp,
    make_problem,
    problem_names,
    run_benchmark,
    sample_params,
    solve,
    table_repro,
)
from penalearn.bench import FEAS_TOL_LOOSE, FEAS_TOL_STRICT, TABLE_CASES


@pytest.fixture(scope="module")
def small_report(rosenbrock_model):
    spec, net, _ = rosenbrock_model
    params = sample_params(spec, 6, seed=321)
    return spec, net, run_benchmark(spec, net, OracleConfig(), params)


def test_report_shape_and_times(small_report):
    _, _, report = small_report
    assert report.problem == "rosenbrock-1c"
    assert report.mac_count == 480
    assert len(report.params) == 6
    assert (report.t_fwd_ns > 0.0).all()
    assert (report.t_oracle_ns > 0.0).all()
    assert np.isfinite(report.t_oracle_ns).all()  # no solve failed


def test_gap_nonnegative_when_both_feasible(small_report):
    spec, _, report = small_report
    both = (report.viol_dnn <= FEAS_TOL_STRICT) & np.isfinite(report.t_oracle_ns)
    assert (report.gap[both] >= -1e-6).all()


def test_aggregates_recomputable_from_rows(small_report):
    _, _, report = small_report
    a = report.aggregates
    assert BenchReport(**{f.name: getattr(report, f.name) for f in fields(report)}
                       ).aggregates == a
    assert a.defined and a.row_count == 6 and a.failure_count == 0
    assert 0.0 <= a.feasible_frac_strict <= a.feasible_frac_loose <= 1.0
    gaps = sorted(report.gap)
    assert a.median_gap == float(np.median(gaps))
    assert a.speedup > 1.0


def _cells(report, i):
    r = report
    return [*r.params[i], *r.x_dnn[i], *r.x_oracle[i], r.f0_dnn[i], r.f0_oracle[i], r.gap[i],
            r.viol_dnn[i], r.t_fwd_ns[i], r.t_oracle_ns[i]]


def _comment_values(lines):
    """The ``key=value`` tokens of the ``#`` lines, values as text."""
    return dict(t.split("=", 1) for ln in lines if ln.startswith("# ") for t in ln[2:].split())


def test_csv_round_trip_exact(small_report):
    # every cell, timings included, reads back as the float it was written from
    _, _, report = small_report
    lines = emit_csv(report).splitlines()
    assert lines[0] == ("c1,c2,x_dnn1,x_dnn2,x_oracle1,x_oracle2,"
                        "f0_dnn,f0_oracle,gap,viol_dnn,t_fwd_ns,t_oracle_ns")
    n = len(report.params)
    body = lines[1:1 + n]
    assert len(body) == n
    for i, line in enumerate(body):
        cells = [float(c) for c in line.split(",")]
        assert np.array_equal(cells, _cells(report, i))
    comments = lines[1 + n:]
    assert comments[:3] == ["# problem=rosenbrock-1c", "# mac_count=480",
                            "# rows=6 failures=0 defined=1"]
    assert len(comments) == 6
    a = report.aggregates
    values = {k: float(v) for k, v in _comment_values(comments[3:]).items()}
    assert values == {
        "median_gap": a.median_gap, "p95_gap": a.p95_gap,
        "feasible_frac_at_0.1": a.feasible_frac_loose,
        "feasible_frac_at_1e-3": a.feasible_frac_strict,
        "median_t_fwd_ns": a.median_t_fwd_ns, "median_t_oracle_ns": a.median_t_oracle_ns,
        "speedup": a.speedup,
    }


def test_empty_report_flags_undefined():
    spec = make_problem("rosenbrock-1c")
    empty = run_benchmark(spec, init_mlp((2, 20, 20, 2), seed=0), OracleConfig(),
                          np.zeros((0, 2)))
    a = empty.aggregates
    assert not a.defined
    assert a.row_count == 0
    assert np.isnan(a.median_gap)
    assert emit_csv(empty).splitlines() == [
        "c1,c2,x_dnn1,x_dnn2,x_oracle1,x_oracle2,"
        "f0_dnn,f0_oracle,gap,viol_dnn,t_fwd_ns,t_oracle_ns",
        "# problem=rosenbrock-1c",
        "# mac_count=480",
        "# rows=0 failures=0 defined=0",
        "# median_gap=nan p95_gap=nan",
        "# feasible_frac_at_0.1=nan feasible_frac_at_1e-3=nan",
        "# median_t_fwd_ns=nan median_t_oracle_ns=nan speedup=nan",
    ]


def _failing_oracle_spec():
    """4-d problem: no grid seed possible, and starts=0 leaves no descent starts."""

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


def test_oracle_failures_are_flagged_not_fatal():
    spec = _failing_oracle_spec()
    net = init_mlp((4, 8, 4), seed=0)
    params = np.zeros((3, 4))
    report = run_benchmark(spec, net, OracleConfig(starts=0), params)
    a = report.aggregates
    assert a.failure_count == 3
    assert np.isnan(a.median_gap)
    assert np.isnan(a.speedup)
    assert 0.0 <= a.feasible_frac_loose <= 1.0  # still defined from the DNN side
    assert not np.isfinite(report.t_oracle_ns).any()  # every solve failed
    assert np.all(np.isnan(report.x_oracle))
    # the failed solves' cells are written as nan
    lines = emit_csv(report).splitlines()
    for line in lines[1:4]:
        cells = line.split(",")
        assert cells[8:12] == ["nan"] * 4  # x_oracle1-4
        assert cells[13] == cells[14] == cells[-1] == "nan"  # f0_oracle, gap, t_oracle_ns
    assert lines[6] == "# rows=3 failures=3 defined=1"
    assert lines[7] == "# median_gap=nan p95_gap=nan"


def test_emit_csv_on_an_empty_report_outside_the_registry():
    # the header's widths come from the net's layer sizes, not a registry lookup
    spec = _failing_oracle_spec()
    report = run_benchmark(spec, init_mlp((4, 8, 4), seed=0), OracleConfig(), np.zeros((0, 4)))
    lines = emit_csv(report).splitlines()
    assert lines[0] == ("c1,c2,c3,c4,x_dnn1,x_dnn2,x_dnn3,x_dnn4,"
                        "x_oracle1,x_oracle2,x_oracle3,x_oracle4,"
                        "f0_dnn,f0_oracle,gap,viol_dnn,t_fwd_ns,t_oracle_ns")
    assert lines[1:4] == ["# problem=sphere-4d", "# mac_count=64",
                          "# rows=0 failures=0 defined=0"]


def test_bench_csv_net_cells_are_the_eval_csv_cells(small_report):
    spec, net, report = small_report
    params = report.params
    bench = [ln.split(",") for ln in emit_csv(report).splitlines()]
    evals = [ln.split(",")
             for ln in eval_reports_csv(evaluate(net, spec, params), spec).splitlines()]
    assert bench[0][:4] == ["c1", "c2", "x_dnn1", "x_dnn2"] and bench[0][6] == "f0_dnn"
    assert evals[0][:5] == ["c1", "c2", "x1", "x2", "f0"]
    for b, e in zip(bench[1:1 + len(params)], evals[1:], strict=True):
        assert b[:4] == e[:4]  # c1, c2, x_dnn1, x_dnn2 against c1, c2, x1, x2
        assert b[6] == e[4]  # f0_dnn against f0


def test_table_cases_cover_registry():
    assert set(TABLE_CASES) == {
        "rosenbrock-1c",
        "rosenbrock-3c",
        "ackley-1c",
        "ackley-3c",
    }
    for name, cases in TABLE_CASES.items():
        spec = make_problem(name)
        assert len(cases) == 3
        for case in cases:
            assert len(case.params) == spec.param_dim
            if spec.known_infeasible:
                assert case.baseline_x is None
            else:
                assert case.baseline_x is not None


def test_table_repro_rosenbrock(rosenbrock_model):
    spec, net, _ = rosenbrock_model
    repro = table_repro(spec, net)
    r = repro.report
    assert repro.banner is None
    assert r.params.tolist() == [[1.0, 1.0], [5.0, 0.1], [25.0, 0.3]]
    text = repro.text()
    assert "x_baseline" in text and "viol_dnn" in text
    csv = repro.csv()
    assert csv.splitlines()[0].startswith("c1,c2,x_baseline1")
    # each row's oracle columns are its own solve
    for i, p in enumerate(r.params):
        sol = solve(spec, p)
        assert np.array_equal(r.x_oracle[i], sol.x)
        assert r.f0_oracle[i] == sol.objective and r.viol_oracle[i] == sol.max_violation
    # the text's and the CSV's cells are the report's columns, in the headers' order
    assert len(text.splitlines()) == len(csv.splitlines()) + 1 == 5
    for i, line in enumerate(text.splitlines()[2:]):
        assert line.split()[-2:] == [f"{r.viol_oracle[i]:.3e}", f"{r.viol_dnn[i]:.3e}"]
    for i, line in enumerate(csv.splitlines()[1:]):
        assert [float(c) for c in line.split(",")] == [
            *r.params[i], *TABLE_CASES["rosenbrock-1c"][i].baseline_x, *r.x_oracle[i],
            *r.x_dnn[i], r.viol_oracle[i], r.viol_dnn[i]]


def test_table_repro_infeasible_banner(rosenbrock_model):
    # model trained on -1c has the right shape for -3c; only the banner and
    # violation columns are under test here
    _, net, _ = rosenbrock_model
    repro = table_repro(make_problem("rosenbrock-3c"), net)
    assert repro.banner is not None
    assert (repro.report.viol_oracle > 0.0).all() and (repro.report.viol_dnn > 0.0).all()
    assert repro.banner in repro.text()
    assert repro.banner in repro.csv()


def test_table_repro_unknown_problem(rosenbrock_model):
    spec, net, _ = rosenbrock_model
    with pytest.raises(UnsupportedError, match="'sphere'"):
        table_repro(replace(spec, name="sphere"), net)


@pytest.mark.parametrize("name", problem_names())
def test_bench_and_table_take_the_net_side_from_evaluate(name):
    spec = make_problem(name)
    net = init_mlp(spec.default_net_shape, seed=0)
    params = sample_params(spec, 3, seed=5)
    report, r = run_benchmark(spec, net, OracleConfig(), params), evaluate(net, spec, params)
    assert np.array_equal(report.params, r.params)
    assert np.array_equal(report.x_dnn, r.x)
    assert np.array_equal(report.f0_dnn, r.objective)
    assert np.array_equal(report.viol_dnn, np.maximum(r.max_ineq_violation, r.max_eq_violation))

    cases = np.array([c.params for c in TABLE_CASES[name]])
    repro, r = table_repro(spec, net), evaluate(net, spec, cases)
    assert np.array_equal(repro.report.x_dnn, r.x)
    assert np.array_equal(repro.report.viol_dnn,
                          np.maximum(r.max_ineq_violation, r.max_eq_violation))
    # the table is the bench on the reference cases, column for column, timings aside
    bench = run_benchmark(spec, net, OracleConfig(), cases)
    assert repro.baselines == tuple(c.baseline_x for c in TABLE_CASES[name])
    for f in fields(bench):
        got, want = getattr(repro.report, f.name), getattr(bench, f.name)
        if f.name.startswith("t_"):
            assert got.shape == want.shape
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


def test_bench_and_table_reject_a_mismatched_net():
    spec = make_problem("rosenbrock-1c")
    net = init_mlp((2, 4, 1), seed=0)
    with pytest.raises(DimensionError):
        run_benchmark(spec, net, OracleConfig(), sample_params(spec, 2, seed=0))
    with pytest.raises(DimensionError):
        table_repro(spec, net)
