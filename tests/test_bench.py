"""Benchmark harness: rows, aggregates, CSV round trip, reference tables."""

import numpy as np
import pytest

from penalearn import (
    BenchFormatError,
    BenchReport,
    DimensionError,
    OracleConfig,
    ProblemSpec,
    UnsupportedError,
    aggregate_rows,
    emit_csv,
    evaluate,
    init_mlp,
    make_problem,
    parse_csv,
    problem_names,
    run_benchmark,
    sample_params,
    table_repro,
)
from penalearn.bench import FEAS_TOL_LOOSE, FEAS_TOL_STRICT, TABLE_CASES
from penalearn.problems import ParamSet


@pytest.fixture(scope="module")
def small_report(rosenbrock_model):
    spec, net, _ = rosenbrock_model
    params = sample_params(spec, 6, seed=321)
    return spec, net, run_benchmark(spec, net, OracleConfig(), params)


def test_report_shape_and_times(small_report):
    _, _, report = small_report
    assert report.problem == "rosenbrock-1c"
    assert report.mac_count == 480
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.t_fwd_ns > 0.0
        assert row.t_oracle_ns > 0.0
        assert not row.oracle_failed


def test_gap_nonnegative_when_both_feasible(small_report):
    spec, _, report = small_report
    for row in report.rows:
        if row.viol_dnn <= FEAS_TOL_STRICT and not row.oracle_failed:
            assert row.gap >= -1e-6


def test_aggregates_recomputable_from_rows(small_report):
    _, _, report = small_report
    a = report.aggregates
    b = aggregate_rows(report.rows, report.mac_count)
    assert a == b
    assert a.defined and a.row_count == 6 and a.failure_count == 0
    assert 0.0 <= a.feasible_frac_strict <= a.feasible_frac_loose <= 1.0
    gaps = sorted(r.gap for r in report.rows)
    assert a.median_gap == float(np.median(gaps))
    assert a.speedup > 1.0


def test_csv_round_trip_exact(small_report):
    _, _, report = small_report
    text = emit_csv(report)
    assert parse_csv(text) == report
    assert "# problem=rosenbrock-1c" in text
    assert "# mac_count=480" in text
    assert text.splitlines()[0].startswith("c1,c2,x_dnn1,x_dnn2,x_oracle1,x_oracle2,")


def test_empty_report_flags_undefined():
    empty = BenchReport(problem="rosenbrock-1c", mac_count=480, rows=())
    a = empty.aggregates
    assert not a.defined
    assert a.row_count == 0
    assert np.isnan(a.median_gap)
    assert parse_csv(emit_csv(empty)) == empty


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
    params = ParamSet(values=np.zeros((3, 4)), seed=0)
    report = run_benchmark(spec, net, OracleConfig(starts=0), params)
    a = report.aggregates
    assert a.failure_count == 3
    assert np.isnan(a.median_gap)
    assert np.isnan(a.speedup)
    assert 0.0 <= a.feasible_frac_loose <= 1.0  # still defined from the DNN side
    for row in report.rows:
        assert row.oracle_failed
        assert np.all(np.isnan(row.x_oracle))
    # NaN-bearing rows survive the round trip
    assert parse_csv(emit_csv(report)) == report


def test_parse_rejects_malformed_input():
    with pytest.raises(BenchFormatError):
        parse_csv("")
    with pytest.raises(BenchFormatError):
        parse_csv("a,b,c\n1,2,3\n")  # no aggregate comments
    good = emit_csv(BenchReport(problem="rosenbrock-1c", mac_count=480, rows=()))
    header = good.splitlines()[0]
    with pytest.raises(BenchFormatError):
        parse_csv(good.replace(header, header + ",extra"))
    row_bad = header + "\n" + ",".join(["x"] * len(header.split(","))) + "\n# problem=rosenbrock-1c\n# mac_count=480\n"
    with pytest.raises(BenchFormatError):
        parse_csv(row_bad)
    short_row = header + "\n1.0,2.0\n# problem=rosenbrock-1c\n# mac_count=480\n"
    with pytest.raises(BenchFormatError):
        parse_csv(short_row)


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
    _, net, _ = rosenbrock_model
    repro = table_repro("rosenbrock-1c", net)
    assert repro.banner is None
    assert [r.params for r in repro.rows] == [(1.0, 1.0), (5.0, 0.1), (25.0, 0.3)]
    text = repro.text()
    assert "x_baseline" in text and "viol_dnn" in text
    csv = repro.csv()
    assert csv.splitlines()[0].startswith("c1,c2,x_baseline1")


def test_table_repro_infeasible_banner(rosenbrock_model):
    # model trained on -1c has the right shape for -3c; only the banner and
    # violation columns are under test here
    _, net, _ = rosenbrock_model
    repro = table_repro("rosenbrock-3c", net)
    assert repro.banner is not None
    assert all(r.viol_oracle > 0.0 and r.viol_dnn > 0.0 for r in repro.rows)
    assert repro.banner in repro.text()
    assert repro.banner in repro.csv()


def test_table_repro_unknown_problem(rosenbrock_model):
    _, net, _ = rosenbrock_model
    with pytest.raises(UnsupportedError):
        table_repro("sphere", net)


@pytest.mark.parametrize("name", problem_names())
def test_bench_and_table_take_the_net_side_from_evaluate(name):
    spec = make_problem(name)
    net = init_mlp(spec.default_net_shape, seed=0)
    params = sample_params(spec, 3, seed=5)
    report = run_benchmark(spec, net, OracleConfig(), params)
    for row, r in zip(report.rows, evaluate(net, spec, params), strict=True):
        assert np.array_equal(row.params, r.params)
        assert np.array_equal(row.x_dnn, r.x)
        assert row.f0_dnn == r.objective
        assert row.viol_dnn == np.maximum(r.max_ineq_violation, r.max_eq_violation)

    cases = ParamSet(values=np.array([c.params for c in TABLE_CASES[name]]), seed=0)
    repro = table_repro(name, net)
    for row, r in zip(repro.rows, evaluate(net, spec, cases), strict=True):
        assert np.array_equal(row.x_dnn, r.x)
        assert row.viol_dnn == np.maximum(r.max_ineq_violation, r.max_eq_violation)


def test_bench_and_table_reject_a_mismatched_net():
    spec = make_problem("rosenbrock-1c")
    net = init_mlp((2, 4, 1), seed=0)
    with pytest.raises(DimensionError):
        run_benchmark(spec, net, OracleConfig(), sample_params(spec, 2, seed=0))
    with pytest.raises(DimensionError):
        table_repro("rosenbrock-1c", net)
