"""Benchmark harness: trained forward pass vs per-instance oracle solves.

Produces one row per parameter vector (network output, oracle output,
objective gap, worst violation, timings) plus aggregate statistics, and
reproduces the bundled reference instances whose interior-point baseline
solutions are known.  The network's columns are ``training.evaluate``'s
values, the same ones ``penalearn eval`` writes: one timed batch-1 forward
per row, then one scoring pass.  Reports serialize to CSV with aggregates
in a trailing ``#`` comment block; ``parse_csv(emit_csv(r))`` reconstructs
``r`` exactly (timing columns included, since they are data once measured).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BenchFormatError, OracleError, UnsupportedError
from .nn import Mlp, mac_count
from .oracle import OracleConfig, solve
from .problems import ProblemSpec, make_problem
from .training import evaluate

FEAS_TOL_LOOSE = 0.1
FEAS_TOL_STRICT = 1e-3


def _float_eq(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@dataclass(frozen=True, eq=False)
class BenchRow:
    """One benchmark instance; oracle columns are NaN when the solve failed."""

    params: np.ndarray
    x_dnn: np.ndarray
    x_oracle: np.ndarray
    f0_dnn: float
    f0_oracle: float
    gap: float
    viol_dnn: float
    t_fwd_ns: float
    t_oracle_ns: float

    @property
    def oracle_failed(self) -> bool:
        return not np.isfinite(self.t_oracle_ns)

    def __eq__(self, other):
        if not isinstance(other, BenchRow):
            return NotImplemented
        return (
            np.array_equal(self.params, other.params, equal_nan=True)
            and np.array_equal(self.x_dnn, other.x_dnn, equal_nan=True)
            and np.array_equal(self.x_oracle, other.x_oracle, equal_nan=True)
            and _float_eq(self.f0_dnn, other.f0_dnn)
            and _float_eq(self.f0_oracle, other.f0_oracle)
            and _float_eq(self.gap, other.gap)
            and _float_eq(self.viol_dnn, other.viol_dnn)
            and _float_eq(self.t_fwd_ns, other.t_fwd_ns)
            and _float_eq(self.t_oracle_ns, other.t_oracle_ns)
        )


@dataclass(frozen=True)
class BenchAggregates:
    """Summary statistics; ``defined`` is False for an empty report."""

    defined: bool
    row_count: int
    failure_count: int
    median_gap: float
    p95_gap: float
    feasible_frac_loose: float
    feasible_frac_strict: float
    median_t_fwd_ns: float
    median_t_oracle_ns: float
    speedup: float
    mac_count: int


@dataclass(frozen=True, eq=False)
class BenchReport:
    problem: str
    mac_count: int
    rows: tuple[BenchRow, ...]

    @property
    def aggregates(self) -> BenchAggregates:
        return aggregate_rows(self.rows, self.mac_count)

    def __eq__(self, other):
        if not isinstance(other, BenchReport):
            return NotImplemented
        return (
            self.problem == other.problem
            and self.mac_count == other.mac_count
            and len(self.rows) == len(other.rows)
            and all(a == b for a, b in zip(self.rows, other.rows))
        )


def aggregate_rows(rows, macs: int) -> BenchAggregates:
    """Recompute every aggregate from the rows alone."""
    n = len(rows)
    if n == 0:
        nan = float("nan")
        return BenchAggregates(False, 0, 0, nan, nan, nan, nan, nan, nan, nan, macs)
    ok = [r for r in rows if not r.oracle_failed]
    failures = n - len(ok)
    viol = np.array([r.viol_dnn for r in rows])
    fwd = np.array([r.t_fwd_ns for r in rows])
    if ok:
        gaps = np.array([r.gap for r in ok])
        oracle_t = np.array([r.t_oracle_ns for r in ok])
        median_gap = float(np.median(gaps))
        p95_gap = float(np.percentile(gaps, 95))
        median_oracle = float(np.median(oracle_t))
        speedup = median_oracle / float(np.median(fwd))
    else:
        median_gap = p95_gap = median_oracle = speedup = float("nan")
    return BenchAggregates(
        defined=True,
        row_count=n,
        failure_count=failures,
        median_gap=median_gap,
        p95_gap=p95_gap,
        feasible_frac_loose=float(np.mean(viol <= FEAS_TOL_LOOSE)),
        feasible_frac_strict=float(np.mean(viol <= FEAS_TOL_STRICT)),
        median_t_fwd_ns=float(np.median(fwd)),
        median_t_oracle_ns=median_oracle,
        speedup=speedup,
        mac_count=macs,
    )


def run_benchmark(
    spec: ProblemSpec,
    net: Mlp,
    oracle_cfg: OracleConfig,
    P: np.ndarray,
) -> BenchReport:
    """Score the net against the oracle on every row of ``P``.

    The net's side of each row is ``evaluate``'s report for it: ``x_dnn``,
    ``f0_dnn``, ``viol_dnn`` (the worse of its two worst violations) and
    ``t_fwd_ns`` from one timed batch-1 forward, the same values
    ``penalearn eval`` writes.  Each row's oracle side is one ``solve``,
    and ``t_oracle_ns`` is that solve's own clock, ``solve_time_s``.  An
    ``OracleError`` flags the row (NaN oracle columns) rather than aborting
    the run; a net that does not match the problem raises ``DimensionError``.
    """
    k = spec.decision_dim
    rows = []
    for r in evaluate(net, spec, P):
        try:
            sol = solve(spec, r.params, oracle_cfg)
            x_oracle, f0_oracle, t_oracle = sol.x, sol.objective, sol.solve_time_s * 1e9
        except OracleError:
            x_oracle, f0_oracle, t_oracle = np.full(k, np.nan), float("nan"), float("nan")
        rows.append(
            BenchRow(
                params=r.params,
                x_dnn=r.x,
                x_oracle=x_oracle,
                f0_dnn=r.objective,
                f0_oracle=f0_oracle,
                gap=r.objective - f0_oracle,
                viol_dnn=float(np.maximum(r.max_ineq_violation, r.max_eq_violation)),
                t_fwd_ns=r.forward_time_s * 1e9,
                t_oracle_ns=t_oracle,
            )
        )
    return BenchReport(problem=spec.name, mac_count=mac_count(net.layer_sizes), rows=tuple(rows))


# ---------------------------------------------------------------------------
# CSV serialization


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def emit_csv(report: BenchReport) -> str:
    """Rows first, then aggregates as ``#``-prefixed trailing comments."""
    if report.rows:
        d = report.rows[0].params.size
        k = report.rows[0].x_dnn.size
    else:
        spec = make_problem(report.problem)
        d, k = spec.param_dim, spec.decision_dim
    header = (
        [f"c{i + 1}" for i in range(d)]
        + [f"x_dnn{i + 1}" for i in range(k)]
        + [f"x_oracle{i + 1}" for i in range(k)]
        + ["f0_dnn", "f0_oracle", "gap", "viol_dnn", "t_fwd_ns", "t_oracle_ns"]
    )
    lines = [",".join(header)]
    for r in report.rows:
        cells = (
            [_fmt(v) for v in r.params]
            + [_fmt(v) for v in r.x_dnn]
            + [_fmt(v) for v in r.x_oracle]
            + [_fmt(r.f0_dnn), _fmt(r.f0_oracle), _fmt(r.gap), _fmt(r.viol_dnn),
               _fmt(r.t_fwd_ns), _fmt(r.t_oracle_ns)]
        )
        lines.append(",".join(cells))
    a = report.aggregates
    lines.append(f"# problem={report.problem}")
    lines.append(f"# mac_count={report.mac_count}")
    lines.append(f"# rows={a.row_count} failures={a.failure_count} defined={int(a.defined)}")
    lines.append(f"# median_gap={_fmt(a.median_gap)} p95_gap={_fmt(a.p95_gap)}")
    lines.append(
        f"# feasible_frac_at_0.1={_fmt(a.feasible_frac_loose)} "
        f"feasible_frac_at_1e-3={_fmt(a.feasible_frac_strict)}"
    )
    lines.append(
        f"# median_t_fwd_ns={_fmt(a.median_t_fwd_ns)} "
        f"median_t_oracle_ns={_fmt(a.median_t_oracle_ns)} speedup={_fmt(a.speedup)}"
    )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> BenchReport:
    """Inverse of emit_csv; aggregates are recomputed, not trusted."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchFormatError("empty benchmark CSV")
    meta = {}
    for ln in lines:
        if ln.startswith("#"):
            for token in ln[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
    if "problem" not in meta or "mac_count" not in meta:
        raise BenchFormatError("missing problem/mac_count in aggregate comments")

    header = lines[0].split(",")
    d = sum(1 for h in header if h.startswith("c"))
    k = sum(1 for h in header if h.startswith("x_dnn"))
    expected = d + 2 * k + 6
    if len(header) != expected or k == 0:
        raise BenchFormatError(f"unrecognized header layout: {lines[0]!r}")

    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        cells = ln.split(",")
        if len(cells) != expected:
            raise BenchFormatError(f"row has {len(cells)} cells, expected {expected}: {ln!r}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise BenchFormatError(f"non-numeric cell in row {ln!r}") from exc
        rows.append(
            BenchRow(
                params=np.array(vals[:d]),
                x_dnn=np.array(vals[d:d + k]),
                x_oracle=np.array(vals[d + k:d + 2 * k]),
                f0_dnn=vals[-6],
                f0_oracle=vals[-5],
                gap=vals[-4],
                viol_dnn=vals[-3],
                t_fwd_ns=vals[-2],
                t_oracle_ns=vals[-1],
            )
        )
    return BenchReport(problem=meta["problem"], mac_count=int(meta["mac_count"]), rows=tuple(rows))


# ---------------------------------------------------------------------------
# reference-instance comparison tables


@dataclass(frozen=True)
class TableCase:
    """A fixed parameter vector, optionally with the published baseline solution."""

    params: tuple[float, ...]
    baseline_x: Optional[tuple[float, ...]]


# Interior-point baseline solutions for the bundled reference instances.
# The -3c variants have no baseline: their feasible sets are empty.
TABLE_CASES: dict[str, tuple[TableCase, ...]] = {
    "rosenbrock-1c": (
        TableCase((1.0, 1.0), (0.8082, 0.5889)),
        TableCase((5.0, 0.1), (0.1000, 0.0100)),
        TableCase((25.0, 0.3), (0.3000, 0.0900)),
    ),
    "rosenbrock-3c": (
        TableCase((1.0, 1.0), None),
        TableCase((5.0, 0.1), None),
        TableCase((25.0, 0.3), None),
    ),
    "ackley-1c": (
        TableCase((20.0, 0.2, 0.05, 0.05, 20.0), (5.8e-12, 1.2e-12)),
        TableCase((20.0, 0.2, 0.5, 0.5, 20.0), (1.7e-11, 3.5e-11)),
        TableCase((20.0, 0.05, 0.5, 0.5, 20.0), (1e-11, 1.2e-11)),
    ),
    "ackley-3c": (
        TableCase((20.0, 0.2, 0.05, 0.05, 20.0), None),
        TableCase((20.0, 0.2, 0.5, 0.5, 20.0), None),
        TableCase((20.0, 0.05, 0.5, 0.5, 20.0), None),
    ),
}

INFEASIBLE_BANNER = (
    "warning: this problem's constraint set is contradictory (no feasible "
    "points exist); violation columns cannot reach zero"
)


@dataclass(frozen=True)
class TableRow:
    params: tuple[float, ...]
    x_baseline: Optional[tuple[float, ...]]
    x_oracle: np.ndarray
    x_dnn: np.ndarray
    viol_oracle: float
    viol_dnn: float


@dataclass(frozen=True)
class TableRepro:
    problem: str
    rows: tuple[TableRow, ...]
    banner: Optional[str]

    def text(self) -> str:
        """Aligned plain-text rendering."""

        def vec(v) -> str:
            if v is None:
                return "-"
            return "(" + ", ".join(f"{float(c):.4f}" for c in v) + ")"

        headers = ["params", "x_baseline", "x_oracle", "x_dnn", "viol_oracle", "viol_dnn"]
        body = [
            [
                vec(r.params),
                vec(r.x_baseline),
                vec(r.x_oracle),
                vec(r.x_dnn),
                f"{r.viol_oracle:.3e}",
                f"{r.viol_dnn:.3e}",
            ]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
        lines = [f"problem: {self.problem}"]
        if self.banner:
            lines.append(self.banner)
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        d = len(self.rows[0].params)
        k = self.rows[0].x_dnn.size
        header = (
            [f"c{i + 1}" for i in range(d)]
            + [f"x_baseline{i + 1}" for i in range(k)]
            + [f"x_oracle{i + 1}" for i in range(k)]
            + [f"x_dnn{i + 1}" for i in range(k)]
            + ["viol_oracle", "viol_dnn"]
        )
        lines = [",".join(header)]
        for r in self.rows:
            base = r.x_baseline if r.x_baseline is not None else (float("nan"),) * k
            cells = (
                [_fmt(v) for v in r.params]
                + [_fmt(v) for v in base]
                + [_fmt(v) for v in r.x_oracle]
                + [_fmt(v) for v in r.x_dnn]
                + [_fmt(r.viol_oracle), _fmt(r.viol_dnn)]
            )
            lines.append(",".join(cells))
        if self.banner:
            lines.append(f"# {self.banner}")
        return "\n".join(lines) + "\n"


def table_repro(
    spec_name: str, net: Mlp, oracle_cfg: OracleConfig = OracleConfig()
) -> TableRepro:
    """Side-by-side comparison on the fixed reference parameter sets.

    ``x_dnn`` and ``viol_dnn`` are ``evaluate``'s values for each case, as in
    ``run_benchmark``; a net that does not match the problem raises
    ``DimensionError``.
    """
    if spec_name not in TABLE_CASES:
        raise UnsupportedError(
            f"no reference table for {spec_name!r}; have {sorted(TABLE_CASES)}"
        )
    spec = make_problem(spec_name)
    cases = TABLE_CASES[spec_name]
    rows = []
    for case, r in zip(cases, evaluate(net, spec, np.array([case.params for case in cases]))):
        sol = solve(spec, r.params, oracle_cfg)
        rows.append(
            TableRow(
                params=case.params,
                x_baseline=case.baseline_x,
                x_oracle=sol.x,
                x_dnn=r.x,
                viol_oracle=sol.max_violation,
                viol_dnn=float(np.maximum(r.max_ineq_violation, r.max_eq_violation)),
            )
        )
    banner = INFEASIBLE_BANNER if spec.known_infeasible else None
    return TableRepro(problem=spec_name, rows=tuple(rows), banner=banner)
