"""Benchmark harness: trained forward pass vs per-instance oracle solves.

Produces one ``BenchReport`` of columns, one row per parameter vector
(network output, oracle output, objective gap, worst violations, timings),
plus aggregate statistics, and reproduces the bundled reference instances
whose interior-point baseline solutions are known.  The network's columns
are ``training.evaluate``'s values, the same ones ``penalearn eval`` writes:
one timed batch-1 forward per row, then one scoring pass.  ``emit_csv``
writes a report as CSV with the aggregates in a trailing ``#`` comment block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OracleError, UnsupportedError
from .nn import Mlp, mac_count
from .oracle import OracleConfig, solve
from .problems import ProblemSpec
from .training import columns, csv_text, evaluate

FEAS_TOL_LOOSE = 0.1
FEAS_TOL_STRICT = 1e-3


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
    """One benchmark run as columns, one row per parameter vector.

    ``params`` (n, d), ``x_dnn`` and ``x_oracle`` (n, k), and ``f0_dnn``,
    ``f0_oracle``, ``viol_dnn``, ``viol_oracle``, ``t_fwd_ns`` and
    ``t_oracle_ns``, each (n,); a row whose solve failed holds NaN in every
    oracle column.  ``layer_sizes`` are the scored net's.
    ``eq=False``: a generated ``__eq__`` would compare arrays and raise."""

    problem: str
    layer_sizes: tuple[int, ...]
    params: np.ndarray
    x_dnn: np.ndarray
    x_oracle: np.ndarray
    f0_dnn: np.ndarray
    f0_oracle: np.ndarray
    viol_dnn: np.ndarray
    viol_oracle: np.ndarray
    t_fwd_ns: np.ndarray
    t_oracle_ns: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return self.f0_dnn - self.f0_oracle

    @property
    def mac_count(self) -> int:
        return mac_count(self.layer_sizes)

    @property
    def aggregates(self) -> BenchAggregates:
        """Every aggregate, computed from the columns alone."""
        macs, n = self.mac_count, len(self.params)
        if n == 0:
            nan = float("nan")
            return BenchAggregates(False, 0, 0, nan, nan, nan, nan, nan, nan, nan, macs)
        ok = np.isfinite(self.t_oracle_ns)
        viol, fwd = self.viol_dnn, self.t_fwd_ns
        if ok.any():
            gaps = self.gap[ok]
            median_gap = float(np.median(gaps))
            p95_gap = float(np.percentile(gaps, 95))
            median_oracle = float(np.median(self.t_oracle_ns[ok]))
            speedup = median_oracle / float(np.median(fwd))
        else:
            median_gap = p95_gap = median_oracle = speedup = float("nan")
        return BenchAggregates(
            defined=True,
            row_count=n,
            failure_count=n - int(ok.sum()),
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

    The net's columns are one ``evaluate`` report: ``x_dnn``, ``f0_dnn``,
    ``viol_dnn`` (the worse of the two worst violations) and ``t_fwd_ns``
    from one timed batch-1 forward per row, the same values ``penalearn
    eval`` writes.  Each row's oracle side is one ``solve``: ``x_oracle``,
    ``f0_oracle``, ``viol_oracle`` (its ``max_violation``) and
    ``t_oracle_ns``, that solve's own clock, ``solve_time_s``.  An
    ``OracleError`` leaves the row's oracle columns NaN rather than aborting
    the run; a net that does not match the problem raises ``DimensionError``,
    and ``evaluate``'s ``ConfigError`` names a ``spec`` or ``net`` of the
    wrong type.
    """
    r = evaluate(net, spec, P)
    n, k = r.x.shape
    x_oracle = np.full((n, k), np.nan)
    f0_oracle, viol_oracle, t_oracle = (np.full(n, np.nan) for _ in range(3))
    for i in range(n):
        try:
            sol = solve(spec, r.params[i], oracle_cfg)
        except OracleError:
            continue
        x_oracle[i], f0_oracle[i] = sol.x, sol.objective
        viol_oracle[i], t_oracle[i] = sol.max_violation, sol.solve_time_s * 1e9
    return BenchReport(
        problem=spec.name, layer_sizes=tuple(net.layer_sizes), params=r.params,
        x_dnn=r.x, x_oracle=x_oracle, f0_dnn=r.objective, f0_oracle=f0_oracle,
        viol_dnn=np.maximum(r.max_ineq_violation, r.max_eq_violation),
        viol_oracle=viol_oracle, t_fwd_ns=r.forward_time_s * 1e9, t_oracle_ns=t_oracle,
    )


# ---------------------------------------------------------------------------
# CSV serialization


def emit_csv(report: BenchReport) -> str:
    """Rows first, then aggregates as ``#``-prefixed trailing comments."""
    d, k = report.layer_sizes[0], report.layer_sizes[-1]
    header = (columns("c", d) + columns("x_dnn", k) + columns("x_oracle", k)
              + ["f0_dnn", "f0_oracle", "gap", "viol_dnn", "t_fwd_ns", "t_oracle_ns"])
    r = report
    rows = np.column_stack((r.params, r.x_dnn, r.x_oracle, r.f0_dnn, r.f0_oracle, r.gap,
                            r.viol_dnn, r.t_fwd_ns, r.t_oracle_ns)).tolist()
    a = report.aggregates
    return csv_text(header, rows, comments=(
        {"problem": report.problem},
        {"mac_count": report.mac_count},
        {"rows": a.row_count, "failures": a.failure_count, "defined": a.defined},
        {"median_gap": a.median_gap, "p95_gap": a.p95_gap},
        {"feasible_frac_at_0.1": a.feasible_frac_loose,
         "feasible_frac_at_1e-3": a.feasible_frac_strict},
        {"median_t_fwd_ns": a.median_t_fwd_ns, "median_t_oracle_ns": a.median_t_oracle_ns,
         "speedup": a.speedup},
    ))


# ---------------------------------------------------------------------------
# reference-instance comparison tables


@dataclass(frozen=True)
class TableCase:
    """A fixed parameter vector, optionally with the published baseline solution."""

    params: tuple[float, ...]
    baseline_x: Optional[tuple[float, ...]]


# Each landscape's reference parameter sets, with the interior-point baseline
# solution of its one-constraint problem.  The -3c variants take the same
# parameter sets with no baseline: their feasible sets are empty.
_REFERENCE = {
    "rosenbrock": (((1.0, 1.0), (0.8082, 0.5889)),
                   ((5.0, 0.1), (0.1000, 0.0100)),
                   ((25.0, 0.3), (0.3000, 0.0900))),
    "ackley": (((20.0, 0.2, 0.05, 0.05, 20.0), (5.8e-12, 1.2e-12)),
               ((20.0, 0.2, 0.5, 0.5, 20.0), (1.7e-11, 3.5e-11)),
               ((20.0, 0.05, 0.5, 0.5, 20.0), (1e-11, 1.2e-11))),
}
TABLE_CASES: dict[str, tuple[TableCase, ...]] = {
    f"{landscape}-{n}c": tuple(TableCase(p, x if n == 1 else None) for p, x in cases)
    for landscape, cases in _REFERENCE.items() for n in (1, 3)
}

INFEASIBLE_BANNER = (
    "warning: this problem's constraint set is contradictory (no feasible "
    "points exist); violation columns cannot reach zero"
)


@dataclass(frozen=True)
class TableRepro:
    """``run_benchmark``'s report on a problem's reference cases, with each
    case's published baseline solution (``None`` where there is none)."""

    report: BenchReport
    baselines: tuple[Optional[tuple[float, ...]], ...]
    banner: Optional[str]

    def text(self) -> str:
        """Aligned plain-text rendering."""

        def vec(v) -> str:
            if v is None:
                return "-"
            return "(" + ", ".join(f"{float(c):.4f}" for c in v) + ")"

        r = self.report
        headers = ["params", "x_baseline", "x_oracle", "x_dnn", "viol_oracle", "viol_dnn"]
        body = [
            [vec(p), vec(b), vec(xo), vec(xd), f"{vo:.3e}", f"{vd:.3e}"]
            for p, b, xo, xd, vo, vd in zip(r.params, self.baselines, r.x_oracle, r.x_dnn,
                                             r.viol_oracle, r.viol_dnn)
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
        lines = [f"problem: {r.problem}"]
        if self.banner:
            lines.append(self.banner)
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        r = self.report
        d, k = r.layer_sizes[0], r.layer_sizes[-1]
        header = (columns("c", d) + columns("x_baseline", k) + columns("x_oracle", k)
                  + columns("x_dnn", k) + ["viol_oracle", "viol_dnn"])
        baselines = np.array([b or (float("nan"),) * k for b in self.baselines])
        rows = np.column_stack((r.params, baselines, r.x_oracle, r.x_dnn, r.viol_oracle,
                                r.viol_dnn)).tolist()
        return csv_text(header, rows, comments=[self.banner] if self.banner else ())


def table_repro(spec: ProblemSpec, net: Mlp,
                oracle_cfg: OracleConfig = OracleConfig()) -> TableRepro:
    """Side-by-side comparison on the fixed reference parameter sets:
    ``run_benchmark`` on ``TABLE_CASES[spec.name]``, so a net that does not
    match the problem raises ``DimensionError`` and a failed solve reads NaN.
    """
    if spec.name not in TABLE_CASES:
        raise UnsupportedError(f"no reference table for {spec.name!r}; have {sorted(TABLE_CASES)}")
    cases = TABLE_CASES[spec.name]
    report = run_benchmark(spec, net, oracle_cfg, np.array([c.params for c in cases]))
    return TableRepro(report=report, baselines=tuple(c.baseline_x for c in cases),
                      banner=INFEASIBLE_BANNER if spec.known_infeasible else None)
