"""The three workloads: ``train``, ``oracle`` and ``serve``.

Each is a closed loop: one caller in one process, every call starting after
the previous one returned.  A workload has ``setup(seed, workdir)`` (all work
``setup_s`` charges for) and ``run(state, seconds, counts, tally, cpus)``,
which repeats its operations until ``seconds`` have passed and every count
in ``counts`` is reached; with ``seconds=0`` it does exactly ``counts``,
which is how the traced run fixes its amount of work.  ``cpus`` keeps the
process on the quieter CPU (see ``harness.Cpus``).

Timed work is grouped in windows (see ``harness.Windows``).  The end-to-end
metrics use the fastest tenth of the windows (for ``oracle``, the fastest of
three solves of every instance); the workload-specific names printed beside
them (``solve_p50_ms`` and so on) use every window.  Why each workload
exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from penalearn import cli, nn, oracle, problems, training
from penalearn.bench import TABLE_CASES
from penalearn.errors import OracleError, PenalearnError

from harness import Cpus, Latency, Windows, median

# Generic end-to-end metric names (BENCHMARK.json) and their units.  Every
# workload fills every one; README.md maps them to the per-workload names.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "cli_rows_per_s": "1/s",
    "feasible_frac": "frac",
}
# The end-to-end metrics the traced run compares with an untraced pass.
OVERHEAD_KEYS = ("latency_p50_ms", "throughput_per_s", "cli_rows_per_s")


class Tally:
    """Checked operations and failures; keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "", count: int = 1, failed: int = None):
        """Count ``count`` operations, of which ``failed`` (default: all if not ok) failed."""
        failed = (0 if ok else count) if failed is None else failed
        self.attempted += count
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(reason)
        return not failed


class Result(NamedTuple):
    e2e: dict  # generic end-to-end name -> value (setup_s and peak_rss_mb excluded)
    named: list  # (workload-specific name, value, unit, generic name or "")
    notes: list  # free-form lines, e.g. the tail percentile's sample count
    solve_failed: int = 0


def tail_name(prefix: str, lat: Latency, suffix: str) -> str:
    pct = "tail" if lat.tail_pct is None else f"p{lat.tail_pct:g}"
    return f"{prefix}_{pct}_{suffix}"


def cli_main(argv) -> tuple[int, str]:
    """Run ``penalearn <argv>`` in process; returns the exit code and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def param_bytes(net) -> bytes:
    return b"".join(a.tobytes() for a in net.weights + net.biases)


def stratified_grids(ranges, seed: int, size: int):
    """Endless grids of ``size`` x ``size`` jittered cells over two parameter ranges.

    A grid is a list of ``size`` blocks.  Each block holds one point in every
    slice of each range (a Latin hypercube), and a whole grid holds one point
    in every cell.  The seed picks the jitter, the cell pairing and the
    block order.
    """
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = ranges
    cells = np.arange(size)
    while True:
        relabel = rng.permutation(size)
        grid = []
        for k in rng.permutation(size):
            u1 = (cells + rng.random(size)) / size
            u2 = (relabel[(cells + k) % size] + rng.random(size)) / size
            grid.append(np.stack([lo1 + (hi1 - lo1) * u1, lo2 + (hi2 - lo2) * u2], axis=1))
        yield grid


class Train:
    """``train(rosenbrock-1c, TrainConfig(seed, epochs=10))`` on the default net."""

    PROBLEM = "rosenbrock-1c"
    EPOCHS = 10
    TAIL_CAP = 90.0
    CALLS_PER_CLI = 3  # train() calls between two ``penalearn train`` calls
    MEASURED = {"calls": 300, "cli_calls": 100}
    TRACED = {"calls": 60, "cli_calls": 20}

    def setup(self, seed: int, workdir: Path):
        cfg = training.TrainConfig(seed=seed, epochs=self.EPOCHS)
        return SimpleNamespace(seed=seed, workdir=workdir, cfg=cfg, reference=None,
                               model_sha=None)

    def _train(self, st, spec, calls, feasible, tally):
        t0 = perf_counter_ns()
        try:
            net, log = training.train(spec, st.cfg)
        except PenalearnError as exc:
            tally.record(False, f"train raised {type(exc).__name__}: {exc}")
            return
        calls.add(perf_counter_ns() - t0)
        final = log.final()
        feasible.append(final.feasible_frac)
        digest = param_bytes(net)
        if st.reference is None:
            st.reference = digest
            path = st.workdir / "train.model"
            nn.save_model(net, path)
            st.model_sha = sha256_file(path)
        finite = all(math.isfinite(v) for v in (
            final.mean_loss, final.mean_objective, final.mean_penalty, final.feasible_frac))
        tally.record(finite, f"final log row is not finite: {final}")
        tally.record(digest == st.reference, "train() is not deterministic at a fixed seed")

    def _cli_train(self, st, cli_calls, tally):
        path = st.workdir / "cli.model"
        t0 = perf_counter_ns()
        rc, text = cli_main(["train", "--problem", self.PROBLEM, "--epochs", self.EPOCHS,
                             "--seed", st.seed, "--out", path])
        cli_calls.add(perf_counter_ns() - t0)
        ok = rc == 0 and st.model_sha is not None and sha256_file(path) == st.model_sha
        tally.record(ok, f"penalearn train exit {rc} or model differs from train(): {text}")

    def run(self, st, seconds, counts, tally: Tally, cpus: Cpus) -> Result:
        spec = problems.make_problem(self.PROBLEM)
        samples = st.cfg.sample_count * st.cfg.epochs
        calls = Windows(cpus)  # one train() call per window
        cli_calls = Windows(cpus)  # one penalearn train call per window
        feasible = []
        # The two kinds of call alternate over the whole run, so that both
        # see the same spells of load from other tenants.
        deadline = perf_counter() + seconds
        cycles = 0
        while (cycles * self.CALLS_PER_CLI < counts["calls"] or cycles < counts["cli_calls"]
               or perf_counter() < deadline):
            cycles += 1
            for _ in range(self.CALLS_PER_CLI):
                self._train(st, spec, calls, feasible, tally)
            self._cli_train(st, cli_calls, tally)

        fast_ms = median(calls.fastest()) / 1e6
        lat_all = Latency(np.asarray(calls.items) / 1e6, self.TAIL_CAP)
        e2e = {
            "latency_p50_ms": fast_ms,
            "throughput_per_s": samples / (fast_ms / 1e3),
            "cli_rows_per_s": samples / (median(cli_calls.fastest()) / 1e9),
            "feasible_frac": median(feasible),
        }
        named = [
            ("train_samples_per_s", samples / (lat_all.p50 / 1e3), "1/s", "throughput_per_s"),
            ("train_feasible_frac", e2e["feasible_frac"], "frac", "feasible_frac"),
            ("train_call_p50_ms", lat_all.p50, "ms", "latency_p50_ms"),
            (tail_name("train_call", lat_all, "ms"), lat_all.tail, "ms", ""),
            ("cli_train_samples_per_s", samples / (median(cli_calls.items) / 1e9), "1/s",
             "cli_rows_per_s"),
        ]
        notes = [f"train() calls of {self.EPOCHS} epochs: {lat_all.describe()}",
                 f"model_sha256 {st.model_sha}"]
        return Result(e2e, named, notes)


class Oracle:
    """``solve()`` on seeded rosenbrock-1c instances with the default OracleConfig."""

    PROBLEM = "rosenbrock-1c"
    GRID = 10  # instances per grid: GRID * GRID
    GRID_SECONDS = 10.0  # time budget per grid; a grid took 7 to 10 s when this was set
    REPEATS = 3  # solves of each instance; its time is the fastest of them
    TAIL_CAP = 90.0
    BASELINE_TOL = 1e-2
    # The amount of work is fixed by the number of grids, not by counts.
    MEASURED = TRACED = {}
    # Known oracle defect: with the default 400 descent steps per penalty
    # stage, solves with c2 above about 0.89 (constraint active, descent
    # ill-conditioned) can stop short of convergence and return
    # max_violation of 5e-6 to 3e-4, above feasible_tol; with 4000 steps
    # they converge.  The timed instances keep c2 <= C2_MAX, where no solve
    # has failed.  DEFECT_CASES come from the band above it: every run
    # solves them and prints how many end above feasible_tol, without
    # counting them as failed checks, so the defect stays in sight until
    # the oracle is fixed and C2_MAX goes back to the top of the range.
    C2_MAX = 0.86
    DEFECT_CASES = ((1.53144824, 0.90670082), (3.63833795, 0.93441975),
                    (5.92806906, 0.94266640), (4.35651982, 0.98591676))

    def setup(self, seed: int, workdir: Path):
        spec = problems.make_problem(self.PROBLEM)
        (lo1, hi1), (lo2, hi2) = spec.param_ranges
        return SimpleNamespace(seed=seed, ranges=((lo1, hi1), (lo2, min(hi2, self.C2_MAX))))

    def _defect_band(self, spec, cfg) -> tuple[int, float]:
        """(solves above feasible_tol, worst max_violation) over DEFECT_CASES."""
        viols = []
        for p in self.DEFECT_CASES:
            try:
                viols.append(oracle.solve(spec, np.array(p), cfg).max_violation)
            except OracleError:
                viols.append(math.inf)
        return sum(v > cfg.feasible_tol for v in viols), max(viols)

    def _solve(self, spec, p, cfg, cpus):
        """(milliseconds, solution or None, failure reason) of one pinned solve."""
        cpus.pin()
        t0 = perf_counter_ns()
        try:
            sol = oracle.solve(spec, p, cfg)
        except OracleError as exc:
            return (perf_counter_ns() - t0) / 1e6, None, f"solve({p}) raised {exc}"
        return (perf_counter_ns() - t0) / 1e6, sol, None

    def _solve_block(self, spec, block, cfg, first_ms, best_ms, tally, cpus) -> int:
        """Solve a block REPEATS times over; returns how many instances failed the check."""
        failed = 0
        passes = [[self._solve(spec, p, cfg, cpus) for p in block] for _ in range(self.REPEATS)]
        for i, p in enumerate(block):
            runs = [solves[i] for solves in passes]
            ms, sol, reason = runs[0]
            first_ms.append(ms)
            best_ms.append(min(r[0] for r in runs))
            if sol is not None:
                reason = f"solve({p}) max_violation {sol.max_violation:.3g}"
            ok = sol is not None and sol.max_violation <= cfg.feasible_tol
            failed += not ok
            tally.record(ok, reason)
            same = all((sol is None) == (other is None) and (
                sol is None or np.array_equal(sol.x, other.x)) for _, other, _ in runs[1:])
            tally.record(same, f"solve({p}) gave different answers")
        return failed

    def run(self, st, seconds, counts, tally: Tally, cpus: Cpus) -> Result:
        spec = problems.make_problem(self.PROBLEM)
        cfg = oracle.OracleConfig()
        grids = stratified_grids(st.ranges, st.seed, self.GRID)
        # Solve time depends on the instance so much (c2 above about 0.79
        # makes the constraint active and the descent long) that runs only
        # agree when they cover the ranges the same way: a run solves a
        # number of whole grids fixed by ``seconds`` alone, at least one.
        # Every instance of a block is solved, then every one again, REPEATS
        # times: an instance's time is the fastest of its solves, each about
        # a block apart, which sheds most slowdowns from other tenants.  All
        # solves must give the same answer.  After each block, one ``penalearn
        # oracle`` call on a reference instance, taking them in turn, so that
        # the CLI calls see the same spells of load as the solves.
        cases = TABLE_CASES[self.PROBLEM]
        cli_calls = [Windows(cpus) for _ in cases]  # one call of one case per window
        first_ms, best_ms = [], []
        failed = 0
        n_grids = max(1, int(seconds // self.GRID_SECONDS))
        for g in range(n_grids):
            for b, block in enumerate(next(grids)):
                failed += self._solve_block(spec, block, cfg, first_ms, best_ms, tally, cpus)
                k = (g * self.GRID + b) % len(cases)
                t0 = perf_counter_ns()
                rc, text = cli_main(["oracle", "--problem", self.PROBLEM, "--params",
                                     ",".join(repr(c) for c in cases[k].params)])
                cli_calls[k].add(perf_counter_ns() - t0)
                tally.record(rc == 0, f"penalearn oracle exit {rc}: {text}")

        for case in cases:
            try:
                sol = oracle.solve(spec, np.array(case.params), cfg)
            except OracleError as exc:
                tally.record(False, f"reference {case.params} raised {exc}")
                continue
            dist = float(np.linalg.norm(sol.x - np.array(case.baseline_x)))
            tally.record(dist <= self.BASELINE_TOL,
                         f"reference {case.params}: oracle {sol.x} is {dist:.3g} "
                         f"from baseline {case.baseline_x}")

        band_bad, band_worst = self._defect_band(spec, cfg)

        lat = Latency(best_ms, self.TAIL_CAP)
        lat_all = Latency(first_ms, self.TAIL_CAP)
        e2e = {
            "latency_p50_ms": lat.p50,
            "throughput_per_s": len(best_ms) / (sum(best_ms) / 1e3),
            "cli_rows_per_s": len(cases) / (sum(median(w.fastest()) for w in cli_calls) / 1e9),
            "feasible_frac": 1.0 - failed / len(best_ms),
        }
        named = [
            ("solve_p50_ms", lat_all.p50, "ms", "latency_p50_ms"),
            (tail_name("solve", lat_all, "ms"), lat_all.tail, "ms", ""),
            (tail_name(f"solve_best_of_{self.REPEATS}", lat, "ms"), lat.tail, "ms", ""),
            ("solves_per_s", len(first_ms) / (sum(first_ms) / 1e3), "1/s", "throughput_per_s"),
            ("cli_oracle_solves_per_s",
             len(cases) / (sum(median(w.items) for w in cli_calls) / 1e9), "1/s",
             "cli_rows_per_s"),
            ("solve_feasible_frac", e2e["feasible_frac"], "frac", "feasible_frac"),
            ("defect_band_infeasible_solves", band_bad, "count", ""),
        ]
        notes = [f"solve(), first solve of each instance: {lat_all.describe()}",
                 f"solve(), fastest of {self.REPEATS} solves per instance: {lat.describe()}",
                 f"instances with c2 <= {self.C2_MAX}; known oracle defect, not counted as "
                 f"failed: {band_bad} of {len(self.DEFECT_CASES)} solves with c2 above it "
                 f"end above feasible_tol (worst max_violation {band_worst:.3g})"]
        return Result(e2e, named, notes, solve_failed=failed)


class Serve:
    """Forward passes and ``penalearn eval`` on a short-trained ackley-1c net."""

    PROBLEM = "ackley-1c"
    TRAIN_SEED = 0
    TRAIN_EPOCHS = 20
    POOL = 65536
    BATCH = 4096
    B1_WINDOW = 1000  # batch-1 calls per window
    BATCH_WINDOW = 5  # batch-4096 calls per window
    EVAL_ROWS = 1000
    AGREE_RTOL = 1e-12
    TAIL_CAPS = (90.0, 99.0)
    # One cycle: B1_PER_CYCLE batch-1 windows, BATCH_PER_CYCLE batch-4096
    # windows and one penalearn eval call, about 2:2:3 in time.
    B1_PER_CYCLE = 4
    BATCH_PER_CYCLE = 8
    MEASURED = {"cycles": 20}
    TRACED = {"cycles": 8}

    def setup(self, seed: int, workdir: Path):
        spec = problems.make_problem(self.PROBLEM)
        cfg = training.TrainConfig(seed=self.TRAIN_SEED, epochs=self.TRAIN_EPOCHS)
        net, _ = training.train(spec, cfg)
        path = workdir / "serve.model"
        nn.save_model(net, path)
        loaded = nn.load_model(path)
        rng = np.random.default_rng(seed)
        lo = np.array([r[0] for r in spec.param_ranges])
        hi = np.array([r[1] for r in spec.param_ranges])
        pool = rng.uniform(lo, hi, size=(self.POOL, lo.size))
        return SimpleNamespace(seed=seed, workdir=workdir, net=loaded, model_path=path,
                               round_trip_ok=param_bytes(loaded) == param_bytes(net),
                               pool=pool)

    def _agrees(self, out, ref, trace, net) -> bool:
        """Batch rows equal batch-1 rows within AGREE_RTOL of the output's scale.

        The scale is |W| |a| + |b| of the last layer: outputs near zero come
        from cancelling terms, and rounding differences between BLAS's matrix
        and vector kernels are relative to those terms, not to the result.
        """
        n = ref.shape[0]
        hidden = trace.post_activations[-2][:n]
        scale = np.abs(hidden) @ np.abs(net.weights[-1]).T + np.abs(net.biases[-1])
        return bool(np.all(np.abs(out[:n] - ref) <= self.AGREE_RTOL * scale))

    def _b1_window(self, st, b1):
        """B1_WINDOW batch-1 forwards over the row pool.  The first pass over
        the pool stores each row's output; later passes must repeat it."""
        net, pool, outputs = st.net, st.pool, st.b1_outputs
        forward = nn.mlp_forward
        lat_ns = []
        for _ in range(self.B1_WINDOW):
            j = st.b1_calls % self.POOL
            row = pool[j:j + 1]
            t0 = perf_counter_ns()
            out, _ = forward(net, row)
            lat_ns.append(perf_counter_ns() - t0)
            if st.b1_calls < self.POOL:
                outputs[j] = out[0]
            elif not np.array_equal(out[0], outputs[j]):
                st.b1_mismatched += 1
            st.b1_calls += 1
        lat_ms = np.asarray(lat_ns) / 1e6
        tails = [Latency(lat_ms, cap) for cap in self.TAIL_CAPS]
        b1.add((tails[0].p50,) + tuple(t.tail for t in tails))
        return tails

    def _batch_window(self, st, batches, tally):
        """BATCH_WINDOW batch-4096 forwards, each checked against the batch-1
        outputs of the rows batch-1 has reached."""
        net, pool = st.net, st.pool
        forward = nn.mlp_forward
        blocks = self.POOL // self.BATCH
        reached = min(st.b1_calls, self.POOL)
        elapsed_ns = 0
        for _ in range(self.BATCH_WINDOW):
            lo = (st.batch_calls % blocks) * self.BATCH
            t0 = perf_counter_ns()
            out, trace = forward(net, pool[lo:lo + self.BATCH])
            elapsed_ns += perf_counter_ns() - t0
            ref = st.b1_outputs[lo:max(lo, min(lo + self.BATCH, reached))]
            ok = bool(np.isfinite(out).all()) and self._agrees(out, ref, trace, net)
            tally.record(ok, f"batch-{self.BATCH} rows {lo}.. disagree with batch-1 rows")
            st.batch_calls += 1
        batches.add(elapsed_ns)

    def _eval(self, st, evals, tally) -> tuple[int, int]:
        """One in-process ``penalearn eval`` call; returns (rows, rows feasible)."""
        csv_path = st.workdir / "eval.csv"
        t0 = perf_counter_ns()
        rc, text = cli_main(["eval", "--problem", self.PROBLEM, "--model", st.model_path,
                             "--count", self.EVAL_ROWS, "--seed", st.seed + len(evals.items),
                             "--out", csv_path])
        evals.add(perf_counter_ns() - t0)
        rows = feasible = 0
        if rc == 0:
            lines = csv_path.read_text().splitlines()
            col = lines[0].split(",").index("feasible")
            body = [ln.split(",") for ln in lines[1:]]
            rows = len(body)
            feasible = sum(cells[col] == "1" for cells in body)
        tally.record(rc == 0 and rows == self.EVAL_ROWS,
                     f"penalearn eval exit {rc}, {rows} of {self.EVAL_ROWS} rows: {text}")
        return rows, feasible

    def run(self, st, seconds, counts, tally: Tally, cpus: Cpus) -> Result:
        tally.record(st.round_trip_ok, "save_model/load_model changed the weights")
        st.b1_outputs = np.full((self.POOL, st.net.output_dim), np.nan)
        st.b1_calls = st.b1_mismatched = st.batch_calls = 0
        b1 = Windows(cpus)  # (p50, p90, p99) of B1_WINDOW batch-1 calls per window
        batches = Windows(cpus)  # time of BATCH_WINDOW batch-4096 calls per window
        evals = Windows(cpus)  # one penalearn eval call per window
        rows_total = feasible_total = cycles = 0
        # The three kinds of work take turns over the whole run, so that all
        # see the same spells of load from other tenants.
        deadline = perf_counter() + seconds
        while cycles < counts["cycles"] or perf_counter() < deadline:
            cycles += 1
            for _ in range(self.B1_PER_CYCLE):
                tails = self._b1_window(st, b1)
            for _ in range(self.BATCH_PER_CYCLE):
                self._batch_window(st, batches, tally)
            rows, feasible = self._eval(st, evals, tally)
            rows_total += rows
            feasible_total += feasible

        reached = st.b1_outputs[:min(st.b1_calls, self.POOL)]
        nonfinite = int((~np.isfinite(reached)).any(axis=1).sum())
        tally.record(True, count=st.b1_calls, failed=nonfinite + st.b1_mismatched,
                     reason=f"batch-1 forward: {nonfinite} non-finite rows, "
                            f"{st.b1_mismatched} rows not repeatable")
        feasible_frac = feasible_total / rows_total if rows_total else 0.0

        fast_b1 = np.asarray(b1.fastest(key=lambda w: w[0]))
        all_b1 = np.asarray(b1.items)
        window_rows = self.BATCH * self.BATCH_WINDOW
        e2e = {
            "latency_p50_ms": median(fast_b1[:, 0]),
            "throughput_per_s": window_rows / (median(batches.fastest()) / 1e9),
            "cli_rows_per_s": self.EVAL_ROWS / (median(evals.fastest()) / 1e9),
            "feasible_frac": feasible_frac,
        }
        named = [
            ("fwd_b1_p50_us", median(all_b1[:, 0]) * 1e3, "us", "latency_p50_ms"),
            ("fwd_b1_p90_us", median(all_b1[:, 1]) * 1e3, "us", ""),
            ("fwd_b1_p99_us", median(all_b1[:, 2]) * 1e3, "us", ""),
            ("fwd_rows_per_s", window_rows / (median(batches.items) / 1e9), "1/s",
             "throughput_per_s"),
            ("eval_rows_per_s", self.EVAL_ROWS / (median(evals.items) / 1e9), "1/s",
             "cli_rows_per_s"),
            ("eval_feasible_frac", feasible_frac, "frac", "feasible_frac"),
        ]
        notes = [f"batch-1 mlp_forward: {st.b1_calls} calls in {len(b1.items)} windows; each "
                 f"figure is the median over windows of each window's own figure; a "
                 f"window's tails: {tails[0].describe()}; {tails[1].describe()}",
                 f"batch-{self.BATCH} mlp_forward calls: {st.batch_calls}; penalearn eval "
                 f"calls: {len(evals.items)}; the gated figures use the fastest tenth of "
                 f"windows"]
        return Result(e2e, named, notes)


WORKLOADS = {"train": Train(), "oracle": Oracle(), "serve": Serve()}
