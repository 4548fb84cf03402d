"""Benchmark a trained net against the oracle and write the CSV report.

Shows the speed/accuracy report: per-instance rows (net answer, oracle
answer, objective gap, violation, timings) plus aggregate lines, written as
CSV with every float at 17 significant digits.  Runs in about 20 seconds.
"""

import os

from penalearn import (
    OracleConfig,
    TrainConfig,
    emit_csv,
    make_problem,
    run_benchmark,
    sample_params,
    train,
)

OUT_DIR = "demo_output"


def main():
    spec = make_problem("rosenbrock-1c")
    print("training a small run (1500 epochs)...", flush=True)
    net, log = train(spec, TrainConfig(epochs=1500, seed=0))
    print(f"feasible fraction after training: {log.final().feasible_frac:.3f}\n")

    params = sample_params(spec, 8, seed=7)
    report = run_benchmark(spec, net, OracleConfig(), params)
    a = report.aggregates
    print(f"instances: {a.row_count}, oracle failures: {a.failure_count}")
    print(f"median objective gap: {a.median_gap:.4g}   p95: {a.p95_gap:.4g}")
    print(f"feasible: {a.feasible_frac_loose:.0%} @0.1, {a.feasible_frac_strict:.0%} @1e-3")
    print(f"median forward: {a.median_t_fwd_ns / 1e3:.1f} us, "
          f"median oracle: {a.median_t_oracle_ns / 1e6:.1f} ms")
    print(f"speedup: {a.speedup:.0f}x at {a.mac_count} MACs per evaluation\n")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "rosenbrock-1c.bench.csv")
    text = emit_csv(report)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"report -> {path}, ending in its aggregate lines:")
    for line in text.splitlines():
        if line.startswith("#"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
