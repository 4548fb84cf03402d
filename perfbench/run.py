"""penalearn benchmark: one command, three workloads, an optional traced run.

    python3 perfbench/run.py --workload {train,oracle,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; penalearn is imported from ./src.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
amount of work once untraced and once with every layer's public functions
wrapped, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every correctness check passed.
Detailed results (settings, per-workload metric names, spans) are written
under ./.perfbench_out.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, so that no BLAS thread pool
# competes with the benchmark's single caller for the CPUs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("train", "oracle", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: run only imports and set-up, print "ready", exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def setup_probe(args, samples: list):
    """Append the wall time from a fresh process's start to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        samples.append(perf_counter() - t0)
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")


def _number(x) -> float:
    return float(x) if math.isfinite(x) else 0.0


def run_untraced(args, wl, workdir, tally, cpus):
    """The end-to-end metrics: (metrics, workload-specific figures, notes)."""
    import harness
    import workloads

    # The set-up processes run one at a time between timed units, spread over
    # the run, so that setup_s sees the same spells of load as the run; back
    # to back, they all fell in one spell and the run medians spread by 0.46.
    setup_samples = []
    cpus.between(lambda: setup_probe(args, setup_samples), SETUP_PROBES,
                 args.seconds / SETUP_PROBES)
    state = wl.setup(args.seed, workdir)
    result = wl.run(state, args.seconds, wl.MEASURED, tally, cpus)
    cpus.finish_between()
    values = dict(result.e2e)
    values["setup_s"] = harness.median(setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": _number(values[name]), "unit": unit}
               for name, unit in workloads.E2E_UNITS.items()}
    notes = result.notes + [
        "setup_s: median of %d fresh processes: %s"
        % (len(setup_samples), ", ".join(f"{s:.3f}" for s in setup_samples))]
    return metrics, result.named, notes


def run_traced(args, wl, workdir, tally, cpus, spans_path):
    """Per-layer metrics and tracing overhead from a fixed amount of work."""
    import layers
    import workloads
    from tracing import Tracer

    tracer = Tracer(layers.targets())
    with tracer:
        state = wl.setup(args.seed, workdir)
    plain = wl.run(state, 0, wl.TRACED, tally, cpus)
    with tracer:
        traced = wl.run(state, 0, wl.TRACED, tally, cpus)
    tracer.dump(spans_path)
    metrics = {name: {"value": _number(v), "unit": layers.layer_unit(name)}
               for name, v in layers.layer_metrics(tracer.spans, traced.solve_failed).items()}
    named = []
    for key in workloads.OVERHEAD_KEYS:
        unit = workloads.E2E_UNITS[key]
        diff = traced.e2e[key] - plain.e2e[key]
        metrics[f"trace_overhead.{key}"] = {"value": _number(diff), "unit": unit}
        named.append((f"untraced.{key}", plain.e2e[key], unit, ""))
        named.append((f"traced.{key}", traced.e2e[key], unit, ""))
    notes = ["traced pass: " + n for n in traced.notes]
    notes.append(f"{len(tracer.spans)} spans -> {spans_path}")
    return metrics, named, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "penalearn" / "__init__.py").is_file():
        print(f"perfbench: no penalearn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_probe:
            wl.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0

        settings = harness.run_settings(ROOT, args.workload, args.seed, args.seconds,
                                        args.trace)
        print("# settings " + json.dumps(settings))
        tally = workloads.Tally()
        cpus = harness.Cpus()
        try:
            if args.trace == 0:
                metrics, named, notes = run_untraced(args, wl, workdir, tally, cpus)
            else:
                metrics, named, notes = run_traced(args, wl, workdir, tally, cpus,
                                                   OUT / f"{tag}-spans.jsonl")
        finally:
            cpus.release()
        notes.append(f"waited {cpus.waited_s:.2f} s in total for a quiet CPU")

    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# checks: attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_frac {fail_frac:.6g}")
    for reason in tally.reasons:
        print(f"# failure: {reason}")
    for note in notes:
        print(f"# {note}")
    for name, value, unit, generic in named:
        print(f"{args.workload}.{name} = {value:.6g} {unit}"
              + (f"  (reported as {generic})" if generic else ""))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    correct = tally.failed == 0 and tally.attempted > 0
    summary = {"correct": correct, "attempted": max(tally.attempted, 1),
               "failed": tally.failed, "metrics": metrics}
    record = dict(summary, settings=settings, fail_frac=fail_frac, notes=notes,
                  failures=tally.reasons,
                  named={n: {"value": _number(v), "unit": u} for n, v, u, _ in named})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
