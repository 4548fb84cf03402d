"""Print a SHA-256 prefix of every deterministic output the CLI writes.

Runs ``penalearn`` in process, in a temporary directory: ``train`` (60
epochs), ``eval`` (20 rows), ``bench`` (3 rows) and ``table`` on all four
problems at seeds 0, 1 and 7, plus ``oracle`` on 20 sampled instances each of
rosenbrock-1c and ackley-1c.  Timing values (``elapsed_s``, ``t_fwd_ns``,
``t_oracle_ns``, ``median_t_*``, ``speedup`` and ``time_s``) are dropped
before hashing; everything else, model files included, is hashed as written.
The ``oracle`` lines print ``%.10g``, so ``solve`` is also called in process,
on 50 sampled instances of each problem and on 10 rosenbrock-1c instances
with c2 in [0.88, 1] (constraint active, the most line-search halvings), and
the raw bytes of each solution's ``x``, ``objective``, ``max_violation`` and
``method`` are hashed.  The grid point wins every ackley-1c solve there, so
the descent is also hashed on its own: on 5 instances per problem,
``_descend_batch`` runs from the starts ``solve`` builds, and the raw bytes
of its ``x``, ``ok`` and residuals are hashed (see ``descent_bytes``).  The
CSVs show a net's outputs only as 17-digit text, so the raw bytes of
``mlp_forward``'s outputs from each trained model are hashed too, on 4096
sampled parameter rows: one row at a time for the first 100, 100 rows in one
call, and all 4096 in one call (see ``forward_bytes``).  One
``<sha256 prefix> <artifact>`` line per output.

A refactor that should not change results runs this on the parent commit and
on the change and diffs the two outputs.  Run from a checkout's root:

    PYTHONPATH=src python3 tools/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

# one BLAS thread: the thread count may change how a matrix product rounds
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from penalearn.cli import main  # noqa: E402
from penalearn.nn import load_model, mlp_forward  # noqa: E402
from penalearn.oracle import OracleConfig, _descend_batch, grid_scan, solve  # noqa: E402
from penalearn.problems import make_problem, problem_names, sample_params  # noqa: E402

SEEDS = (0, 1, 7)
ORACLE_PROBLEMS = ("rosenbrock-1c", "ackley-1c")
SOLVES = 50
DESCENTS = 5
FORWARD_BATCHES = (1, 100, 4096)
TIMING = {"elapsed_s", "t_fwd_ns", "t_oracle_ns", "median_t_fwd_ns",
          "median_t_oracle_ns", "speedup", "time_s"}


def drop_timing(text: str) -> str:
    """Remove timing CSV columns (named in the header) and ``key=value`` tokens."""
    out, drop = [], set()
    for i, line in enumerate(text.splitlines()):
        if line.startswith("#") or "=" in line:
            out.append(" ".join(t for t in line.split(" ")
                                if t.partition("=")[0] not in TIMING))
            continue
        cells = line.split(",")
        if i == 0:
            drop = {j for j, c in enumerate(cells) if c in TIMING}
        out.append(",".join(c for j, c in enumerate(cells) if j not in drop))
    return "\n".join(out) + "\n"


def run(argv) -> str:
    """``penalearn argv`` in process; its stdout, or SystemExit on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"penalearn {' '.join(map(str, argv))} exited {status}")
    return buf.getvalue()


def solution_bytes(spec, params) -> bytes:
    """The raw bits of ``solve``'s answer on each parameter row, concatenated."""
    out = []
    for p in params:
        s = solve(spec, p)
        out += [s.x.tobytes(), np.float64(s.objective).tobytes(),
                np.float64(s.max_violation).tobytes(), s.method.encode()]
    return b"".join(out)


def descent_bytes(spec, params, cfg=OracleConfig()) -> bytes:
    """Raw bits of three descents from ``solve``'s starts on each row.

    The first stage at zero shift; the second from its end points, at the
    shift ``solve`` carries into it (``max(0, r)``: the registry has
    inequalities only); and one from the starts at a fixed shift in [0, 30),
    which makes every family's penalty active, ackley-1c's disk included.
    """
    k = spec.decision_dim
    # the oracle's box, [-6, 6] in every dimension
    lows, highs = np.full(k, -6.0), np.full(k, 6.0)
    out = []
    for p in params:
        rng = np.random.default_rng(cfg.seed)
        X = np.stack([lows + (highs - lows) * rng.random(k) for _ in range(cfg.starts)]
                     + [grid_scan(spec, p, cfg).x])
        zero = np.zeros((X.shape[0], len(spec.inequalities)))
        fixed = np.random.default_rng(1).uniform(0.0, 30.0, zero.shape)
        first = _descend_batch(spec, p, X, zero, cfg)
        for run in (first, _descend_batch(spec, p, first[0], np.maximum(0.0, first[2]), cfg),
                    _descend_batch(spec, p, X, fixed, cfg)):
            out += [a.tobytes() for a in run]
    return b"".join(out)


def forward_bytes(net, params, batch_size) -> bytes:
    """Raw bits of ``mlp_forward`` on ``params`` in calls of ``batch_size`` rows.

    Batch 1 covers the first 100 rows, one call each; a larger batch is one
    call on the first ``batch_size`` rows.
    """
    if batch_size == 1:
        return b"".join(mlp_forward(net, p[None, :])[0].tobytes() for p in params[:100])
    return mlp_forward(net, params[:batch_size])[0].tobytes()


def outputs():
    """Yield (artifact name, bytes to hash), in a fixed order."""
    for name in problem_names():
        forward_params = sample_params(make_problem(name), 4096, 0)
        for seed in SEEDS:
            stem = f"{name}-s{seed}"
            common = ["--problem", name, "--seed", seed]
            run(["train", *common, "--epochs", 60, "--out", f"{stem}.model"])
            run(["eval", *common, "--model", f"{stem}.model", "--count", 20,
                 "--out", f"{stem}.eval.csv"])
            run(["bench", *common, "--model", f"{stem}.model", "--count", 3,
                 "--out", f"{stem}.bench.csv"])
            table = run(["table", *common, "--model", f"{stem}.model",
                         "--out", f"{stem}.table.csv"])
            with open(f"{stem}.model", "rb") as fh:
                yield f"{stem}.model", fh.read()
            net = load_model(f"{stem}.model")
            for size in FORWARD_BATCHES:
                yield f"{stem}.forward-b{size}", forward_bytes(net, forward_params, size)
            for suffix in (".trainlog.csv", ".eval.csv", ".bench.csv", ".table.csv"):
                with open(stem + suffix) as fh:
                    yield stem + suffix, drop_timing(fh.read()).encode()
            yield f"{stem}.table.txt", table.encode()
    for name in ORACLE_PROBLEMS:
        lines = [
            run(["oracle", "--problem", name,
                 "--params=" + ",".join(repr(float(v)) for v in p)])
            for p in sample_params(make_problem(name), 20, 0)
        ]
        yield f"{name}.oracle.txt", drop_timing("".join(lines)).encode()
    for name in problem_names():
        spec = make_problem(name)
        params = sample_params(spec, SOLVES, 0)
        yield f"{name}.solve-x{SOLVES}", solution_bytes(spec, params)
    spec = make_problem("rosenbrock-1c")
    params = sample_params(spec, 10, 0)
    params[:, 1] = np.linspace(0.88, 1.0, 10)
    yield "rosenbrock-1c.solve-c2-0.88-1", solution_bytes(spec, params)
    for name in problem_names():
        spec = make_problem(name)
        params = sample_params(spec, DESCENTS, 0)
        yield f"{name}.descent-x{DESCENTS}", descent_bytes(spec, params)


def digest_lines():
    """Generate the outputs in a temporary directory; one line per artifact."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="penalearn-digest-") as tmp:
        os.chdir(tmp)
        try:
            for artifact, data in outputs():
                yield f"{hashlib.sha256(data).hexdigest()[:12]} {artifact}"
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for line in digest_lines():
        print(line, flush=True)
