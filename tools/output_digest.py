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
``method`` are hashed; a ``.certified`` line beside each of these sets
hashes which answers ``solve`` certified, so a change in how often it falls
back to its random starts shows, and a ``.evals`` line hashes how many
``loss_terms_batch`` calls each solve made, so a change in how much a solve
evaluates shows even where its answers keep their bits (see
``counted_answers``; the three rosenbrock-1c reference cases of ``table``
get such a line too).  The grid point wins every ackley-1c solve
there, so the descent is also hashed on its own: on 5 instances per problem,
``_descend_batch`` runs from the starts ``solve`` builds, and the raw bytes
of its ``x``, ``ok`` and residuals are hashed (see ``descent_bytes``).  A
``.alone`` line beside each of these hashes the same descents with every
start descended in a call of its own, the one-row descents ``solve`` runs
from its grid start; where the rows keep their bits alone it reads as the
batch line does.
``grid_scan``'s answers are hashed as ``solve``'s are, on 50 sampled
instances of each problem and on rosenbrock-1c at (c1, c2) = (1e308, 1),
where the objective overflows on part of the disk, and at (1, 1e200), where
it overflows everywhere and the scan ranks every grid point by objective +
penalty (see ``grid_bytes``).  The CSVs show a net's outputs only as
17-digit text, so the raw bytes of ``mlp_forward``'s outputs from each
trained model are hashed too, on 4096 sampled parameter rows: one row at a
time for the first 100, 100 rows in one call, and all 4096 in one call (see
``forward_bytes``).  No registry problem has an equality, so two specs of
this file's own carry them: an equality alone and two inequalities beside
two equalities (see ``EQUALITY_SPECS``).  On each, ``loss_terms_batch``'s
records, ``solve``'s answers and evaluation counts and ``grid_scan``'s
answers are hashed (see ``equality_bytes``).  Then the descents are hashed,
in a batch and alone, on the 10 rosenbrock-1c instances with c2 in
[0.88, 1], whose line searches halve the most (see ``defect_band``), and,
alone, on 5 instances of each equality spec.  Last, ``loss_terms_batch``'s
records at 1, 3 and 17 rows of each registry problem, strict and unchecked
with a shift, at boundary points, signed zeros, NaN and +-inf, and the
penalty of hand-built residual blocks that hold the same edges, under the
default ``PenaltyConfig``, gamma 1 and 3 and the indicator (see
``edge_loss_bytes``).  One ``<sha256 prefix> <artifact>`` line per output,
163 in all.

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

from penalearn import oracle  # noqa: E402
from penalearn.bench import TABLE_CASES  # noqa: E402
from penalearn.cli import main  # noqa: E402
from penalearn.nn import load_model, mlp_forward  # noqa: E402
from penalearn.oracle import OracleConfig, _descend_batch, grid_scan, solve  # noqa: E402
from penalearn.penalty import ConstraintEval, PenaltyConfig, loss_terms_batch  # noqa: E402
from penalearn.problems import (Constraint, ProblemSpec, make_problem, problem_names,  # noqa: E402
                                sample_params)

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


def answers(spec, params, oracle_fn=solve) -> list:
    """``oracle_fn``'s answer on each parameter row."""
    return [oracle_fn(spec, p) for p in params]


def counted_answers(spec, params):
    """``solve``'s answer on each parameter row, and the raw bits of the
    number of ``loss_terms_batch`` calls each made (int64, one per row).

    The calls are counted by a wrapper set on ``penalearn.oracle`` for the
    duration, the name the oracle evaluates through; the program is not
    changed.
    """
    evaluator, calls, counts = oracle.loss_terms_batch, [0], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluator(*args, **kwargs)

    oracle.loss_terms_batch = counted
    try:
        solutions = []
        for p in params:
            calls[0] = 0
            solutions.append(solve(spec, p))
            counts.append(calls[0])
    finally:
        oracle.loss_terms_batch = evaluator
    return solutions, np.array(counts, dtype=np.int64).tobytes()


def solution_bytes(solutions) -> bytes:
    """The raw bits of each answer's ``x``, objective, worst violation and
    method, concatenated."""
    return b"".join(b"".join([s.x.tobytes(), np.float64(s.objective).tobytes(),
                              np.float64(s.max_violation).tobytes(), s.method.encode()])
                    for s in solutions)


def certified_bytes(solutions) -> bytes:
    """One byte per ``solve`` answer: 1 where it is certified, else 0."""
    return bytes(s.certified for s in solutions)


def grid_bytes():
    """Yield (artifact name, raw bits of ``grid_scan``'s answers) per problem,
    then for the two rosenbrock-1c overflow cases."""
    for name in problem_names():
        spec = make_problem(name)
        yield (f"{name}.grid-x{SOLVES}",
               solution_bytes(answers(spec, sample_params(spec, SOLVES, 0), grid_scan)))
    yield ("rosenbrock-1c.grid-overflow", solution_bytes(answers(
        make_problem("rosenbrock-1c"), [[1e308, 1.0], [1.0, 1e200]], grid_scan)))


def descent_bytes(spec, params, cfg=OracleConfig(), alone=False) -> bytes:
    """Raw bits of three descents from ``solve``'s starts on each row.

    The first stage at zero shift; the second from its end points, at the
    shift ``solve`` carries into it (``max(0, r)`` for an inequality, ``r``
    for an equality); and one from the starts at a fixed shift in [0, 30),
    which makes every family's penalty active, ackley-1c's disk included.
    With ``alone``, each start descends in a ``_descend_batch`` call of its
    own and the rows' outputs are concatenated, so where rows are
    independent the bytes are those of the one batch.  Floating-point
    warnings are silenced, as ``solve`` silences them.
    """
    k, n_ineq = spec.decision_dim, len(spec.inequalities)
    # the oracle's box, [-6, 6] in every dimension
    lows, highs = np.full(k, -6.0), np.full(k, 6.0)

    def descend(p, X, shift):
        if not alone:
            return _descend_batch(spec, p, X, shift, cfg)
        rows = [_descend_batch(spec, p, X[i:i + 1], shift[i:i + 1], cfg)
                for i in range(X.shape[0])]
        return tuple(np.concatenate(a) for a in zip(*rows))

    out = []
    for p in params:
        rng = np.random.default_rng(cfg.seed)
        X = np.stack([lows + (highs - lows) * rng.random(k) for _ in range(cfg.starts)]
                     + [grid_scan(spec, p, cfg).x])
        zero = np.zeros((X.shape[0], n_ineq + len(spec.equalities)))
        fixed = np.random.default_rng(1).uniform(0.0, 30.0, zero.shape)
        with np.errstate(all="ignore"):
            first = descend(p, X, zero)
            carried = first[2].copy()
            carried[:, :n_ineq] = np.maximum(0.0, carried[:, :n_ineq])
            runs = (first, descend(p, first[0], carried), descend(p, X, fixed))
        for run in runs:
            out += [a.tobytes() for a in run]
    return b"".join(out)


def _distance2(x, p, grad=True):
    """|x - c|^2, with c = p."""
    d = x - p
    return (d * d).sum(axis=1), (2.0 * d if grad else None)


def _line(x, p, grad=True):
    return x[:, 0] + x[:, 1], (np.ones_like(x) if grad else None)


def _parabola(x, p, grad=True):
    g = np.stack([np.ones(len(x)), -2.0 * x[:, 1]], axis=1) if grad else None
    return x[:, 0] - x[:, 1] * x[:, 1], g


def _disk(x, p, grad=True):
    return (x * x).sum(axis=1), (2.0 * x if grad else None)


def _second(x, p, grad=True):
    g = np.stack([np.zeros(len(x)), np.ones(len(x))], axis=1) if grad else None
    return x[:, 1].copy(), g


def _equality_spec(name, inequalities, equalities):
    return ProblemSpec(name=name, decision_dim=2, param_dim=2, objective=_distance2,
                       inequalities=inequalities, equalities=equalities,
                       param_ranges=((-2.0, 2.0), (-2.0, 2.0)))


# min |x - c|^2 s.t. x1 + x2 = 1; then x.x <= 4 and x2 <= 1.5 beside x1 + x2 = 1
# and x1 = x2^2, whose one common point is ((3 - sqrt 5) / 2, (sqrt 5 - 1) / 2)
EQUALITY_SPECS = (
    (_equality_spec("line", (), (Constraint(_line, 1.0),)), 50),
    (_equality_spec("two-and-two", (Constraint(_disk, 4.0), Constraint(_second, 1.5)),
                    (Constraint(_line, 1.0), Constraint(_parabola, 0.0))), 20),
)
LOSS_ROWS = 200
LOSS_CONFIGS = (PenaltyConfig(), PenaltyConfig(eta=1e2, gamma=1.5),
                PenaltyConfig(mode="indicator"))


def equality_bytes():
    """Yield (artifact name, raw bits) for each spec of ``EQUALITY_SPECS``.

    ``loss_terms_batch`` runs on 200 rows under each of ``LOSS_CONFIGS``,
    once strict and once unchecked with a shift in [-1, 1); its loss,
    objective, penalty, gradient and violations (at ``eq_tolerance`` 0 and
    1e-2) are hashed.  ``solve``'s answers are hashed on the number of
    sampled instances the spec is listed with, and then, after both specs,
    ``grid_scan``'s on the same instances: no grid point meets an equality,
    so these scans rank every point by objective + penalty.
    """
    for spec, solves in EQUALITY_SPECS:
        rng = np.random.default_rng(11)
        X = rng.uniform(-3.0, 3.0, (LOSS_ROWS, 2))
        P = sample_params(spec, LOSS_ROWS, 4)
        shift = rng.uniform(-1.0, 1.0, (LOSS_ROWS, len(spec.inequalities + spec.equalities)))
        out = []
        for cfg in LOSS_CONFIGS:
            for terms in (loss_terms_batch(X, P, spec, cfg),
                          loss_terms_batch(X, P, spec, cfg, strict=False, shift=shift)):
                out += [a.tobytes() for a in (terms.loss, terms.objective, terms.penalty,
                                              terms.grad)]
                for tolerance in (0.0, 1e-2):
                    out += [a.tobytes() for a in terms.constraints.violations(tolerance)]
        yield f"{spec.name}.loss-terms-x{LOSS_ROWS}", b"".join(out)
        solutions, evals = counted_answers(spec, sample_params(spec, solves, 3))
        yield f"{spec.name}.solve-x{solves}", solution_bytes(solutions)
        yield f"{spec.name}.solve-x{solves}.evals", evals
    for spec, solves in EQUALITY_SPECS:
        yield (f"{spec.name}.grid-x{solves}",
               solution_bytes(answers(spec, sample_params(spec, solves, 3), grid_scan)))


EDGE_ROWS = (1, 3, 17)
EDGE_CONFIGS = (PenaltyConfig(), PenaltyConfig(gamma=1.0), PenaltyConfig(gamma=3.0),
                PenaltyConfig(mode="indicator"))
# points on a registry boundary (residual 0.0: the unit disk at (1, 0) and
# (0.6, -0.8), ackley's disk at (3, 4), x1 = -2.5 and x2 = -1) and at signed
# zeros, where the objective gradients have -0.0 components; then points that
# make the residuals or the objective NaN or +-inf
FINITE_EDGES = ((-0.0, -0.0), (1.0, 0.0), (0.0, -0.0), (3.0, 4.0), (-2.5, -1.0), (0.6, -0.8))
NONFINITE_EDGES = ((np.nan, 0.5), (np.inf, 0.0), (-np.inf, 1.0), (0.5, -np.inf), (0.0, np.nan))
# residuals of a hand-built block, laid out row after row across its columns
EDGE_RESIDUALS = (-0.0, 0.0, np.nan, np.inf, -np.inf, 0.5, -0.5, -np.nan, 2.0, -3.0)


def _edge_rows(rng, rows, edges):
    """``rows`` points in [-3, 3)^2 whose first rows are ``edges``, in order."""
    X = rng.uniform(-3.0, 3.0, (rows, 2))
    used = min(rows, len(edges))
    X[:used] = edges[:used]
    return X


def _terms_bytes(terms):
    """The raw bits of a ``LossTerms`` record: loss, objective, penalty, grad
    (when computed), the residual block and its ``violations()``."""
    arrays = [terms.loss, terms.objective, terms.penalty, terms.constraints.values,
              *terms.constraints.violations()]
    if terms.grad is not None:
        arrays.append(terms.grad)
    return b"".join(a.tobytes() for a in arrays)


def edge_loss_bytes():
    """Yield (artifact name, raw bits) of ``loss_terms_batch`` at edge points.

    For each registry problem and each row count of ``EDGE_ROWS``: strict
    records at finite points that start with ``FINITE_EDGES``, and unchecked
    records, with and without gradients, at points that alternate the
    non-finite and the finite edges, under a shift that makes a third of
    the shifted residuals exactly 0.0 (NaN where the residual is not finite)
    and a third -0.0 shifts.  Then ``ConstraintEval.penalty`` of
    hand-built blocks of the problem's column count, all inequalities, all
    equalities and (with 3 columns) one inequality, whose residuals cycle
    through ``EDGE_RESIDUALS``, against an objective gradient with -0.0
    components, without and with the shift.  Each under every
    ``EDGE_CONFIGS``, with numpy's floating-point warnings silenced where
    the values are not finite.
    """
    mixed = tuple(e for pair in zip(NONFINITE_EDGES, FINITE_EDGES) for e in pair)
    mixed += FINITE_EDGES[len(NONFINITE_EDGES):]
    for name in problem_names():
        spec = make_problem(name)
        m = len(spec.inequalities + spec.equalities)
        for rows in EDGE_ROWS:
            rng = np.random.default_rng(rows)
            P = sample_params(spec, rows, 5)
            X = _edge_rows(rng, rows, FINITE_EDGES)
            Xn = _edge_rows(rng, rows, mixed)
            shift = rng.uniform(-1.0, 1.0, (rows, m))
            with np.errstate(all="ignore"):
                shift[::3] = -spec.constraint_eval(Xn, P, grad=False).values[::3]
            shift[1::3] = -0.0
            V = np.resize(np.array(EDGE_RESIDUALS), (rows, m))
            G = rng.standard_normal((rows, m, 2))
            G[rng.random(G.shape) < 0.3] = -0.0
            g0 = rng.standard_normal((rows, 2))
            g0[::2, 0] = -0.0
            out = []
            for cfg in EDGE_CONFIGS:
                out.append(_terms_bytes(loss_terms_batch(X, P, spec, cfg)))
                for grad in (True, False):
                    out.append(_terms_bytes(loss_terms_batch(Xn, P, spec, cfg, strict=False,
                                                             shift=shift, grad=grad)))
                for n_ineq in sorted({m, 0, min(m, 1)}):
                    ce = ConstraintEval(V, G, n_ineq)
                    with np.errstate(all="ignore"):
                        for s in (None, shift):
                            penalty, grad = ce.penalty(cfg, s, g0)
                            out += [penalty.tobytes(), grad.tobytes()]
                        out += [a.tobytes() for a in ce.violations()]
            yield f"{name}.loss-terms-edges-x{rows}", b"".join(out)


def forward_bytes(net, params, batch_size) -> bytes:
    """Raw bits of ``mlp_forward`` on ``params`` in calls of ``batch_size`` rows.

    Batch 1 covers the first 100 rows, one call each; a larger batch is one
    call on the first ``batch_size`` rows.
    """
    if batch_size == 1:
        return b"".join(mlp_forward(net, p[None, :])[0].tobytes() for p in params[:100])
    return mlp_forward(net, params[:batch_size])[0].tobytes()


def defect_band():
    """rosenbrock-1c and 10 sampled instances with c2 in [0.88, 1]."""
    spec = make_problem("rosenbrock-1c")
    params = sample_params(spec, 10, 0)
    params[:, 1] = np.linspace(0.88, 1.0, 10)
    return spec, params


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
        solutions, evals = counted_answers(spec, sample_params(spec, SOLVES, 0))
        yield f"{name}.solve-x{SOLVES}", solution_bytes(solutions)
        yield f"{name}.solve-x{SOLVES}.certified", certified_bytes(solutions)
        yield f"{name}.solve-x{SOLVES}.evals", evals
    band_spec, band = defect_band()
    solutions, evals = counted_answers(band_spec, band)
    yield "rosenbrock-1c.solve-c2-0.88-1", solution_bytes(solutions)
    yield "rosenbrock-1c.solve-c2-0.88-1.certified", certified_bytes(solutions)
    yield "rosenbrock-1c.solve-c2-0.88-1.evals", evals
    yield ("rosenbrock-1c.solve-reference.evals",
           counted_answers(make_problem("rosenbrock-1c"),
                           [case.params for case in TABLE_CASES["rosenbrock-1c"]])[1])
    yield from grid_bytes()
    for name in problem_names():
        spec = make_problem(name)
        params = sample_params(spec, DESCENTS, 0)
        yield f"{name}.descent-x{DESCENTS}", descent_bytes(spec, params)
        yield f"{name}.descent-x{DESCENTS}.alone", descent_bytes(spec, params, alone=True)
    yield from equality_bytes()
    yield "rosenbrock-1c.descent-c2-0.88-1", descent_bytes(band_spec, band)
    yield "rosenbrock-1c.descent-c2-0.88-1.alone", descent_bytes(band_spec, band, alone=True)
    for spec, _ in EQUALITY_SPECS:
        yield (f"{spec.name}.descent-x{DESCENTS}.alone",
               descent_bytes(spec, sample_params(spec, DESCENTS, 3), alone=True))
    yield from edge_loss_bytes()


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
