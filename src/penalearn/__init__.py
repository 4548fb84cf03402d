"""Learn-to-optimize engine for constrained continuous problems.

Trains a small dense network, without labels, to map problem parameters to
near-optimal solutions; constraints are enforced through piecewise feasibility
penalties added to the loss.  A per-instance numerical oracle (grid scan plus
multi-start penalized descent) scores the trained forward pass.
"""

from .errors import (
    BenchFormatError,
    ConfigError,
    DimensionError,
    ModelFormatError,
    ModelVersionError,
    NonFiniteError,
    OracleError,
    PenalearnError,
    RegistryError,
    TraceError,
    TrainingDivergedError,
    UnsupportedError,
    UsageError,
)
from .nn import (
    AdamState,
    ForwardTrace,
    Mlp,
    adam_step,
    init_mlp,
    load_model,
    mac_count,
    mlp_backward,
    mlp_forward,
    save_model,
)
from .bench import (
    BenchAggregates,
    BenchReport,
    BenchRow,
    TableRepro,
    aggregate_rows,
    emit_csv,
    parse_csv,
    run_benchmark,
    table_repro,
)
from .oracle import OracleConfig, OracleSolution, grid_scan, solve
from .penalty import (
    ConstraintEval,
    LossTerms,
    PenaltyConfig,
    eq_penalty,
    ineq_penalty,
    loss_terms_batch,
    violation_report,
    violation_report_batch,
)
from .problems import (
    Constraint,
    ProblemSpec,
    make_problem,
    problem_names,
    sample_params,
)
from .training import (
    EvalReport,
    TrainConfig,
    eval_reports_csv,
    TrainLog,
    TrainLogEntry,
    evaluate,
    train,
)

__version__ = "0.1.0"
