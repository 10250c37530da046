"""Closed-loop recommender-user dynamics on social networks.

Stochastic simulation of the recommend/feedback/update loop, its linearized
matrix dynamics with closed-form fixed points, echo-chamber and
homogenization metrics, and four mitigation strategies.
"""

from .catalog import (
    ItemCatalog,
    ModelParams,
    SocialGraph,
    UserStates,
    build_social_graph,
    init_user_random,
    normalize_columns,
)
from .dynamics import (
    StepLog,
    StrategyHooks,
    StreamSplitter,
    Trajectory,
    run,
    sample_without_replacement,
    simulate_step,
)
from .experiment import (
    ExperimentConfig,
    RunSummary,
    SyntheticSpec,
    compare_runs,
    export_states,
    generate_synthetic,
    ingest_interactions,
    ingest_trust,
    run_experiment,
    sweep,
)
from .metrics import (
    MetricsRecord,
    MetricSettings,
    compute_metrics_record,
    dispersions,
    nd,
    rce,
    ts_at_k,
)
from .mitigation import (
    MitigationConfig,
    adaptive_alpha,
    build_hooks,
)
from .theory import (
    ConvergenceReport,
    OperatorSet,
    build_operators,
    convergence_margin,
    expected_entropy_series,
    fixed_point,
    homogenization_condition,
    infinity_norm_bound,
    linearized_expected_update,
    matrix_step,
    steady_homogenization_check,
)

__version__ = "0.1.0"
