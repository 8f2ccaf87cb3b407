"""Structure learning of DAGs from count data with a known topological ordering."""

from .bench import (
    AggregateResult,
    Experiment,
    LearnerSpec,
    RunResult,
    experiment_from_dict,
    pool_results,
    run,
    table_report,
)
from .data import CountMatrix, InvalidData, counts_from_csv, counts_to_csv, outlier_filter
from .glm import GlmFit, SingularInformation, fit, wald
from .graphs import (
    CycleError,
    Dag,
    GraphError,
    Ordering,
    RecoveryMetrics,
    compare,
    complete_dag,
    is_consistent,
)
from .learn import LearnConfig, alpha_schedule, or_lpgm, or_ppgm
from .scores import ScoreConfig, node_score, pk2
from .simulate import (
    RowRejectionLimit,
    SimConfig,
    WeightedDag,
    gen_graph,
    gen_weights,
    make_rng,
    sample_data,
    simulate,
)

__all__ = [
    "AggregateResult",
    "CountMatrix",
    "CycleError",
    "Dag",
    "Experiment",
    "GlmFit",
    "GraphError",
    "InvalidData",
    "LearnConfig",
    "LearnerSpec",
    "Ordering",
    "RecoveryMetrics",
    "RowRejectionLimit",
    "RunResult",
    "ScoreConfig",
    "SimConfig",
    "SingularInformation",
    "WeightedDag",
    "alpha_schedule",
    "compare",
    "complete_dag",
    "counts_from_csv",
    "counts_to_csv",
    "experiment_from_dict",
    "fit",
    "gen_graph",
    "gen_weights",
    "is_consistent",
    "make_rng",
    "node_score",
    "or_lpgm",
    "or_ppgm",
    "outlier_filter",
    "pk2",
    "pool_results",
    "run",
    "sample_data",
    "simulate",
    "table_report",
    "wald",
]
