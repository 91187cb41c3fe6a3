"""Quality-diversity optimization with a scheduled pool of heterogeneous
emitters, plus closed-form benchmark tasks and run tooling."""

from qdpool.archive import (
    AddResult,
    AddStatus,
    Archive,
    Elite,
    EmptyArchiveError,
    GridSpec,
    cell_index,
    cell_indices,
)
from qdpool.cmaes import CmaesParams, CmaesState
from qdpool.emitters import (
    EMITTER_CLASSES,
    Emitter,
    EmitterKind,
    ImprovementEmitter,
    OptimisingEmitter,
    RandomDirectionEmitter,
    RandomEmitter,
)
from qdpool.engine import (
    VARIANT_NAMES,
    Engine,
    RunConfig,
    RunResult,
    build_pool,
    run,
    run_many,
    variant_composition,
)
from qdpool.metrics import (
    GenerationRecord,
    InsufficientDataError,
    holm_adjust,
    qd_score,
    rank_sum_compare,
    snapshot,
)
from qdpool.scheduler import BanditStats, UcbScheduler, UniformScheduler
from qdpool.tasks import TASK_NAMES, TaskSpec, evaluate_batch, make_task

__all__ = [
    "AddResult",
    "AddStatus",
    "Archive",
    "BanditStats",
    "CmaesParams",
    "CmaesState",
    "EMITTER_CLASSES",
    "Elite",
    "Emitter",
    "EmitterKind",
    "EmptyArchiveError",
    "Engine",
    "GenerationRecord",
    "GridSpec",
    "ImprovementEmitter",
    "InsufficientDataError",
    "OptimisingEmitter",
    "RandomDirectionEmitter",
    "RandomEmitter",
    "RunConfig",
    "RunResult",
    "TASK_NAMES",
    "TaskSpec",
    "UcbScheduler",
    "UniformScheduler",
    "VARIANT_NAMES",
    "build_pool",
    "cell_index",
    "cell_indices",
    "evaluate_batch",
    "holm_adjust",
    "make_task",
    "qd_score",
    "rank_sum_compare",
    "run",
    "run_many",
    "snapshot",
    "variant_composition",
]

__version__ = "0.1.0"
