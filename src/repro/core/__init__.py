"""Core modeling layer: the paper's primary contribution.

Import order matters only in that :mod:`features` is the leaf the data
layer also reaches for; everything else layers on top of it.
"""

from repro.core.features import (
    ID_FEATURE,
    EncodedItems,
    FeatureKind,
    FeatureSet,
    FeatureSpec,
)
from repro.core.distributions import Categorical, Gamma, LogNormal, Poisson
from repro.core.dp import PathResult, best_monotone_path, path_log_likelihood
from repro.core.dp_batch import batch_assign, batch_viterbi
from repro.core.model import ScoreTableCache, SkillModel, SkillParameters, TrainingTrace
from repro.core.engine import AssignmentEngine
from repro.core.parallel import (
    ParallelConfig,
    PoolAssigner,
    RecoveringPool,
    WorkerPoolWarning,
    assign_paths,
    make_cell_fitter,
)
from repro.core.checkpoint import (
    CheckpointConfig,
    TrainingCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.training import (
    Trainer,
    TrainerConfig,
    fit_skill_model,
    resume_fit,
    uniform_segment_levels,
)
from repro.core.shard import ShardedFitResult, ShardPool
from repro.core.baselines import fit_id_baseline, fit_uniform_baseline, id_feature_set
from repro.core.difficulty import (
    PRIOR_EMPIRICAL,
    PRIOR_UNIFORM,
    assignment_difficulty,
    difficulty_array,
    generation_difficulty,
)
from repro.core.selection import SkillCountResult, held_out_log_likelihood, select_skill_count
from repro.core.soft_em import SoftEMConfig, fit_soft_em, forward_backward
from repro.core.forgetting import ForgettingConfig, best_decay_path, fit_forgetting_model
from repro.core.satisfaction import (
    SatisfactionConfig,
    fit_satisfaction_model,
    rating_satisfaction,
)
from repro.core.serialize import artifact_metadata, load_model, save_model
from repro.core.incremental import extend_model

__all__ = [
    "ID_FEATURE",
    "EncodedItems",
    "FeatureKind",
    "FeatureSet",
    "FeatureSpec",
    "Categorical",
    "Gamma",
    "LogNormal",
    "Poisson",
    "PathResult",
    "best_monotone_path",
    "path_log_likelihood",
    "batch_assign",
    "batch_viterbi",
    "AssignmentEngine",
    "ScoreTableCache",
    "SkillModel",
    "SkillParameters",
    "TrainingTrace",
    "ParallelConfig",
    "PoolAssigner",
    "RecoveringPool",
    "WorkerPoolWarning",
    "assign_paths",
    "make_cell_fitter",
    "ShardedFitResult",
    "ShardPool",
    "CheckpointConfig",
    "TrainingCheckpoint",
    "read_checkpoint",
    "write_checkpoint",
    "Trainer",
    "TrainerConfig",
    "fit_skill_model",
    "resume_fit",
    "uniform_segment_levels",
    "fit_id_baseline",
    "fit_uniform_baseline",
    "id_feature_set",
    "PRIOR_EMPIRICAL",
    "PRIOR_UNIFORM",
    "assignment_difficulty",
    "difficulty_array",
    "generation_difficulty",
    "SkillCountResult",
    "held_out_log_likelihood",
    "select_skill_count",
    "SoftEMConfig",
    "fit_soft_em",
    "forward_backward",
    "ForgettingConfig",
    "best_decay_path",
    "fit_forgetting_model",
    "SatisfactionConfig",
    "fit_satisfaction_model",
    "rating_satisfaction",
    "artifact_metadata",
    "load_model",
    "save_model",
    "extend_model",
]
